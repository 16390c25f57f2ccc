"""End-to-end integration tests: the paper's running examples as flows.

Example 1.1 (the introduction's house-hunting story), Example 2.3
(annotated evaluation), and full refinement sessions driven through
the public API only.
"""

from repro import (
    Corpus,
    GroundTruth,
    IFlexEngine,
    PFunction,
    Program,
    RefinementSession,
    SequentialStrategy,
    SimulatedDeveloper,
    Span,
    make_similar,
    parse_html,
)


class TestIntroductionExample:
    """Example 1.1: price > 500000 and the word "Lincoln"."""

    def make_corpus(self, n_matching=9, n_other=30):
        docs = []
        for i in range(n_matching):
            docs.append(
                parse_html(
                    "match%d" % i,
                    "<p>Grand estate. Price: <b>$%d,000</b>. "
                    "High school: Lincoln.</p>" % (510 + i),
                )
            )
        for i in range(n_other):
            docs.append(
                parse_html(
                    "other%d" % i,
                    "<p>Modest home. Price: <b>$%d,000</b>. "
                    "High school: Jefferson.</p>" % (100 + i),
                )
            )
        return Corpus({"housePages": docs})

    def test_initial_approximate_program_returns_superset(self):
        corpus = self.make_corpus()
        program = Program.parse(
            """
            houses(x, <p>) :- housePages(x), extractHouses(@x, p).
            Q(x) :- houses(x, p), p > 500000, hasLincoln(@x).
            extractHouses(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["housePages"],
            p_functions={
                "hasLincoln": PFunction(
                    "hasLincoln", lambda x: "Lincoln" in x.text
                )
            },
            query="Q",
        )
        result = IFlexEngine(program, corpus).execute()
        # exactly the nine Lincoln pages with a number above 500000
        assert result.tuple_count == 9


class TestFigure2EndToEnd:
    def test_query_result_matches_example(self, figure2_program, figure1_corpus):
        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        assert result.tuple_count == 1

    def test_reference_semantics_agree_on_houses(self):
        from repro.alog.semantics import program_possible_relations
        from repro.ctables.worlds import compact_worlds
        from repro.xlog.program import Program

        # a miniature house page keeps the exact world set enumerable
        corpus = Corpus(
            {"housePages": [parse_html("m1", "<p>Sqft 2750 price 619,000 nice</p>")]}
        )
        sub = Program.parse(
            """
            houses(x, <p>, <a>) :- housePages(x), extractHouses(@x, p, a).
            extractHouses(@x, p, a) :- from(@x, p), from(@x, a),
                numeric(p) = yes, numeric(a) = yes.
            """,
            extensional=["housePages"],
            query="houses",
        )
        exact = program_possible_relations(sub, corpus, max_worlds=500_000)
        approx = compact_worlds(
            IFlexEngine(sub, corpus).execute().query_table,
            max_worlds=500_000,
        )
        assert exact <= approx


class TestFullSessionThroughPublicAPI:
    def test_refinement_session_converges(self):
        docs, price_spans = [], []
        for i in range(20):
            price = 60 + i * 10
            doc = parse_html(
                "b%d" % i,
                "<p><b>Tome %d</b></p><p>Our Price: <b>$%d.00</b>. "
                "ISBN: 12345678%02d.</p>" % (i, price, i),
            )
            start = doc.text.index("$") + 1
            price_spans.append(Span(doc, start, start + len("%d.00" % price)))
            docs.append(doc)
        corpus = Corpus({"Books": docs})
        program = Program.parse(
            """
            books(x, <t>, <p>) :- Books(x), ie(@x, t, p).
            q(t) :- books(x, t, p), p > 100.
            ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes.
            """,
            extensional=["Books"],
            query="q",
        )
        developer = SimulatedDeveloper(GroundTruth({("ie", "p"): price_spans}))
        session = RefinementSession(
            program, corpus, developer, strategy=SequentialStrategy(), seed=0
        )
        trace = session.run()
        correct = sum(1 for i in range(20) if 60 + i * 10 > 100)
        assert trace.converged
        assert trace.final_result.tuple_count == correct

    def test_similarity_join_through_api(self):
        left = [parse_html("l0", "<p><b>Silent River</b></p>")]
        right = [
            parse_html("r0", "<p><b>Silent River</b></p>"),
            parse_html("r1", "<p><b>Crimson Empire</b></p>"),
        ]
        corpus = Corpus({"L": left, "R": right})
        program = Program.parse(
            """
            lt(x, <a>) :- L(x), ie1(@x, a).
            rt(y, <b>) :- R(y), ie2(@y, b).
            q(a, b) :- lt(x, a), rt(y, b), similar(@a, @b).
            ie1(@x, a) :- from(@x, a), bold_font(a) = distinct_yes.
            ie2(@y, b) :- from(@y, b), bold_font(b) = distinct_yes.
            """,
            extensional=["L", "R"],
            p_functions={"similar": PFunction("similar", make_similar(0.6))},
            query="q",
        )
        result = IFlexEngine(program, corpus).execute()
        assert result.tuple_count == 1
