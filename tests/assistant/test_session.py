"""End-to-end refinement session tests."""

from repro.assistant.oracle import GroundTruth, SimulatedDeveloper
from repro.assistant.session import RefinementSession, auto_subset_fraction
from repro.assistant.strategies import SequentialStrategy
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.html_parser import parse_html
from repro.text.span import Span
from repro.xlog.program import Program


def make_task(n=12):
    """A tiny books-like task: price > 100, with ISBN distractors."""
    docs, price_spans = [], []
    answers = 0
    for i in range(n):
        price = 40 + i * 20  # half the records exceed 100
        doc = parse_html(
            "b%d" % i,
            "<p><b>Book {i}</b></p><p>Our Price: ${price}.00</p>"
            "<p>ISBN: 99999{i}</p>".format(i=i, price=price),
        )
        start = doc.text.index("$") + 1
        price_spans.append(Span(doc, start, start + len("%d.00" % price)))
        if price > 100:
            answers += 1
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
    truth = GroundTruth({("ie", "p"): price_spans})
    return program, corpus, truth, answers


class TestAutoSubsetFraction:
    def test_small_corpora_run_full(self):
        corpus = Corpus({"A": [Document("a%d" % i, "x") for i in range(10)]})
        assert auto_subset_fraction(corpus) == 1.0

    def test_large_corpora_sampled(self):
        corpus = Corpus({"A": [Document("a%d" % i, "x") for i in range(1500)]})
        assert auto_subset_fraction(corpus) == 0.05


class TestSessionRun:
    def test_converges_to_correct_count(self):
        program, corpus, truth, answers = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        trace = session.run()
        assert trace.converged
        assert trace.final_result.tuple_count == answers

    def test_trace_structure(self):
        program, corpus, truth, _ = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        trace = session.run()
        assert trace.records[-1].mode == "reuse"
        assert all(r.mode == "subset" for r in trace.records[:-1])
        assert trace.iterations == len(trace.records) - 1
        assert trace.questions_asked >= trace.records[0].index

    def test_result_shrinks_monotonically_enough(self):
        program, corpus, truth, answers = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        trace = session.run()
        series = [r.tuples for r in trace.records if r.mode == "subset"]
        assert series[0] >= series[-1]

    def test_program_not_mutated(self):
        program, corpus, truth, _ = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        session.run()
        # the initial numeric constraint is all the original ever had
        assert program.constraints_on("ie", "p") == [("numeric", "yes")]
        assert len(session.program.constraints_on("ie", "p")) > 1

    def test_max_iterations_bounds_loop(self):
        program, corpus, truth, _ = make_task()
        session = RefinementSession(
            program,
            corpus,
            SimulatedDeveloper(truth),
            strategy=SequentialStrategy(),
            max_iterations=2,
            seed=0,
        )
        trace = session.run()
        assert trace.iterations <= 2

    def test_simulation_hook(self):
        program, corpus, truth, _ = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        session._execute_subset()
        score = session.simulate_refinement("ie", "p", "preceded_by", "$")
        assert score >= 0

    def test_attribute_profile(self):
        program, corpus, truth, _ = make_task()
        session = RefinementSession(
            program, corpus, SimulatedDeveloper(truth), strategy=SequentialStrategy(), seed=0
        )
        session._execute_subset()
        profile = session.attribute_profile("ie", "p")
        assert profile
