"""Executor tests: stitching, figure 2/3 behaviour, reuse cache."""

import pytest

from repro.ctables.assignments import Contain, value_text
from repro.processor.executor import IFlexEngine
from repro.processor.ordering import evaluation_order
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import Program


class TestEvaluationOrder:
    def test_topological(self):
        program = Program.parse(
            """
            c(x) :- b(x).
            b(x) :- a(x).
            a(x) :- base(x).
            """,
            extensional=["base"],
            query="c",
        )
        order = evaluation_order(program)
        assert order.index(("a",)) < order.index(("b",)) < order.index(("c",))


class TestPaperPipeline:
    """The Figure 2 program end to end (compact tables of Figure 3)."""

    def test_houses_compact_table(self, figure2_program, figure1_corpus):
        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        houses = result.tables["houses"]
        assert len(houses) == 2  # one tuple per house page (the <x> key)
        for t in houses:
            p_values = {value_text(a.value) for a in t.cells[1].assignments}
            assert len(p_values) == 3  # the three numbers of each page
            h_cell = t.cells[3]
            assert all(isinstance(a, Contain) for a in h_cell.assignments)

    def test_schools_is_maybe_expansion(self, figure2_program, figure1_corpus):
        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        schools = result.tables["schools"]
        assert all(t.maybe for t in schools)
        assert all(t.cells[0].is_expansion for t in schools)

    def test_query_keeps_only_x2(self, figure2_program, figure1_corpus):
        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        q = result.query_table
        assert len(q) == 1
        (t,) = q.tuples
        assert "Amazing house" in value_text(t.cells[0].assignments[0].value)
        assert {value_text(a.value) for a in t.cells[1].assignments} == {"619,000"}

    def test_summary_counts(self, figure2_program, figure1_corpus):
        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        summary = result.summary()
        assert summary["tuples"] == 1
        assert summary["elapsed_s"] > 0


class TestReuseCache:
    def make_engine(self, program, corpus):
        return IFlexEngine(program, corpus)

    @pytest.fixture
    def setup(self):
        doc = parse_html("d1", "<p>Sqft: 2750. Price: <b>$351,000</b></p>")
        corpus = Corpus({"base": [doc]})
        program = Program.parse(
            """
            vals(x, <p>) :- base(x), ie(@x, p).
            q(x, p) :- vals(x, p), p > 1000.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        return program, corpus

    def test_full_hit_on_repeat(self, setup):
        program, corpus = setup
        cache = RuleCache()
        IFlexEngine(program, corpus).execute(cache=cache)
        result = IFlexEngine(program, corpus).execute(cache=cache)
        assert result.reuse_summary == {"vals": "full", "q": "full"}
        # both hits came from memory: there is no store to hydrate from
        assert result.stats.result_cache_hits == 0

    def test_incremental_on_added_constraint(self, setup):
        program, corpus = setup
        cache = RuleCache()
        IFlexEngine(program, corpus).execute(cache=cache)
        refined = program.add_constraint("ie", "p", "preceded_by", "$")
        result = IFlexEngine(refined, corpus).execute(cache=cache)
        assert result.reuse_summary["vals"] == "incremental"
        # downstream rule recomputes against the updated table
        assert result.reuse_summary["q"] == "computed"

    def test_incremental_result_matches_fresh(self, setup):
        program, corpus = setup
        cache = RuleCache()
        IFlexEngine(program, corpus).execute(cache=cache)
        refined = program.add_constraint("ie", "p", "preceded_by", "$")
        cached_result = IFlexEngine(refined, corpus).execute(cache=cache)
        fresh_result = IFlexEngine(refined, corpus).execute()
        cached_values = {
            value_text(a.value)
            for t in cached_result.query_table
            for a in t.cells[1].assignments
        }
        fresh_values = {
            value_text(a.value)
            for t in fresh_result.query_table
            for a in t.cells[1].assignments
        }
        assert cached_values == fresh_values == {"351,000"}

    def test_no_reuse_across_corpora(self, setup):
        program, corpus = setup
        other = Corpus(
            {"base": [parse_html("d2", "<p>Price: <b>$9,000</b></p>")]}
        )
        cache = RuleCache()
        IFlexEngine(program, corpus).execute(cache=cache)
        result = IFlexEngine(program, other).execute(cache=cache)
        assert result.reuse_summary["vals"] == "computed"

    def test_copy_reads_entries_but_keeps_its_puts(self, setup):
        program, corpus = setup
        cache = RuleCache()
        IFlexEngine(program, corpus).execute(cache=cache)
        refined = program.add_constraint("ie", "p", "preceded_by", "$")
        clone = cache.copy()
        result = IFlexEngine(refined, corpus).execute(cache=clone)
        assert result.reuse_summary["vals"] == "incremental"
        # the original still holds the unrefined entry
        again = IFlexEngine(refined, corpus).execute(cache=cache)
        assert again.reuse_summary["vals"] == "incremental"

    def test_removed_constraint_recomputes(self, setup):
        program, corpus = setup
        refined = program.add_constraint("ie", "p", "preceded_by", "$")
        cache = RuleCache()
        IFlexEngine(refined, corpus).execute(cache=cache)
        result = IFlexEngine(program, corpus).execute(cache=cache)
        assert result.reuse_summary["vals"] == "computed"
