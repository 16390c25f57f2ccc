"""Differential tests: memoized execution is byte-identical to naive.

The :class:`~repro.processor.context.EvalCache` is an accelerator with a
superset-semantics guarantee: for any document, span, feature and
value, the cached path must produce exactly what the naive span-by-span
path produces — same booleans, same refine hints in the same order, same
compact tables including maybe flags and assignment multisets.  It must
also account for every request: a cached run's evaluations plus cache
hits equal the naive run's evaluations.  These tests enforce that on
hypothesis-generated documents and constraint chains, at engine level on
Table 2 tasks, and across partition layouts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain
from repro.ctables.ctable import Cell
from repro.processor.constraints import apply_constraint_to_cell
from repro.processor.context import (
    EvalCache,
    ExecConfig,
    ExecutionContext,
    FeatureEvaluator,
)
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import Span, doc_span
from repro.xlog.program import Program


def fresh_contexts():
    """``(naive, cached)`` contexts over an empty corpus.

    Contexts always memoize, so the naive reference gets a bare
    cacheless :class:`FeatureEvaluator` built here.
    """
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    corpus = Corpus({"base": []})
    naive = ExecutionContext(program, corpus)
    naive.evaluator = FeatureEvaluator(None, naive.stats)
    return naive, ExecutionContext(program, corpus)


def assert_same_requests(naive_stats, cached_stats):
    """Every request the naive run evaluated was evaluated or hit."""
    assert naive_stats.verify_cache_hits == naive_stats.refine_cache_hits == 0
    assert (
        cached_stats.verify_calls + cached_stats.verify_cache_hits
        == naive_stats.verify_calls
    )
    assert (
        cached_stats.refine_calls + cached_stats.refine_cache_hits
        == naive_stats.refine_calls
    )


class _Forgetful(dict):
    """A cache table that never stores, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def naive_engine(program, corpus, config=None):
    """An engine on the no-memo reference path."""
    cache = EvalCache()
    cache.verify, cache.refine = _Forgetful(), _Forgetful()
    return IFlexEngine(
        program, corpus, config=config, eval_cache=cache, validate=False
    )


# ----------------------------------------------------------------------
# document / span / chain generators
# ----------------------------------------------------------------------

_PIECES = (
    "Alice", "bob", "Carol", "dave", "X", "De-Vries", "THE",
    "42", "3,500", "$99", "1999", "007",
    ",", ".", ";", "$", "%", "  ", "\n",
)


@st.composite
def documents(draw):
    parts = draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=30))
    text = " ".join(parts)
    n = len(text)

    def interval():
        start = draw(st.integers(0, n))
        end = draw(st.integers(start, n))
        return (start, end)

    # possibly-overlapping regions: the document model sorts but does
    # not merge them
    regions = {
        kind: [interval() for _ in range(draw(st.integers(0, 3)))]
        for kind in ("bold", "italic", "hyperlink")
    }
    return Document("h%d" % draw(st.integers(0, 10**9)), text, regions=regions)


@st.composite
def spans_of(draw, doc):
    n = len(doc.text)
    start = draw(st.integers(0, n))
    end = draw(st.integers(start, n))
    return Span(doc, start, end)


#: (feature, value) pool for chains — syntactic, formatting and
#: parameterised features mixed
_CONSTRAINTS = (
    ("numeric", "yes"),
    ("numeric", "no"),
    ("numeric", "distinct_yes"),
    ("capitalized", "yes"),
    ("capitalized", "no"),
    ("bold_font", "yes"),
    ("bold_font", "no"),
    ("bold_font", "distinct_yes"),
    ("bold_font", "distinct_no"),
    ("italic_font", "yes"),
    ("italic_font", "distinct_yes"),
    ("hyperlinked", "no"),
    ("max_length", 12),
    ("max_length", 3),
    ("min_length", 2),
    ("preceded_by", "$"),
)

#: every value of the features raw dispatch is checked on
_DISPATCH = (
    ("numeric", "yes"),
    ("numeric", "no"),
    ("numeric", "distinct_yes"),
    ("capitalized", "yes"),
    ("capitalized", "no"),
    ("bold_font", "yes"),
    ("bold_font", "no"),
    ("bold_font", "distinct_yes"),
    ("bold_font", "distinct_no"),
    ("italic_font", "yes"),
    ("italic_font", "no"),
    ("italic_font", "distinct_yes"),
    ("italic_font", "distinct_no"),
    ("max_length", 7),
)


class TestVerifyRefineEquivalence:
    """Raw dispatch equivalence on arbitrary spans and values."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cached_and_naive_agree(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        naive, cached = fresh_contexts()
        for feature_name, value in _DISPATCH:
            feature = naive.feature(feature_name)
            # twice each: the second cached lookup is a hit
            for _ in range(2):
                assert cached.verify_value(
                    feature, span, value
                ) == naive.verify_value(feature, span, value)
                assert list(cached.refine_span(feature, span, value)) == list(
                    naive.refine_span(feature, span, value)
                )
        assert_same_requests(naive.stats, cached.stats)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cached_second_lookup_identical(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        _, context = fresh_contexts()
        for feature_name, value in _DISPATCH:
            feature = context.feature(feature_name)
            first = (
                context.verify_value(feature, span, value),
                context.refine_span(feature, span, value),
            )
            second = (
                context.verify_value(feature, span, value),
                context.refine_span(feature, span, value),
            )
            assert first == second
        assert context.stats.verify_cache_hits >= len(_DISPATCH)
        assert context.stats.refine_cache_hits >= len(_DISPATCH)


def _apply_chain(chain, make_cells):
    """Apply ``chain`` on both contexts; the cells after every step."""
    contexts = fresh_contexts()
    cells = [make_cells() for _ in contexts]
    priors = []
    steps = []
    for feature_name, value in chain:
        cells = [
            [
                apply_constraint_to_cell(
                    cell, feature_name, value, tuple(priors), context
                )
                for cell in context_cells
            ]
            for context_cells, context in zip(cells, contexts)
        ]
        priors.append((feature_name, value))
        steps.append([[repr(cell) for cell in c] for c in cells])
    return steps, contexts


class TestConstraintChainEquivalence:
    """``apply_constraint_to_cell`` chains with prior rechecks."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chain_over_contain_cell(self, data):
        doc = data.draw(documents())
        spans = data.draw(st.lists(spans_of(doc), min_size=0, max_size=6))
        # duplicated (feature, value) pairs allowed: the prior rechecks
        # then share cache keys with the constraint being applied
        chain = data.draw(
            st.lists(st.sampled_from(_CONSTRAINTS), min_size=1, max_size=4)
        )
        steps, (naive, cached) = _apply_chain(
            chain,
            lambda: [
                Cell((Contain(doc_span(doc)),)),
                Cell(tuple(Contain(span) for span in spans)),
            ],
        )
        for naive_cells, cached_cells in steps:
            assert cached_cells == naive_cells
        assert_same_requests(naive.stats, cached.stats)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chain_over_expansion_cell(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        chain = data.draw(
            st.lists(st.sampled_from(_CONSTRAINTS), min_size=1, max_size=3)
        )
        steps, (naive, cached) = _apply_chain(
            chain,
            lambda: [Cell.expansion([Contain(doc_span(doc)), Contain(span)])],
        )
        naive_cells, cached_cells = steps[-1]
        assert cached_cells == naive_cells
        assert_same_requests(naive.stats, cached.stats)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_duplicate_spans_count_as_cache_hits(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        _, context = fresh_contexts()
        cells = [Cell((Contain(span), Contain(span))), Cell((Contain(span),))]
        for cell in cells:
            apply_constraint_to_cell(cell, "max_length", 7, (), context)
        # the repeated span is evaluated once and a hit afterwards
        assert context.stats.refine_calls == context.stats.refine_cache_misses == 1
        assert context.stats.refine_cache_hits == 2


def table_image(table):
    """Everything observable: cells, multisets, maybe flags, in order."""
    return (table.attrs, [repr(t) for t in table.tuples])


def result_image(result):
    return {name: table_image(t) for name, t in result.tables.items()}


class TestEngineEquivalence:
    """Whole-program differential on a Table 2 task and a maybe-heavy
    threshold program."""

    def test_t1_task_byte_identical(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=14, seed=0)
        program = task.program.add_constraint(
            "extractIMDB", "title", "max_length", 60
        )
        naive = naive_engine(program, task.corpus).execute()
        fast = IFlexEngine(program, task.corpus, validate=False).execute()
        assert result_image(fast) == result_image(naive)
        assert_same_requests(naive.stats, fast.stats)
        assert fast.stats.refine_calls > 0

    def test_maybe_flags_identical(self):
        corpus = Corpus(
            {
                "base": [
                    Document("d%d" % i, "%d %d" % (5 + i, 500 + i))
                    for i in range(6)
                ]
            }
        )
        program = Program.parse(
            """
            vals(x, <p>) :- base(x), ie(@x, p).
            q(p) :- vals(x, p), p > 150.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        naive = naive_engine(program, corpus).execute()
        fast = IFlexEngine(program, corpus, validate=False).execute()
        assert naive.query_table.maybe_count() > 0
        assert result_image(fast) == result_image(naive)


class TestPartitionedBackends:
    """Partitioned runs per partition layout against the naive path."""

    @pytest.mark.parametrize(
        "layout",
        [dict(partition_docs=6), dict(partition_docs=5)],
        ids=["serial", "chunked"],
    )
    def test_results_and_counters_identical(self, layout):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=24, seed=0)
        program = task.program.add_constraint(
            "extractIMDB", "title", "bold_font", "distinct_yes"
        ).add_constraint(
            "extractIMDB", "title", "max_length", 60
        ).add_constraint(
            "extractIMDB", "votes", "max_length", 30
        )

        def run(**config):
            return IFlexEngine(
                program, task.corpus, config=ExecConfig(**config), validate=False
            ).execute()

        naive = naive_engine(program, task.corpus).execute()
        unpartitioned = run()
        parallel = run(**layout)
        assert result_image(parallel) == result_image(naive)
        assert vars(parallel.stats) == vars(unpartitioned.stats)
        assert_same_requests(naive.stats, parallel.stats)
        assert parallel.stats.verify_calls > 0
        assert parallel.stats.refine_calls > 0


class TestPartitionCounterMerge:
    """Cache hit/miss counters merge across parallel partitions to the
    serial counts (acceptance criterion; the determinism suite pins the
    full stats image, this pins the cache counters specifically)."""

    def test_counters_match_serial_and_are_live(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=24, seed=0)
        # a constraint chain on top of numeric(votes): the max_length
        # selection verifies every exact span the refinement produced
        program = task.program.add_constraint(
            "extractIMDB", "votes", "max_length", 30
        )
        serial = IFlexEngine(program, task.corpus, validate=False).execute()
        parallel = IFlexEngine(
            program,
            task.corpus,
            config=ExecConfig(partition_docs=6),
            validate=False,
        ).execute()
        assert serial.stats.verify_cache_misses > 0
        assert serial.stats.refine_cache_misses > 0
        for counter in (
            "verify_cache_hits",
            "verify_cache_misses",
            "refine_cache_hits",
            "refine_cache_misses",
            "verify_calls",
            "refine_calls",
        ):
            assert getattr(parallel.stats, counter) == getattr(
                serial.stats, counter
            ), counter

    def test_second_run_hits_the_engine_cache(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=10, seed=0)
        engine = IFlexEngine(task.program, task.corpus, validate=False)
        first = engine.execute()
        second = engine.execute()
        assert result_image(second) == result_image(first)
        # the engine-level EvalCache is warm: every Refine is a hit
        assert second.stats.refine_cache_hits > 0
        assert second.stats.refine_calls == 0

    def test_explain_analyze_reports_cache_counters(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=10, seed=0)
        engine = IFlexEngine(task.program, task.corpus, validate=False)
        _, report = engine.explain_analyze()
        assert "eval cache:" in report
        assert "cache hits" in report  # per-operator column
