"""Differential tests: indexed execution is byte-identical to naive.

The indexing + memoization layer (feature indexes, ``EvalCache``) is an
accelerator with a superset-semantics guarantee: for any document, span,
feature and value, the indexed/cached path must produce exactly what the
naive span-by-span path produces — same booleans, same refine hints in
the same order, same compact tables including maybe flags and assignment
multisets.  These tests enforce that on hypothesis-generated documents
and constraint chains, and at engine level on a Table 2 task.

The vectorized batch kernels carry the same contract one step further:
batched evaluation must match per-cell evaluation not just byte for
byte in its answers but on *every* statistics counter except the two
batch-attribution fields (``verify_batch`` / ``refine_batch``), and a
partitioned run's counters must not depend on the scheduler backend.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain
from repro.ctables.ctable import Cell
from repro.processor.constraints import (
    apply_constraint_to_cell,
    apply_constraint_to_cells,
)
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

#: the only statistics fields the scalar and batch paths may disagree on
BATCH_ONLY_FIELDS = frozenset(("verify_batch", "refine_batch"))


def assert_stats_equal_modulo_batch(scalar_stats, batch_stats):
    scalar_fields = vars(scalar_stats)
    batch_fields = vars(batch_stats)
    drift = {
        name: (scalar_fields[name], batch_fields[name])
        for name in scalar_fields
        if name not in BATCH_ONLY_FIELDS
        and scalar_fields[name] != batch_fields[name]
    }
    assert not drift, drift


def fresh_contexts():
    """One context per (index, cache) combination.

    The first is the fully naive reference; every other combination must
    match it exactly.  Contexts always memoize, so the cacheless ones get
    a bare :class:`FeatureEvaluator` built here.
    """
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    corpus = Corpus({"base": []})
    contexts = []
    for use_index, use_cache in (
        (False, False),
        (True, False),
        (False, True),
        (True, True),
    ):
        context = ExecutionContext(
            program, corpus, config=ExecConfig(use_index=use_index)
        )
        if not use_cache:
            context.evaluator = FeatureEvaluator(
                context.index_store, None, context.stats
            )
        contexts.append(context)
    return contexts


class _Forgetful(dict):
    """A cache table that never stores, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def naive_engine(program, corpus):
    """An engine on the no-index, no-memo reference path."""
    cache = EvalCache()
    cache.verify, cache.refine = _Forgetful(), _Forgetful()
    return IFlexEngine(
        program,
        corpus,
        config=ExecConfig(use_index=False),
        eval_cache=cache,
        validate=False,
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
    # not merge them, and the index must match the naive path anyway
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


#: (feature, value) pool for chains — indexed and unindexed features mixed
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

#: every (feature, value) an index implementation may answer
_INDEXED = (
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
    def test_all_switch_combinations_agree(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        reference, *others = fresh_contexts()
        for feature_name, value in _INDEXED:
            feature = reference.feature(feature_name)
            want_verify = reference.verify_value(feature, span, value)
            want_refine = list(reference.refine_span(feature, span, value))
            for context in others:
                f = context.feature(feature_name)
                assert context.verify_value(f, span, value) == want_verify
                assert list(context.refine_span(f, span, value)) == want_refine

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cached_second_lookup_identical(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        context = fresh_contexts()[3]  # index + cache
        for feature_name, value in _INDEXED:
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
        assert context.stats.verify_cache_hits >= len(_INDEXED)
        assert context.stats.refine_cache_hits >= len(_INDEXED)


class TestConstraintChainEquivalence:
    """``apply_constraint_to_cell`` chains with prior rechecks."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chain_over_contain_cell(self, data):
        doc = data.draw(documents())
        chain = data.draw(
            st.lists(st.sampled_from(_CONSTRAINTS), min_size=1, max_size=4)
        )
        contexts = fresh_contexts()
        cells = [Cell((Contain(doc_span(doc)),))] * len(contexts)
        priors = []
        for feature_name, value in chain:
            cells = [
                apply_constraint_to_cell(
                    cell, feature_name, value, tuple(priors), context
                )
                for cell, context in zip(cells, contexts)
            ]
            priors.append((feature_name, value))
            reference = repr(cells[0])
            for cell in cells[1:]:
                assert repr(cell) == reference

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chain_over_expansion_cell(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        chain = data.draw(
            st.lists(st.sampled_from(_CONSTRAINTS), min_size=1, max_size=3)
        )
        contexts = fresh_contexts()
        cells = [Cell.expansion([Contain(doc_span(doc)), Contain(span)])] * len(
            contexts
        )
        priors = []
        for feature_name, value in chain:
            cells = [
                apply_constraint_to_cell(
                    cell, feature_name, value, tuple(priors), context
                )
                for cell, context in zip(cells, contexts)
            ]
            priors.append((feature_name, value))
        reference = repr(cells[0])
        assert all(repr(cell) == reference for cell in cells[1:])


class TestBatchScalarEquivalence:
    """The vectorized batch path against per-cell evaluation."""

    def _context_pair(self):
        """(per-cell, batch) contexts, both indexed + cached."""
        program = Program.parse("q(x) :- base(x).", extensional=["base"])
        corpus = Corpus({"base": []})
        return (
            ExecutionContext(program, corpus, config=ExecConfig()),
            ExecutionContext(program, corpus, config=ExecConfig()),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cells_and_counters_identical(self, data):
        doc = data.draw(documents())
        spans = data.draw(st.lists(spans_of(doc), min_size=0, max_size=6))
        # unique constraints: the batched entry point documents that the
        # caller must not re-apply the in-flight (feature, value) — the
        # operator layer falls back to scalar in that case
        chain = data.draw(
            st.lists(
                st.sampled_from(_CONSTRAINTS),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        scalar_context, batch_context = self._context_pair()
        make_cells = lambda: [  # noqa: E731 - tiny local factory
            Cell((Contain(doc_span(doc)),)),
            Cell(tuple(Contain(span) for span in spans)),
        ]
        scalar_cells, batch_cells = make_cells(), make_cells()
        priors = []
        for feature_name, value in chain:
            scalar_cells = [
                apply_constraint_to_cell(
                    cell, feature_name, value, tuple(priors), scalar_context
                )
                for cell in scalar_cells
            ]
            batch_cells = apply_constraint_to_cells(
                batch_cells, feature_name, value, tuple(priors), batch_context
            )
            priors.append((feature_name, value))
            assert [repr(c) for c in batch_cells] == [repr(c) for c in scalar_cells]
        assert_stats_equal_modulo_batch(scalar_context.stats, batch_context.stats)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_duplicate_spans_within_batch_count_as_cache_hits(self, data):
        doc = data.draw(documents())
        span = data.draw(spans_of(doc))
        scalar_context, batch_context = self._context_pair()
        cells = [Cell((Contain(span), Contain(span))), Cell((Contain(span),))]
        scalar_out = [
            apply_constraint_to_cell(c, "max_length", 7, (), scalar_context)
            for c in cells
        ]
        batch_out = apply_constraint_to_cells(
            cells, "max_length", 7, (), batch_context
        )
        assert [repr(c) for c in batch_out] == [repr(c) for c in scalar_out]
        # the repeated span is a miss once and a hit afterwards on BOTH
        # paths — within-batch duplicates must not look like extra misses
        assert_stats_equal_modulo_batch(scalar_context.stats, batch_context.stats)


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
        # the accelerated run performs strictly fewer naive evaluations
        assert fast.stats.verify_calls <= naive.stats.verify_calls
        assert fast.stats.refine_calls <= naive.stats.refine_calls
        assert fast.stats.index_refine_calls > 0

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


class TestBatchAcrossBackends:
    """The batch path per scheduler backend, and lazily built columns."""

    @staticmethod
    def _t1(size):
        from repro.experiments.tasks import build_task

        return build_task("T1", size=size, seed=0)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_results_and_counters_identical(self, backend):
        task = self._t1(24)
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
        serial = run(workers=4, backend="serial")
        batch = run(workers=4, backend=backend)
        assert result_image(batch) == result_image(naive)
        assert vars(batch.stats) == vars(serial.stats)
        # the kernels actually carried work on this chain
        assert batch.stats.verify_batch > 0
        assert batch.stats.refine_batch > 0

    def test_artifact_cache_round_trip_matches(self):
        """Cold lazy builds, warm reuse, and unindexed runs are byte-identical."""
        from repro.features.index import IndexStore

        task = self._t1(14)
        program = task.program.add_constraint(
            "extractIMDB", "title", "max_length", 60
        )
        plain = IFlexEngine(
            program,
            task.corpus,
            config=ExecConfig(use_index=False),
            validate=False,
        ).execute()
        store = IndexStore()
        cold = IFlexEngine(
            program, task.corpus, index_store=store, validate=False
        ).execute()
        built = store.built
        warm = IFlexEngine(
            program, task.corpus, index_store=store, validate=False
        ).execute()
        assert result_image(cold) == result_image(plain)
        assert result_image(warm) == result_image(plain)
        assert vars(warm.stats) == vars(cold.stats)
        # the cold engine built its columns on first use; the warm one
        # reused every one of them
        assert built > 0
        assert store.built == built

    def test_corrupt_cache_rebuilds_and_matches(self, tmp_path):
        """An old column bundle in the result-cache directory is ignored."""
        from repro.text.corpus import corpus_digest

        task = self._t1(14)
        plain = IFlexEngine(task.program, task.corpus, validate=False).execute()
        docs = [
            doc
            for name in task.corpus.table_names()
            for doc in task.corpus.table(name)
        ]
        bundle = tmp_path / ("%s.cols.npy" % corpus_digest(docs))
        bundle.write_bytes(b"corrupt")
        engine = IFlexEngine(
            task.program,
            task.corpus,
            config=ExecConfig(workers=2, result_cache=str(tmp_path)),
            validate=False,
        )
        rebuilt = engine.execute()
        assert result_image(rebuilt) == result_image(plain)
        assert rebuilt.stats.result_cache_hits == 0
        assert engine.index_store.built > 0
        assert bundle.read_bytes() == b"corrupt"


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
            config=ExecConfig(workers=4, backend="process"),
            validate=False,
        ).execute()
        assert serial.stats.verify_cache_misses > 0
        assert serial.stats.refine_cache_misses > 0
        for counter in (
            "verify_cache_hits",
            "verify_cache_misses",
            "refine_cache_hits",
            "refine_cache_misses",
            "index_verify_calls",
            "index_refine_calls",
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
        assert second.stats.index_refine_calls == 0

    def test_explain_analyze_reports_cache_counters(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=10, seed=0)
        engine = IFlexEngine(task.program, task.corpus, validate=False)
        _, report = engine.explain_analyze()
        assert "eval cache:" in report
        assert "cache hits" in report  # per-operator column
