"""Partitioned execution: determinism and layer unit tests.

The guard for the physical execution layer: every chunk size must
produce *identical* compact tables to the unpartitioned engine — same
tuple order, same cells, same maybe flags, same assignment multisets.
Partitions are contiguous document slices run in partition order, so
this holds exactly (not just up to reordering).
"""

import pytest

from repro.ctables.ctable import CompactTable
from repro.observability.spans import Tracer
from repro.processor.context import ExecConfig, ExecutionContext
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.processor.plan import compile_predicate
from repro.processor.split import PlanSplit
from repro.text.corpus import Corpus
from repro.text.document import Document


def table_image(table):
    """Everything observable about a compact table, repr-exact.

    ``repr`` covers cells (choice vs expansion, assignment multisets)
    and the maybe flag, in tuple order.
    """
    return (table.attrs, [repr(t) for t in table.tuples])


def result_image(result):
    return {name: table_image(table) for name, table in result.tables.items()}


def execute(task, cache=None, **config):
    config = ExecConfig(**config)
    engine = IFlexEngine(task.program, task.corpus, config=config, validate=False)
    return engine.execute(cache=cache)


# Two Table 2 tasks with different plan shapes: T1 is a single-source
# extraction + selection; T7 joins two extracted tables through a
# similarity p-function.
DETERMINISM_TASKS = ("T1", "T7")
#: chunk sizes, both run serially: the service's one-document chunks
#: and chunks of several documents
LAYOUTS = {"one-document": dict(partition_docs=1), "chunked": dict(partition_docs=7)}


class TestBackendDeterminism:
    @pytest.mark.parametrize("task_id", DETERMINISM_TASKS)
    def test_all_backends_match_serial_exactly(self, task_id):
        from repro.experiments.tasks import build_task

        task = build_task(task_id, size=40, seed=0)
        reference = execute(task)
        for layout, config in LAYOUTS.items():
            result = execute(task, **config)
            assert result_image(result) == result_image(reference), (
                "%s layout diverged from unpartitioned on %s" % (layout, task_id)
            )
            assert vars(result.stats) == vars(reference.stats)

    @pytest.mark.parametrize("task_id", DETERMINISM_TASKS)
    def test_answers_match_serial(self, task_id):
        from repro.experiments.runner import run_iflex
        from repro.experiments.tasks import build_task

        def outcome(**session_kwargs):
            task = build_task(task_id, size=40, seed=0)
            run = run_iflex(task, seed=0, **session_kwargs)
            return (
                run.final_count,
                run.exact_keys,
                run.converged,
                table_image(run.trace.final_result.query_table),
                [(r.mode, r.tuples, r.assignments) for r in run.trace.records],
            )

        assert outcome(config=ExecConfig(partition_docs=10)) == outcome()

    def test_maybe_flags_survive_partitioning(self):
        # two numeric candidates per document, one on each side of the
        # selection threshold, so the annotated choice cells force
        # keep-as-maybe tuples
        corpus = Corpus(
            {"base": [Document("d%d" % i, "%d %d" % (5 + i, 500 + i)) for i in range(6)]}
        )
        from repro.xlog.program import Program

        program = Program.parse(
            """
            vals(x, <p>) :- base(x), ie(@x, p).
            q(p) :- vals(x, p), p > 150.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        serial = IFlexEngine(program, corpus, validate=False).execute()
        parallel = IFlexEngine(
            program,
            corpus,
            config=ExecConfig(partition_docs=2),
            validate=False,
        ).execute()
        assert serial.query_table.maybe_count() > 0
        assert result_image(parallel) == result_image(serial)


class TestReuseAcrossBackends:
    def test_partitioned_cache_full_hits_on_repeat(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=40, seed=0)
        cache = RuleCache()
        first = execute(task, cache=cache, partition_docs=10)
        assert set(first.reuse_summary.values()) == {"computed"}
        second = execute(task, cache=cache, partition_docs=10)
        assert set(second.reuse_summary.values()) == {"full"}
        assert result_image(second) == result_image(first)

    def test_partitioned_incremental_matches_fresh_serial(self):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=40, seed=0)
        cache = RuleCache()
        execute(task, cache=cache, partition_docs=10)
        variant = task.program.add_constraint("extractIMDB", "title", "max_length", 200)
        tracer = Tracer()
        engine = IFlexEngine(
            variant,
            task.corpus,
            config=ExecConfig(partition_docs=10),
            validate=False,
            tracer=tracer,
        )
        incremental = engine.execute(cache=cache)
        assert incremental.reuse_summary == {"imdbMovies": "incremental", "T1": "computed"}
        # the constraint applied partition by partition: nothing re-extracted
        assert not [span for span in tracer.spans if span.name.startswith("Scan[")]
        # only the chained T1 re-ran, over the refined upstream partitions
        assert incremental.stats.partitions_recomputed == 4
        fresh = IFlexEngine(variant, task.corpus, validate=False).execute()
        assert table_image(incremental.query_table) == table_image(fresh.query_table)


class TestPlanSplit:
    def build(self, source, corpus, query=None):
        from repro.alog.unfold import unfold_program
        from repro.xlog.program import Program

        program = Program.parse(
            source, extensional=corpus.table_names(), query=query
        )
        return unfold_program(program)

    def test_extraction_plan_is_fully_local(self):
        corpus = Corpus({"base": [Document("d", "a 12")]})
        program = self.build(
            """
            q(x, <p>) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            corpus,
        )
        split = PlanSplit(compile_predicate("q", program))
        assert split.fully_local
        assert "*local*" in split.explain()

    def test_join_plan_splits_at_the_scans(self):
        corpus = Corpus(
            {"l": [Document("d1", "a b")], "r": [Document("d2", "c d")]}
        )
        program = self.build(
            """
            q(s, t) :- l(x), r(y), ieL(@x, s), ieR(@y, t), s = t.
            ieL(@x, s) :- from(@x, s).
            ieR(@y, t) :- from(@y, t).
            """,
            corpus,
        )
        split = PlanSplit(compile_predicate("q", program))
        assert not split.fully_local
        assert split.has_local_work
        assert len(split.local_roots) >= 2  # one prefix per scan side

    def test_gather_substitution_executes_suffix(self):
        corpus = Corpus({"base": [Document("d%d" % i, "w %d" % i) for i in range(4)]})
        program = self.build(
            """
            q(x, <p>) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            corpus,
        )
        plan = compile_predicate("q", program)
        whole = plan.execute(ExecutionContext(program, corpus))
        parts = corpus.chunk(2)
        tables = []
        for part in parts:
            fresh = compile_predicate("q", program)
            tables.append(fresh.execute(ExecutionContext(program, part)))
        merged = CompactTable.union(tables, attrs=whole.attrs)
        assert table_image(merged) == table_image(whole)


class TestObservabilityAcrossBackends:
    """Metrics derive only from ExecutionStats counters, never timing,
    so every partition layout must produce byte-identical snapshots;
    partition spans must come back with the task results."""

    def snapshot(self, **config):
        from repro.experiments.tasks import build_task
        from repro.observability.metrics import MetricsRegistry

        task = build_task("T1", size=40, seed=0)
        registry = MetricsRegistry()
        engine = IFlexEngine(
            task.program,
            task.corpus,
            config=ExecConfig(**config),
            metrics=registry,
            validate=False,
        )
        engine.execute()
        return registry.to_json()

    def test_metrics_byte_identical_across_backends(self):
        reference = self.snapshot()
        for layout, config in LAYOUTS.items():
            assert self.snapshot(**config) == reference, (
                "%s layout metrics diverged from unpartitioned" % layout
            )

    @pytest.mark.parametrize(
        "config, expected",
        # the chained query predicate also runs partition by partition:
        # two predicates x two partitions
        [(dict(partition_docs=10), 4)],
        ids=["chunked"],
    )
    def test_spans_survive_scheduler_pipe(self, config, expected):
        from repro.experiments.tasks import build_task
        from repro.observability.spans import Tracer

        task = build_task("T1", size=20, seed=0)
        tracer = Tracer()
        engine = IFlexEngine(
            task.program,
            task.corpus,
            config=ExecConfig(**config),
            tracer=tracer,
            validate=False,
        )
        engine.execute()
        categories = {span.category for span in tracer.spans}
        assert {"engine", "plan", "scheduler", "partition"} <= categories
        # partition spans record straight into the caller's tracer,
        # under the batch's scheduler span
        by_id = {span.span_id: span for span in tracer.spans}
        partitions = [s for s in tracer.spans if s.category == "partition"]
        assert len(partitions) == expected
        assert {span.attrs["partition"] for span in partitions} == {0, 1}
        for span in partitions:
            assert by_id[span.parent_id].category == "scheduler"
