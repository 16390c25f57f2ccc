"""EXPLAIN ANALYZE / tracing tests."""

from repro.observability.spans import Tracer
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.plan import compile_predicate
from repro.processor.tracing import operator_rows


def _traced_run(program, corpus, name):
    """Execute one predicate plan under a tracer; ``(table, root rows)``."""
    from repro.alog.unfold import unfold_program
    from repro.processor.context import ExecutionContext

    unfolded = unfold_program(program)
    tracer = Tracer()
    context = ExecutionContext(unfolded, corpus, tracer=tracer)
    with tracer.span("predicate:%s" % name, "plan") as root:
        table = compile_predicate(name, unfolded).execute(context)
    return table, operator_rows(tracer.spans, root)


class TestTracedPlan:
    def test_traced_execution_matches_plain(self, figure2_program, figure1_corpus):
        engine = IFlexEngine(figure2_program, figure1_corpus)
        plain = engine.execute()
        traced_result, report = engine.explain_analyze()
        assert traced_result.tuple_count == plain.tuple_count
        assert traced_result.assignment_count == plain.assignment_count

    def test_report_contains_all_operators(self, figure2_program, figure1_corpus):
        engine = IFlexEngine(figure2_program, figure1_corpus)
        _, report = engine.explain_analyze()
        for fragment in ("Annotate", "From", "Join", "Scan", "Select"):
            assert fragment in report
        assert "ms" in report

    def test_traces_record_cardinalities(self, figure2_program, figure1_corpus):
        table, rows = _traced_run(figure2_program, figure1_corpus, "houses")
        root = rows[0]
        assert root.depth == 0 and all(r.depth > 0 for r in rows[1:])
        assert root.out_tuples == len(table)
        assert root.out_assignments == table.assignment_count()
        scan = [r for r in rows if r.describe.startswith("Scan")][0]
        assert scan.out_tuples == 2

    def test_self_time_excludes_children(self, figure2_program, figure1_corpus):
        _, rows = _traced_run(figure2_program, figure1_corpus, "houses")
        assert all(r.elapsed >= 0 for r in rows)
        # every operator reported something
        assert all(r.out_tuples >= 0 for r in rows)
        # self cache traffic never double-counts a child's traffic
        assert all(r.cache_hits >= 0 and r.cache_misses >= 0 for r in rows)

    def test_an_engine_tracer_is_left_in_place(self, figure2_program, figure1_corpus):
        tracer = Tracer()
        engine = IFlexEngine(figure2_program, figure1_corpus, tracer=tracer)
        engine.explain_analyze()
        assert engine.tracer is tracer
        assert any(s.category == "operator" for s in tracer.spans)
        # without one, the report uses a private tracer and leaves none
        bare = IFlexEngine(figure2_program, figure1_corpus)
        bare.explain_analyze()
        assert bare.tracer is None


UNION_SOURCE = """
pages(x) :- housePages(x).
pages(x) :- schoolPages(x).
Q(x, <p>) :- pages(x), from(@x, p), numeric(p) = yes.
"""


class TestPartitionMerge:
    @staticmethod
    def _traced(corpus, config, source=UNION_SOURCE, predicate="pages"):
        """``(spans, operator rows of predicate)`` for one traced run."""
        from repro.xlog import Program

        program = Program.parse(
            source, extensional=["housePages", "schoolPages"], query="Q"
        )
        engine = IFlexEngine(program, corpus, config=config)
        tracer = engine.tracer = Tracer()
        engine.execute()
        root = [s for s in tracer.spans if s.name == "predicate:%s" % predicate][0]
        return tracer.spans, operator_rows(tracer.spans, root)

    @staticmethod
    def counts(rows):
        return [
            (r.depth, r.describe, r.out_tuples, r.out_assignments, r.maybe_tuples)
            for r in rows
        ]

    def test_mixed_plan_runs_once_over_the_whole_corpus(self, figure1_corpus):
        # the two-scan union is document-local below the Union only:
        # under one-document chunks it runs once, like an unpartitioned
        # run, instead of splitting at the union
        spans, rows = self._traced(figure1_corpus, ExecConfig(partition_docs=1))
        maps = [s for s in spans if s.name == "scheduler.map"]
        assert "pages" not in {s.attrs["predicate"] for s in maps}
        assert rows[0].describe == "Union[2]"
        _, serial = self._traced(figure1_corpus, ExecConfig())
        assert self.counts(rows) == self.counts(serial)

    def test_partition_rows_merge_for_a_fully_local_plan(self, figure1_corpus):
        source = "Q(x, <p>) :- housePages(x), from(@x, p), numeric(p) = yes."
        spans, rows = self._traced(figure1_corpus, ExecConfig(partition_docs=1), source, "Q")
        assert len([s for s in spans if s.category == "partition"]) == 2
        # merged partition counts sum to the serial counts
        _, serial = self._traced(figure1_corpus, ExecConfig(), source, "Q")
        assert self.counts(rows) == self.counts(serial)


class TestRenderEdgeCases:
    def test_empty_trace_list_renders_placeholder(self):
        from repro.processor.tracing import render_traces

        assert render_traces([]) == "(no traced operators)"

    def test_cache_summary_with_zero_lookups(self):
        from repro.processor.context import ExecutionStats
        from repro.processor.tracing import render_cache_summary

        text = render_cache_summary(ExecutionStats())
        assert "n/a" in text
        assert "%" not in text.split("n/a")[0].rsplit("\n", 1)[-1]

    def test_cache_summary_with_lookups_reports_rate(self):
        from repro.processor.context import ExecutionStats
        from repro.processor.tracing import render_cache_summary

        stats = ExecutionStats(verify_cache_hits=3, verify_cache_misses=1)
        assert "75.0%" in render_cache_summary(stats)
