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
    def _report_rows(self, corpus, workers):
        from repro.xlog import Program

        program = Program.parse(
            UNION_SOURCE, extensional=["housePages", "schoolPages"], query="Q"
        )
        engine = IFlexEngine(
            program, corpus, config=ExecConfig(workers=workers)
        )
        tracer = engine.tracer = Tracer()
        engine.execute()
        roots = {
            s.name: s for s in tracer.spans if s.name.startswith("predicate:")
        }
        return operator_rows(tracer.spans, roots["predicate:pages"])

    def test_partition_rows_merge_under_their_gather(self, figure1_corpus):
        serial = self._report_rows(figure1_corpus, 1)
        parallel = self._report_rows(figure1_corpus, 2)
        assert parallel[0].describe == "Union[2]"
        gathers = [r for r in parallel if r.describe.startswith("Gather")]
        assert [g.depth for g in gathers] == [1, 1]
        # each gather is followed by its local root's rows, one level
        # deeper, merged across both partitions
        scans = [r for r in parallel if r.describe.startswith("Scan")]
        assert [r.describe for r in scans] == [
            "Scan[housePages -> x]",
            "Scan[schoolPages -> x]",
        ]
        for gather, scan in zip(gathers, scans):
            local = parallel[parallel.index(gather) + 1:parallel.index(scan) + 1]
            assert all(r.depth > gather.depth for r in local)

        def counts(rows):
            return [
                (r.describe, r.out_tuples, r.out_assignments, r.maybe_tuples)
                for r in rows
                if not r.describe.startswith("Gather")
            ]

        # merged partition counts sum to the serial counts
        assert counts(parallel) == counts(serial)


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
