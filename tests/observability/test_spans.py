"""Span recording and the two export formats (lossless JSON + Chrome)."""

import json

import pytest

from repro.observability.spans import (
    Span,
    Tracer,
    span_tree_image,
    spans_from_chrome,
    spans_from_json,
    spans_to_chrome,
    spans_to_json,
    write_chrome_trace,
)


def make_tree():
    """engine > (plan > operator, scheduler) — a small realistic tree."""
    tracer = Tracer()
    with tracer.span("execute", "engine", policy="fail-fast"):
        with tracer.span("predicate:q", "plan"):
            tracer.add("Scan[pages]", "operator", start=1.0, end=2.0, tuples=4)
        with tracer.span("scheduler.map", "scheduler", tasks=2):
            pass
    return tracer


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = make_tree()
        image = span_tree_image(tracer.spans)
        parents = {name: parent for name, _, parent, _ in image}
        assert parents["predicate:q"] == "execute"
        assert parents["Scan[pages]"] == "predicate:q"
        assert parents["scheduler.map"] == "execute"
        assert parents["execute"] is None

    def test_span_ids_unique(self):
        tracer = make_tree()
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_end_without_open_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError()
        assert len(tracer.spans) == 1
        assert tracer.current is None


class TestSpansFromTraces:
    """Operator spans recorded by a traced plan execution."""

    def traced(self, figure2_program, figure1_corpus):
        from repro.alog.unfold import unfold_program
        from repro.processor.context import ExecutionContext
        from repro.processor.plan import compile_predicate

        unfolded = unfold_program(figure2_program)
        tracer = Tracer()
        plan = compile_predicate("houses", unfolded)
        table = plan.execute(ExecutionContext(unfolded, figure1_corpus, tracer=tracer))
        return plan, table, tracer.spans

    def test_nesting_follows_depth(self, figure2_program, figure1_corpus):
        plan, _, spans = self.traced(figure2_program, figure1_corpus)
        by_id = {s.span_id: s for s in spans}
        operators = [s for s in spans if s.category == "operator"]
        parents = {
            s.name: by_id[s.parent_id].name if s.parent_id in by_id else None
            for s in operators
        }

        def expected(op, parent=None):
            yield op.describe(), parent
            for child in op.children():
                yield from expected(child, op.describe())

        assert parents == dict(expected(plan))
        assert len(operators) == len(list(expected(plan)))

    def test_windows_use_subtree_time_and_nest(self, figure2_program, figure1_corpus):
        _, _, spans = self.traced(figure2_program, figure1_corpus)
        by_id = {s.span_id: s for s in spans}
        nested = 0
        for span in spans:
            parent = by_id.get(span.parent_id)
            if span.category != "operator" or parent is None:
                continue
            # each child's window lies inside its parent's window
            assert parent.start <= span.start <= span.end <= parent.end
            nested += 1
        assert nested > 0

    def test_attrs_carry_counts(self, figure2_program, figure1_corpus):
        plan, table, spans = self.traced(figure2_program, figure1_corpus)
        by_name = {s.name: s for s in spans if s.category == "operator"}
        root = by_name[plan.describe()]
        assert root.attrs["tuples"] == len(table)
        assert root.attrs["assignments"] == table.assignment_count()
        assert root.attrs["maybe"] == table.maybe_count()
        assert by_name["Scan[housePages -> x]"].attrs["tuples"] == 2
        for span in by_name.values():
            assert span.attrs["cache_hits"] >= 0 and span.attrs["cache_misses"] >= 0

    def test_empty_traces(self, figure2_program, figure1_corpus):
        from repro.processor.executor import IFlexEngine
        from repro.processor.reuse import RuleCache
        from repro.processor.tracing import operator_rows, render_traces

        tracer = Tracer()
        engine = IFlexEngine(figure2_program, figure1_corpus, tracer=tracer)
        cache = RuleCache()
        engine.execute(cache)
        mark = len(tracer.spans)
        engine.execute(cache)
        warm = tracer.spans[mark:]
        # a predicate answered wholly from the cache runs no operators
        assert not [s for s in warm if s.category == "operator"]
        predicate = [s for s in warm if s.name == "predicate:houses"][0]
        assert operator_rows(warm, predicate) == []
        assert render_traces(operator_rows(warm, predicate)) == "(no traced operators)"


class TestJsonRoundTrip:
    def test_lossless(self):
        spans = make_tree().spans
        restored = spans_from_json(spans_to_json(spans))
        assert sorted(restored, key=lambda s: s.span_id) == sorted(
            spans, key=lambda s: s.span_id
        )


class TestChromeExport:
    def test_schema_validity(self):
        text = spans_to_chrome(make_tree().spans)
        payload = json.loads(text)
        assert isinstance(payload["traceEvents"], list)
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["cat"], str) and event["cat"]
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)

    def test_timestamps_are_relative_microseconds(self):
        tracer = Tracer()
        tracer.add("a", start=10.0, end=10.5)
        tracer.add("b", start=11.0, end=11.25)
        events = json.loads(spans_to_chrome(tracer.spans))["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["a"]["ts"] == pytest.approx(0.0)
        assert by_name["a"]["dur"] == pytest.approx(0.5e6)
        assert by_name["b"]["ts"] == pytest.approx(1.0e6)

    def test_round_trip_reproduces_tree(self):
        spans = make_tree().spans
        restored = spans_from_chrome(spans_to_chrome(spans))
        assert span_tree_image(restored) == span_tree_image(spans)

    def test_partition_spans_get_own_lane(self):
        tracer = Tracer()
        tracer.add("partition[0]", "partition", partition=0)
        tracer.add("partition[1]", "partition", partition=1)
        tracer.add("execute", "engine")
        events = json.loads(spans_to_chrome(tracer.spans))["traceEvents"]
        tids = {e["name"]: e["tid"] for e in events}
        assert tids["partition[0]"] != tids["partition[1]"]
        assert tids["execute"] == 0

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(path, make_tree().spans)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == 4


class TestSpanDataclass:
    def test_duration_never_negative(self):
        assert Span("x", start=2.0, end=1.0).duration == 0.0
