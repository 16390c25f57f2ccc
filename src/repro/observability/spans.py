"""Span-based trace recording and export.

A :class:`Span` is one timed region of an execution — an operator, a
corpus partition, a scheduler ``map``, a Verify/Refine batch, a
refinement-session iteration — with a name, a category, start/end
times, free-form attributes, and a parent link forming a tree.  A
:class:`Tracer` records them (context-manager nesting or explicit
begin/end); partitions run one after another in the calling thread, so
their spans go straight into the caller's tracer.

Two serializations:

* :func:`spans_to_json` / :func:`spans_from_json` — lossless; the
  round trip reproduces the span tree exactly;
* :func:`spans_to_chrome` / :func:`spans_from_chrome` — the Chrome
  trace-event format (JSON object with a ``traceEvents`` list of
  ``"ph": "X"`` complete events), loadable in ``chrome://tracing`` and
  Perfetto.  Span identity rides in each event's ``args``, so parsing
  recovers the same tree.
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "spans_from_chrome",
    "spans_from_json",
    "spans_to_chrome",
    "spans_to_json",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One timed region.  All fields are plain data."""

    name: str
    category: str = ""
    start: float = 0.0
    end: float = 0.0
    span_id: int = 0
    parent_id: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return max(0.0, self.end - self.start)


class Tracer:
    """Records spans; completed spans accumulate on :attr:`spans`.

    Not thread-safe: one tracer records one thread's nesting, which is
    all an execution needs, since partitions run serially in the
    calling thread.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    def __len__(self):
        return len(self.spans)

    @property
    def current(self):
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def begin(self, name, category="", **attrs):
        span = Span(
            name=name,
            category=category,
            start=self.clock(),
            span_id=next(self._ids),
            parent_id=self._stack[-1].span_id if self._stack else None,
            attrs=dict(attrs),
        )
        self._stack.append(span)
        return span

    def end(self, span=None):
        """Close ``span`` (default: the innermost open span)."""
        if not self._stack:
            raise RuntimeError("no open span to end")
        if span is None:
            span = self._stack[-1]
        while self._stack:
            top = self._stack.pop()
            top.end = self.clock()
            self.spans.append(top)
            if top is span:
                return span
        raise RuntimeError("span %r is not open on this tracer" % (span.name,))

    @contextmanager
    def span(self, name, category="", **attrs):
        span = self.begin(name, category, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add(self, name, category="", start=0.0, end=0.0, parent=None, **attrs):
        """Record an already-timed span (no stack involvement)."""
        span = Span(
            name=name,
            category=category,
            start=start,
            end=end,
            span_id=next(self._ids),
            parent_id=self._parent_id(parent),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def _parent_id(self, parent):
        if parent is not None:
            return parent.span_id if isinstance(parent, Span) else parent
        return self._stack[-1].span_id if self._stack else None


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _span_dict(span):
    return {
        "name": span.name,
        "category": span.category,
        "start": span.start,
        "end": span.end,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "attrs": {str(k): _jsonable(v) for k, v in span.attrs.items()},
    }


def spans_to_json(spans, indent=2):
    """Lossless JSON: a sorted list of span dicts."""
    payload = [_span_dict(s) for s in sorted(spans, key=lambda s: s.span_id)]
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def spans_from_json(text):
    return [
        Span(
            name=entry["name"],
            category=entry["category"],
            start=entry["start"],
            end=entry["end"],
            span_id=entry["span_id"],
            parent_id=entry["parent_id"],
            attrs=dict(entry["attrs"]),
        )
        for entry in json.loads(text)
    ]


def _chrome_tid(span):
    """Partition spans (and their subtrees) get their own lane."""
    partition = span.attrs.get("partition")
    if isinstance(partition, int):
        return partition + 1
    return 0


def spans_to_chrome(spans, indent=None):
    """The Chrome trace-event format (``chrome://tracing`` / Perfetto).

    Each span becomes one ``"ph": "X"`` complete event; timestamps are
    microseconds relative to the earliest span.  ``args`` carries the
    span/parent ids and attributes, so :func:`spans_from_chrome`
    recovers the same tree.
    """
    spans = sorted(spans, key=lambda s: s.span_id)
    origin = min((s.start for s in spans), default=0.0)
    events = []
    for span in spans:
        args = {str(k): _jsonable(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category or "repro",
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": _chrome_tid(span),
                "args": args,
            }
        )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observability", "time_origin": origin},
    }
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def spans_from_chrome(text):
    """Parse a Chrome trace-event export back into :class:`Span` rows.

    Times are recovered from the stored origin; span identity and the
    parent tree come from ``args``, so the tree matches the exported
    one exactly (timestamps may differ in the last float bits).
    """
    payload = json.loads(text)
    origin = payload.get("otherData", {}).get("time_origin", 0.0)
    spans = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start = origin + event["ts"] / 1e6
        spans.append(
            Span(
                name=event["name"],
                category="" if event.get("cat") == "repro" else event.get("cat", ""),
                start=start,
                end=start + event.get("dur", 0.0) / 1e6,
                span_id=span_id if span_id is not None else len(spans) + 1,
                parent_id=parent_id,
                attrs=args,
            )
        )
    spans.sort(key=lambda s: s.span_id)
    return spans


def write_chrome_trace(path, spans):
    """Write ``spans`` as a Chrome trace-event file; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spans_to_chrome(spans))
    return path


def span_tree_image(spans):
    """A comparison image of the tree: (name, category, parent-name, attrs).

    Used by tests (and useful for debugging) to assert two exports
    describe the same tree regardless of id numbering or float drift.
    """
    by_id = {s.span_id: s for s in spans}
    return [
        (
            s.name,
            s.category,
            by_id[s.parent_id].name if s.parent_id in by_id else None,
            tuple(sorted((str(k), _jsonable(v)) for k, v in s.attrs.items())),
        )
        for s in sorted(spans, key=lambda s: s.span_id)
    ]
