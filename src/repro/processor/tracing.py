"""EXPLAIN ANALYZE rendering over operator spans.

Operators record their own spans (``Operator.execute`` with a tracer on
the context), so an analyzed run is an ordinary traced
``IFlexEngine.execute``.  This module turns the spans under each
``predicate:`` / ``fixpoint:`` span, plus the run's reuse summary, into
the per-operator report: output cardinalities, self time, and EvalCache
traffic per operator.
"""

from collections import defaultdict
from dataclasses import dataclass, replace

__all__ = [
    "OperatorRow",
    "operator_rows",
    "render_analysis",
    "render_traces",
    "render_cache_summary",
    "render_failures",
]


@dataclass
class OperatorRow:
    """One report row: an operator at its depth in the plan tree.

    ``elapsed`` and the cache counts are *self* values (the operator's
    span minus its child operators' spans), summed over the partitions
    the operator ran in.
    """

    depth: int
    describe: str
    elapsed: float = 0.0
    out_tuples: int = 0
    out_assignments: int = 0
    maybe_tuples: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: the local root a ``Gather`` leaf replaced (``None`` elsewhere)
    index: object = None


_SUMMED = ("elapsed", "out_tuples", "out_assignments", "maybe_tuples", "cache_hits", "cache_misses")

_TRACE_HEADERS = (
    "operator",
    "self time",
    "tuples",
    "assignments",
    "maybe",
    "cache hits",
    "cache misses",
)


def _subtree_rows(span, children, depth=0):
    """Depth-first rows of the operator tree rooted at ``span``."""
    ops = [c for c in children[span.span_id] if c.category == "operator"]
    attrs = span.attrs

    def own(key):
        return attrs.get(key, 0) - sum(c.attrs.get(key, 0) for c in ops)

    rows = [
        OperatorRow(
            depth,
            span.name,
            max(0.0, span.duration - sum(c.duration for c in ops)),
            attrs.get("tuples", 0),
            attrs.get("assignments", 0),
            attrs.get("maybe", 0),
            own("cache_hits"),
            own("cache_misses"),
            attrs.get("index"),
        )
    ]
    for op in ops:
        rows.extend(_subtree_rows(op, children, depth + 1))
    return rows


def _merge(row_lists):
    """Positionally merge one operator tree's rows from several partitions.

    Plan compilation is deterministic, so every partition lists the same
    operators in the same order: counts sum to the serial counts and
    self times to the total spent across partitions.
    """
    first = row_lists[0]
    if any(len(rows) != len(first) for rows in row_lists):
        raise ValueError("cannot merge traces of different plan shapes")
    return [
        replace(row, **{k: sum(getattr(rows[i], k) for rows in row_lists) for k in _SUMMED})
        for i, row in enumerate(first)
    ]


def operator_rows(spans, root):
    """The report rows for the operators recorded under ``root``.

    ``root`` is a predicate span.  Operator trees that ran in partition
    tasks (``scheduler.map`` > ``partition[i]``) merge across partitions
    by position; when the plan also has a global suffix, each merged
    local tree nests under the ``Gather`` row that consumed it.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start, s.span_id))
    suffix = []
    prefixes = []
    for span in children[root.span_id]:
        if span.category == "operator":
            suffix.extend(_subtree_rows(span, children))
        elif span.category == "scheduler":
            partitions = sorted(
                children[span.span_id], key=lambda p: p.attrs.get("partition", 0)
            )
            per_partition = [
                [
                    _subtree_rows(op, children)
                    for op in children[p.span_id]
                    if op.category == "operator"
                ]
                for p in partitions
            ]
            prefixes = [_merge(trees) for trees in zip(*per_partition)]
    if not suffix:
        return [row for rows in prefixes for row in rows]
    out = []
    for row in suffix:
        out.append(row)
        if row.index is not None:
            out.extend(
                replace(r, depth=r.depth + row.depth + 1) for r in prefixes[row.index]
            )
    return out


def render_traces(rows):
    """The per-operator table for a list of :class:`OperatorRow`.

    An empty list (a plan over an empty corpus, a predicate whose every
    partition was answered from the reuse cache) renders a valid
    placeholder line instead of a headers-only table fragment.
    """
    from repro.experiments.report import render_table

    if not rows:
        return "(no traced operators)"
    return render_table(
        _TRACE_HEADERS,
        [
            (
                "%s%s" % ("  " * row.depth, row.describe),
                "%.1f ms" % (row.elapsed * 1000.0),
                row.out_tuples,
                row.out_assignments,
                row.maybe_tuples,
                row.cache_hits,
                row.cache_misses,
            )
            for row in rows
        ],
    )


def _predicate_report(name, kind, span, spans):
    rows = operator_rows(spans, span)
    reused = span.attrs.get("partitions_reused", 0)
    if kind == "full" and not reused:
        if span.attrs.get("store_hits"):
            return "%s: hydrated from the result cache" % name
        return "%s: reused from the in-memory cache" % name
    if rows and reused:
        return (
            "%s:\n%s\n(%d clean partition(s) hydrated from the result cache;"
            " traces cover the recomputed ones)"
            % (name, render_traces(rows), reused)
        )
    if rows:
        return "%s:\n%s" % (name, render_traces(rows))
    if kind == "incremental":
        return "%s: added constraint(s) applied to the cached table" % name
    return "%s: all %d partition(s) hydrated from the result cache" % (name, reused)


def render_analysis(spans, order, recursive_groups, result):
    """The EXPLAIN ANALYZE report for one traced execution.

    ``spans`` are the spans that execution recorded (retried attempts
    included: the *last* span per predicate is the surviving one);
    ``order`` and ``recursive_groups`` are the engine's evaluation
    groups.  One section per group, the cache summary, then the failure
    section when the error policy contained anything.
    """
    last = {span.name: span for span in spans if span.category == "plan"}
    reports = []
    for group in order:
        kind = result.reuse_summary[group[0]]
        if group not in recursive_groups:
            name = group[0]
            span = last["predicate:%s" % name]
            reports.append(_predicate_report(name, kind, span, spans))
        elif kind == "full":
            reports.append(
                "%s: recursive group reused from the result cache" % " + ".join(group)
            )
        else:
            reports.append(
                "%s: recursive group evaluated semi-naively to fixpoint in %d "
                "iteration(s)"
                % (" + ".join(group), last["fixpoint:%s" % "+".join(group)].attrs["iterations"])
            )
    reports.append(render_cache_summary(result.stats))
    reports.append(render_failures(result.report))
    return "\n\n".join(r for r in reports if r)


def _rate(hits, misses):
    """``"12.3%"``, or ``"n/a"`` when there were no lookups at all.

    Guarding the zero-lookup case here matters twice over: it is the
    division-by-zero hazard, and rendering it as ``0.0%`` (or ``nan%``)
    misreads as "the cache never hit" when the truth is "the cache was
    never consulted" (e.g. a program with no domain constraints).
    """
    total = hits + misses
    if total <= 0:
        return "n/a"
    return "%.1f%%" % (100.0 * hits / total)


def render_cache_summary(stats):
    """One-paragraph EvalCache / feature-evaluation summary for a run.

    When the run touched a result cache (partition reuse or the
    persistent store), a second line reports the delta accounting;
    cacheless runs keep the historical single-line form.
    """
    text = (
        "eval cache: verify %d hit / %d miss (%s), "
        "refine %d hit / %d miss (%s); "
        "evaluations: %d verify, %d refine"
        % (
            stats.verify_cache_hits,
            stats.verify_cache_misses,
            _rate(stats.verify_cache_hits, stats.verify_cache_misses),
            stats.refine_cache_hits,
            stats.refine_cache_misses,
            _rate(stats.refine_cache_hits, stats.refine_cache_misses),
            stats.verify_calls,
            stats.refine_calls,
        )
    )
    delta_counters = (
        stats.partitions_reused,
        stats.partitions_recomputed,
        stats.result_cache_hits,
        stats.result_cache_misses,
    )
    if any(delta_counters):
        text += (
            "\nresult cache: %d partition(s) reused / %d recomputed; "
            "store %d hit / %d miss (%s)"
            % (
                stats.partitions_reused,
                stats.partitions_recomputed,
                stats.result_cache_hits,
                stats.result_cache_misses,
                _rate(stats.result_cache_hits, stats.result_cache_misses),
            )
        )
    return text


def render_failures(report):
    """The ``explain_analyze`` failure section, or ``""`` when clean.

    ``report`` is the execution's :class:`~repro.errors.ExecutionReport`
    (``None`` tolerated for legacy callers).  Clean fail-fast runs —
    the overwhelmingly common case — render nothing, so the analyze
    report only grows a section when there is something to say.
    """
    if report is None or not report:
        return ""
    return report.render()
