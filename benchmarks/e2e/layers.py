"""Per-layer attribution of one traced benchmark section.

The harness records a span around every call it makes into a layer's
public functions (``parse_html``, ``analyze_program``, the engine
constructor, ``table_to_json``, the service calls) on the same
:class:`~repro.observability.spans.Tracer` it hands to the engine and
the refinement session, so the program's own engine / plan / operator /
partition / session spans nest under the harness spans.

A span's *self time* is its duration minus the union of its children's
intervals, clipped to the span itself.  The union matters: operator
spans are laid out synthetically from per-operator durations after the
plan finished, so children can overlap one another, and subtracting
their summed durations would drive the parent negative.

Feature spans (one per Verify/Refine batch) are an overlay, not a tree
level: they are recorded while an operator runs but hang off the
predicate span, beside the operator spans that already contain their
time.  They are summed on their own (``features.verify_batch_s``) and
left out of the self-time tree, so no second of the section is counted
twice and ``trace.coverage`` (attributed self time over the section's
wall time) stays an honest check of the attribution.
"""

import collections

__all__ = ["OPERATOR_METRICS", "attribute", "self_times"]

#: operator-span name prefix -> metric (operator spans are named by
#: ``Operator.describe()``)
OPERATOR_METRICS = (
    ("ScanRel[", "processor.scan_s"),
    ("Scan[", "processor.scan_s"),
    ("Table[", "processor.scan_s"),
    ("From[", "processor.from_s"),
    ("Select[", "processor.select_s"),
    ("PPredicate[", "processor.select_s"),
    ("Join[", "processor.join_s"),
    ("Project[", "processor.project_s"),
    ("Annotate[", "processor.annotate_s"),
    # the in-plan fan-in folds; the partition-cache fold happens in the
    # predicate span itself, so both land in predicate_s
    ("Gather[", "processor.predicate_s"),
    ("Union[", "processor.predicate_s"),
)

#: span category -> metric, for every category that is not an operator
CATEGORY_METRICS = {
    "text": "text.parse_s",
    "analysis": "analysis.lint_s",
    "engine": "processor.engine_s",
    "plan": "processor.predicate_s",
    "scheduler": "processor.scheduler_s",
    "partition": "processor.partition_s",
    "ctables": "ctables.encode_s",
    "session": "assistant.select_s",
    "assistant": "assistant.select_s",
    "service": "service.state_s",
}

#: harness spans in the ``processor`` category, by name
PROCESSOR_METRICS = {"init": "processor.init_s", "execute": "processor.engine_s"}

#: every time metric a section can attribute self time to
TIME_METRICS = tuple(
    sorted(
        set(CATEGORY_METRICS.values())
        | set(PROCESSOR_METRICS.values())
        | {metric for _, metric in OPERATOR_METRICS}
    )
)

OVERLAY_CATEGORY = "feature"


def classify(span):
    """The self-time metric a (non-overlay) span belongs to, or None."""
    if span.category == "operator":
        for prefix, metric in OPERATOR_METRICS:
            if span.name.startswith(prefix):
                return metric
        return None
    if span.category == "processor":
        return PROCESSOR_METRICS.get(span.name)
    return CATEGORY_METRICS.get(span.category)


def _union_length(intervals):
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """``{span_id: self seconds}`` over the tree of non-overlay spans.

    Never negative: the union of the clipped children cannot exceed the
    span.  Children of an overlay span are re-parented to its nearest
    non-overlay ancestor before the subtraction.
    """
    by_id = {span.span_id: span for span in spans}

    def tree_parent(span):
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.category == OVERLAY_CATEGORY:
            parent = by_id.get(parent.parent_id)
        return parent

    children = collections.defaultdict(list)
    tree = [span for span in spans if span.category != OVERLAY_CATEGORY]
    for span in tree:
        parent = tree_parent(span)
        if parent is not None:
            children[parent.span_id].append(span)
    result = {}
    for span in tree:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.span_id]
            if child.end > span.start and child.start < span.end
        ]
        result[span.span_id] = span.duration - _union_length(clipped)
    return result


def attribute(spans, wall):
    """Per-layer seconds for one traced section of ``wall`` seconds.

    Returns ``(metrics, unattributed)``: every time metric of
    :data:`TIME_METRICS` (0.0 when the layer did not run),
    ``features.verify_batch_s`` from the overlay, ``trace.coverage``,
    and the span names whose self time no layer claims, with their
    seconds (harness glue shows up there).
    """
    metrics = dict.fromkeys(TIME_METRICS, 0.0)
    unattributed = collections.Counter()
    own = self_times(spans)
    for span in spans:
        if span.category == OVERLAY_CATEGORY:
            continue
        seconds = own[span.span_id]
        metric = classify(span)
        if metric is None:
            unattributed[span.name] += seconds
        else:
            metrics[metric] += seconds
    metrics["features.verify_batch_s"] = sum(
        span.duration for span in spans if span.category == OVERLAY_CATEGORY
    )
    metrics["trace.coverage"] = sum(metrics[m] for m in TIME_METRICS) / wall
    return metrics, dict(unattributed)
