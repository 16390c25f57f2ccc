"""Formatting / layout features backed by document markup regions.

One class covers them all: ``bold_font``, ``italic_font``,
``underlined``, ``hyperlinked``, ``in_list`` and ``in_title`` differ
only in which region kind of the document they consult.

Value semantics (section 2.2.2):

``yes``
    the span lies entirely inside one region of the kind;
``distinct_yes``
    additionally, the region contains no token outside the span — i.e.
    the span *is* the (token-trimmed) region, so the surrounding text is
    not formatted;
``no``
    the span lies entirely outside every region of the kind;
``distinct_no``
    no token of the span lies inside any region.
"""

from repro.features.base import (
    DISTINCT_NO,
    DISTINCT_YES,
    Feature,
    NO,
    YES,
    clip_intervals,
    complement_intervals,
    trim_to_tokens,
)
from repro.text.span import Span

__all__ = ["RegionFeature", "REGION_FEATURES"]


class RegionFeature(Feature):
    """A feature that holds when a span sits inside a markup region."""

    def __init__(self, name, region_kind):
        self.name = name
        self.region_kind = region_kind

    # ------------------------------------------------------------------
    def _trimmed_regions(self, doc, start, end):
        """Token-trimmed regions of our kind overlapping [start, end)."""
        out = []
        for rstart, rend in doc.regions_overlapping(self.region_kind, start, end):
            trimmed = trim_to_tokens(doc, rstart, rend)
            if trimmed is not None:
                out.append(trimmed)
        return out

    def verify(self, span, value):
        doc = span.doc
        if value == YES:
            return doc.interval_covered_by(self.region_kind, span.start, span.end)
        if value == DISTINCT_YES:
            for rstart, rend in doc.regions_of(self.region_kind):
                if rstart <= span.start and span.end <= rend:
                    trimmed = trim_to_tokens(doc, rstart, rend)
                    return trimmed is not None and (
                        trimmed[0] >= span.start and trimmed[1] <= span.end
                    )
            return False
        if value == NO:
            return not doc.regions_overlapping(self.region_kind, span.start, span.end)
        if value == DISTINCT_NO:
            overlapping = doc.regions_overlapping(self.region_kind, span.start, span.end)
            for rstart, rend in overlapping:
                if doc.tokens_in(max(rstart, span.start), min(rend, span.end)):
                    return False
            return True
        raise ValueError("unsupported value %r for feature %s" % (value, self.name))

    def refine(self, span, value):
        doc = span.doc
        if value == YES:
            regions = clip_intervals(
                doc.regions_of(self.region_kind), span.start, span.end
            )
            return [("contain", Span(doc, s, e)) for s, e in regions]
        if value == DISTINCT_YES:
            # The only satisfying spans are whole (token-trimmed)
            # regions; a clipped region would leave formatted text just
            # outside the span, violating distinctness.
            hints = []
            for rstart, rend in doc.regions_of(self.region_kind):
                if span.start <= rstart and rend <= span.end:
                    trimmed = trim_to_tokens(doc, rstart, rend)
                    if trimmed is not None:
                        hints.append(("exact", Span(doc, trimmed[0], trimmed[1])))
            return hints
        if value in (NO, DISTINCT_NO):
            gaps = complement_intervals(
                doc.regions_of(self.region_kind), span.start, span.end
            )
            return [("contain", Span(doc, s, e)) for s, e in gaps]
        raise ValueError("unsupported value %r for feature %s" % (value, self.name))


#: (name, region kind) of every built-in formatting/layout feature.
REGION_FEATURES = (
    ("bold_font", "bold"),
    ("italic_font", "italic"),
    ("underlined", "underline"),
    ("hyperlinked", "hyperlink"),
    ("in_list", "list_item"),
    ("in_title", "title"),
)
