"""The document model.

A :class:`Document` is plain text plus *markup regions*: character-offset
intervals recording where the source HTML put bold, italics, hyperlinks,
list items, the page title, and section labels.  Features in
:mod:`repro.features` are defined purely in terms of this model, so the
IE engine never touches HTML directly.
"""

from dataclasses import dataclass

from repro.text.tokenize import tokenize

__all__ = ["Document", "Label", "REGION_KINDS"]

#: Region kinds a document may carry.  ``title`` is the page title /
#: top-level heading; ``list_item`` marks each <li>-like element.
REGION_KINDS = (
    "bold",
    "italic",
    "underline",
    "hyperlink",
    "title",
    "list_item",
)


@dataclass(frozen=True)
class Label:
    """A section label (header) with its text and character interval."""

    text: str
    start: int
    end: int


class Document:
    """Plain text plus markup regions and section labels.

    Parameters
    ----------
    doc_id:
        Unique identifier; spans hash and compare through it.
    text:
        The full plain text of the page (or page fragment / record).
    regions:
        Mapping from region kind (see :data:`REGION_KINDS`) to a list of
        ``(start, end)`` character intervals.  Intervals of one kind are
        expected to be non-overlapping; they are sorted on construction.
    labels:
        Section labels (headers), in document order.
    meta:
        Free-form provenance (source table, record index, ...).
    """

    __slots__ = ("doc_id", "text", "regions", "labels", "meta", "_tokens")

    def __init__(self, doc_id, text, regions=None, labels=None, meta=None):
        self.doc_id = doc_id
        self.text = text
        self.regions = {kind: [] for kind in REGION_KINDS}
        for kind, intervals in (regions or {}).items():
            if kind not in self.regions:
                raise ValueError("unknown region kind: %r" % (kind,))
            self.regions[kind] = sorted(tuple(iv) for iv in intervals)
        self.labels = list(labels or [])
        self.meta = dict(meta or {})
        self._tokens = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Document) and self.doc_id == other.doc_id

    def __hash__(self):
        return hash(self.doc_id)

    def __repr__(self):
        preview = self.text[:30].replace("\n", " ")
        return "Document(%r, %r...)" % (self.doc_id, preview)

    def __len__(self):
        return len(self.text)

    # ------------------------------------------------------------------
    # tokens
    # ------------------------------------------------------------------
    @property
    def tokens(self):
        """All tokens of the document text (computed once, cached)."""
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens

    def tokens_in(self, start, end):
        """Tokens lying entirely inside ``[start, end)``."""
        tokens = self.tokens
        # binary search for the first token starting at or after start
        # (tokens are sorted and do not overlap)
        lo, hi = 0, len(tokens)
        while lo < hi:
            mid = (lo + hi) // 2
            if tokens[mid].start < start:
                lo = mid + 1
            else:
                hi = mid
        out = []
        for index in range(lo, len(tokens)):
            token = tokens[index]
            if token.end > end:
                break
            out.append(token)
        return out

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    def regions_of(self, kind):
        """The sorted ``(start, end)`` intervals of region ``kind``."""
        if kind not in self.regions:
            raise ValueError("unknown region kind: %r" % (kind,))
        return self.regions[kind]

    def interval_covered_by(self, kind, start, end):
        """True if ``[start, end)`` lies inside one region of ``kind``."""
        for rstart, rend in self.regions[kind]:
            if rstart <= start and end <= rend:
                return True
            if rstart > start:
                break
        return False

    def regions_overlapping(self, kind, start, end):
        """Regions of ``kind`` that overlap ``[start, end)``."""
        out = []
        for rstart, rend in self.regions[kind]:
            if rend <= start:
                continue
            if rstart >= end:
                break
            out.append((rstart, rend))
        return out

    def preceding_label(self, offset):
        """The last :class:`Label` whose end is at or before ``offset``.

        Returns ``None`` when no label precedes the offset.  This backs
        the paper's *prec-label-contains* / *prec-label-max-dist*
        "higher-level" features (section 6.3).
        """
        best = None
        for label in self.labels:
            if label.end <= offset:
                best = label
            else:
                break
        return best
