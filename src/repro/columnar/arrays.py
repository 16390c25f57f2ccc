"""Per-document numpy columns: the unit of columnar storage.

One :class:`DocColumns` holds every sorted position table the feature
indexes need, as ``int64`` arrays:

``token_starts`` / ``token_ends``
    all tokens, in document order (the arrays behind
    :class:`~repro.features.index.TokenArrays`);
``word_starts`` / ``word_ends``
    WORD tokens only;
``cap_starts`` / ``cap_ends`` / ``cap_run``
    capitalised WORD tokens with their maximal-run ids (the
    :class:`~repro.features.index.CapitalizedIndex` tables);
``num_starts`` / ``num_ends``
    NUMBER tokens (the :class:`~repro.features.index.NumericIndex`
    table);
``region(kind)``
    per region kind, ``(starts, ends, max_end_prefix)`` — the
    :class:`~repro.features.index.RegionIndex` interval arrays with the
    prefix-max precomputed.

Columns are derived purely from immutable document content, so they can
be built once, shared across threads, and inherited by forked workers —
there is nothing to invalidate.
"""

import numpy as np

from repro.text.tokenize import NUMBER, WORD

__all__ = ["DocColumns", "build_doc_columns"]

_I64 = np.int64
_EMPTY = np.empty(0, dtype=_I64)

#: Scalar column names, in canonical order.
SCALAR_COLUMNS = (
    "token_starts",
    "token_ends",
    "word_starts",
    "word_ends",
    "cap_starts",
    "cap_ends",
    "cap_run",
    "num_starts",
    "num_ends",
)


class DocColumns:
    """One document's position tables as ``int64`` numpy columns."""

    __slots__ = ("doc_id",) + SCALAR_COLUMNS + ("_regions",)

    def __init__(self, doc_id, regions=None, **columns):
        self.doc_id = doc_id
        for name in SCALAR_COLUMNS:
            setattr(self, name, columns.get(name, _EMPTY))
        #: region kind -> (starts, ends, max_end_prefix)
        self._regions = dict(regions or {})

    def region(self, kind):
        """``(starts, ends, max_end_prefix)`` arrays for one region kind."""
        return self._regions.get(kind, (_EMPTY, _EMPTY, _EMPTY))

    def region_kinds(self):
        return sorted(self._regions)

    def columns(self):
        """``(name, array)`` pairs: scalars, then each region kind's three."""
        out = [(name, getattr(self, name)) for name in SCALAR_COLUMNS]
        for kind in self.region_kinds():
            starts, ends, maxend = self._regions[kind]
            out.append(("region:%s:starts" % kind, starts))
            out.append(("region:%s:ends" % kind, ends))
            out.append(("region:%s:maxend" % kind, maxend))
        return out

    def __repr__(self):
        return "DocColumns(%r, %d tokens)" % (self.doc_id, len(self.token_starts))


def _as_column(values):
    return np.asarray(values, dtype=_I64)


def build_doc_columns(doc):
    """Build :class:`DocColumns` from a document (tokenizes once).

    One pass over the token stream fills every token-derived column;
    the capitalised-run sweep mirrors
    ``CapitalizedIndex``/``CapitalizedFeature`` exactly: a run is a
    maximal sequence of capitalised WORD tokens unbroken by a lowercase
    WORD token (non-word tokens neither break nor extend it).
    """
    token_starts = []
    token_ends = []
    word_starts = []
    word_ends = []
    cap_starts = []
    cap_ends = []
    cap_run = []
    num_starts = []
    num_ends = []
    run_id = -1
    in_run = False
    for token in doc.tokens:
        token_starts.append(token.start)
        token_ends.append(token.end)
        if token.kind == NUMBER:
            num_starts.append(token.start)
            num_ends.append(token.end)
        if token.kind != WORD:
            continue
        word_starts.append(token.start)
        word_ends.append(token.end)
        if token.text[:1].isupper():
            if not in_run:
                run_id += 1
                in_run = True
            cap_starts.append(token.start)
            cap_ends.append(token.end)
            cap_run.append(run_id)
        else:
            in_run = False
    regions = {}
    for kind, intervals in doc.regions.items():
        if not intervals:
            continue
        starts = _as_column([s for s, _ in intervals])
        ends = _as_column([e for _, e in intervals])
        regions[kind] = (starts, ends, np.maximum.accumulate(ends))
    return DocColumns(
        doc.doc_id,
        regions=regions,
        token_starts=_as_column(token_starts),
        token_ends=_as_column(token_ends),
        word_starts=_as_column(word_starts),
        word_ends=_as_column(word_ends),
        cap_starts=_as_column(cap_starts),
        cap_ends=_as_column(cap_ends),
        cap_run=_as_column(cap_run),
        num_starts=_as_column(num_starts),
        num_ends=_as_column(num_ends),
    )
