"""Per-document feature indexes: ``Verify``/``Refine`` as array lookups.

The naive feature implementations in :mod:`repro.features.syntactic` and
:mod:`repro.features.formatting` re-scan a document's tokens (or region
list) on every ``Verify``/``Refine`` call.  Constraint pushdown calls
them once per assignment, per constraint, per rule — so the same linear
scans repeat thousands of times over the same unchanged text.

This module turns those scans into index lookups, SystemT-style: a
feature that can be indexed builds one :class:`FeatureIndex` per
document (sorted token-position arrays, region interval arrays,
capitalised-run tables), after which ``Verify(s, f, v)`` is a pair of
bisections and ``Refine(s, f, v)`` enumerates the maximal satisfying
sub-spans directly from the precomputed arrays.

The position tables themselves live in the columnar storage tier
(:mod:`repro.columnar`): ``int64`` numpy columns built once per
document and shared by every index over that document.  On top of the
scalar contract the indexes expose *batch* kernels (:meth:`FeatureIndex.verify_batch` /
:meth:`FeatureIndex.refine_batch`): one ``np.searchsorted`` over a
whole span batch instead of a Python-level bisection per span.

Correctness contract
--------------------
An index is an *accelerator*, never a semantics change: for every
``(span, value)`` it answers, the result must be byte-identical to the
naive implementation — same hints, same modes, same order.  When an
index cannot answer (an unsupported value, a feature aspect that
depends on raw text the index does not capture), it returns ``None``
and the caller falls back to the naive path.  The batch kernels answer
exactly the values their scalar counterparts do
(:meth:`~FeatureIndex.can_verify_batch` gates them), so batched and
scalar evaluation produce identical results *and* identical statistics.
The differential tests in ``tests/processor/test_index_equivalence.py``
enforce both contracts on generated documents.

IndexableFeature protocol
-------------------------
A feature opts in by overriding :meth:`Feature.build_index
<repro.features.base.Feature.build_index>` to return a
:class:`FeatureIndex` (the default returns ``None``, meaning "not
indexable" — the structural signal behind
:meth:`~repro.features.base.Feature.capability`).  :class:`IndexStore`
calls ``build_index`` lazily, once per ``(feature, document)``, and
shares one :class:`TokenArrays` per document across all features.
"""

import numpy as np

from repro.columnar.arrays import build_doc_columns
from repro.features.base import (
    DISTINCT_NO,
    DISTINCT_YES,
    NO,
    YES,
)
from repro.text.span import Span

__all__ = [
    "TokenArrays",
    "FeatureIndex",
    "IndexableFeature",
    "IndexStore",
    "NumericIndex",
    "CapitalizedIndex",
    "RegionIndex",
    "TokenWindowIndex",
]


def _searchsorted(array, value, side):
    return int(np.searchsorted(array, value, side=side))


class TokenArrays:
    """Sorted start/end offset arrays over one document's tokens.

    Tokens are non-overlapping and emitted in document order, so both
    arrays are sorted and the tokens fully inside ``[start, end)`` form
    the contiguous index range returned by :meth:`range_in` — the
    ``searchsorted`` form of ``Document.tokens_in``.  The arrays are
    views of the document's :class:`~repro.columnar.arrays.DocColumns`.
    """

    __slots__ = ("doc", "columns", "starts", "ends")

    def __init__(self, doc):
        self.doc = doc
        self.columns = build_doc_columns(doc)
        self.starts = self.columns.token_starts
        self.ends = self.columns.token_ends

    @property
    def tokens(self):
        """The document's token objects (naive-path compatibility)."""
        return self.doc.tokens

    def range_in(self, start, end):
        """``(lo, hi)`` such that ``tokens[lo:hi]`` lie fully inside."""
        lo = _searchsorted(self.starts, start, "left")
        return lo, max(lo, _searchsorted(self.ends, end, "right"))

    def has_token_in(self, start, end):
        lo, hi = self.range_in(start, end)
        return lo < hi


class FeatureIndex:
    """Base class for per-document feature indexes.

    The scalar methods return ``None`` when the index cannot answer for
    the given value; the execution context then falls back to the
    feature's naive implementation.  Answers must match the naive path
    exactly.

    The batch methods answer a whole span batch (``starts``/``ends``
    are aligned ``int64`` arrays) in one kernel.  ``can_*_batch`` must
    be exact: when it says yes, the kernel answers every span of the
    batch with the same result the scalar method would — that is what
    keeps batched and scalar statistics identical.
    """

    def verify(self, span, value):
        """``True``/``False``, or ``None`` to fall back."""
        return None

    def refine(self, span, value):
        """A list of ``(mode, span)`` hints, or ``None`` to fall back."""
        return None

    # ------------------------------------------------------------------
    # batch kernels
    # ------------------------------------------------------------------
    def can_verify_batch(self, value):
        """True when :meth:`verify_batch` answers this value for every span."""
        return False

    def verify_batch(self, starts, ends, value):
        """``bool`` ndarray aligned with the span batch."""
        return None

    def can_refine_batch(self, value):
        """True when :meth:`refine_batch` answers this value for every span."""
        return False

    def refine_batch(self, doc, starts, ends, value):
        """Per-span hint tuples, aligned with the span batch."""
        return None


class IndexableFeature:
    """The protocol an indexable feature implements (documentation aid).

    Any :class:`~repro.features.base.Feature` whose ``build_index(doc,
    arrays)`` returns a :class:`FeatureIndex` participates; features
    inheriting the default (``None``) are evaluated naively.  The
    built-in implementations: :class:`NumericIndex`,
    :class:`CapitalizedIndex`, :class:`RegionIndex` (six formatting
    features) and :class:`TokenWindowIndex` (``max_length``).
    """

    def build_index(self, doc, arrays):
        raise NotImplementedError


class IndexStore:
    """Lazy cache of per-document feature indexes.

    Keys are ``(feature name, doc_id)``; unsupported features cache
    ``None`` so the build attempt happens once.  One store may be shared
    across execution contexts, partitions, and assistant simulations —
    indexes depend only on immutable document content, so there is
    nothing to invalidate.  Two threads sharing a store may race to
    build the same index; both build the same value, so the duplicate
    work is benign (``built`` is therefore a diagnostic
    counter, not part of :class:`~repro.processor.context.ExecutionStats`).
    """

    __slots__ = ("_arrays", "_indexes", "built")

    def __init__(self):
        self._arrays = {}
        self._indexes = {}
        self.built = 0

    def arrays(self, doc):
        arrays = self._arrays.get(doc.doc_id)
        if arrays is None:
            arrays = TokenArrays(doc)
            self._arrays[doc.doc_id] = arrays
        return arrays

    def index_for(self, feature, doc):
        """The feature's index over ``doc``, or ``None`` if unindexable."""
        key = (feature.name, doc.doc_id)
        try:
            return self._indexes[key]
        except KeyError:
            index = None
            if feature.capability().indexable:
                index = feature.build_index(doc, self.arrays(doc))
            if index is not None:
                self.built += 1
            self._indexes[key] = index
            return index

    def invalidate(self, doc_ids):
        """Drop cached arrays/indexes for the given documents.

        Needed only when a document is *edited in place* (same id, new
        content) — the resident service's upsert path; mere additions
        and removals never stale anything.
        """
        doc_ids = set(doc_ids)
        for doc_id in doc_ids:
            self._arrays.pop(doc_id, None)
        for key in [k for k in self._indexes if k[1] in doc_ids]:
            del self._indexes[key]

    def __len__(self):
        return len(self._indexes)


# ----------------------------------------------------------------------
# index implementations
# ----------------------------------------------------------------------

class NumericIndex(FeatureIndex):
    """Positions of the document's NUMBER tokens.

    Only ``refine`` is indexed: naive ``verify`` parses the span text
    (``parse_number`` accepts ``$`` prefixes and comma separators that
    cross token boundaries), so its answer cannot be derived from the
    token table alone.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, doc, arrays):
        self.starts = arrays.columns.num_starts
        self.ends = arrays.columns.num_ends

    def _range(self, start, end):
        lo = _searchsorted(self.starts, start, "left")
        return lo, max(lo, _searchsorted(self.ends, end, "right"))

    def _hints(self, doc, start, end, lo, hi, value):
        if value in (YES, DISTINCT_YES):
            return [
                ("exact", Span(doc, s, e))
                for s, e in zip(
                    self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist()
                )
            ]
        if value == NO:
            from repro.features.base import complement_intervals

            gaps = complement_intervals(
                list(
                    zip(self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist())
                ),
                start,
                end,
            )
            return [("contain", Span(doc, s, e)) for s, e in gaps]
        return None  # unsupported value: naive path raises

    def refine(self, span, value):
        lo, hi = self._range(span.start, span.end)
        return self._hints(span.doc, span.start, span.end, lo, hi, value)

    def can_refine_batch(self, value):
        return value in (YES, DISTINCT_YES, NO)

    def refine_batch(self, doc, starts, ends, value):
        los = np.searchsorted(self.starts, starts, side="left")
        his = np.maximum(los, np.searchsorted(self.ends, ends, side="right"))
        return [
            self._hints(doc, int(s), int(e), int(lo), int(hi), value)
            for s, e, lo, hi in zip(
                starts.tolist(), ends.tolist(), los.tolist(), his.tolist()
            )
        ]


class CapitalizedIndex(FeatureIndex):
    """Word/capitalised-word positions plus maximal capitalised runs.

    A *run* is a maximal sequence of capitalised WORD tokens not broken
    by a lowercase WORD token (non-word tokens neither break nor extend
    a run — mirroring ``CapitalizedFeature.refine``).  Tokens fully
    inside a span are contiguous in document order, so a span clips each
    run to its in-span cap tokens and two runs can never merge: the
    lowercase word separating them is itself inside the span.  The
    tables are the document's precomputed
    :class:`~repro.columnar.arrays.DocColumns` cap-run columns.
    """

    __slots__ = ("word_starts", "word_ends", "cap_starts", "cap_ends", "cap_run")

    def __init__(self, doc, arrays):
        columns = arrays.columns
        self.word_starts = columns.word_starts
        self.word_ends = columns.word_ends
        self.cap_starts = columns.cap_starts
        self.cap_ends = columns.cap_ends
        self.cap_run = columns.cap_run

    def _word_count(self, span):
        lo = _searchsorted(self.word_starts, span.start, "left")
        return max(0, _searchsorted(self.word_ends, span.end, "right") - lo)

    def _cap_range(self, start, end):
        lo = _searchsorted(self.cap_starts, start, "left")
        return lo, max(lo, _searchsorted(self.cap_ends, end, "right"))

    def verify(self, span, value):
        words = self._word_count(span)
        lo, hi = self._cap_range(span.start, span.end)
        satisfied = words > 0 and (hi - lo) == words
        if value == YES:
            return satisfied
        if value == NO:
            return not satisfied
        return None

    def can_verify_batch(self, value):
        return value in (YES, NO)

    def verify_batch(self, starts, ends, value):
        words = np.maximum(
            np.searchsorted(self.word_ends, ends, side="right")
            - np.searchsorted(self.word_starts, starts, side="left"),
            0,
        )
        caps = np.maximum(
            np.searchsorted(self.cap_ends, ends, side="right")
            - np.searchsorted(self.cap_starts, starts, side="left"),
            0,
        )
        satisfied = (words > 0) & (caps == words)
        return satisfied if value == YES else ~satisfied

    def _run_hints(self, doc, lo, hi):
        cap_run = self.cap_run
        hints = []
        i = lo
        while i < hi:
            run = cap_run[i]
            j = i
            while j + 1 < hi and cap_run[j + 1] == run:
                j += 1
            hints.append(
                (
                    "contain",
                    Span(doc, int(self.cap_starts[i]), int(self.cap_ends[j])),
                )
            )
            i = j + 1
        return hints

    def refine(self, span, value):
        if value != YES:
            return None  # naive path: one loose contain over the span
        lo, hi = self._cap_range(span.start, span.end)
        return self._run_hints(span.doc, lo, hi)

    def can_refine_batch(self, value):
        return value == YES

    def refine_batch(self, doc, starts, ends, value):
        los = np.searchsorted(self.cap_starts, starts, side="left")
        his = np.maximum(los, np.searchsorted(self.cap_ends, ends, side="right"))
        return [
            self._run_hints(doc, int(lo), int(hi))
            for lo, hi in zip(los.tolist(), his.tolist())
        ]


class RegionIndex(FeatureIndex):
    """One markup kind's regions with prefix-max ends and trim memo.

    ``max_end_prefix[i]`` is the largest end among ``regions[: i + 1]``
    — coverage and overlap tests become bisections that stay correct
    even when regions of a kind overlap (the document model sorts but
    does not merge them).  ``distinct`` checks reuse the token arrays,
    and each region's token trim is computed once instead of per call.
    The interval arrays come precomputed from the document's
    :class:`~repro.columnar.arrays.DocColumns`.
    """

    __slots__ = ("regions", "starts", "max_end_prefix", "arrays", "_trimmed")

    def __init__(self, doc, arrays, region_kind):
        self.regions = doc.regions_of(region_kind)
        self.starts, _, self.max_end_prefix = arrays.columns.region(region_kind)
        self.arrays = arrays
        self._trimmed = {}

    def _trim(self, rstart, rend):
        """``trim_to_tokens`` of one region, memoized."""
        key = (rstart, rend)
        try:
            return self._trimmed[key]
        except KeyError:
            lo, hi = self.arrays.range_in(rstart, rend)
            trimmed = (
                None
                if lo >= hi
                else (int(self.arrays.starts[lo]), int(self.arrays.ends[hi - 1]))
            )
            self._trimmed[key] = trimmed
            return trimmed

    def verify(self, span, value):
        if value == YES:
            # covered iff some region starts at/before the span and the
            # furthest end among those reaches the span end
            k = _searchsorted(self.starts, span.start, "right")
            return bool(k > 0 and self.max_end_prefix[k - 1] >= span.end)
        if value == NO:
            # overlap iff some region starting before the span end
            # reaches past the span start
            k = _searchsorted(self.starts, span.end, "left")
            return bool(k == 0 or self.max_end_prefix[k - 1] <= span.start)
        if value == DISTINCT_YES:
            # first containing region in sorted order, as the naive loop
            k = _searchsorted(self.starts, span.start, "right")
            for i in range(k):
                if self.regions[i][1] >= span.end:
                    trimmed = self._trim(*self.regions[i])
                    return trimmed is not None and (
                        trimmed[0] >= span.start and trimmed[1] <= span.end
                    )
            return False
        if value == DISTINCT_NO:
            k = _searchsorted(self.starts, span.end, "left")
            for i in range(k):
                rstart, rend = self.regions[i]
                if rend <= span.start:
                    continue
                if self.arrays.has_token_in(
                    max(rstart, span.start), min(rend, span.end)
                ):
                    return False
            return True
        return None

    def can_verify_batch(self, value):
        # the distinct variants walk candidate regions per span; the
        # scalar path (still index-backed) handles them
        return value in (YES, NO)

    def verify_batch(self, starts, ends, value):
        if value == YES:
            k = np.searchsorted(self.starts, starts, side="right")
            out = np.zeros(len(starts), dtype=bool)
            nz = k > 0
            out[nz] = self.max_end_prefix[k[nz] - 1] >= ends[nz]
            return out
        k = np.searchsorted(self.starts, ends, side="left")
        out = np.ones(len(starts), dtype=bool)
        nz = k > 0
        out[nz] = self.max_end_prefix[k[nz] - 1] <= starts[nz]
        return out

    def refine(self, span, value):
        if value != DISTINCT_YES:
            # yes/no refine is a single interval clip/complement over
            # the (short) region list; the naive path is already cheap
            return None
        hints = []
        for i in range(
            _searchsorted(self.starts, span.start, "left"), len(self.regions)
        ):
            rstart, rend = self.regions[i]
            if rstart > span.end:
                break
            if rend <= span.end:
                trimmed = self._trim(rstart, rend)
                if trimmed is not None:
                    hints.append(("exact", Span(span.doc, trimmed[0], trimmed[1])))
        return hints


class TokenWindowIndex(FeatureIndex):
    """Token-window endpoints for length-capped refinement.

    ``max_length`` refinement slides a token window: for each start
    token the furthest end token still within the character budget.
    With sorted end offsets that endpoint is one bisection instead of
    the naive linear extension — and for a batch, the whole window
    column ``w_end[i] = max { j : ends[j] <= starts[i] + limit }`` is
    computed once per limit with a single vectorized ``searchsorted``
    and reused across every span (memoized in ``_windows``).
    """

    __slots__ = ("arrays", "_windows")

    def __init__(self, doc, arrays):
        self.arrays = arrays
        self._windows = {}

    def verify(self, span, value):
        # length is span arithmetic, no document scan — answered here so
        # the call is cached and counted as indexed work
        return len(span) <= int(value)

    def can_verify_batch(self, value):
        try:
            int(value)
        except (TypeError, ValueError):
            return False
        return True

    def verify_batch(self, starts, ends, value):
        return (ends - starts) <= int(value)

    def _window_ends(self, limit):
        """``w_end`` column for one limit: furthest in-budget token."""
        windows = self._windows.get(limit)
        if windows is None:
            starts, ends = self.arrays.starts, self.arrays.ends
            windows = np.searchsorted(ends, starts + limit, side="right") - 1
            self._windows[limit] = windows
        return windows

    def refine(self, span, value):
        limit = int(value)
        if len(span) <= limit:
            return [("contain", span)]
        lo, hi = self.arrays.range_in(span.start, span.end)
        return self._window_hints(span.doc, lo, hi, limit)

    def _window_hints(self, doc, lo, hi, limit):
        starts, ends = self.arrays.starts, self.arrays.ends
        w_end = self._window_ends(limit)
        hints = []
        prev_j = -1
        for i in range(lo, hi):
            if ends[i] - starts[i] > limit:
                continue
            # the global window end, clipped to the span's token range —
            # equal to the bounded bisection because ends is sorted
            j = min(int(w_end[i]), hi - 1)
            if j > prev_j:  # maximal: not contained in the previous window
                hints.append(("contain", Span(doc, int(starts[i]), int(ends[j]))))
                prev_j = j
        return hints

    def can_refine_batch(self, value):
        return self.can_verify_batch(value)

    def refine_batch(self, doc, starts, ends, value):
        limit = int(value)
        token_starts, token_ends = self.arrays.starts, self.arrays.ends
        los = np.searchsorted(token_starts, starts, side="left")
        his = np.maximum(
            los, np.searchsorted(token_ends, ends, side="right")
        )
        out = []
        for s, e, lo, hi in zip(
            starts.tolist(), ends.tolist(), los.tolist(), his.tolist()
        ):
            if e - s <= limit:
                out.append([("contain", Span(doc, s, e))])
            else:
                out.append(self._window_hints(doc, lo, hi, limit))
        return out

