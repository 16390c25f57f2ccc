"""A compact on-disk codec for :class:`~repro.ctables.ctable.CompactTable`.

The persistent result cache (:mod:`repro.columnar.results`) stores
evaluated partition tables as one flat ``int64`` array that holds the
table structure and every span reference, and a small JSON sidecar
holds what cannot live in the buffer — the attribute list, the
referenced ``doc_id`` strings, and the ``repr`` of scalar cell values.
The layout is length-prefixed throughout::

    [n_tuples]
      per tuple:       [maybe, n_cells]
      per cell:        [is_expansion, n_assignments]
      per assignment:  [kind, a, b, c]

with assignment kinds

    0  ``exact(span)``    a = doc index, b = start, c = end
    1  ``contain(span)``  a = doc index, b = start, c = end
    2  ``exact(scalar)``  a = index into the sidecar's scalar list

Scalars are persisted as ``repr`` strings and recovered with
``ast.literal_eval``; a value whose repr does not round-trip exactly
(type *and* value) raises :class:`CodecError` at encode time, so the
store skips persisting rather than ever serving an inexact table.
Decoding is equally strict: any structural defect — unknown kind, an
index out of range, a span outside its document, leftover or missing
buffer words — raises :class:`CodecError`, which the store layer maps
to "recompute".
"""

import ast

import numpy as np

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.text.span import Span

__all__ = ["CodecError", "RESULT_CODEC_VERSION", "decode_table", "encode_table"]

#: bump when the buffer layout or sidecar schema changes; persisted
#: results with another version are stale and rebuild (2: the result
#: store's sidecar carries a SHA-256 of the entry)
RESULT_CODEC_VERSION = 2

_KIND_EXACT_SPAN = 0
_KIND_CONTAIN = 1
_KIND_EXACT_SCALAR = 2

_I64 = np.int64


class CodecError(ValueError):
    """The table cannot be encoded, or the encoded form is corrupt."""


def _scalar_repr(value):
    """``repr(value)`` iff it round-trips exactly through literal_eval."""
    text = repr(value)
    try:
        recovered = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise CodecError("scalar %r does not round-trip" % (text,)) from exc
    if type(recovered) is not type(value) or recovered != value:
        raise CodecError("scalar %r does not round-trip" % (text,))
    return text


class _Interner:
    """Append-only value -> index table preserving first-seen order."""

    def __init__(self):
        self.values = []
        self._index = {}

    def index_of(self, key, value):
        position = self._index.get(key)
        if position is None:
            position = self._index[key] = len(self.values)
            self.values.append(value)
        return position


def encode_table(table):
    """``(data, meta)`` for a compact table.

    ``data`` is the flat ``int64`` buffer, ``meta`` the JSON-safe
    sidecar (``codec_version`` / ``attrs`` / ``doc_ids`` / ``scalars``
    / ``total``).  Raises :class:`CodecError` when the table holds a
    value the codec cannot represent exactly.
    """
    docs = _Interner()
    scalars = _Interner()
    words = [len(table.tuples)]
    for compact_tuple in table.tuples:
        words.append(1 if compact_tuple.maybe else 0)
        words.append(len(compact_tuple.cells))
        for cell in compact_tuple.cells:
            words.append(1 if cell.is_expansion else 0)
            words.append(len(cell.assignments))
            for assignment in cell.assignments:
                if isinstance(assignment, Contain):
                    span = assignment.span
                    words.extend(
                        (
                            _KIND_CONTAIN,
                            docs.index_of(span.doc.doc_id, span.doc.doc_id),
                            span.start,
                            span.end,
                        )
                    )
                elif isinstance(assignment, Exact):
                    value = assignment.value
                    if isinstance(value, Span):
                        words.extend(
                            (
                                _KIND_EXACT_SPAN,
                                docs.index_of(value.doc.doc_id, value.doc.doc_id),
                                value.start,
                                value.end,
                            )
                        )
                    else:
                        text = _scalar_repr(value)
                        words.extend(
                            (
                                _KIND_EXACT_SCALAR,
                                scalars.index_of((type(value).__name__, text), text),
                                0,
                                0,
                            )
                        )
                else:
                    raise CodecError(
                        "unencodable assignment %r" % (assignment,)
                    )
    data = np.asarray(words, dtype=_I64)
    meta = {
        "codec_version": RESULT_CODEC_VERSION,
        "attrs": [str(attr) for attr in table.attrs],
        "doc_ids": list(docs.values),
        "scalars": list(scalars.values),
        "total": int(len(data)),
    }
    return data, meta


class _Reader:
    """Bounds-checked cursor over the flat buffer."""

    def __init__(self, data):
        self.data = data
        self.position = 0

    def take(self, count=1):
        end = self.position + count
        if end > len(self.data):
            raise CodecError("buffer exhausted")
        values = [int(v) for v in self.data[self.position:end]]
        self.position = end
        return values

    def count(self, limit):
        """One word read as a non-negative, sanity-bounded count."""
        (value,) = self.take(1)
        if value < 0 or value > limit:
            raise CodecError("implausible count %d" % value)
        return value


def decode_table(data, meta, docs_by_id):
    """Rebuild a :class:`CompactTable` from its encoded form.

    ``docs_by_id`` maps ``doc_id`` to the live
    :class:`~repro.text.document.Document` spans rehydrate against —
    the decoded table is byte-identical (repr-exact) to the encoded
    one.  Raises :class:`CodecError` on any defect: version or document
    mismatch, malformed structure, spans outside their document.
    """
    if not isinstance(meta, dict):
        raise CodecError("meta is not a mapping")
    if meta.get("codec_version") != RESULT_CODEC_VERSION:
        raise CodecError(
            "codec version mismatch: %r" % (meta.get("codec_version"),)
        )
    attrs = meta.get("attrs")
    if not isinstance(attrs, list):
        raise CodecError("malformed attrs")
    try:
        docs = [docs_by_id[doc_id] for doc_id in meta.get("doc_ids", ())]
    except KeyError as exc:
        raise CodecError("unknown document %s" % (exc,)) from exc
    scalars = []
    for text in meta.get("scalars", ()):
        try:
            scalars.append(ast.literal_eval(text))
        except (ValueError, SyntaxError, TypeError) as exc:
            raise CodecError("malformed scalar %r" % (text,)) from exc
    data = np.asarray(data)
    if data.ndim != 1 or data.dtype != _I64:
        raise CodecError("unexpected buffer shape/dtype")
    reader = _Reader(data)
    word_limit = len(data)
    table = CompactTable(tuple(attrs))
    try:
        for _ in range(reader.count(word_limit)):
            maybe, = reader.take(1)
            cells = []
            for _ in range(reader.count(word_limit)):
                is_expansion, = reader.take(1)
                assignments = []
                for _ in range(reader.count(word_limit)):
                    kind, a, b, c = reader.take(4)
                    if kind in (_KIND_EXACT_SPAN, _KIND_CONTAIN):
                        if not 0 <= a < len(docs):
                            raise CodecError("document index out of range")
                        span = Span(docs[a], b, c)
                        assignments.append(
                            Contain(span) if kind == _KIND_CONTAIN else Exact(span)
                        )
                    elif kind == _KIND_EXACT_SCALAR:
                        if not 0 <= a < len(scalars):
                            raise CodecError("scalar index out of range")
                        assignments.append(Exact(scalars[a]))
                    else:
                        raise CodecError("unknown assignment kind %d" % kind)
                cells.append(Cell(assignments, is_expansion=bool(is_expansion)))
            table.add(CompactTuple(cells, maybe=bool(maybe)))
    except CodecError:
        raise
    except (ValueError, TypeError) as exc:
        # Span bounds violations and arity mismatches land here: the
        # constructors are the deepest structural validators we have
        raise CodecError(str(exc)) from exc
    if reader.position != len(data):
        raise CodecError(
            "trailing buffer words (%d of %d consumed)"
            % (reader.position, len(data))
        )
    return table
