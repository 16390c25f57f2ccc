"""CompactTable codec: round trips and strict corruption rejection.

The persistent result cache serves whatever this codec decodes, so the
contract is absolute: a decoded table is repr-identical to the encoded
one, and anything else — malformed buffers, stale versions, spans that
no longer fit their documents — raises :class:`CodecError` (which the
store layer maps to "recompute").
"""

from array import array

import pytest

from repro.ctables import (
    RESULT_CODEC_VERSION,
    Cell,
    CodecError,
    CompactTable,
    CompactTuple,
    Contain,
    Exact,
    decode_table,
    encode_table,
)
from repro.text import parse_html
from repro.text.span import Span


@pytest.fixture
def docs():
    return {
        d.doc_id: d
        for d in (
            parse_html("d1", "<p><b>Widget Alpha</b> $120.00 in 1999</p>"),
            parse_html("d2", "<title>Plain</title><p>no markup 42</p>"),
        )
    }


def _table(docs):
    d1, d2 = docs["d1"], docs["d2"]
    table = CompactTable(("x", "title", "votes"))
    table.add(
        CompactTuple(
            [
                Cell([Exact(Span(d1, 0, len(d1.text)))]),
                Cell(
                    [Contain(Span(d1, 0, 12)), Contain(Span(d1, 2, 8))],
                    is_expansion=True,
                ),
                Cell([Exact(24_000)]),
            ]
        )
    )
    table.add(
        CompactTuple(
            [
                Cell([Exact(Span(d2, 0, len(d2.text)))]),
                Cell([Exact(Span(d2, 7, 12))]),
                Cell([Exact("n/a"), Exact(3.5), Exact(-1)]),
            ],
            maybe=True,
        )
    )
    return table


def huge_span(doc):
    """A span of ``doc`` whose end offset lies beyond the int64 range."""
    span = object.__new__(Span)
    for name, value in (("doc", doc), ("start", 0), ("end", 2**63)):
        object.__setattr__(span, name, value)
    return span


def _image(table):
    return (table.attrs, [repr(t) for t in table.tuples])


class TestRoundTrip:
    def test_byte_identical_round_trip(self, docs):
        table = _table(docs)
        data, meta = encode_table(table)
        decoded = decode_table(data, meta, docs)
        assert _image(decoded) == _image(table)

    def test_empty_table_round_trips(self, docs):
        table = CompactTable(("a",))
        data, meta = encode_table(table)
        assert decode_table(data, meta, docs).tuples == []
        assert meta["doc_ids"] == [] and meta["scalars"] == []

    def test_meta_is_json_safe(self, docs):
        import json

        _, meta = encode_table(_table(docs))
        assert json.loads(json.dumps(meta)) == meta
        assert meta["codec_version"] == RESULT_CODEC_VERSION

    def test_scalar_types_survive(self, docs):
        table = CompactTable(("v",))
        for value in ("text", 0, -7, 3.25, True, False, None):
            table.add(CompactTuple([Cell([Exact(value)])]))
        data, meta = encode_table(table)
        decoded = decode_table(data, meta, docs)
        values = [t.cells[0].assignments[0].value for t in decoded.tuples]
        assert values == ["text", 0, -7, 3.25, True, False, None]
        assert [type(v) for v in values] == [
            str, int, int, float, bool, bool, type(None)
        ]

    def test_unencodable_scalar_raises(self, docs):
        table = CompactTable(("v",))
        table.add(CompactTuple([Cell([Exact(object())])]))
        with pytest.raises(CodecError):
            encode_table(table)


class TestCorruptionRejection:
    def _encoded(self, docs):
        return encode_table(_table(docs))

    def test_version_mismatch(self, docs):
        data, meta = self._encoded(docs)
        meta = dict(meta, codec_version=RESULT_CODEC_VERSION + 1)
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_unknown_document(self, docs):
        data, meta = self._encoded(docs)
        with pytest.raises(CodecError):
            decode_table(data, meta, {"other": docs["d1"]})

    def test_truncated_buffer(self, docs):
        data, meta = self._encoded(docs)
        with pytest.raises(CodecError):
            decode_table(data[:-3], meta, docs)

    def test_trailing_words(self, docs):
        data, meta = self._encoded(docs)
        padded = data + array("q", [0] * 4)
        with pytest.raises(CodecError):
            decode_table(padded, meta, docs)

    def test_span_outside_document(self, docs):
        data, meta = self._encoded(docs)
        # first exact-span assignment: [kind, doc, start, end] right
        # after [n_tuples][maybe, n_cells][is_expansion, n_assignments]
        assert data[5] == 0  # kind: exact span
        data[8] = 10_000  # end beyond the document text
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_negative_count_rejected(self, docs):
        data, meta = self._encoded(docs)
        data[0] = -1
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_bad_assignment_kind(self, docs):
        data, meta = self._encoded(docs)
        data[5] = 99
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_scalar_index_out_of_range(self, docs):
        data, meta = self._encoded(docs)
        meta = dict(meta, scalars=[])
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_malformed_scalar_repr(self, docs):
        data, meta = self._encoded(docs)
        meta = dict(meta, scalars=["not ( a literal"] * len(meta["scalars"]))
        with pytest.raises(CodecError):
            decode_table(data, meta, docs)

    def test_wrong_dtype_rejected(self, docs):
        data, meta = self._encoded(docs)
        with pytest.raises(CodecError):
            decode_table(array("d", data), meta, docs)
        with pytest.raises(CodecError):
            decode_table(list(data), meta, docs)

    def test_out_of_range_word_raises(self, docs):
        """A word beyond int64 cannot be encoded; no real document is that
        long, so the span is built past its own bounds check."""
        table = CompactTable(("x",))
        table.add(CompactTuple([Cell([Exact(huge_span(docs["d1"]))])]))
        with pytest.raises(CodecError):
            encode_table(table)
