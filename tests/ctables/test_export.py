"""Export tests (JSON / CSV / dict round-trips)."""

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.ctables.export import (
    JSONTextEncoder,
    assignment_to_dict,
    result_to_dict,
    table_to_csv,
    table_to_dicts,
    table_to_json,
)
from repro.text.document import Document
from repro.text.span import Span, doc_span


@pytest.fixture
def doc():
    return Document("ex", "Price: $351,000 today")


@pytest.fixture
def table(doc):
    t = CompactTable(["x", "p"])
    t.add(
        CompactTuple(
            [
                Cell.exact(doc_span(doc)),
                Cell((Exact(Span(doc, 7, 15)), Contain(Span(doc, 0, 15)))),
            ],
            maybe=True,
        )
    )
    t.add(CompactTuple([Cell.exact(42), Cell.expansion([Exact("a"), Exact("b")])]))
    return t


class TestAssignmentExport:
    def test_exact_span(self, doc):
        d = assignment_to_dict(Exact(Span(doc, 7, 15)))
        assert d["kind"] == "exact"
        assert d["span"]["text"] == "$351,000"
        assert d["span"]["doc"] == "ex"

    def test_exact_scalar(self):
        assert assignment_to_dict(Exact(5)) == {"kind": "exact", "value": 5}

    def test_contain(self, doc):
        d = assignment_to_dict(Contain(doc_span(doc)))
        assert d["kind"] == "contain"
        assert d["span"]["start"] == 0

    def test_rejects_non_assignment(self):
        with pytest.raises(TypeError):
            assignment_to_dict("nope")


class TestTableExport:
    def test_dicts_structure(self, table):
        exported = table_to_dicts(table)
        assert exported["attrs"] == ["x", "p"]
        assert exported["tuples"][0]["maybe"] is True
        assert exported["tuples"][1]["cells"]["p"]["expansion"] is True

    def test_json_round_trip(self, table):
        parsed = json.loads(table_to_json(table))
        assert parsed["attrs"] == ["x", "p"]
        assert len(parsed["tuples"]) == 2

    def test_csv_best_guess(self, table):
        rows = list(csv.reader(io.StringIO(table_to_csv(table))))
        assert rows[0] == ["x", "p", "maybe"]
        assert rows[1][1] == "$351,000"  # exact preferred over contain
        assert rows[1][2] == "?"
        assert rows[2][2] == ""

    def test_csv_without_maybe(self, table):
        rows = list(csv.reader(io.StringIO(table_to_csv(table, include_maybe_column=False))))
        assert rows[0] == ["x", "p"]


class TestResultExport:
    def test_execution_result(self, figure2_program, figure1_corpus):
        from repro.processor.executor import IFlexEngine

        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        exported = result_to_dict(result)
        assert exported["summary"]["tuples"] == 1
        assert "houses" in exported["tables"]
        json.dumps(exported)  # fully serialisable


# -- table_to_json: text written directly, byte-identical to the dicts ----

#: quotes, backslashes, control characters, non-ASCII and astral text
TRICKY_TEXT = st.text(
    alphabet=st.sampled_from('ab "\\/\n\t\x00\x1f\x7fé中\u2028😀'),
    max_size=8,
)

SCALARS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None]),
    TRICKY_TEXT,
)


def dict_json(table, indent):
    return json.dumps(table_to_dicts(table), indent=indent, ensure_ascii=False)


@st.composite
def shared_cell_tables(draw):
    """Tables whose tuples draw their cells from a small shared pool."""
    doc = Document(draw(TRICKY_TEXT), "x" + draw(TRICKY_TEXT))

    def span():
        start = draw(st.integers(0, len(doc.text)))
        return Span(doc, start, draw(st.integers(start, len(doc.text))))

    def assignment():
        kind = draw(st.sampled_from(["scalar", "span", "contain"]))
        if kind == "scalar":
            return Exact(draw(SCALARS))
        return Exact(span()) if kind == "span" else Contain(span())

    pool = [
        Cell(
            [assignment() for _ in range(draw(st.integers(0, 3)))],
            is_expansion=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    attrs = draw(st.lists(st.sampled_from(["a", "b", 'q"é']), max_size=4))
    table = CompactTable(attrs)
    for _ in range(draw(st.integers(0, 25))):
        table.add(
            CompactTuple(
                [draw(st.sampled_from(pool)) for _ in attrs],
                maybe=draw(st.booleans()),
            )
        )
    return table


class TestJSONText:
    @settings(max_examples=150, deadline=None)
    @given(shared_cell_tables(), st.sampled_from([None, 0, 2, 4]))
    def test_matches_dict_encoding(self, table, indent):
        assert table_to_json(table, indent=indent) == dict_json(table, indent)

    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_empty_tables(self, indent):
        for attrs in ([], ["x", "p"]):
            table = CompactTable(attrs)
            assert table_to_json(table, indent=indent) == dict_json(table, indent)
        zero_arity = CompactTable([], [CompactTuple([]), CompactTuple([], maybe=True)])
        assert table_to_json(zero_arity, indent=indent) == dict_json(zero_arity, indent)

    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_repeated_attribute_names_collapse_like_the_dict(self, indent, doc):
        """First name's position, last cell's value — as ``{attr: cell}`` does."""
        table = CompactTable(["x", "p", "x", "q"])
        table.add(
            CompactTuple(
                [
                    Cell.exact(1),
                    Cell.exact(doc_span(doc)),
                    Cell.exact("last x"),
                    Cell.contain(Span(doc, 0, 5)),
                ]
            )
        )
        text = table_to_json(table, indent=indent)
        assert text == dict_json(table, indent)
        cells = json.loads(text)["tuples"][0]["cells"]
        assert list(cells) == ["x", "p", "q"]
        assert cells["x"]["assignments"] == [{"kind": "exact", "value": "last x"}]

    @pytest.mark.parametrize("indent", [None, 2])
    def test_container_values_are_reindented(self, indent):
        table = CompactTable(["v"], [CompactTuple([Cell.exact((1, [2, {"k": "é"}]))])])
        assert table_to_json(table, indent=indent) == dict_json(table, indent)

    def test_each_distinct_cell_is_encoded_once(self, table, monkeypatch):
        shared = table.tuples[0].cells[1]
        cross = CompactTable(["a", "b"])
        for _ in range(50):
            cross.add(CompactTuple([shared, shared], maybe=True))
        encoded = []
        original = JSONTextEncoder._encode_cell

        def counting(self, cell):
            encoded.append(cell)
            return original(self, cell)

        monkeypatch.setattr(JSONTextEncoder, "_encode_cell", counting)
        assert table_to_json(cross, indent=2) == dict_json(cross, 2)
        assert encoded == [shared]
