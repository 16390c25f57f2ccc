"""Compact table structure tests (paper section 3, Definition 3)."""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.text.document import Document
from repro.text.span import Span, doc_span


@pytest.fixture
def doc():
    return Document("d", "Basktall Cherry Hills 92 acres")


class TestCell:
    def test_exact_constructor(self):
        cell = Cell.exact(5)
        assert cell.assignments == (Exact(5),)
        assert not cell.is_expansion

    def test_expansion_constructor(self, doc):
        cell = Cell.expansion([Contain(doc_span(doc))])
        assert cell.is_expansion

    def test_rejects_non_assignments(self):
        with pytest.raises(TypeError):
            Cell(["raw value"])

    def test_enumerate_values_dedupes(self, doc):
        span = Span(doc, 22, 24)  # "92"
        cell = Cell((Exact(span), Contain(span)))
        values, complete = cell.enumerate_values()
        assert complete
        assert len(values) == 1

    def test_enumerate_values_limit_zero(self, doc):
        # a zero budget yields nothing and reports the enumeration
        # incomplete — the PPredicateOp cap check relies on this
        cell = Cell((Exact(1), Exact(2)))
        assert cell.enumerate_values(limit=0) == ([], False)

    def test_enumerate_values_limit_zero_empty_cell_is_complete(self):
        # with no assignments there is nothing left to enumerate, so
        # even a zero budget covers everything
        assert Cell(()).enumerate_values(limit=0) == ([], True)

    def test_enumerate_values_limit_spans_assignments(self, doc):
        cell = Cell((Exact(1), Exact(2), Exact(3)))
        values, complete = cell.enumerate_values(limit=2)
        assert values == [1, 2]
        assert not complete
        values, complete = cell.enumerate_values(limit=3)
        assert values == [1, 2, 3]
        assert complete

    def test_enumerate_values_limit_counts_distinct(self, doc):
        # duplicates don't consume budget: the limit bounds *distinct*
        # values, matching the dedup in the unlimited path
        span = Span(doc, 22, 24)  # "92"
        cell = Cell((Exact(span), Contain(span), Exact(99)))
        values, complete = cell.enumerate_values(limit=2)
        assert complete
        assert len(values) == 2

    def test_multiplicity(self, doc):
        choice = Cell((Exact(1), Exact(2)))
        assert choice.multiplicity() == 1
        expansion = Cell((Exact(1), Exact(2)), is_expansion=True)
        assert expansion.multiplicity() == 2

    def test_empty_cell(self):
        assert Cell(()).is_empty()

    def test_equality_ignores_order(self):
        a = Cell((Exact(1), Exact(2)))
        b = Cell((Exact(2), Exact(1)))
        assert a == b

    def test_expansion_flag_in_equality(self):
        assert Cell((Exact(1),)) != Cell((Exact(1),), is_expansion=True)


class TestCompactTuple:
    def test_maybe_flag(self):
        t = CompactTuple([Cell.exact(1)])
        assert not t.maybe
        assert t.as_maybe().maybe
        assert t.as_maybe().as_maybe().maybe

    def test_with_cell(self):
        t = CompactTuple([Cell.exact(1), Cell.exact(2)])
        t2 = t.with_cell(1, Cell.exact(9))
        assert t.cells[1] == Cell.exact(2)  # original untouched
        assert t2.cells[1] == Cell.exact(9)

    def test_multiplicity_product(self, doc):
        t = CompactTuple(
            [
                Cell.expansion([Exact(1), Exact(2)]),
                Cell.expansion([Exact(3), Exact(4), Exact(5)]),
                Cell.exact(0),
            ]
        )
        assert t.multiplicity() == 6

    def test_assignment_count(self):
        t = CompactTuple([Cell((Exact(1), Exact(2))), Cell.exact(3)])
        assert t.assignment_count() == 3

    def test_cells_must_be_cells(self):
        with pytest.raises(TypeError):
            CompactTuple([Exact(1)])


class TestCompactTable:
    def test_arity_checked(self):
        table = CompactTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add(CompactTuple([Cell.exact(1)]))

    def test_attr_index(self):
        table = CompactTable(["a", "b"])
        assert table.attr_index("b") == 1
        with pytest.raises(KeyError):
            table.attr_index("c")

    def test_counts(self, doc):
        table = CompactTable(["s"])
        table.add(CompactTuple([Cell.expansion([Exact(1), Exact(2)])]))
        table.add(CompactTuple([Cell.exact(3)], maybe=True))
        assert table.tuple_count() == 3
        assert table.assignment_count() == 3
        assert table.maybe_count() == 1
        assert table.counts() == (3, 3, 1)

    def test_encoded_value_count_sensitive_to_narrowing(self, doc):
        wide = CompactTable(["s"], [CompactTuple([Cell.contain(doc_span(doc))])])
        narrow = CompactTable(["s"], [CompactTuple([Cell.contain(Span(doc, 0, 8))])])
        assert wide.encoded_value_count() > narrow.encoded_value_count()
        assert wide.assignment_count() == narrow.assignment_count() == 1

    def test_pretty_renders(self):
        table = CompactTable(["a"], [CompactTuple([Cell.exact(1)], maybe=True)])
        text = table.pretty()
        assert "a" in text and "?" in text
