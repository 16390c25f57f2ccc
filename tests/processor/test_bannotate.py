"""BAnnotate tests — including the paper's Figure 5 walk-through."""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.processor.bannotate import annotate_table
from repro.processor.context import ExecutionContext
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import doc_span
from repro.xlog.program import Program


@pytest.fixture
def context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}))


def choice(*values):
    return Cell(tuple(Exact(v) for v in values))


class TestFigure5:
    """The name/age example of paper Figure 5."""

    def table(self):
        table = CompactTable(["name", "age"])
        table.add(CompactTuple([choice("Alice", "Bob"), choice(5)]))
        table.add(CompactTuple([choice("Alice", "Carol"), choice(6, 7)]))
        table.add(CompactTuple([choice("Dave"), choice(8, 9)]))
        return table

    def test_output_groups(self, context):
        out = annotate_table(self.table(), False, ("age",), context)
        by_name = {}
        for t in out:
            name = t.cells[0].assignments[0].value
            ages = {a.value for a in t.cells[1].assignments}
            by_name[name] = (ages, t.maybe)
        assert by_name["Alice"] == ({5, 6, 7}, True)
        assert by_name["Bob"] == ({5}, True)
        assert by_name["Carol"] == ({6, 7}, True)
        # Dave appears in every possible world: not a maybe tuple
        assert by_name["Dave"] == ({8, 9}, False)

    def test_output_size(self, context):
        out = annotate_table(self.table(), False, ("age",), context)
        assert len(out) == 4


class TestAnnotationMechanics:
    def test_no_annotations_identity(self, context):
        table = CompactTable(["a"], [CompactTuple([choice(1)])])
        out = annotate_table(table, False, (), context)
        assert out is table

    def test_existence_marks_all_maybe(self, context):
        table = CompactTable(["a"], [CompactTuple([choice(1)])])
        out = annotate_table(table, True, (), context)
        assert all(t.maybe for t in out)

    def test_expansion_key_certain_per_value(self, context):
        doc = Document("d", "alpha beta")
        table = CompactTable(["x", "v"])
        table.add(
            CompactTuple(
                [Cell.expansion([Exact("k1"), Exact("k2")]), choice(1, 2)]
            )
        )
        out = annotate_table(table, False, ("v",), context)
        assert len(out) == 2
        assert all(not t.maybe for t in out)  # expansion keys are certain

    def test_maybe_input_stays_maybe(self, context):
        table = CompactTable(["x", "v"])
        table.add(CompactTuple([choice("k"), choice(1)], maybe=True))
        out = annotate_table(table, False, ("v",), context)
        assert out.tuples[0].maybe

    def test_assignments_unioned_not_enumerated(self, context):
        doc = Document("d", "one two three four five")
        wide = Contain(doc_span(doc))
        table = CompactTable(["x", "v"])
        table.add(CompactTuple([choice("k"), Cell((wide,))]))
        table.add(CompactTuple([choice("k"), choice(42)]))
        out = annotate_table(table, False, ("v",), context)
        (t,) = out.tuples
        assert wide in t.cells[1].assignments  # kept as an assignment
        assert Exact(42) in t.cells[1].assignments

    def test_multiple_annotated_attrs(self, context):
        table = CompactTable(["k", "a", "b"])
        table.add(CompactTuple([choice("x"), choice(1), choice("p")]))
        table.add(CompactTuple([choice("x"), choice(2), choice("q")]))
        out = annotate_table(table, False, ("a", "b"), context)
        (t,) = out.tuples
        assert {a.value for a in t.cells[1].assignments} == {1, 2}
        assert {a.value for a in t.cells[2].assignments} == {"p", "q"}

    def test_missing_attr_names_ignored(self, context):
        table = CompactTable(["a"], [CompactTuple([choice(1)])])
        out = annotate_table(table, False, ("nonexistent",), context)
        assert len(out) == 1

    def test_group_key_dedup_across_tuples(self, context):
        table = CompactTable(["k", "v"])
        table.add(CompactTuple([choice("x"), choice(1)]))
        table.add(CompactTuple([choice("x"), choice(2)]))
        out = annotate_table(table, False, ("v",), context)
        assert len(out) == 1
        assert not out.tuples[0].maybe  # both inputs certain for key x
