"""The paper's Figures 2.e and 3, reconstructed as data-model tests.

Figure 2.e gives the a-tables for the houses/schools example; Figure 3
condenses them into compact tables.  These tests build both by hand and
check they represent the same possible relations.
"""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.atable import ATable, ATuple
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.ctables.worlds import atable_worlds, compact_worlds
from repro.text.document import Document
from repro.text.span import Span


@pytest.fixture
def page():
    # a miniature x1: three numbers and a small h region
    return Document("x1", "2750 351,000 5146 Cozy High")


def number_spans(doc):
    from repro.text.tokenize import NUMBER

    return [
        Span(doc, t.start, t.end) for t in doc.tokens if t.kind == NUMBER
    ]


class TestFigure3Condensation:
    def test_houses_cell_equivalence(self, page):
        """{exact(2750), exact(351000), exact(5146)} as a choice cell

        equals the explicit a-table value set."""
        numbers = number_spans(page)
        compact = CompactTable(
            ["p"], [CompactTuple([Cell(tuple(Exact(s) for s in numbers))])]
        )
        atable = ATable(["p"], [ATuple([numbers])])
        assert compact_worlds(compact) == atable_worlds(atable)

    def test_contain_condenses_subspan_enumeration(self, page):
        """contain("Cozy High") == the enumerated sub-span value set."""
        h_region = Span(page, 18, 27)  # "Cozy High"
        compact = CompactTable(
            ["h"], [CompactTuple([Cell((Contain(h_region),))])]
        )
        values = h_region.token_aligned_subspans()
        atable = ATable(["h"], [ATuple([values])])
        assert compact_worlds(compact) == atable_worlds(atable)

    def test_schools_expand_condenses_tuples(self, page):
        """expand({contain(s1), contain(s2)})? == one maybe a-tuple per

        sub-span value of either bold region."""
        s1 = Span(page, 0, 4)    # "2750" (stand-in bold region)
        s2 = Span(page, 18, 27)  # "Cozy High"
        compact = CompactTable(
            ["s"],
            [CompactTuple([Cell.expansion([Contain(s1), Contain(s2)])], maybe=True)],
        )
        values = s1.token_aligned_subspans() + s2.token_aligned_subspans()
        atable = ATable(["s"], [ATuple([[v]], maybe=True) for v in values])
        assert compact_worlds(compact) == atable_worlds(atable)

    def test_condensation_is_strictly_smaller(self, page):
        h_region = Span(page, 18, 27)
        cell = Cell((Contain(h_region),))
        assert len(cell.assignments) == 1
        assert cell.value_count() == 3  # Cozy / High / Cozy High
