"""Possible-worlds enumeration tests (the reference semantics)."""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.atable import ATable, ATuple
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.ctables.worlds import atable_worlds, compact_worlds, world_of_exact_tuples
from repro.errors import EnumerationLimitError
from repro.text.document import Document
from repro.text.span import Span


class TestATableWorlds:
    def test_certain_single_value(self):
        atable = ATable(["a"], [ATuple([[1]])])
        assert atable_worlds(atable) == {world_of_exact_tuples([(1,)])}

    def test_choice_of_two_values(self):
        atable = ATable(["a"], [ATuple([[1, 2]])])
        worlds = atable_worlds(atable)
        assert worlds == {
            world_of_exact_tuples([(1,)]),
            world_of_exact_tuples([(2,)]),
        }

    def test_maybe_tuple_adds_empty_world(self):
        atable = ATable(["a"], [ATuple([[1]], maybe=True)])
        worlds = atable_worlds(atable)
        assert frozenset() in worlds
        assert world_of_exact_tuples([(1,)]) in worlds
        assert len(worlds) == 2

    def test_two_tuples_cross_product(self):
        atable = ATable(["a"], [ATuple([[1, 2]]), ATuple([[3]], maybe=True)])
        worlds = atable_worlds(atable)
        assert len(worlds) == 4

    def test_world_cap(self):
        atable = ATable(["a"], [ATuple([list(range(10))]) for _ in range(10)])
        with pytest.raises(EnumerationLimitError):
            atable_worlds(atable, max_worlds=100)

    def test_multi_attribute_choices(self):
        atable = ATable(["a", "b"], [ATuple([[1, 2], [3, 4]])])
        worlds = atable_worlds(atable)
        assert len(worlds) == 4


class TestCompactWorlds:
    def test_expansion_is_certain_multiplicity(self):
        # expand({1, 2}) = both tuples exist in every world
        table = CompactTable(
            ["a"], [CompactTuple([Cell.expansion([Exact(1), Exact(2)])])]
        )
        worlds = compact_worlds(table)
        assert worlds == {world_of_exact_tuples([(1,), (2,)])}

    def test_choice_is_uncertainty(self):
        table = CompactTable(["a"], [CompactTuple([Cell((Exact(1), Exact(2)))])])
        assert len(compact_worlds(table)) == 2

    def test_paper_schools_shape(self):
        # expand of contains, maybe: every subset of every bold span's
        # sub-spans is possible
        doc = Document("y", "Basktall HS")
        table = CompactTable(
            ["s"],
            [
                CompactTuple(
                    [Cell.expansion([Contain(Span(doc, 0, 11))])], maybe=True
                )
            ],
        )
        worlds = compact_worlds(table)
        # 3 sub-span values (Basktall / HS / Basktall HS) -> 2^3 subsets
        assert len(worlds) == 8
        assert frozenset() in worlds
