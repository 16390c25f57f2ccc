"""Property tests for ``CompactTable.union`` (the gather merge).

The physical execution layer reassembles per-partition results with
``CompactTable.union``; its correctness contract is multiset-union
semantics over represented relations:

* commutative and associative *as multisets of compact tuples* (the
  concatenation order differs, the multiset never does);
* possible-worlds round-trip: every world of the union is the union of
  one world per operand — in particular a superset of some world of
  each operand, and every operand world extends to a union world.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.ctables.worlds import compact_worlds
from repro.errors import EnumerationLimitError
from repro.text.document import Document
from repro.text.span import Span

ATTRS = ("a", "b")

_DOC = Document("prop-doc", "alpha beta 42")


def spans():
    return st.sampled_from(
        [Span(_DOC, 0, 5), Span(_DOC, 6, 10), Span(_DOC, 11, 13)]
    )


def assignments():
    return st.one_of(
        st.integers(min_value=0, max_value=9).map(Exact),
        st.sampled_from(["x", "y", "z"]).map(Exact),
        spans().map(Contain),
    )


def cells():
    return st.builds(
        Cell,
        st.lists(assignments(), min_size=1, max_size=3),
        is_expansion=st.booleans(),
    )


def compact_tuples():
    return st.builds(
        CompactTuple,
        st.tuples(*(cells() for _ in ATTRS)),
        maybe=st.booleans(),
    )


def tables(max_tuples=4):
    return st.lists(compact_tuples(), max_size=max_tuples).map(
        lambda ts: CompactTable(ATTRS, ts)
    )


def multiset(table):
    """The table's tuples as an order-insensitive multiset image."""
    return sorted(repr(t) for t in table.tuples)


def ordered(table):
    return [repr(t) for t in table.tuples]


@settings(max_examples=60, deadline=None)
@given(tables(), tables())
def test_union_is_commutative_as_multiset(left, right):
    ab = CompactTable.union([left, right])
    ba = CompactTable.union([right, left], attrs=ATTRS)
    assert multiset(ab) == multiset(ba)


@settings(max_examples=60, deadline=None)
@given(tables(), tables(), tables())
def test_union_is_associative(first, second, third):
    left = CompactTable.union([CompactTable.union([first, second]), third])
    right = CompactTable.union([first, CompactTable.union([second, third])])
    # concatenation makes association order-exact, not just multiset-equal
    assert ordered(left) == ordered(right)
    flat = CompactTable.union([first, second, third])
    assert ordered(flat) == ordered(left)


@settings(max_examples=40, deadline=None)
@given(tables(max_tuples=2), tables(max_tuples=2))
def test_union_worlds_round_trip(left, right):
    # the worlds oracle counts options *before* deduplication, so a few
    # maybe-flagged expansion cells can overflow its cap even on tiny
    # tables; such examples say nothing about union semantics — skip
    try:
        union_worlds = compact_worlds(CompactTable.union([left, right]))
        left_worlds = compact_worlds(left)
        right_worlds = compact_worlds(right)
    except EnumerationLimitError:
        assume(False)
    # exact round-trip: the union's worlds are precisely the pairwise
    # unions of one world from each operand
    expected = {wl | wr for wl in left_worlds for wr in right_worlds}
    assert union_worlds == expected
    # and therefore a superset of some world of each operand...
    for world in union_worlds:
        assert any(wl <= world for wl in left_worlds)
        assert any(wr <= world for wr in right_worlds)
    # ...with every operand world extending to a union world
    for wl in left_worlds:
        assert any(wl <= world for world in union_worlds)
    for wr in right_worlds:
        assert any(wr <= world for world in union_worlds)


@settings(max_examples=60, deadline=None)
@given(st.lists(tables(), max_size=4))
def test_union_splices_operand_tuples_in_order(operands):
    """The output holds each operand's tuple objects, in operand order,
    in a list of its own; one-pass counts equal the three measures."""
    out = CompactTable.union(operands, attrs=ATTRS)
    spliced = [t for table in operands for t in table.tuples]
    assert len(out.tuples) == len(spliced)
    assert all(a is b for a, b in zip(out.tuples, spliced))
    assert all(out.tuples is not table.tuples for table in operands)
    assert out.counts() == (
        out.tuple_count(),
        out.assignment_count(),
        out.maybe_count(),
    )


def test_union_preserves_maybe_and_multiplicity():
    dup = CompactTuple([Cell.exact(1), Cell.exact(2)])
    flagged = CompactTuple([Cell.exact(1), Cell.exact(2)], maybe=True)
    left = CompactTable(ATTRS, [dup, dup])
    right = CompactTable(ATTRS, [flagged])
    out = CompactTable.union([left, right])
    assert len(out) == 3  # duplicates are kept: multiset, not set
    assert out.maybe_count() == 1


def test_union_requires_matching_arity():
    import pytest

    with pytest.raises(ValueError):
        CompactTable.union(
            [CompactTable(("a",)), CompactTable(("a", "b"))]
        )
    with pytest.raises(ValueError):
        CompactTable.union([])


def test_union_of_none_needs_attrs_only():
    out = CompactTable.union([], attrs=ATTRS)
    assert out.attrs == ATTRS and len(out) == 0
