"""Canonical, process-stable keys for compact-table contents.

The semi-naive fixpoint loop needs to decide "is this derived tuple
new?" without depending on Python object identity or on the per-process
``PYTHONHASHSEED``.  These helpers build nested tuples of primitives
out of :func:`~repro.ctables.assignments.value_key` — spans key by
``(doc_id, start, end)``, numbers by float value — so two structurally
identical tuples produced in different processes (or different runs)
key identically.

``table_key`` digests a whole table into one hex token: the fixed-point
test ("did this iteration change the table?") and the cross-layout
byte-identity assertions in the tests and benchmarks both compare it.
Tuple *order* is part of the key — compact tables are ordered multisets
and the engine guarantees deterministic derivation order.
"""

from repro.ctables.assignments import Contain, Exact, value_key

__all__ = ["assignment_key", "cell_key", "tuple_key", "table_key"]


def assignment_key(assignment):
    """Canonical key of one assignment."""
    if isinstance(assignment, Exact):
        return ("exact", value_key(assignment.value))
    if isinstance(assignment, Contain):
        return ("contain", value_key(assignment.span))
    raise TypeError("unknown assignment type %r" % (assignment,))


def cell_key(cell):
    """Canonical key of one cell.

    Assignment order within a cell is *not* semantic (a cell is a
    multiset), so the assignment keys are sorted.
    """
    return (
        "expand" if cell.is_expansion else "choice",
        tuple(sorted(assignment_key(a) for a in cell.assignments)),
    )


def tuple_key(compact_tuple):
    """Canonical key of one compact tuple (cells in order + maybe flag).

    The maybe flag is part of the key: a certain and a maybe derivation
    of the same cells are different compact tuples under the possible-
    worlds semantics, and the fixpoint loop must keep both.
    """
    return (
        compact_tuple.maybe,
        tuple(cell_key(cell) for cell in compact_tuple.cells),
    )


def table_key(table):
    """A short hex digest over a whole table's canonical content."""
    import hashlib

    payload = repr(
        (tuple(table.attrs), tuple(tuple_key(t) for t in table.tuples))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
