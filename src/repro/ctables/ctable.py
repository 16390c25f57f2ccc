"""Compact tables (paper section 3, Definition 3).

A compact table is a multiset of compact tuples over a fixed attribute
list.  Each cell is a multiset of assignments, interpreted one of two
ways:

*choice cell* (default)
    the tuple's value for this attribute is *one* of the encoded values
    (uncertainty about a value);
*expansion cell*
    the tuple stands for one tuple *per* encoded value (certain
    multiplicity) — the paper's ``expand({...})``.

A compact tuple may be flagged *maybe* (``?``), meaning every tuple it
stands for may or may not exist.
"""

from repro.ctables.assignments import Assignment, Contain, Exact, value_key

__all__ = ["Cell", "CompactTuple", "CompactTable"]


class Cell:
    """A multiset of assignments, optionally an expansion cell."""

    __slots__ = ("assignments", "is_expansion")

    def __init__(self, assignments, is_expansion=False):
        assignments = tuple(assignments)
        for a in assignments:
            if not isinstance(a, Assignment):
                raise TypeError("cell entries must be assignments, got %r" % (a,))
        self.assignments = assignments
        self.is_expansion = bool(is_expansion)

    # -- constructors ----------------------------------------------------
    @classmethod
    def exact(cls, value):
        return cls((Exact(value),))

    @classmethod
    def contain(cls, span):
        return cls((Contain(span),))

    @classmethod
    def expansion(cls, assignments):
        return cls(assignments, is_expansion=True)

    # -- interrogation ---------------------------------------------------
    def is_empty(self):
        return not self.assignments

    def enumerate_values(self, limit=None):
        """``(values, complete)`` for ``V(cell)``, deduplicated."""
        seen = {}
        complete = True
        for assignment in self.assignments:
            remaining = None if limit is None else max(0, limit - len(seen))
            if remaining == 0:
                complete = False
                break
            values, full = assignment.enumerate_values(remaining)
            complete = complete and full
            for value in values:
                seen.setdefault(value_key(value), value)
        return list(seen.values()), complete

    def value_count(self):
        """Upper bound on ``|V(cell)|`` (no cross-assignment dedup)."""
        return sum(a.value_count() for a in self.assignments)

    def multiplicity(self):
        """How many tuples this cell multiplies its tuple into.

        Choice cells contribute 1.  Expansion cells contribute one per
        assignment — a ``contain`` family counts once, which is the
        finite "number of assignments" measure the paper's convergence
        monitor tracks (section 5.1).
        """
        return len(self.assignments) if self.is_expansion else 1

    # -- transformation --------------------------------------------------
    def with_assignments(self, assignments):
        """This cell's kind over ``assignments``; ``self`` if nothing changed."""
        assignments = tuple(assignments)
        if len(assignments) == len(self.assignments) and all(
            a is b for a, b in zip(assignments, self.assignments)
        ):
            return self
        return Cell(assignments, is_expansion=self.is_expansion)

    def __eq__(self, other):
        return (
            isinstance(other, Cell)
            and self.is_expansion == other.is_expansion
            and len(self.assignments) == len(other.assignments)
            and sorted(map(hash, self.assignments)) == sorted(map(hash, other.assignments))
        )

    def __hash__(self):
        return hash((self.is_expansion, frozenset(self.assignments)))

    def __repr__(self):
        body = ", ".join(repr(a) for a in self.assignments)
        if self.is_expansion:
            return "expand({%s})" % body
        return "{%s}" % body


class CompactTuple:
    """A tuple of cells, optionally flagged maybe (``?``)."""

    __slots__ = ("cells", "maybe")

    def __init__(self, cells, maybe=False):
        self.cells = tuple(cells)
        for cell in self.cells:
            if not isinstance(cell, Cell):
                raise TypeError("expected Cell, got %r" % (cell,))
        self.maybe = bool(maybe)

    @classmethod
    def trusted(cls, cells, maybe):
        """No copy, no checks: ``cells`` is a tuple of validated cells."""
        row = cls.__new__(cls)
        row.cells = cells
        row.maybe = maybe
        return row

    def with_cell(self, index, cell):
        if not isinstance(cell, Cell):
            raise TypeError("expected Cell, got %r" % (cell,))
        cells = list(self.cells)
        cells[index] = cell
        return CompactTuple.trusted(tuple(cells), self.maybe)

    def as_maybe(self):
        if self.maybe:
            return self
        return CompactTuple.trusted(self.cells, True)

    def multiplicity(self):
        product = 1
        for cell in self.cells:
            product *= cell.multiplicity()
        return product

    def assignment_count(self):
        return sum(len(cell.assignments) for cell in self.cells)

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __repr__(self):
        suffix = " ?" if self.maybe else ""
        return "(%s)%s" % (", ".join(repr(c) for c in self.cells), suffix)


class CompactTable:
    """A named-attribute multiset of compact tuples."""

    __slots__ = ("attrs", "tuples")

    def __init__(self, attrs, tuples=()):
        self.attrs = tuple(attrs)
        self.tuples = []
        for t in tuples:
            self.add(t)

    def add(self, compact_tuple):
        if len(compact_tuple) != len(self.attrs):
            raise ValueError(
                "tuple arity %d does not match attrs %r"
                % (len(compact_tuple), self.attrs)
            )
        self.tuples.append(compact_tuple)
        return self

    def attr_index(self, name):
        try:
            return self.attrs.index(name)
        except ValueError:
            raise KeyError("no attribute %r in %r" % (name, self.attrs))

    @classmethod
    def union(cls, tables, attrs=None):
        """Multiset union of same-arity compact tables.

        Tuples are concatenated in the given table order, preserving
        maybe flags and cell multisets, so unioning per-partition results
        in partition order reproduces a serial document-order scan.  The
        output attribute list is ``attrs`` (or the first table's); every
        operand must match its arity — attribute *names* may differ, as
        with :class:`~repro.processor.operators.UnionOp`'s positional
        alignment.
        """
        tables = list(tables)
        if attrs is None:
            if not tables:
                raise ValueError("union of zero tables needs explicit attrs")
            attrs = tables[0].attrs
        out = cls(attrs)
        for table in tables:
            if len(table.attrs) != len(out.attrs):
                raise ValueError(
                    "union operands have different arities: %r vs %r"
                    % (table.attrs, out.attrs)
                )
            # every operand's tuples passed its own table's arity check
            out.tuples.extend(table.tuples)
        return out

    # -- measures (monitored by the convergence detector) ----------------
    def tuple_count(self):
        """Number of represented tuples, counting expansion families

        once per assignment (see DESIGN.md "Result counting").
        """
        return sum(t.multiplicity() for t in self.tuples)

    def assignment_count(self):
        return sum(t.assignment_count() for t in self.tuples)

    def encoded_value_count(self):
        """Upper bound on the total number of encoded cell values.

        Sensitive to *narrowing*: replacing ``contain(doc)`` with
        ``contain(region)`` keeps the assignment count at 1 but slashes
        this measure — which is what makes it the convergence monitor's
        third signal.
        """
        return sum(cell.value_count() for t in self.tuples for cell in t.cells)

    def maybe_count(self):
        return sum(1 for t in self.tuples if t.maybe)

    def counts(self):
        """``(tuple_count(), assignment_count(), maybe_count())`` in one pass."""
        tuples = assignments = maybe = 0
        for row in self.tuples:
            tuples += row.multiplicity()
            assignments += row.assignment_count()
            if row.maybe:
                maybe += 1
        return tuples, assignments, maybe

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self):
        return "CompactTable(%r, %d tuples)" % (list(self.attrs), len(self.tuples))

    def pretty(self, max_rows=20):
        """A small human-readable rendering for examples and debugging."""
        lines = [" | ".join(self.attrs)]
        for t in self.tuples[:max_rows]:
            lines.append(" | ".join(repr(c) for c in t.cells) + (" ?" if t.maybe else ""))
        if len(self.tuples) > max_rows:
            lines.append("... (%d more)" % (len(self.tuples) - max_rows))
        return "\n".join(lines)
