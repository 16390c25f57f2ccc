"""Three-valued evaluation of selection/join conditions over cells.

A condition over a compact tuple can hold for *some* of the possible
tuples, for *all* of them, or for none (section 4.1).  Operators use
the triple ``(some, all, filtered-cells)`` as follows:

* ``not some``  → drop the tuple;
* ``filtered``  → tighten involved cells to the satisfying values
  (possible only when the cell is made of ``exact`` assignments);
* ``not all``   → keep, but the tuple must be flagged maybe **unless**
  the condition involves a single attribute whose cell is an expansion
  cell that was fully filtered (each surviving value is its own,
  certain, tuple).  Claiming certainty anywhere else would remove
  worlds and break the superset guarantee (see DESIGN.md).

Enumeration of ``contain`` assignments is avoided whenever the
condition shape allows: ordering comparisons only ever hold for
numeric values, and equality against a constant only for occurrences
of that constant — both enumerable in linear time.  The generic
fallback enumerates up to ``enum_cap`` values and degrades to
keep-as-maybe beyond it.

Ordering comparisons are decided from each side's numeric bounds, not
pair by pair: a left value can satisfy ``l < r`` iff it is below the
right side's maximum, and every combination satisfies iff
``max(L) < min(R)`` with every value on both sides numeric.  Values
with no numeric reading (text, ``None``, NaN) never satisfy one.

Every fact a condition needs about one side — whether it holds a
``contain`` assignment, its enumeration, its numbers and bounds, the
cell filtered against a bound, its token set — depends on that side's
cell alone.  A join evaluates its conditions once per *pair*, so each
of its executions passes one ``memo`` dict that keeps those facts per
distinct cell (see :func:`_memoized`).  Sides read cells by ``key``:
the attribute name in a ``{attr: cell}`` mapping, or the position in
an operator's cells once ``bind`` ran.
"""

import bisect
import functools
import itertools
import operator
import re
from types import MappingProxyType
from typing import NamedTuple

from repro.ctables.assignments import Contain, Exact, value_key, value_number
from repro.errors import ExecutionFailure
from repro.processor.library import token_set
from repro.text.span import Span
from repro.text.tokenize import NUMBER
from repro.xlog.comparisons import comparison_holds

__all__ = ["ComparisonCondition", "PFunctionCondition", "ConditionResult", "cell_tokens"]

_ORDERING_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: ``bound op n`` is ``n _FLIPPED[op] bound``
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ConditionResult(NamedTuple):
    some: bool
    all: bool
    #: side key -> replacement Cell, only for cells that were *fully*
    #: filtered to exactly the satisfying values
    filtered: dict
    #: True when an enumeration cap was hit (forces conservative maybe)
    capped: bool = False


#: the two results that carry no cells, shared by every evaluation
_DROPPED = ConditionResult(False, False, MappingProxyType({}))
_CAPPED = ConditionResult(True, False, MappingProxyType({}), True)


class _Side:
    """One side of a condition: a constant, or an attribute with an

    optional numeric offset (``firstPage + 5``).
    """

    def __init__(self, attr=None, const=None, offset=0, key=None):
        self.attr = attr
        self.const = const
        self.offset = offset
        self.is_const = attr is None
        self.key = attr if key is None else key

    def bind(self, attrs):
        if self.is_const:
            return self
        return _Side(self.attr, offset=self.offset, key=attrs.index(self.attr))

    @functools.cached_property
    def const_numbers(self):
        """A constant side of an ordering comparison, computed once."""
        return _Numbers([self.const], True, True, 0)


def _memoized(memo, key, cell, compute, stats=None):
    """``compute()``, once per distinct ``cell`` when a join passes a memo.

    ``key`` starts with ``id(cell)``.  Cells created during one pair (a
    narrowed cell read by the next condition) can be freed and their ids
    reused, so the entry holds the cell itself — keeping it alive — and
    a hit also requires identity.  With ``stats``, a hit replays the
    ``values_enumerated`` / ``cap_hits`` deltas of the first
    computation, so :class:`ExecutionStats` do not depend on the memo.
    """
    if memo is None:
        return compute()
    entry = memo.get(key)
    if entry is not None and entry[0] is cell:
        _, value, counted = entry
        if counted is not None:
            stats.values_enumerated += counted[0]
            stats.cap_hits += counted[1]
        return value
    if stats is None:
        value, counted = compute(), None
    else:
        enumerated, cap_hits = stats.values_enumerated, stats.cap_hits
        value = compute()
        counted = (stats.values_enumerated - enumerated, stats.cap_hits - cap_hits)
    memo[key] = (cell, value, counted)
    return value


def _effective(value, offset):
    """Apply a side's numeric offset; non-numeric values become null."""
    if not offset:
        return value
    number = value_number(value)
    return None if number is None else number + offset


def _numeric_candidates(assignment):
    """Values of an assignment that can satisfy a numeric comparison."""
    if isinstance(assignment, Exact):
        return [assignment.value]
    spans = []
    for token in assignment.span.tokens:
        if token.kind == NUMBER:
            spans.append(Span(assignment.span.doc, token.start, token.end))
    return spans


def _occurrence_candidates(assignment, text):
    """Sub-span values of an assignment whose text equals ``text``."""
    if isinstance(assignment, Exact):
        return [assignment.value]
    span = assignment.span
    out = []
    for match in re.finditer(re.escape(text), span.text):
        out.append(Span(span.doc, span.start + match.start(), span.start + match.end()))
    return out


def _has_contain(cell, memo):
    def compute():
        return any(isinstance(a, Contain) for a in cell.assignments)

    return _memoized(memo, (id(cell), "contain"), cell, compute)


def _cell_values(cell, context, memo):
    """``V(cell)`` up to ``enum_cap`` as ``(values, full)``, counted."""

    def compute():
        values, full = cell.enumerate_values(context.config.enum_cap)
        context.stats.values_enumerated += len(values)
        if not full:
            context.stats.cap_hits += 1
        return values, full

    return _memoized(memo, (id(cell), "values"), cell, compute, context.stats)


def _enumerate_side(cell, context, op, other_const, memo):
    """``(values, complete, exhaustive)`` for one attribute side.

    ``complete`` means every *possibly satisfying* value is included;
    ``exhaustive`` means every possible value of the cell is included
    (needed to conclude ``all``).
    """
    has_contain = _has_contain(cell, memo)
    if has_contain and op in _ORDERING_OPS:
        values = []
        for a in cell.assignments:
            values.extend(_numeric_candidates(a))
        context.stats.values_enumerated += len(values)
        return _dedup(values), True, False
    if has_contain and op == "=" and other_const is not None:
        values = []
        text = other_const.text if isinstance(other_const, Span) else str(other_const)
        for a in cell.assignments:
            values.extend(_occurrence_candidates(a, text))
            # a numeric constant may also match differently-formatted
            # numbers ("500,000"); add numeric candidates to be safe
            if value_number(other_const) is not None:
                values.extend(_numeric_candidates(a))
        context.stats.values_enumerated += len(values)
        return _dedup(values), True, False
    values, full = _cell_values(cell, context, memo)
    return values, full, full


class _Numbers:
    """One side of an ordering comparison, reduced to its numbers.

    ``numbers`` pairs the value key of every numeric value (offset
    applied, NaN excluded) with its number, in ascending order of the
    number; ``ordered`` holds the numbers alone, ``lo``/``hi`` bound them.
    ``filterable`` says whether the side's cell can be narrowed.
    """

    __slots__ = (
        "values", "complete", "exhaustive", "filterable", "numbers", "ordered", "lo", "hi",
        "all_numeric",
    )

    def __init__(self, values, complete, exhaustive, offset, filterable=False):
        self.values = values
        self.complete = complete
        self.exhaustive = exhaustive
        self.filterable = filterable
        numbers = []
        for value in values:
            number = value_number(value)
            if number is not None and number == number:  # NaN orders with nothing
                numbers.append((value_key(value), number + offset))
        if len(numbers) > 1:
            numbers.sort(key=operator.itemgetter(1))
        self.numbers = numbers
        self.ordered = [n for _, n in numbers]
        self.all_numeric = len(numbers) == len(values)
        self.lo = self.ordered[0] if numbers else None
        self.hi = self.ordered[-1] if numbers else None

    def satisfying(self, test, bound):
        """``(start, stop)``: the slice of ``numbers`` with ``test(n, bound)``."""
        if test == "<":
            return 0, bisect.bisect_left(self.ordered, bound)
        if test == "<=":
            return 0, bisect.bisect_right(self.ordered, bound)
        if test == ">":
            return bisect.bisect_right(self.ordered, bound), len(self.ordered)
        return bisect.bisect_left(self.ordered, bound), len(self.ordered)


def _dedup(values):
    return list({value_key(v): v for v in values}.values())


def _filterable(cell):
    return all(isinstance(a, Exact) for a in cell.assignments)


def _filtered_cell(cell, keep):
    """``cell`` restricted to the assignments whose value key is in ``keep``."""
    return cell.with_assignments([a for a in cell.assignments if value_key(a.value) in keep])


def _side_width(cell, linear, memo):
    """Upper bound on the values one side can contribute to the pairs."""
    if linear and _has_contain(cell, memo):
        # the linear (numeric / occurrence) path; bound by tokens
        return max(
            1,
            sum(
                len(a.anchor_span.tokens) if isinstance(a, Contain) else 1
                for a in cell.assignments
            ),
        )
    return max(1, cell.value_count())


class _Condition:
    """Applying either condition kind to one tuple of a bound operator."""

    def __init__(self, sides):
        #: the keys of the cells the condition reads
        self.involved = tuple(s.key for s in sides if not s.is_const)

    def apply(self, cells, maybe, context, memo=None):
        """``(cells, maybe)`` of one tuple after this condition, or ``None``

        if dropped.  Filtered cells narrow; ``maybe`` rises unless every
        possible tuple satisfies, or the one involved cell is a fully
        filtered expansion cell (each value its own, certain, tuple).
        """
        result = self.evaluate(cells, context, memo)
        if not result.some:
            return None
        filtered = result.filtered
        for key, cell in filtered.items():
            if cell is not cells[key]:
                cells = cells[:key] + (cell,) + cells[key + 1 :]
        if not (maybe or result.all):
            cell = filtered.get(self.involved[0]) if len(self.involved) == 1 else None
            maybe = result.capped or cell is None or not cell.is_expansion
        return cells, maybe


class ComparisonCondition(_Condition):
    """``left op right`` where each side is an attribute or constant."""

    def __init__(self, left, op, right):
        super().__init__((left, right))
        self.left = left
        self.op = op
        self.right = right

    def bind(self, attrs):
        """This condition reading cells by position in ``attrs``."""
        return ComparisonCondition(self.left.bind(attrs), self.op, self.right.bind(attrs))

    def __repr__(self):
        def show(side):
            return side.attr if not side.is_const else repr(side.const)

        return "%s %s %s" % (show(self.left), self.op, show(self.right))

    def _too_wide(self, cells, context, memo):
        """Cheap pre-check: would enumeration blow the pair cap?

        Uses ``value_count`` upper bounds so no values are materialised
        on the (common, early-iteration) conservative path.  Ordering
        and equal-to-constant shapes enumerate linearly, so they are
        exempt.
        """
        product = 1
        for side, other in ((self.left, self.right), (self.right, self.left)):
            if side.is_const:
                continue
            cell = cells[side.key]
            linear = self.op in _ORDERING_OPS or (self.op == "=" and other.is_const)
            product *= _memoized(
                memo,
                (id(cell), "width", linear),
                cell,
                lambda: _side_width(cell, linear, memo),
            )
        return product > context.config.pair_cap

    def _sides(self, cells, context, memo):
        """Per side ``(values, complete, exhaustive)``, or ``_Numbers``

        for an ordering comparison.
        """
        ordering = self.op in _ORDERING_OPS
        sides = []
        for side, other in ((self.left, self.right), (self.right, self.left)):
            if side.is_const:
                sides.append(side.const_numbers if ordering else ([side.const], True, True))
                continue
            cell = cells[side.key]
            other_const = other.const if other.is_const else None
            if ordering:
                sides.append(
                    _memoized(
                        memo,
                        (id(cell), "numbers", side.offset),
                        cell,
                        lambda: _Numbers(
                            *_enumerate_side(cell, context, self.op, None, memo),
                            side.offset,
                            _filterable(cell),
                        ),
                        context.stats,
                    )
                )
            else:
                sides.append(_enumerate_side(cell, context, self.op, other_const, memo))
        return sides

    def evaluate(self, cells, context, memo=None):
        if self._too_wide(cells, context, memo):
            context.stats.cap_hits += 1
            return _CAPPED
        left, right = self._sides(cells, context, memo)
        if self.op in _ORDERING_OPS:
            complete = left.complete and right.complete
            left_values, right_values = left.values, right.values
        else:
            complete = left[1] and right[1]
            left_values, right_values = left[0], right[0]
        if not complete:
            return _CAPPED
        if len(left_values) * len(right_values) > context.config.pair_cap:
            context.stats.cap_hits += 1
            return _CAPPED
        if self.op in _ORDERING_OPS:
            return self._decide_ordering(left, right, cells, memo)
        return self._decide_pairs(left, right, cells)

    def _decide_ordering(self, left, right, cells, memo):
        """``some``/``all``/filtered cells from the two sides' bounds."""
        if not (left.numbers and right.numbers):
            return _DROPPED
        holds = _ORDERING_OPS[self.op]
        if self.op in ("<", "<="):
            # l < r for some r iff l < max(R); every pair iff max(L) < min(R)
            left_bound, right_bound = right.hi, left.lo
            all_pairs = holds(left.hi, right.lo)
        else:
            left_bound, right_bound = right.lo, left.hi
            all_pairs = holds(left.lo, right.hi)
        if not holds(right_bound, left_bound):
            return _DROPPED
        all_flag = (
            all_pairs
            and left.all_numeric
            and right.all_numeric
            and left.exhaustive
            and right.exhaustive
        )
        filtered = {}
        for side, numbers, test, bound in (
            (self.left, left, self.op, left_bound),
            (self.right, right, _FLIPPED[self.op], right_bound),
        ):
            if not numbers.filterable:
                continue
            cell = cells[side.key]
            # cells narrow to a prefix or suffix of their sorted numbers,
            # so the slice, not the bound, identifies the result
            start, stop = numbers.satisfying(test, bound)
            filtered[side.key] = _memoized(
                memo,
                (id(cell), "filter", side.offset, start, stop),
                cell,
                lambda: _slice_filtered(cell, numbers, start, stop),
            )
        return ConditionResult(True, all_flag, filtered)

    def _decide_pairs(self, left, right, cells):
        """``=`` / ``!=``: test every combination of the two sides."""
        left_values, _, left_exhaustive = left
        right_values, _, right_exhaustive = right
        sat_left, sat_right = set(), set()
        some = False
        all_combos_satisfy = bool(left_values) and bool(right_values)
        left_offset = 0 if self.left.is_const else self.left.offset
        right_offset = 0 if self.right.is_const else self.right.offset
        for lv in left_values:
            for rv in right_values:
                if comparison_holds(
                    _effective(lv, left_offset), self.op, _effective(rv, right_offset)
                ):
                    some = True
                    sat_left.add(value_key(lv))
                    sat_right.add(value_key(rv))
                else:
                    all_combos_satisfy = False
        if not some:
            return _DROPPED
        all_flag = all_combos_satisfy and left_exhaustive and right_exhaustive
        return ConditionResult(
            True, all_flag, _filtered_sides((self.left, self.right), (sat_left, sat_right), cells)
        )


def _filtered_sides(sides, satisfied, cells):
    """``{key: narrowed cell}`` for every attribute side that can narrow."""
    filtered = {}
    for side, sat in zip(sides, satisfied):
        if side.is_const:
            continue
        cell = cells[side.key]
        if _filterable(cell):
            filtered[side.key] = _filtered_cell(cell, sat)
    return filtered


def _slice_filtered(cell, numbers, start, stop):
    """``cell`` narrowed to the values of ``numbers.numbers[start:stop]``."""
    if numbers.all_numeric and stop - start == len(numbers.numbers):
        return cell  # every value satisfies: nothing to narrow
    return _filtered_cell(cell, {key for key, _ in numbers.numbers[start:stop]})


def cell_tokens(cell, memo=None):
    """Tokens under any anchor span (or scalar value) of a cell.

    A superset of the tokens of every value the cell can take, so an
    empty overlap between two cells *proves* a share-a-token similarity
    function cannot hold — which makes both token blocking in joins and
    the one-sided refutation below exact.
    """

    def compute():
        tokens = set()
        for assignment in cell.assignments:
            span = assignment.anchor_span
            tokens |= token_set(span if span is not None else assignment.value)
        return tokens

    return _memoized(memo, (id(cell), "tokens"), cell, compute)


class PFunctionCondition(_Condition):
    """A p-function used as a filter, e.g. ``similar(@t1, @t2)``."""

    def __init__(self, name, func, sides):
        self.sides = list(sides)  # list of _Side
        super().__init__(self.sides)
        self.name = name
        self.func = func
        self._attr_sides = [s for s in self.sides if not s.is_const]
        self.blockable = getattr(func, "blockable", False) and len(self.sides) == 2

    def bind(self, attrs):
        """This condition reading cells by position in ``attrs``."""
        return PFunctionCondition(self.name, self.func, [s.bind(attrs) for s in self.sides])

    def on_overlapping_pairs(self):
        """This condition for pairs whose two cells share a token, as a

        token-blocked join's pairs do: the empty-overlap refutation can
        never fire there, so its token lookups are skipped.
        """
        condition = PFunctionCondition(self.name, self.func, self.sides)
        condition.blockable = False
        return condition

    def __repr__(self):
        return "%s(%s)" % (
            self.name,
            ", ".join(s.attr if not s.is_const else repr(s.const) for s in self.sides),
        )

    def _side_tokens(self, side, cells, memo):
        if side.is_const:
            return token_set(side.const)
        return cell_tokens(cells[side.key], memo)

    def evaluate(self, cells, context, memo=None):
        # A procedural function needs concrete values.  ``contain``
        # families are kept approximate — except that for share-a-token
        # similarity functions an empty token overlap is an exact
        # refutation, which is what makes one-sided refinements shrink
        # the result before both sides are exact.
        for side in self._attr_sides:
            if _has_contain(cells[side.key], memo):
                break
        else:
            return self._decide_values(cells, context, memo)
        if self.blockable:
            left_tokens = self._side_tokens(self.sides[0], cells, memo)
            if left_tokens:
                right_tokens = self._side_tokens(self.sides[1], cells, memo)
                if left_tokens.isdisjoint(right_tokens):
                    return _DROPPED
        context.stats.cap_hits += 1
        return _CAPPED

    def _decide_values(self, cells, context, memo):
        product = 1
        for side in self._attr_sides:
            product *= max(1, cells[side.key].value_count())
        if product > context.config.pair_cap:
            context.stats.cap_hits += 1
            return _CAPPED

        per_side = []
        capped = False
        for side in self.sides:
            if side.is_const:
                per_side.append([side.const])
                continue
            values, full = _cell_values(cells[side.key], context, memo)
            capped = capped or not full
            per_side.append(values)
        if capped:
            return _CAPPED
        combo_count = 1
        for values in per_side:
            combo_count *= len(values)
        if combo_count > context.config.pair_cap:
            context.stats.cap_hits += 1
            return _CAPPED
        sat_per_side = [set() for _ in per_side]
        some = False
        all_flag = True
        for combo in itertools.product(*per_side):
            try:
                truth = bool(self.func(*combo))
            except Exception as exc:
                from repro.processor.operators import combo_doc_id

                raise ExecutionFailure.wrap(
                    exc,
                    doc_id=combo_doc_id(combo),
                    operator="p-function",
                    predicate=self.name,
                ) from exc
            if truth:
                some = True
                for sat, v in zip(sat_per_side, combo):
                    sat.add(value_key(v))
            else:
                all_flag = False
        if not some:
            return _DROPPED
        return ConditionResult(True, all_flag, _filtered_sides(self.sides, sat_per_side, cells))


def make_side(attr=None, const=None, offset=0):
    """Factory used by the plan compiler."""
    return _Side(attr=attr, const=const, offset=offset)
