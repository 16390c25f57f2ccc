"""Property: condition evaluation agrees with brute force on exact cells.

For cells made of ``exact`` assignments the three-valued result is
fully determined: ``some`` iff a satisfying combination exists, ``all``
iff every combination satisfies, and the filtered cells keep exactly
the values participating in satisfying combinations.  Ordering
comparisons are decided from per-side bounds, so the brute force here
is the pairwise ``comparison_holds`` loop they replace — over spans
("1,200", "$35.99", plain text), ints mixed with floats, NaN, ``None``
and offsets on both sides.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain, Exact, value_key, value_number
from repro.ctables.ctable import Cell
from repro.processor.conditions import ComparisonCondition, make_side
from repro.processor.context import ExecutionContext
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import Span, doc_span
from repro.xlog.comparisons import comparison_holds
from repro.xlog.program import Program


def make_context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}))


_values = st.lists(st.integers(-5, 15), min_size=1, max_size=4, unique=True)
_ops = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])

_SPAN_TEXTS = ["1,200", "$35.99", "12", "7.5", "abc", "Infinity", "-3", "nan"]
_DOC = Document("prop", " | ".join(_SPAN_TEXTS))


def _span(text):
    start = _DOC.text.index(text)
    return Span(_DOC, start, start + len(text))


#: one cell value: a span, an int, a float (NaN included) or null
_mixed_value = st.one_of(
    st.sampled_from(_SPAN_TEXTS).map(_span),
    st.integers(-20, 2000),
    st.floats(-20, 2000, allow_nan=False).map(lambda f: round(f, 2)),
    st.just(float("nan")),
    st.just(None),
)
_mixed_values = st.lists(_mixed_value, min_size=1, max_size=5)
_offsets = st.sampled_from([0, 0, -3, 2, 0.5])


def effective(value, offset):
    if not offset:
        return value
    number = value_number(value)
    return None if number is None else number + offset


def exact_cell(values):
    return Cell(tuple(Exact(v) for v in values))


def distinct(values):
    return list({value_key(v): v for v in values}.values())


def brute_force(left_values, left_offset, op, right_values, right_offset):
    combos = [(l, r) for l in distinct(left_values) for r in distinct(right_values)]
    sat = [
        (l, r)
        for l, r in combos
        if comparison_holds(effective(l, left_offset), op, effective(r, right_offset))
    ]
    return combos, sat


def kept_keys(cell):
    return {value_key(a.value) for a in cell.assignments}


@settings(max_examples=150, deadline=None)
@given(_values, _values, _ops)
def test_attr_attr_agrees_with_brute_force(left_values, right_values, op):
    cells = {
        "a": Cell(tuple(Exact(v) for v in left_values)),
        "b": Cell(tuple(Exact(v) for v in right_values)),
    }
    condition = ComparisonCondition(make_side(attr="a"), op, make_side(attr="b"))
    result = condition.evaluate(cells, make_context())

    combos = [(l, r) for l in left_values for r in right_values]
    sat = [(l, r) for l, r in combos if comparison_holds(l, op, r)]
    assert result.some == bool(sat)
    assert result.all == (len(sat) == len(combos) and bool(sat))
    if sat:
        expected_left = {value_key(l) for l, _ in sat}
        kept = {value_key(a.value) for a in result.filtered["a"].assignments}
        assert kept == expected_left


@settings(max_examples=150, deadline=None)
@given(_values, st.integers(-5, 15), _ops, st.integers(-3, 3))
def test_attr_const_with_offset(values, const, op, offset):
    cells = {"a": Cell(tuple(Exact(v) for v in values))}
    condition = ComparisonCondition(
        make_side(attr="a", offset=offset), op, make_side(const=const)
    )
    result = condition.evaluate(cells, make_context())
    sat = [v for v in values if comparison_holds(v + offset, op, const)]
    assert result.some == bool(sat)
    assert result.all == (len(sat) == len(values) and bool(sat))
    if sat:
        kept = {a.value for a in result.filtered["a"].assignments}
        assert kept == set(sat)


@settings(max_examples=300, deadline=None)
@given(_mixed_values, _offsets, _ops, _mixed_values, _offsets)
def test_mixed_values_and_offsets_agree_with_brute_force(
    left_values, left_offset, op, right_values, right_offset
):
    cells = {"a": exact_cell(left_values), "b": exact_cell(right_values)}
    condition = ComparisonCondition(
        make_side(attr="a", offset=left_offset), op, make_side(attr="b", offset=right_offset)
    )
    result = condition.evaluate(cells, make_context())

    combos, sat = brute_force(left_values, left_offset, op, right_values, right_offset)
    assert result.some == bool(sat)
    assert result.all == (bool(sat) and len(sat) == len(combos))
    assert not result.capped
    if sat:
        assert kept_keys(result.filtered["a"]) == {value_key(l) for l, _ in sat}
        assert kept_keys(result.filtered["b"]) == {value_key(r) for _, r in sat}
    else:
        assert result.filtered == {}


@settings(max_examples=200, deadline=None)
@given(_mixed_values, _offsets, _ops, _mixed_value)
def test_mixed_values_against_a_constant(values, offset, op, const):
    cells = {"a": exact_cell(values)}
    condition = ComparisonCondition(
        make_side(attr="a", offset=offset), op, make_side(const=const)
    )
    result = condition.evaluate(cells, make_context())
    combos, sat = brute_force(values, offset, op, [const], 0)
    assert result.some == bool(sat)
    assert result.all == (bool(sat) and len(sat) == len(combos))
    if sat:
        assert kept_keys(result.filtered["a"]) == {value_key(l) for l, _ in sat}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(_SPAN_TEXTS), min_size=1, max_size=4),
    st.sampled_from(["<", "<=", ">", ">="]),
    _mixed_values,
)
def test_contain_side_orders_over_its_number_tokens(words, op, right_values):
    """A ``contain`` cell offers its NUMBER-token sub-spans as candidates:
    ``some`` is brute force over them, and ``all`` is never claimed (the
    cell also encodes non-numeric sub-spans)."""
    doc = Document("c", " ".join(words))
    cells = {"a": Cell((Contain(doc_span(doc)),)), "b": exact_cell(right_values)}
    condition = ComparisonCondition(make_side(attr="a"), op, make_side(attr="b"))
    result = condition.evaluate(cells, make_context())

    candidates = [s for s in doc_span(doc).token_spans() if s.numeric_value is not None]
    _, sat = brute_force(candidates, 0, op, right_values, 0)
    assert result.some == bool(sat)
    assert not result.all
    assert "a" not in result.filtered


@settings(max_examples=100, deadline=None)
@given(_mixed_values, _ops, _mixed_values, _offsets)
def test_memoized_evaluation_equals_plain(left_values, op, right_values, offset):
    """A memo hit returns the same result and replays the same counters."""
    cells = {"a": exact_cell(left_values), "b": exact_cell(right_values)}
    condition = ComparisonCondition(
        make_side(attr="a", offset=offset), op, make_side(attr="b")
    )
    plain_context = make_context()
    plain = [condition.evaluate(cells, plain_context) for _ in range(3)]
    memo_context = make_context()
    memo = {}
    memoized = [condition.evaluate(cells, memo_context, memo) for _ in range(3)]
    assert vars(plain_context.stats) == vars(memo_context.stats)
    for a, b in zip(plain, memoized):
        assert (a.some, a.all, a.capped) == (b.some, b.all, b.capped)
        assert a.filtered == b.filtered


def test_nan_scalar_never_satisfies_an_ordering():
    cells = {"a": exact_cell([float("nan")]), "b": exact_cell([1, math.inf])}
    for op in ("<", "<=", ">", ">="):
        condition = ComparisonCondition(make_side(attr="a"), op, make_side(attr="b"))
        result = condition.evaluate(cells, make_context())
        assert not result.some
        assert result.filtered == {}


def test_nan_on_one_side_blocks_all_but_not_some():
    cells = {"a": exact_cell([1, float("nan")]), "b": exact_cell([5])}
    condition = ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b"))
    result = condition.evaluate(cells, make_context())
    assert result.some
    assert not result.all
    assert [a.value for a in result.filtered["a"].assignments] == [1]
