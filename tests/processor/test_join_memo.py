"""Differential: position-bound operators equal per-tuple evaluation.

``JoinOp`` and ``ConditionSelect`` bind their conditions to their
attributes; the join also keeps per-cell condition facts in one memo
per execution.  The reference below is independent of both: it runs the
same tuples or pairs (token-blocked or not) through the *unbound*
conditions, reading cells by attribute name with no memo, so every fact
is recomputed per tuple.  Both must produce the same tuples in the same order, the same
maybe flags and the same ``ExecutionStats``.
"""

from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.ctables.export import table_to_json
from repro.processor.conditions import ComparisonCondition, PFunctionCondition, make_side
from repro.processor.context import ExecConfig, ExecutionContext
from repro.processor.library import make_similar
from repro.processor.operators import ConditionSelect, JoinOp, TableSource
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import Span, doc_span
from repro.xlog.program import Program

_WORDS = ["Silent", "River", "Crimson", "Empire", "Lone", "Star", "1,200", "$35.99", "12", "abc"]
_DOC = Document("words", " ".join(_WORDS))


def _word(i):
    start = _DOC.text.index(_WORDS[i])
    return Span(_DOC, start, start + len(_WORDS[i]))


def make_context(config=None):
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}), config=config)


def reference_apply(row, attrs, condition, context):
    """One unbound condition on one tuple, by attribute name, memo-free."""
    result = condition.evaluate(dict(zip(attrs, row.cells)), context)
    if not result.some:
        return None
    cells = list(row.cells)
    for attr, cell in result.filtered.items():
        cells[attrs.index(attr)] = cell
    maybe = row.maybe
    if not result.all:
        # certain only for a fully filtered single-attribute expansion cell
        involved = condition.involved
        safe = (
            not result.capped
            and len(involved) == 1
            and involved[0] in result.filtered
            and result.filtered[involved[0]].is_expansion
        )
        maybe = maybe or not safe
    return CompactTuple(cells, maybe=maybe)


def reference_join(join, conditions, context):
    """``JoinOp._execute`` with every condition evaluated memo-free."""
    left_table = join.left.execute(context)
    right_table = join.right.execute(context)
    blocking = join._blocking_condition(context)
    if blocking is not None:
        pairs = join._blocked_pairs(left_table, right_table, blocking, None)
    else:
        pairs = ((lt, rt) for lt in left_table for rt in right_table)
    table = CompactTable(join.attrs)
    for lt, rt in pairs:
        combined = CompactTuple(lt.cells + rt.cells, maybe=lt.maybe or rt.maybe)
        for condition in conditions:
            combined = reference_apply(combined, join.attrs, condition, context)
            if combined is None:
                break
        if combined is not None:
            table.add(combined)
    context.stats.tuples_built += len(table)
    return table


def reference_select(source, condition, context):
    """``ConditionSelect._execute`` evaluated tuple by tuple, memo-free."""
    table = CompactTable(source.attrs)
    for row in source:
        row = reference_apply(row, source.attrs, condition, context)
        if row is not None:
            table.add(row)
    context.stats.tuples_built += len(table)
    return table


def assert_same_tables(context, table, plain_context, reference):
    assert table_to_json(table) == table_to_json(reference)
    assert [t.maybe for t in table] == [t.maybe for t in reference]
    assert vars(context.stats) == vars(plain_context.stats)


def assert_same_as_reference(left, right, conditions, config=None):
    join = JoinOp(left, right, conditions)
    memo_context, plain_context = make_context(config), make_context(config)
    memoized = join.execute(memo_context)
    reference = reference_join(join, conditions, plain_context)
    assert_same_tables(memo_context, memoized, plain_context, reference)
    return memoized


_number = st.one_of(
    st.integers(0, 50),
    st.floats(0, 50, allow_nan=False).map(lambda f: round(f, 1)),
    st.just(float("nan")),
    st.sampled_from([6, 7, 8, 9]).map(_word),  # "1,200", "$35.99", "12", "abc"
)
_title = st.integers(0, 5).map(_word)


@st.composite
def _cell(draw, values):
    if draw(st.integers(0, 5)) == 0:
        return Cell((Contain(doc_span(_DOC)),))
    assignments = tuple(Exact(v) for v in draw(st.lists(values, min_size=1, max_size=4)))
    return Cell(assignments, is_expansion=draw(st.booleans()))


@st.composite
def _table(draw, kinds):
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cells = [draw(_cell(_title if kind == "title" else _number)) for kind in kinds]
        rows.append(CompactTuple(cells, maybe=draw(st.booleans())))
    return rows


_CONDITIONS = {
    "similar": lambda: PFunctionCondition(
        "similar", make_similar(0.3), [make_side(attr="t1"), make_side(attr="t2")]
    ),
    "a<b": lambda: ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b")),
    "b<=c+2": lambda: ComparisonCondition(
        make_side(attr="b"), "<=", make_side(attr="c", offset=2)
    ),
    "a>=c-0.5": lambda: ComparisonCondition(
        make_side(attr="a", offset=0.5), ">=", make_side(attr="c")
    ),
    "a+3>b": lambda: ComparisonCondition(
        make_side(attr="a", offset=3), ">", make_side(attr="b")
    ),
    "a=b": lambda: ComparisonCondition(make_side(attr="a"), "=", make_side(attr="b")),
    "c!=a": lambda: ComparisonCondition(make_side(attr="c"), "!=", make_side(attr="a")),
    "b>12": lambda: ComparisonCondition(make_side(attr="b"), ">", make_side(const=12)),
}


@settings(max_examples=150, deadline=None)
@given(
    _table(("title", "number")),
    _table(("title", "number", "number")),
    st.lists(st.sampled_from(sorted(_CONDITIONS)), min_size=1, max_size=3),
    st.sampled_from([None, ExecConfig(pair_cap=6, enum_cap=4), ExecConfig(blocking_joins=False)]),
)
def test_memoized_join_equals_per_pair_evaluation(left_rows, right_rows, names, config):
    left = TableSource(CompactTable(("t1", "a"), left_rows))
    right = TableSource(CompactTable(("t2", "b", "c"), right_rows))
    assert_same_as_reference(left, right, [_CONDITIONS[name]() for name in names], config)


def test_t3_shaped_second_condition_reads_a_filtered_cell():
    """``similar(@t1, @t2), similar(@t2, @t3)``: the first condition
    narrows ``t2`` to a cell created during the pair, which the second
    then reads — as in T3's three-way movie join."""
    titles = ["Silent River", "Crimson Empire", "Lone Star", "River Empire", "Star Crimson"]
    doc = Document("titles", " | ".join(titles))

    def span(title):
        start = doc.text.index(title)
        return Span(doc, start, start + len(title))

    left = TableSource(
        CompactTable(("t1",), [CompactTuple([Cell((Exact(span(t)),))]) for t in titles])
    )
    right_rows = []
    for i in range(len(titles)):
        t2 = Cell(tuple(Exact(span(t)) for t in titles[i : i + 3]))
        t3 = Cell(tuple(Exact(span(t)) for t in titles[i - 2 : i + 1] or titles[:1]))
        right_rows.append(CompactTuple([t2, t3]))
    right = TableSource(CompactTable(("t2", "t3"), right_rows))
    similar = make_similar(0.3)
    table = assert_same_as_reference(
        left,
        right,
        [
            PFunctionCondition("similar", similar, [make_side(attr="t1"), make_side(attr="t2")]),
            PFunctionCondition("similar", similar, [make_side(attr="t2"), make_side(attr="t3")]),
        ],
    )
    narrowed = [t for t in table if len(t.cells[1].assignments) < 3]
    assert narrowed, "the first condition should narrow some t2 cells"


def test_ordering_chain_reads_a_filtered_cell():
    """``a < b, b <= c``: the second comparison reads the ``b`` cell the
    first one narrowed (a memo-shared cell)."""
    left = TableSource(
        CompactTable(("a",), [CompactTuple([Cell.expansion((Exact(v),))]) for v in (1, 4, 9)])
    )
    right = TableSource(
        CompactTable(
            ("b", "c"),
            [
                CompactTuple([Cell((Exact(2), Exact(5), Exact(10))), Cell((Exact(6),))]),
                CompactTuple([Cell.expansion((Exact(3), Exact(8))), Cell((Exact(4), Exact(9)))]),
            ],
        )
    )
    table = assert_same_as_reference(
        left,
        right,
        [
            ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b")),
            ComparisonCondition(make_side(attr="b"), "<=", make_side(attr="c")),
        ],
    )
    assert len(table) > 0


def test_one_cell_under_two_offsets():
    """The same cell read with and without an offset keeps two sets of
    numbers: ``a < b`` then ``a + 5 > b``.  A ``contain`` cell is never
    narrowed, so both conditions read the very same cell object."""
    prices = Document("prices", "from 1 to 4 or 9")
    left = TableSource(CompactTable(("a",), [CompactTuple([Cell.contain(doc_span(prices))])]))
    right = TableSource(CompactTable(("b",), [CompactTuple([Cell((Exact(10), Exact(12)))])]))
    # read without its offset, max(a) = 9 would fail ``a > 10``
    (row,) = assert_same_as_reference(
        left,
        right,
        [
            ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b")),
            ComparisonCondition(make_side(attr="a", offset=5), ">", make_side(attr="b")),
        ],
    )
    assert row.maybe
    assert [a.value for a in row.cells[1].assignments] == [10, 12]


_SELECT_CONDITIONS = {
    **_CONDITIONS,
    "similar(t1, 'River Star')": lambda: PFunctionCondition(
        "similar", make_similar(0.3), [make_side(attr="t1"), make_side(const="River Star")]
    ),
    "a=12": lambda: ComparisonCondition(make_side(attr="a"), "=", make_side(const=12)),
    "a!=b": lambda: ComparisonCondition(make_side(attr="a"), "!=", make_side(attr="b")),
}


@st.composite
def _shared_rows(draw):
    """Rows over ``(t1, t2, a, b, c)`` drawing cells from small pools, so
    several tuples hold the very same cell object."""
    titles = draw(st.lists(_cell(_title), min_size=1, max_size=3))
    numbers = draw(st.lists(_cell(_number), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        cells = [draw(st.sampled_from(titles)) for _ in range(2)]
        cells.extend(draw(st.sampled_from(numbers)) for _ in range(3))
        rows.append(CompactTuple(cells, maybe=draw(st.booleans())))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _shared_rows(),
    st.sampled_from(sorted(_SELECT_CONDITIONS)),
    st.sampled_from([None, ExecConfig(pair_cap=6, enum_cap=4)]),
)
def test_bound_select_equals_per_tuple_evaluation(rows, name, config):
    source = TableSource(CompactTable(("t1", "t2", "a", "b", "c"), rows))
    condition = _SELECT_CONDITIONS[name]()
    context, plain_context = make_context(config), make_context(config)
    out = ConditionSelect(source, condition).execute(context)
    reference = reference_select(source.table, condition, plain_context)
    assert_same_tables(context, out, plain_context, reference)


def test_select_keeps_intact_cells_and_narrows_the_rest():
    """A cell every value of which satisfies comes out as the very same
    object — through the bounds rule (``a > 3``) and through the pairwise
    one (``a != 1``) — while a cell with a failing value narrows."""
    narrowed, intact = Cell((Exact(1), Exact(5))), Cell((Exact(4), Exact(6)))
    rows = [CompactTuple([narrowed]), CompactTuple([intact]), CompactTuple([intact], maybe=True)]
    source = TableSource(CompactTable(("a",), rows))
    for condition, kept in (
        (ComparisonCondition(make_side(attr="a"), ">", make_side(const=3)), [[5], [4, 6], [4, 6]]),
        (ComparisonCondition(make_side(attr="a"), "!=", make_side(const=1)), [[5], [4, 6], [4, 6]]),
    ):
        context, plain_context = make_context(), make_context()
        out = ConditionSelect(source, condition).execute(context)
        reference = reference_select(source.table, condition, plain_context)
        assert_same_tables(context, out, plain_context, reference)
        assert [[a.value for a in t.cells[0].assignments] for t in out] == kept
        assert out.tuples[0].cells[0] is not narrowed
        assert out.tuples[1].cells[0] is intact and out.tuples[2].cells[0] is intact
        # the certain intact row is the input row itself; the others maybe
        assert out.tuples[1] is rows[1] and out.tuples[2] is rows[2]
        assert [t.maybe for t in out] == [True, False, True]
