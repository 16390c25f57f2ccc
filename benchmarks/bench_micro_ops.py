"""Micro-benchmarks of the approximate processor's core operators."""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.processor.bannotate import annotate_table
from repro.processor.conditions import ComparisonCondition, make_side
from repro.processor.constraints import apply_constraint_to_cell
from repro.processor.context import ExecutionContext
from repro.processor.library import jaccard, make_similar
from repro.processor.operators import JoinOp, TableSource
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.text.span import Span, doc_span
from repro.xlog.parser import parse_rules
from repro.xlog.program import Program
from repro.datagen.books import generate_books


@pytest.fixture
def context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}))


@pytest.fixture(scope="module")
def record_doc():
    return parse_html(
        "bench",
        "<p><a href='#'><b>Database Systems in Practice</b></a></p>"
        "<p>by Alice Chen (2003)</p>"
        "<p>Our Price: <b>$116.00</b>. You save 20%.</p>"
        "<p>ISBN: 0471234567. In stock.</p>",
    )


def test_bench_tokenize(benchmark, record_doc):
    from repro.text.tokenize import tokenize

    tokens = benchmark(tokenize, record_doc.text)
    assert tokens


def test_bench_parse_html(benchmark):
    html = (
        "<p><b>Title</b> and <i>italics</i> plus <a href='#'>link</a></p>" * 20
    )
    doc = benchmark(parse_html, "p", html)
    assert doc.regions_of("bold")


def test_bench_parse_program(benchmark):
    source = """
        houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(@x, p, a, h).
        schools(s)? :- schoolPages(y), extractSchools(@y, s).
        Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500.
        extractHouses(@x, p, a, h) :- from(@x, p), from(@x, a), from(@x, h),
            numeric(p) = yes, numeric(a) = yes.
        extractSchools(@y, s) :- from(@y, s), bold_font(s) = yes.
    """
    rules = benchmark(parse_rules, source)
    assert len(rules) == 5


def test_bench_numeric_refine(benchmark, context, record_doc):
    cell = Cell((Contain(doc_span(record_doc)),))

    def apply():
        return apply_constraint_to_cell(cell, "numeric", "yes", (), context)

    out = benchmark(apply)
    assert not out.is_empty()


def test_bench_constraint_chain(benchmark, context, record_doc):
    cell = Cell((Contain(doc_span(record_doc)),))

    def chain():
        step = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        return apply_constraint_to_cell(
            step, "preceded_by", "Price: $", (("numeric", "yes"),), context
        )

    out = benchmark(chain)
    assert len(out.assignments) == 1


def test_bench_comparison_condition(benchmark, context, record_doc):
    cell = Cell((Contain(doc_span(record_doc)),))
    cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))

    result = benchmark(cond.evaluate, {"p": cell}, context)
    assert result.some


def test_bench_jaccard(benchmark):
    result = benchmark(jaccard, "Database Systems in Practice", "Practice of Database Systems")
    assert result > 0


def test_bench_bannotate(benchmark, context):
    table = CompactTable(["k", "v"])
    for i in range(200):
        table.add(
            CompactTuple([Cell((Exact("key%d" % (i % 50)),)), Cell((Exact(i),))])
        )

    out = benchmark(annotate_table, table, False, ("v",), context)
    assert len(out) == 50


def test_bench_blocked_similarity_join(benchmark, context):
    tables = generate_books({"Amazon": 120, "Barnes": 120}, seed=4)

    def side(records, attr):
        table = CompactTable((attr,))
        for r in records:
            table.add(CompactTuple([Cell((Exact(r.spans["title"]),))]))
        return TableSource(table)

    from repro.processor.conditions import PFunctionCondition

    cond = PFunctionCondition(
        "similar", make_similar(0.55), [make_side(attr="a"), make_side(attr="b")]
    )
    join = JoinOp(side(tables["Amazon"], "a"), side(tables["Barnes"], "b"), [cond])

    out = benchmark.pedantic(join.execute, args=(context,), rounds=3, iterations=1)
    assert len(out) >= 1


def test_bench_similar_join(benchmark, context):
    """T3-shaped ``similar(t1, t2)`` over ``contain`` cells of whole pages:
    token blocking keeps a near cross-product, and every blocked pair is
    kept as maybe, its token-overlap test skipped; checked against memo-free
    evaluation of the unbound condition, pair by pair."""
    from repro.processor.conditions import PFunctionCondition

    tables = generate_books({"Amazon": 150, "Barnes": 150}, seed=4)

    def side(records, attr):
        rows = [CompactTuple([Cell.contain(doc_span(r.doc))]) for r in records]
        return TableSource(CompactTable((attr,), rows))

    cond = PFunctionCondition(
        "similar", make_similar(0.55), [make_side(attr="t1"), make_side(attr="t2")]
    )
    join = JoinOp(side(tables["Amazon"], "t1"), side(tables["Barnes"], "t2"), [cond])
    out = benchmark.pedantic(join.execute, args=(context,), rounds=3, iterations=1)

    plain = ExecutionContext(context.program, context.corpus)
    left, right = join.left.table, join.right.table
    expected = []
    for lt, rt in join._blocked_pairs(left, right, join._blocking_condition(plain), None):
        result = cond.evaluate({"t1": lt.cells[0], "t2": rt.cells[0]}, plain)
        if result.some:
            expected.append((lt.cells[0], rt.cells[0], lt.maybe or rt.maybe or not result.all))
    assert [(t.cells[0], t.cells[1], t.maybe) for t in out] == expected
    assert len(out) > 0.9 * len(left) * len(right)
    once = ExecutionContext(context.program, context.corpus)
    join.execute(once)
    assert once.stats.cap_hits == plain.stats.cap_hits == len(out)


def test_bench_ordering_join(benchmark, context):
    """T9-shaped ``np < bp``: expansion cells of exact price spans on both
    sides, decided from per-side bounds; checked against brute force."""
    import random

    rng = random.Random(9)

    def side(attr, prefix):
        table = CompactTable((attr,))
        for i in range(60):
            prices = ["$%d.%02d" % (rng.randint(5, 90), rng.randint(0, 99)) for _ in range(5)]
            doc = parse_html("%s%d" % (prefix, i), "<p>%s</p>" % " / ".join(prices))
            spans = []
            for price in prices:
                start = doc.text.index(price)
                spans.append(Span(doc, start, start + len(price)))
            table.add(CompactTuple([Cell.expansion(tuple(Exact(s) for s in spans))]))
        return table

    left, right = side("np", "a"), side("bp", "b")
    cond = ComparisonCondition(make_side(attr="np"), "<", make_side(attr="bp"))
    join = JoinOp(TableSource(left), TableSource(right), [cond])
    out = benchmark.pedantic(join.execute, args=(context,), rounds=3, iterations=1)

    def texts(cell):
        return sorted(a.value.text for a in cell.assignments)

    expected = []
    for lt in left:
        for rt in right:
            pairs = [
                (l, r)
                for l in lt.cells[0].assignments
                for r in rt.cells[0].assignments
                if l.value.numeric_value < r.value.numeric_value
            ]
            if pairs:
                every = len(pairs) == len(lt.cells[0].assignments) * len(rt.cells[0].assignments)
                expected.append(
                    (
                        sorted({l.value.text for l, _ in pairs}),
                        sorted({r.value.text for _, r in pairs}),
                        not every,
                    )
                )
    got = [(texts(t.cells[0]), texts(t.cells[1]), t.maybe) for t in out]
    assert got == expected
    assert 0 < len(out) < len(left) * len(right)


def test_bench_table_to_json(benchmark):
    """A join-shaped result: 10 000 tuples over 100 distinct cells, each
    encoded once; byte-identical to ``json.dumps`` of the dict export."""
    import json

    from repro.ctables.export import table_to_dicts, table_to_json

    doc = parse_html("cross", "<p>%s</p>" % " ".join("item%02d" % i for i in range(50)))
    cells = []
    for i in range(50):
        start = doc.text.index("item%02d" % i)
        cells.append(Cell((Exact(Span(doc, start, start + 6)),)))
    cells.append(Cell.expansion((Exact(i) for i in range(50))))  # 51st: shared everywhere
    cells.extend(Cell((Contain(doc_span(doc)), Exact("é%d" % i))) for i in range(49))
    left, right = cells[:50], cells[50:]
    table = CompactTable(["l", "r"])
    for k in range(10000):
        table.add(CompactTuple([left[k % 50], right[k // 200]], maybe=k % 3 == 0))
    assert len(table) == 10000
    assert len({id(c) for t in table for c in t.cells}) == 100

    text = benchmark(table_to_json, table)
    assert text == json.dumps(table_to_dicts(table), ensure_ascii=False)
