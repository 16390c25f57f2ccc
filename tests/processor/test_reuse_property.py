"""Property: reuse-cached execution ≡ fresh execution.

The section 5.2 reuse path (apply only the delta constraints to cached
per-rule tables) must be observationally equivalent to recomputing the
refined program from scratch — same tuples, same cells, same maybe
flags.  Constraints commute (section 4.2), which is what makes this
hold; the test fuzzes constraint sequences to check it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import value_key
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import Program


def canonical(table):
    """Order-independent canonical form of a compact table."""
    rows = []
    for t in table:
        cells = tuple(
            (
                cell.is_expansion,
                frozenset(
                    (type(a).__name__, value_key(getattr(a, "value", None) if hasattr(a, "value") else a.span))
                    for a in cell.assignments
                ),
            )
            for cell in t.cells
        )
        rows.append((cells, t.maybe))
    return sorted(rows, key=repr)


@pytest.fixture(scope="module")
def setup():
    docs = [
        parse_html(
            "r%d" % i,
            "<p><b>Item %d</b></p><p>Our Price: <b>$%d.50</b>. ISBN: 99%d.</p>"
            % (i, 40 + i * 17, 10**8 + i),
        )
        for i in range(8)
    ]
    corpus = Corpus({"base": docs})
    program = Program.parse(
        """
        items(x, <t>, <p>) :- base(x), ie(@x, t, p).
        q(t, p) :- items(x, t, p), p > 60.
        ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes.
        """,
        extensional=["base"],
        query="q",
    )
    return program, corpus


CONSTRAINTS = [
    ("p", "preceded_by", "$"),
    ("p", "bold_font", "yes"),
    ("p", "max_value", 500),
    ("t", "bold_font", "yes"),
    ("t", "capitalized", "yes"),
    ("p", "followed_by", "."),
]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(range(len(CONSTRAINTS))), min_size=1, max_size=4, unique=True)
)
def test_incremental_reuse_equals_fresh(setup, picks):
    program, corpus = setup
    cache = RuleCache()
    IFlexEngine(program, corpus).execute(cache=cache)  # warm the cache
    refined = program
    for index in picks:
        attr, feature, value = CONSTRAINTS[index]
        refined = refined.add_constraint("ie", attr, feature, value)
        cached = IFlexEngine(refined, corpus).execute(cache=cache)
        fresh = IFlexEngine(refined, corpus).execute()
        assert canonical(cached.query_table) == canonical(fresh.query_table)
        assert canonical(cached.tables["items"]) == canonical(fresh.tables["items"])


@settings(max_examples=15, deadline=None)
@given(
    st.permutations(range(3)),
)
def test_constraint_order_independence(setup, order):
    """Any application order of a constraint set yields the same final

    exact assignments (the paper's section 4.2 claim)."""
    program, corpus = setup
    subset = [CONSTRAINTS[0], CONSTRAINTS[1], CONSTRAINTS[2]]
    refined = program
    for index in order:
        attr, feature, value = subset[index]
        refined = refined.add_constraint("ie", attr, feature, value)
    result = IFlexEngine(refined, corpus).execute()
    baseline_program = program
    for attr, feature, value in subset:
        baseline_program = baseline_program.add_constraint("ie", attr, feature, value)
    baseline = IFlexEngine(baseline_program, corpus).execute()
    assert canonical(result.query_table) == canonical(baseline.query_table)
