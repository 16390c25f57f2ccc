"""Constraint application over cells (section 4.2's A(k, m(s)))."""

import pytest

from repro.ctables.assignments import Contain, Exact
from repro.ctables.ctable import Cell
from repro.processor.constraints import apply_constraint_to_cell, verify_scalar
from repro.processor.context import ExecutionContext
from repro.text.html_parser import parse_html
from repro.text.span import Span, doc_span
from repro.xlog.program import Program


@pytest.fixture
def context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    from repro.text.corpus import Corpus

    return ExecutionContext(program, Corpus({"base": []}))


@pytest.fixture
def doc():
    return parse_html("d", "<p>Sqft: 2750. Price: <b>$351,000</b>.</p>")


class TestExactCase:
    def test_verify_keeps_satisfying(self, context, doc):
        price = Span(doc, doc.text.index("351"), doc.text.index("351") + 7)
        cell = Cell((Exact(price),))
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        assert out.assignments == (Exact(price),)

    def test_verify_drops_failing(self, context, doc):
        word = Span(doc, 0, 4)  # "Sqft"
        cell = Cell((Exact(word),))
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        assert out.is_empty()

    def test_scalar_numeric(self, context):
        cell = Cell((Exact(42), Exact("abc")))
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        assert out.assignments == (Exact(42),)

    def test_scalar_context_feature_conservative(self, context):
        # a scalar has no document context; context features keep it
        cell = Cell((Exact(42),))
        out = apply_constraint_to_cell(cell, "preceded_by", "$", (), context)
        assert not out.is_empty()


class TestContainCase:
    def test_refine_produces_exacts(self, context, doc):
        cell = Cell((Contain(doc_span(doc)),))
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        texts = {a.value.text for a in out.assignments}
        assert texts == {"2750", "351,000"}

    def test_refine_contain_hint(self, context, doc):
        cell = Cell((Contain(doc_span(doc)),))
        out = apply_constraint_to_cell(cell, "bold_font", "yes", (), context)
        (assignment,) = out.assignments
        assert isinstance(assignment, Contain)
        assert assignment.span.text == "$351,000"

    def test_prior_recheck_filters_exacts(self, context, doc):
        # preceded_by first (loose contain), then numeric: the numeric
        # refinement's exact spans must be rechecked against priors
        cell = Cell((Contain(doc_span(doc)),))
        step1 = apply_constraint_to_cell(cell, "preceded_by", "$", (), context)
        step2 = apply_constraint_to_cell(
            step1, "numeric", "yes", (("preceded_by", "$"),), context
        )
        texts = {a.value.text for a in step2.assignments}
        assert texts == {"351,000"}  # 2750 fails the preceded_by recheck

    def test_order_independence_of_final_exacts(self, context, doc):
        cell = Cell((Contain(doc_span(doc)),))
        a = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        a = apply_constraint_to_cell(a, "preceded_by", "$", (("numeric", "yes"),), context)
        b = apply_constraint_to_cell(cell, "preceded_by", "$", (), context)
        b = apply_constraint_to_cell(b, "numeric", "yes", (("preceded_by", "$"),), context)
        assert set(a.assignments) == set(b.assignments)

    def test_expansion_flag_preserved(self, context, doc):
        cell = Cell.expansion([Contain(doc_span(doc))])
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        assert out.is_expansion

    def test_dedup_of_hints(self, context, doc):
        span = doc_span(doc)
        cell = Cell((Contain(span), Contain(span)))
        out = apply_constraint_to_cell(cell, "numeric", "yes", (), context)
        texts = [a.value.text for a in out.assignments]
        assert len(texts) == len(set(texts))


class TestScalarVerify:
    def test_max_value(self, context):
        f = context.feature("max_value")
        assert verify_scalar(f, 50, 100)
        assert not verify_scalar(f, 150, 100)

    def test_lengths(self, context):
        assert verify_scalar(context.feature("max_length"), "abc", 5)
        assert not verify_scalar(context.feature("min_length"), "abc", 5)

    def test_pattern(self, context):
        assert verify_scalar(context.feature("pattern"), "1999", r"19\d\d")

    def test_stats_counted(self, context):
        before = context.stats.verify_calls
        assert context.verify_value(context.feature("numeric"), 5, "yes")
        assert context.stats.verify_calls == before + 1
