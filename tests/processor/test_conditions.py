"""Three-valued condition evaluation tests (section 4.1)."""

import pytest

from repro.ctables.assignments import Contain, Exact, value_key
from repro.ctables.ctable import Cell
from repro.processor.conditions import (
    ComparisonCondition,
    PFunctionCondition,
    make_side,
)
from repro.processor.context import ExecConfig, ExecutionContext
from repro.processor.library import make_similar
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import doc_span
from repro.xlog.program import Program


@pytest.fixture
def context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}))


def exact_cell(*values):
    return Cell(tuple(Exact(v) for v in values))


def span_of(text):
    return doc_span(Document("cd-%d" % abs(hash(text)), text))


class TestComparisonAgainstConstant:
    def test_all_satisfy(self, context):
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        result = cond.evaluate({"p": exact_cell(200, 300)}, context)
        assert result.some and result.all

    def test_some_satisfy_filters(self, context):
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        result = cond.evaluate({"p": exact_cell(50, 200)}, context)
        assert result.some and not result.all
        filtered = result.filtered["p"]
        assert [a.value for a in filtered.assignments] == [200]

    def test_none_satisfy(self, context):
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        result = cond.evaluate({"p": exact_cell(1, 2)}, context)
        assert not result.some

    def test_contain_ordering_uses_numeric_candidates(self, context):
        cell = Cell((Contain(span_of("price 619,000 beats 4500")),))
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=500000))
        result = cond.evaluate({"p": cell}, context)
        assert result.some
        assert not result.all  # non-numeric sub-spans cannot satisfy

    def test_contain_ordering_drop(self, context):
        cell = Cell((Contain(span_of("only 42 here")),))
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        result = cond.evaluate({"p": cell}, context)
        assert not result.some

    @pytest.mark.parametrize("text", ["Infinity", "inf", "NaN", "1_000"])
    def test_float_only_spelling_never_orders(self, context, text):
        for op in (">", ">=", "<", "<="):
            cond = ComparisonCondition(make_side(attr="p"), op, make_side(const=100))
            result = cond.evaluate({"p": Cell((Exact(span_of(text)),))}, context)
            assert not result.some

    def test_equality_against_string_const(self, context):
        cell = Cell((Contain(span_of("find Basktall HS here")),))
        cond = ComparisonCondition(make_side(attr="s"), "=", make_side(const="Basktall HS"))
        result = cond.evaluate({"s": cell}, context)
        assert result.some

    def test_null_comparison(self, context):
        cond = ComparisonCondition(make_side(attr="j"), "!=", make_side(const=None))
        result = cond.evaluate({"j": exact_cell(1999)}, context)
        assert result.some and result.all


class TestAttrToAttr:
    def test_equality_between_cells(self, context):
        cond = ComparisonCondition(make_side(attr="a"), "=", make_side(attr="b"))
        result = cond.evaluate(
            {"a": exact_cell(1, 2), "b": exact_cell(2, 3)}, context
        )
        assert result.some and not result.all
        assert [a.value for a in result.filtered["a"].assignments] == [2]
        assert [a.value for a in result.filtered["b"].assignments] == [2]

    def test_arith_offset(self, context):
        # lp < fp + 5
        cond = ComparisonCondition(
            make_side(attr="lp"), "<", make_side(attr="fp", offset=5)
        )
        short = cond.evaluate({"lp": exact_cell(12), "fp": exact_cell(10)}, context)
        assert short.some
        long = cond.evaluate({"lp": exact_cell(30), "fp": exact_cell(10)}, context)
        assert not long.some


class TestCaps:
    def test_pair_cap_degrades_conservatively(self):
        program = Program.parse("q(x) :- base(x).", extensional=["base"])
        context = ExecutionContext(
            program, Corpus({"base": []}), config=ExecConfig(pair_cap=4)
        )
        cond = ComparisonCondition(make_side(attr="a"), "=", make_side(attr="b"))
        result = cond.evaluate(
            {"a": exact_cell(1, 2, 3), "b": exact_cell(1, 2, 3)}, context
        )
        assert result.capped and result.some and not result.all
        assert result.filtered == {}

    def test_cap_hit_counted(self):
        program = Program.parse("q(x) :- base(x).", extensional=["base"])
        context = ExecutionContext(
            program, Corpus({"base": []}), config=ExecConfig(pair_cap=1)
        )
        cond = ComparisonCondition(make_side(attr="a"), "=", make_side(attr="b"))
        cond.evaluate({"a": exact_cell(1, 2), "b": exact_cell(1)}, context)
        assert context.stats.cap_hits >= 1


class TestPFunctionCondition:
    def make(self, threshold=0.5):
        func = make_similar(threshold)
        return PFunctionCondition(
            "similar", func, [make_side(attr="a"), make_side(attr="b")]
        )

    def test_exact_pair_evaluation(self, context):
        cond = self.make()
        result = cond.evaluate(
            {
                "a": exact_cell(span_of("Silent River")),
                "b": exact_cell(span_of("Silent River Remastered")),
            },
            context,
        )
        assert result.some

    def test_filters_non_matching_values(self, context):
        cond = self.make()
        match = span_of("Crimson Empire")
        miss = span_of("Totally Different")
        result = cond.evaluate(
            {
                "a": Cell((Exact(match), Exact(miss))),
                "b": exact_cell(span_of("Crimson Empire Story")),
            },
            context,
        )
        keys = {value_key(a.value) for a in result.filtered["a"].assignments}
        assert keys == {value_key(match)}

    def test_contain_side_is_conservative(self, context):
        cond = self.make()
        result = cond.evaluate(
            {
                "a": Cell((Contain(span_of("Silent River something")),)),
                "b": exact_cell(span_of("Silent River")),
            },
            context,
        )
        assert result.capped and result.some

    def test_token_overlap_refutation(self, context):
        # blockable + zero shared tokens: exact refutation even with contain
        cond = self.make()
        result = cond.evaluate(
            {
                "a": Cell((Contain(span_of("alpha beta gamma")),)),
                "b": exact_cell(span_of("delta epsilon")),
            },
            context,
        )
        assert not result.some
