"""Plan compilation tests (paper Figure 4.b/4.c shapes)."""

import pytest

from repro.alog.unfold import unfold_program
from repro.errors import EvaluationError
from repro.processor.operators import AnnotateOp, ConstraintSelect, JoinOp, UnionOp
from repro.processor.plan import compile_predicate
from repro.xlog.program import PFunction, Program


def compile_query(source, **kwargs):
    kwargs.setdefault("extensional", ["base"])
    program = unfold_program(Program.parse(source, **kwargs))
    return compile_predicate(program.query, program), program


def op_types(plan):
    out = [type(plan).__name__]
    for child in plan.children():
        out.extend(op_types(child))
    return out


class TestSingleFragment:
    def test_linear_pipeline(self):
        plan, _ = compile_query(
            """
            q(x, p) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """
        )
        names = op_types(plan)
        assert names == [
            "AnnotateOp",
            "ProjectOp",
            "ConstraintSelect",
            "FromOp",
            "ScanExtensional",
        ]

    def test_constraints_in_body_order_with_priors(self):
        plan, _ = compile_query(
            """
            q(x, p) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes, preceded_by(p) = "$".
            """
        )
        select = plan.children()[0].children()[0]
        assert isinstance(select, ConstraintSelect)
        assert select.feature == "preceded_by"
        assert select.priors == (("numeric", "yes"),)

    def test_comparison_attached_to_fragment(self):
        plan, _ = compile_query(
            """
            q(x, p) :- base(x), ie(@x, p), p > 10.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """
        )
        assert "ConditionSelect" in op_types(plan)

    def test_annotations_compiled_into_psi(self):
        plan, _ = compile_query(
            """
            q(x, <p>)? :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p).
            """
        )
        assert isinstance(plan, AnnotateOp)
        assert plan.existence
        assert plan.annotated_attrs == ("p",)


class TestJoins:
    SOURCE = """
        q(p, s) :- base(x), other(y), ie1(@x, p), ie2(@y, s), sim(@p, @s).
        ie1(@x, p) :- from(@x, p).
        ie2(@y, s) :- from(@y, s).
    """

    def test_join_carries_condition(self):
        plan, _ = compile_query(
            self.SOURCE,
            extensional=["base", "other"],
            p_functions={"sim": PFunction("sim", lambda a, b: True)},
        )
        joins = [op for op in _walk(plan) if isinstance(op, JoinOp)]
        assert len(joins) == 1
        assert len(joins[0].conditions) == 1

    def test_three_way_join(self, figure2_program):
        unfolded = unfold_program(figure2_program)
        plan = compile_predicate("Q", unfolded)
        joins = [op for op in _walk(plan) if isinstance(op, JoinOp)]
        assert len(joins) == 1  # houses x schools

    def test_multi_rule_predicate_unions(self):
        program = unfold_program(
            Program.parse(
                """
                q(x) :- base(x).
                q(y) :- other(y).
                """,
                extensional=["base", "other"],
            )
        )
        plan = compile_predicate("q", program)
        assert isinstance(plan, UnionOp)


class TestErrors:
    def test_rule_without_scan(self):
        program = unfold_program(
            Program.parse(
                """
                q(p) :- ie(@p, r).
                ie(@p, r) :- from(@p, r).
                """,
                extensional=["base"],
            )
        )
        with pytest.raises(EvaluationError):
            compile_predicate("q", program)

    def test_explain_renders(self, figure2_program):
        from repro.processor.executor import IFlexEngine
        from repro.text.corpus import Corpus

        engine = IFlexEngine(figure2_program, Corpus({"housePages": [], "schoolPages": []}))
        text = engine.explain()
        assert "Annotate" in text and "From" in text and "Join" in text


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)
