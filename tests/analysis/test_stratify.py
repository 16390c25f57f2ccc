"""Stratification: SCC-based recursion classification (ALOG016).

The stratify pass classifies cycles stratified-safe (plain relational
recursion — evaluated by the engine's semi-naive fixpoint loop and
reported as an *informational* ALOG016) or genuinely unsafe (through ψ,
IE extraction, or procedures — still an ALOG016 error, and execution
refuses them with the stratum-aware message)."""

import pytest

from repro.analysis import analyze_source
from repro.errors import EvaluationError
from repro.processor.ordering import evaluation_order
from repro.xlog.program import Program

STRATIFIED_SAFE = """
q(t) :- docs(d), reach(t).
reach(t) :- base(t).
reach(t) :- reach(s), base(t), s = t.
base(t) :- docs(d), title(@d, t).
title(@d, t) :- from(@d, t), bold_font(t) = yes.
"""

UNSAFE_PSI = """
q(t)? :- docs(d), q(t).
"""

ACYCLIC = """
q(t) :- docs(d), title(@d, t).
title(@d, t) :- from(@d, t), bold_font(t) = yes.
"""


def lint(source, **kwargs):
    kwargs.setdefault("extensional", ["docs"])
    kwargs.setdefault("query", "q")
    return analyze_source(source, **kwargs)


class TestStrataArtifact:
    def test_acyclic_program_gets_dependency_ordered_strata(self):
        result = lint(ACYCLIC)
        info = result.stratification
        assert info is not None
        assert not info.recursive
        assert info.strata == (("title",), ("q",))
        assert info.stratum_of["q"] == 1

    def test_strata_ride_on_the_json_summary(self):
        data = lint(ACYCLIC).to_dict("p.alog")
        assert data["strata"] == {
            "strata": [["title"], ["q"]],
            "cycles": [],
        }


class TestStratifiedSafe:
    def test_safe_cycle_is_classified_as_an_info(self):
        result = lint(STRATIFIED_SAFE)
        info = result.stratification
        cycle = info.cycle_for("reach")
        assert cycle is not None and cycle.safe
        assert cycle.stratum == 2
        assert info.strata[2] == ("reach",)
        # safe recursion executes: ALOG016 is advisory, not blocking
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert len(found) == 1
        assert found[0].severity == "info"
        assert result.ok
        assert "stratified-safe (stratum 2)" in found[0].message
        assert "semi-naive fixpoint" in found[0].message

    def test_evaluation_order_returns_the_recursive_group(self):
        program = Program.parse(
            STRATIFIED_SAFE, extensional=["docs"], query="q"
        )
        order = evaluation_order(program)
        assert ("reach",) in order
        # dependencies first: base before the recursive group, the
        # query last
        assert order.index(("base",)) < order.index(("reach",))
        assert order.index(("reach",)) < order.index(("q",))


class TestUnsafeCycles:
    def test_psi_inside_the_cycle_is_unsafe(self):
        result = lint(UNSAFE_PSI)
        cycle = result.stratification.cycle_for("q")
        assert cycle is not None and not cycle.safe
        assert "ψ annotation" in cycle.reason
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert len(found) == 1
        assert "cannot be stratified" in found[0].message

    def test_procedural_atom_inside_the_cycle_is_unsafe(self):
        result = lint(
            """
            q(t) :- docs(d), q(s), cleanup(@s, t).
            """,
            p_predicates={"cleanup": 2},
        )
        cycle = result.stratification.cycle_for("q")
        assert cycle is not None and not cycle.safe
        assert "procedural predicate 'cleanup'" in cycle.reason

    def test_mutual_recursion_reports_one_cycle_with_the_walk(self):
        result = lint(
            """
            a(t) :- docs(d), b(t).
            b(t) :- docs(d), a(t).
            q(t) :- docs(d), a(t).
            """
        )
        cycles = result.stratification.cycles
        assert len(cycles) == 1
        assert cycles[0].members == ("a", "b")
        assert cycles[0].path[0] == cycles[0].path[-1]
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert len(found) == 1

    def test_unsafe_cycle_raises_stratum_aware_at_evaluation_too(self):
        program = Program.parse(UNSAFE_PSI, extensional=["docs"])
        with pytest.raises(EvaluationError) as err:
            evaluation_order(program)
        assert "cannot be stratified" in str(err.value)


class TestPlanLintAndRecursion:
    def test_safe_recursion_gets_a_plan_report(self):
        result = lint(STRATIFIED_SAFE, plan=True)
        assert result.plan_report is not None

    def test_unsafe_recursion_still_skips_the_plan_lint(self):
        result = lint(UNSAFE_PSI, plan=True)
        assert result.plan_report is None
