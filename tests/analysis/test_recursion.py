"""ALOG016: recursive predicates, at lint time and at evaluation time.

Stratified-safe recursion (plain relational cycles) now *executes* —
the analyzer reports an informational ALOG016 and ``evaluation_order``
returns the strongly-connected component as one evaluation group for
the engine's semi-naive fixpoint loop.  Unsafe cycles (through ψ, IE
extraction, or procedural predicates) keep the ALOG016 error, and
``evaluation_order`` raises the same diagnostic (with the offending
rule's source span) if such a program reaches the engine anyway.
"""

import pytest

from repro.analysis import analyze_source
from repro.errors import EvaluationError
from repro.processor.ordering import evaluation_order
from repro.xlog.program import Program

SELF_RECURSIVE = """
q(t) :- docs(d), q(t).
"""

MUTUAL = """
a(t) :- docs(d), b(t).
b(t) :- docs(d), a(t).
q(t) :- docs(d), a(t).
"""

UNSAFE_PSI = """
q(t)? :- docs(d), q(t).
"""

UNSAFE_MUTUAL = """
a(t)? :- docs(d), b(t).
b(t) :- docs(d), a(t).
q(t) :- docs(d), a(t).
"""

ACYCLIC = """
q(t) :- docs(d), title(@d, t).
title(@d, t) :- from(@d, t), bold_font(t) = yes.
"""


def lint(source):
    return analyze_source(source, extensional=["docs"])


class TestAnalyzerPass:
    def test_safe_self_recursion_is_an_informational_alog016(self):
        result = lint(SELF_RECURSIVE)
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert found and result.ok
        assert found[0].severity == "info"
        assert "stratified-safe" in found[0].message
        # still anchored at the offending rule
        assert found[0].line is not None
        assert found[0].rule_label

    def test_unsafe_self_recursion_is_an_alog016_error(self):
        result = lint(UNSAFE_PSI)
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert found and not result.ok
        assert "cannot be stratified" in found[0].message
        assert found[0].line is not None

    def test_mutual_recursion_reports_the_cycle(self):
        result = lint(MUTUAL)
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert found
        assert "a" in found[0].message and "b" in found[0].message

    def test_cycle_reported_once_not_once_per_member(self):
        result = lint(MUTUAL)
        assert sum(1 for d in result.diagnostics if d.code == "ALOG016") == 1

    def test_acyclic_program_is_clean(self):
        result = lint(ACYCLIC)
        assert not [d for d in result.diagnostics if d.code == "ALOG016"]


class TestEvaluationOrder:
    def build(self, source):
        return Program.parse(source, extensional=["docs"], query="q")

    def test_safe_self_recursion_is_its_own_group(self):
        order = evaluation_order(self.build(SELF_RECURSIVE))
        assert ("q",) in order

    def test_safe_mutual_recursion_groups_the_component(self):
        order = evaluation_order(self.build(MUTUAL))
        assert ("a", "b") in order
        assert order.index(("a", "b")) < order.index(("q",))

    def test_unsafe_recursion_raises_diagnostic_error(self):
        with pytest.raises(EvaluationError) as err:
            evaluation_order(self.build(UNSAFE_PSI))
        diagnostic = err.value.diagnostic
        assert diagnostic.code == "ALOG016"
        assert diagnostic.line is not None
        assert "ALOG016" in str(err.value)

    def test_unsafe_cycle_raises_diagnostic_error_with_span(self):
        with pytest.raises(EvaluationError) as err:
            evaluation_order(self.build(UNSAFE_MUTUAL))
        diagnostic = err.value.diagnostic
        assert diagnostic.code == "ALOG016"
        assert diagnostic.line is not None and diagnostic.column is not None

    def test_acyclic_order_is_bottom_up(self):
        program = self.build(
            """
            q(t) :- docs(d), mid(t).
            mid(t) :- docs(d), from(@d, t).
            """
        )
        order = evaluation_order(program)
        assert order.index(("mid",)) < order.index(("q",))
