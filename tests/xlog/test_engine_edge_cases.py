"""Precise-engine edge cases: description-rule invocation, caps, errors."""

import pytest

from repro.ctables.assignments import value_text
from repro.errors import EnumerationLimitError, EvaluationError
from repro.text import Corpus, Document
from repro.xlog.engine import XlogEngine
from repro.xlog.program import PFunction, PPredicate, Program


def doc_table(*texts):
    return [Document("ee%d" % i, t) for i, t in enumerate(texts)]


class TestDescriptionRuleInvocation:
    """The precise engine can evaluate description rules directly

    (it is the reference path for unfolded semantics)."""

    def test_ie_atom_evaluates_description_rule(self):
        corpus = Corpus({"base": doc_table("a 5 b 7")})
        program = Program.parse(
            """
            q(x, v) :- base(x), nums(@x, v).
            nums(@x, v) :- from(@x, v), numeric(v) = yes.
            """,
            extensional=["base"],
        )
        rows = XlogEngine(program, corpus).query_result()
        assert {value_text(r[1]) for r in rows} == {"5", "7"}

    def test_ie_without_rules_or_procedure_errors(self):
        corpus = Corpus({"base": doc_table("x")})
        program = Program.parse(
            "q(x, v) :- base(x), mystery(@x, v).",
            extensional=["base"],
            p_predicates={"mystery": PPredicate("mystery", lambda x: [], 1, 1)},
        )
        # works with the registered procedure
        assert XlogEngine(program, corpus).query_result() == []


class TestBindingsAndConstants:
    def test_constant_in_atom_filters(self):
        corpus = Corpus({"base": doc_table("x")})
        program = Program.parse(
            'q(v) :- base(x), pairs(@x, v, "keep").',
            extensional=["base"],
            p_predicates={
                "pairs": PPredicate(
                    "pairs", lambda x: [(1, "keep"), (2, "drop")], 1, 2
                )
            },
        )
        rows = XlogEngine(program, corpus).query_result()
        assert [r[0] for r in rows] == [1]

    def test_shared_variable_joins(self):
        corpus = Corpus({"base": doc_table("x")})
        program = Program.parse(
            "q(v) :- base(x), left(@x, v), right(@x, v).",
            extensional=["base"],
            p_predicates={
                "left": PPredicate("left", lambda x: [(1,), (2,)], 1, 1),
                "right": PPredicate("right", lambda x: [(2,), (3,)], 1, 1),
            },
        )
        rows = XlogEngine(program, corpus).query_result()
        assert [r[0] for r in rows] == [2]

    def test_unbound_p_function_input_errors(self):
        corpus = Corpus({"base": doc_table("x")})
        program = Program.parse(
            "q(x) :- base(x), check(@y).",
            extensional=["base"],
            p_functions={"check": PFunction("check", lambda y: True)},
        )
        with pytest.raises(EvaluationError):
            XlogEngine(program, corpus).query_result()


class TestFromLimits:
    def test_from_cap(self):
        big = " ".join(str(i) for i in range(300))
        corpus = Corpus({"base": doc_table(big)})
        program = Program.parse(
            """
            q(x, v) :- base(x), sub(@x, v).
            sub(@x, v) :- from(@x, v).
            """,
            extensional=["base"],
        )
        engine = XlogEngine(program, corpus, from_limit=100)
        with pytest.raises(EnumerationLimitError):
            engine.query_result()

    def test_from_on_non_span_errors(self):
        corpus = Corpus({"base": doc_table("x")})
        program = Program.parse(
            """
            q(x, v) :- base(x), scalars(@x, s), sub(@s, v).
            sub(@s, v) :- from(@s, v).
            """,
            extensional=["base"],
            p_predicates={"scalars": PPredicate("scalars", lambda x: [(42,)], 1, 1)},
        )
        with pytest.raises(EvaluationError):
            XlogEngine(program, corpus).query_result()


class TestMultiRulePredicates:
    def test_union_of_rules(self):
        corpus = Corpus({"a": doc_table("one"), "b": [Document("bb", "two")]})
        program = Program.parse(
            """
            q(x) :- a(x).
            q(y) :- b(y).
            """,
            extensional=["a", "b"],
        )
        rows = XlogEngine(program, corpus).query_result()
        assert len(rows) == 2
