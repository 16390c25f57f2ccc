"""The SpannerLib-style embedding API (:mod:`repro.alog.embed`).

Sessions compose tables from Python data and rules from source
fragments, run in-process, and hand tuples back as plain Python values
with the approximation structure (maybe flags, cell assignments)
preserved; :meth:`AlogSession.submit` ships the same pipeline to a
resident :class:`~repro.service.ExtractionService`.
"""

import pytest

from repro.alog import AlogSession
from repro.ctables import table_key
from repro.text.html_parser import parse_html

EDGE_DOCS = {
    "e1": "<p>001 002</p>",
    "e2": "<p>002 003</p>",
    "e3": "<p>003 004</p>",
}

TC_RULES = """
edge(x, y) :- docs(d), pair(@d, x, y).
pair(@d, x, y) :- from(@d, x), numeric(x) = yes, first_half(x) = yes, from(@d, y), numeric(y) = yes, first_half(y) = no.
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y2, z), y = y2.
"""


def path_pairs(results):
    return {(int(row["x"]), int(row["y"])) for row in results}


class TestComposition:
    def test_chained_tables_and_rules_run(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>Price: 12</p>"})
            .rule("q(x, p) :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        results = session.run(query="q")
        assert len(results) == 1
        assert results[0]["p"] == "12"
        assert results.attrs == ("x", "p")

    def test_documents_accept_pairs_and_parsed_documents(self):
        doc = parse_html("b", "<p>Price: 34</p>")
        session = (
            AlogSession()
            .table("pages", [("a", "<p>Price: 12</p>"), doc])
            .rule("q(x, p) :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        values = {row["p"] for row in session.run(query="q")}
        assert values == {"12", "34"}

    def test_redeclaring_a_table_replaces_it(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>Price: 12</p>"})
            .rule("q(x, p) :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        session.table("pages", {"a": "<p>Price: 99</p>"})
        values = {row["p"] for row in session.run(query="q")}
        assert values == {"99"}

    def test_no_rules_is_a_value_error(self):
        with pytest.raises(ValueError) as err:
            AlogSession().table("pages", {}).program()
        assert "no rules" in str(err.value)

    def test_lint_sees_the_assembled_program(self):
        session = AlogSession().table("docs", EDGE_DOCS).rule(TC_RULES)
        result = session.lint(query="path")
        assert result.ok
        found = [d for d in result.diagnostics if d.code == "ALOG016"]
        assert found and found[0].severity == "info"


class TestResults:
    def test_maybe_flag_rides_on_rows(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>Price: 12</p>"})
            .rule("q(x, p)? :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        results = session.run(query="q")
        assert all(row.maybe for row in results)
        assert len(results.maybe_rows()) == len(results)
        assert results[0].as_dict()["maybe"] is True

    def test_cell_exposes_the_approximation_structure(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>Price: 12</p>"})
            .rule("q(x, p) :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        cell = session.run(query="q")[0].cell("p")
        assert cell["assignments"]

    def test_exports_delegate_to_the_compact_table(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>Price: 12</p>"})
            .rule("q(x, p) :- pages(x), from(@x, p), numeric(p) = yes.")
        )
        results = session.run(query="q")
        assert results.to_dicts()
        assert "p" in results.to_csv().splitlines()[0]

    def test_recursive_rules_run_to_fixpoint(self):
        session = AlogSession().table("docs", EDGE_DOCS).rule(TC_RULES)
        results = session.run(query="path")
        assert path_pairs(results) == {
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
        }
        assert results.stats.fixpoint_iterations == 4


class TestProcedural:
    def test_p_function_registers_and_runs(self):
        session = (
            AlogSession()
            .table("pages", {"a": "<p>12 99</p>"})
            .rule(
                "q(x, y) :- pages(d), pair(@d, x, y), accept(x, y)."
            )
            .rule(
                "pair(@d, x, y) :- from(@d, x), numeric(x) = yes, first_half(x) = yes, from(@d, y), numeric(y) = yes, first_half(y) = no."
            )
            .p_function("accept", lambda left, right: True)
        )
        assert len(session.run(query="q")) == 1
        session.p_function("accept", lambda left, right: False)
        assert len(session.run(query="q")) == 0

    def test_p_predicate_registers_for_parsing(self):
        session = (
            AlogSession()
            .table("docs", {"a": "<p>x</p>"})
            .rule("q(t) :- docs(d), cleanup(@d, t).")
            .p_predicate("cleanup", lambda value: [(value,)], 1, 1)
        )
        program = session.program(query="q")
        assert "cleanup" in program.p_predicates


class TestSubmit:
    def service(self):
        from repro.processor.context import ExecConfig
        from repro.service.state import ExtractionService

        return ExtractionService(config=ExecConfig())

    def test_recursive_pipeline_hosts_on_the_service(self):
        service = self.service()
        session = AlogSession().table("docs", EDGE_DOCS).rule(TC_RULES)
        host, resubmitted = session.submit(service, query="path")
        assert not resubmitted
        hosted = service.run_program(host.program_id)
        local = session.run(query="path")
        assert table_key(hosted.query_table) == table_key(
            local.result.query_table
        )

    def test_resubmitting_the_same_session_is_idempotent(self):
        service = self.service()
        session = AlogSession().table("docs", EDGE_DOCS).rule(TC_RULES)
        session.submit(service, query="path")
        _, resubmitted = session.submit(service, query="path", ingest=False)
        assert resubmitted

    def test_procedural_sessions_refuse_to_submit(self):
        service = self.service()
        session = (
            AlogSession()
            .table("pages", {"a": "<p>x</p>"})
            .rule("q(x) :- pages(x).")
            .p_function("accept", lambda left, right: True)
        )
        with pytest.raises(ValueError) as err:
            session.submit(service)
        assert "service boundary" in str(err.value)
