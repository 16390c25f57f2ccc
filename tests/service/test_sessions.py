"""Refinement sessions over the service: queue bridge, lifecycle, HTTP."""

import time

import pytest

from repro.analysis.typing import feature_value_error
from repro.assistant.questions import Question
from repro.features.registry import default_registry
from repro.service.sessions import QueueDeveloper
from tests.service.conftest import PROGRAM_SOURCE, ingest_pages, submit_program

#: generous wall-clock bound for a background session to finish
DEADLINE = 30.0


def wait_for(predicate, timeout=DEADLINE):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def fits(pending, answer):
    """Whether the pending question's feature can take ``answer``."""
    feature = default_registry().get(pending["feature"])
    return feature_value_error(feature, answer) is None


def misfit(pending):
    """An answer the pending question's feature can never take."""
    feature = default_registry().get(pending["feature"])
    return "many" if feature.capability().param_type in ("int", "number") else 5


def start_session(client, **extra):
    ingest_pages(client, range(3))
    pid = submit_program(client).json["program_id"]
    body = {"program_id": pid, "max_iterations": 2}
    body.update(extra)
    resp = client.post("/sessions", body)
    assert resp.code == 201
    return resp.json["session_id"]


class TestCreateValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 0),
            ("max_iterations", 2.5),
            ("max_iterations", "3"),
            ("max_iterations", True),
            ("questions_per_iteration", -1),
            ("questions_per_iteration", False),
            ("subset_fraction", 0),
            ("subset_fraction", 1.5),
            ("subset_fraction", "0.5"),
            ("subset_fraction", True),
            ("answer_timeout", 0),
            ("answer_timeout", -2.0),
            ("answer_timeout", [1]),
            ("answer_timeout", True),
            ("answer_timeout", 1e10),
            ("answer_timeout", float("inf")),
        ],
    )
    def test_bad_session_settings_are_400_naming_the_field(
        self, client, service, field, value
    ):
        ingest_pages(client, range(3))
        pid = submit_program(client).json["program_id"]
        resp = client.post("/sessions", {"program_id": pid, field: value})
        assert resp.code == 400
        assert repr(field) in resp.json["error"]
        assert service.sessions.describe() == []


class TestProgramValidation:
    @pytest.mark.parametrize(
        "tables",
        [[1, "pages"], [["pages"]], ["pages", ""], [None], [True], "pages"],
    )
    def test_bad_tables_entries_are_400_naming_the_field(
        self, client, service, tables
    ):
        resp = submit_program(client, tables=tables)
        assert resp.code == 400
        assert repr("tables") in resp.json["error"]
        assert service.programs == {}

    @pytest.mark.parametrize("query", ["", 5, ["q"]])
    def test_bad_query_is_400_naming_the_field(self, client, service, query):
        resp = submit_program(client, query=query)
        assert resp.code == 400
        assert repr("query") in resp.json["error"]
        assert service.programs == {}

    def test_omitted_query_hosts_the_default(self, client, service):
        ingest_pages(client, range(2))
        resp = client.post("/programs", {"source": PROGRAM_SOURCE})
        assert resp.code == 201
        assert resp.json["query"] == "q"


class TestAnswerValidation:
    @pytest.mark.parametrize("answer", [True, False, [1], {"a": 1}, ["yes"]])
    def test_bad_answer_is_400_and_session_keeps_running(
        self, client, service, answer
    ):
        sid = start_session(client)
        assert wait_for(
            lambda: client.get("/sessions/%s" % sid).json["pending_question"]
        )
        resp = client.post("/sessions/%s/answer" % sid, {"answer": answer})
        assert resp.code == 400
        assert repr("answer") in resp.json["error"]
        status = client.get("/sessions/%s" % sid).json
        assert status["state"] == "running"
        assert status["pending_question"]
        assert status["questions_answered"] == 0
        assert client.delete("/sessions/%s" % sid).code == 200

    def test_non_finite_number_is_400(self, client, service):
        sid = start_session(client)
        assert wait_for(
            lambda: client.get("/sessions/%s" % sid).json["pending_question"]
        )
        # json.dumps writes NaN, which Python's JSON parser accepts
        resp = client.post("/sessions/%s/answer" % sid, {"answer": float("nan")})
        assert resp.code == 400
        assert repr("answer") in resp.json["error"]
        assert client.delete("/sessions/%s" % sid).code == 200

    @pytest.mark.parametrize("answer", ["yes", 3, 2.5, None])
    def test_valid_answer_is_accepted(self, client, service, answer):
        # decline questions until one whose feature takes the answer
        sid = start_session(client, questions_per_iteration=50)
        path = "/sessions/%s" % sid
        while True:
            assert wait_for(lambda: client.get(path).json["pending_question"])
            pending = client.get(path).json["pending_question"]
            if answer is None or fits(pending, answer):
                break
            assert client.post(path + "/answer", {"answer": None}).code == 200
            assert wait_for(
                lambda: client.get(path).json["pending_question"] != pending
            )
        resp = client.post(path + "/answer", {"answer": answer})
        assert resp.code == 200
        assert client.delete(path).code == 200

    def test_answer_the_feature_rejects_is_400(self, client, service):
        sid = start_session(client)
        path = "/sessions/%s" % sid
        assert wait_for(lambda: client.get(path).json["pending_question"])
        pending = client.get(path).json["pending_question"]
        resp = client.post(path + "/answer", {"answer": misfit(pending)})
        assert resp.code == 400
        assert repr("answer") in resp.json["error"]
        assert repr(pending["feature"]) in resp.json["error"]
        status = client.get(path).json
        assert status["state"] == "running"
        assert status["pending_question"] == pending
        assert client.delete(path).code == 200

    def test_numeric_answers_never_fail_the_session(self, client, service):
        """A number to every question: text and boolean features refuse
        it with a 400 (then the client declines), the rest apply it."""
        sid = start_session(client, max_iterations=1, questions_per_iteration=50)
        wrapped = service.sessions.get(sid)
        path = "/sessions/%s" % sid
        asked = set()
        while not wrapped.wait(0.02):
            pending = client.get(path).json["pending_question"]
            if pending is None or pending["feature"] in asked:
                continue
            asked.add(pending["feature"])
            resp = client.post(path + "/answer", {"answer": 5})
            if resp.code == 400:
                assert client.post(path + "/answer", {"answer": None}).code == 200
        status = client.get(path).json
        assert status["state"] == "finished", status.get("error")
        assert "preceded_by" in asked
        assert status["questions_answered"] >= 1

    def test_misfit_queued_early_becomes_idk(self):
        developer = QueueDeveloper()
        developer.push(5)  # before any question was pending
        question = Question("ie", "p", "preceded_by")
        assert developer.answer(question, default_registry()) is None
        assert developer.questions_answered == 0
        assert len(developer.diagnostics) == 1
        assert "preceded_by" in developer.diagnostics[0]
        developer.push("$")
        assert developer.answer(question, default_registry()) == "$"
        assert developer.questions_answered == 1


class TestLifecycle:
    def test_unknown_program_404(self, client):
        assert client.post("/sessions", {"program_id": "zzz"}).code == 404

    def test_unknown_session_404(self, client):
        assert client.get("/sessions/s99").code == 404

    def test_session_without_tables_409(self, client):
        pid = submit_program(client, tables=["pages"]).json["program_id"]
        assert client.post("/sessions", {"program_id": pid}).code == 409

    def test_timeout_developer_runs_unattended(self, client, service):
        """With answer_timeout set, every question auto-answers IDK and
        the session finishes without any client interaction."""
        sid = start_session(client, answer_timeout=0.01)
        wrapped = service.sessions.get(sid)
        assert wrapped.wait(DEADLINE)
        status = client.get("/sessions/%s" % sid).json
        assert status["state"] == "finished"
        assert status["questions_answered"] == 0
        assert status["iterations"] >= 1
        assert status["tuples"] == 3
        assert "refined_source" in status

    def test_answers_applied_as_constraints(self, client, service):
        sid = start_session(client)
        assert wait_for(
            lambda: client.get("/sessions/%s" % sid).json["pending_question"]
        )
        pending = client.get("/sessions/%s" % sid).json["pending_question"]
        assert {"predicate", "attribute", "feature", "text"} <= set(pending)
        # answer everything the session asks until it finishes
        wrapped = service.sessions.get(sid)
        while not wrapped.wait(0.05):
            status = client.get("/sessions/%s" % sid).json
            if status["pending_question"]:
                resp = client.post("/sessions/%s/answer" % sid, {"answer": None})
                assert resp.code == 200
        status = client.get("/sessions/%s" % sid).json
        assert status["state"] == "finished"
        assert status["questions_seen"] >= 1

    def test_results_stream_after_finish(self, client, service):
        sid = start_session(client, answer_timeout=0.01)
        assert client.get("/sessions/%s/results" % sid).code == 409
        service.sessions.get(sid).wait(DEADLINE)
        resp = client.get("/sessions/%s/results" % sid)
        assert resp.code == 200
        lines = resp.ndjson
        assert lines[0]["type"] == "header"
        assert lines[0]["session_id"] == sid
        assert lines[-1]["type"] == "summary"

    def test_cancel_while_waiting(self, client, service):
        sid = start_session(client)
        assert wait_for(
            lambda: client.get("/sessions/%s" % sid).json["pending_question"]
        )
        assert client.delete("/sessions/%s" % sid).code == 200
        assert wait_for(
            lambda: client.get("/sessions/%s" % sid).json["state"] == "cancelled"
        )

    def test_answer_after_finish_409(self, client, service):
        sid = start_session(client, answer_timeout=0.01)
        service.sessions.get(sid).wait(DEADLINE)
        resp = client.post("/sessions/%s/answer" % sid, {"answer": "yes"})
        assert resp.code == 409

    def test_sessions_listed(self, client, service):
        sid = start_session(client, answer_timeout=0.01)
        listed = client.get("/sessions").json["sessions"]
        assert [s["session_id"] for s in listed] == [sid]
        service.sessions.get(sid).wait(DEADLINE)


class TestSnapshotIsolation:
    def test_ingest_during_session_does_not_disturb_it(self, client, service):
        """The session runs over a corpus snapshot: documents ingested
        after creation do not appear in its final result."""
        sid = start_session(client, answer_timeout=0.01)
        ingest_pages(client, [7, 8, 9])
        service.sessions.get(sid).wait(DEADLINE)
        status = client.get("/sessions/%s" % sid).json
        assert status["state"] == "finished"
        assert status["tuples"] == 3  # the snapshot's three documents
