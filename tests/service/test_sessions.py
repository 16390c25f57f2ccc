"""Refinement sessions over the service: queue bridge, lifecycle, HTTP."""

import time

import pytest

from tests.service.conftest import ingest_pages, submit_program

#: generous wall-clock bound for a background session to finish
DEADLINE = 30.0


def wait_for(predicate, timeout=DEADLINE):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


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
