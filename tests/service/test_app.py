"""WSGI route tests, driven without sockets via the fake client."""

import threading

from repro.service import build_app

from tests.service.conftest import FakeClient, doc_payload, ingest_pages, submit_program

#: a program whose second head is annotated ``?`` — its tuples stream
#: with ``maybe: true``
MAYBE_SOURCE = (
    "q(x, <p>)? :- pages(x), ie(@x, p).\n"
    "ie(@x, p) :- from(@x, p), numeric(p) = yes.\n"
)


class TestPlumbing:
    def test_health(self, client):
        resp = client.get("/health")
        assert resp.code == 200
        assert resp.json["status"] == "ok"

    def test_unknown_route_404(self, client):
        assert client.get("/nope").code == 404

    def test_wrong_method_405(self, client):
        assert client.post("/health").code == 405

    def test_malformed_json_400(self, client):
        import io

        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/programs",
            "CONTENT_LENGTH": "9",
            "wsgi.input": io.BytesIO(b"not json!"),
        }
        captured = {}
        body = b"".join(
            client.app(environ, lambda s, h, e=None: captured.update(status=s))
        )
        assert captured["status"].startswith("400")
        assert b"error" in body

    def test_non_object_body_400(self, client):
        import io
        import json

        raw = json.dumps([1, 2]).encode()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/programs",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        captured = {}
        b"".join(
            client.app(environ, lambda s, h, e=None: captured.update(status=s))
        )
        assert captured["status"].startswith("400")


class TestDocuments:
    def test_ingest_and_corpus(self, client):
        resp = ingest_pages(client, range(3))
        assert resp.code == 201
        assert resp.json == {"table": "pages", "added": 3, "replaced": []}
        info = client.get("/corpus").json
        assert info["tables"] == {"pages": 3}
        assert info["documents"] == 3
        assert info["content_digest"]

    def test_ingest_upsert_reports_replaced(self, client):
        ingest_pages(client, range(2))
        resp = ingest_pages(client, [1, 2])
        assert resp.json["added"] == 1
        assert resp.json["replaced"] == ["d1"]

    def test_ingest_field_validation(self, client):
        assert client.post("/documents", {"documents": []}).code == 400
        assert client.post("/documents", {"table": "pages"}).code == 400
        bad = client.post(
            "/documents",
            {"table": "pages", "documents": [{"html": "<p>x</p>"}]},
        )
        assert bad.code == 400
        assert "doc_id" in bad.json["error"]
        bad = client.post(
            "/documents", {"table": "pages", "documents": [{"doc_id": "d"}]}
        )
        assert bad.code == 400

    def test_rejected_ingest_creates_no_table(self, client, service):
        ingest_pages(client, range(2))
        digest = client.get("/corpus").json["content_digest"]
        resp = ingest_pages(client, [0, 0], table="fresh")
        assert resp.code == 400
        assert "duplicate" in resp.json["error"]
        info = client.get("/corpus").json
        assert info["tables"] == {"pages": 2}
        assert info["content_digest"] == digest
        assert service.corpus.table_names() == ["pages"]

    def test_remove_document(self, client):
        ingest_pages(client, range(2))
        resp = client.delete("/documents/d0")
        assert resp.code == 200
        assert resp.json["removed"] == ["d0"]
        assert client.get("/corpus").json["documents"] == 1

    def test_remove_unknown_404(self, client):
        assert client.delete("/documents/zzz").code == 404

    def test_unpaired_surrogate_is_400_and_runs_stay_whole(self, client):
        ingest_pages(client, range(3))
        pid = submit_program(client).json["program_id"]
        digest = client.get("/corpus").json["content_digest"]
        html = "<p>\ud800 costs 120</p>"
        resp = client.post(
            "/documents",
            {"table": "pages", "documents": [{"doc_id": "s", "html": html}]},
        )
        assert resp.code == 400
        assert "surrogate" in resp.json["error"]
        assert client.get("/corpus").json["content_digest"] == digest
        run = client.post("/programs/%s/run" % pid)
        assert run.code == 200
        lines = run.ndjson
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["tuples"] == 3


class TestPrograms:
    def test_submit_then_resubmit(self, client):
        ingest_pages(client, [0])
        first = submit_program(client)
        assert first.code == 201
        assert first.json["resubmitted"] is False
        again = submit_program(client)
        assert again.code == 200
        assert again.json["resubmitted"] is True
        assert again.json["program_id"] == first.json["program_id"]

    def test_defective_program_400(self, client):
        resp = submit_program(client, source="q(x :-", tables=["pages"])
        assert resp.code == 400
        assert resp.json["error"]

    def test_list_and_get_and_drop(self, client):
        ingest_pages(client, [0])
        pid = submit_program(client).json["program_id"]
        listed = client.get("/programs").json["programs"]
        assert [p["program_id"] for p in listed] == [pid]
        assert client.get("/programs/%s" % pid).json["query"] == "q"
        assert client.delete("/programs/%s" % pid).code == 200
        assert client.get("/programs/%s" % pid).code == 404

    def test_run_streams_ndjson(self, client):
        ingest_pages(client, range(2))
        pid = submit_program(client).json["program_id"]
        resp = client.post("/programs/%s/run" % pid)
        assert resp.code == 200
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        lines = resp.ndjson
        assert lines[0]["type"] == "header"
        assert lines[0]["attrs"] == ["x", "p"]
        tuples = [l for l in lines if l["type"] == "tuple"]
        assert len(tuples) == 2
        cell = tuples[0]["cells"]["p"]
        assert cell["assignments"][0]["kind"] == "exact"
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["tuples"] == 2
        assert "partitions_recomputed" in lines[-1]

    def test_maybe_flags_preserved_in_stream(self, client):
        ingest_pages(client, [0])
        pid = submit_program(client, source=MAYBE_SOURCE).json["program_id"]
        lines = client.post("/programs/%s/run" % pid).ndjson
        tuples = [l for l in lines if l["type"] == "tuple"]
        assert tuples and all(t["maybe"] is True for t in tuples)
        assert lines[-1]["maybe"] == len(tuples)

    def test_run_without_tables_409(self, client):
        pid = submit_program(client, tables=["pages"]).json["program_id"]
        assert client.post("/programs/%s/run" % pid).code == 409

    def test_a_drop_during_a_run_cannot_404_it(self, client, service, monkeypatch):
        """The run and its host are taken under one hold of the lock."""
        ingest_pages(client, range(2))
        pid = submit_program(client).json["program_id"]
        run_program = service.run_program
        dropper = threading.Thread(
            target=client.delete, args=("/programs/%s" % pid,)
        )

        def run_then_drop(program_id):
            result = run_program(program_id)
            dropper.start()
            dropper.join(0.2)  # the drop waits for the service lock
            return result

        monkeypatch.setattr(service, "run_program", run_then_drop)
        resp = client.post("/programs/%s/run" % pid)
        dropper.join()
        assert resp.code == 200, resp.body
        assert resp.ndjson[-1]["type"] == "summary"
        assert resp.ndjson[-1]["tuples"] == 2
        assert client.get("/programs/%s" % pid).code == 404


class TestMetricsRoute:
    def test_request_counters_via_middleware(self, service):
        client = FakeClient(build_app(service))
        client.get("/health")
        client.post("/documents", {"table": "pages", "documents": [doc_payload(0)]})
        snap = client.get("/metrics").json
        by_name = {m["name"]: m for m in snap["metrics"]}
        requests = by_name["repro.service.requests"]
        labels = {
            (s["labels"]["method"], s["labels"]["status"]): s["value"]
            for s in requests["series"]
        }
        assert labels[("GET", "200")] >= 1
        assert labels[("POST", "201")] == 1

    def test_exec_counters_exposed(self, client, service):
        ingest_pages(client, range(2))
        pid = submit_program(client).json["program_id"]
        client.post("/programs/%s/run" % pid)
        names = {m["name"] for m in client.get("/metrics").json["metrics"]}
        assert any(n.startswith("repro.exec.") for n in names)
