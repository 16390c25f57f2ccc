"""NDJSON result streams are byte-identical to the dict export's encoding.

Tuple lines are written as text from per-cell fragments; the reference
here is the plain route they replace — one dict per line through
``cell_to_dict`` and ``json.dumps(..., ensure_ascii=False)``.
A hosted program re-sends the lines of rows it streamed before; every
body of a run sequence over one host must still equal that reference.
"""

import io
import json
import math
import re
import sys
import threading

import pytest

from repro.ctables.ctable import CompactTuple
from repro.ctables.export import JSONTextEncoder, cell_to_dict
from repro.experiments.tasks import build_task
from repro.service import ExtractionService, ServiceApp
from repro.service.app import NDJSONStream, stream_result
from repro.text.html_parser import parse_html

from tests.service.conftest import FakeClient


def dict_stream(meta, result):
    """The stream as dicts, each line through ``json.dumps``."""
    table = result.query_table
    header = {"type": "header", "attrs": list(table.attrs)}
    header.update(meta)
    lines = [header]
    for row in table:
        lines.append(
            {
                "type": "tuple",
                "maybe": row.maybe,
                "cells": {
                    attr: cell_to_dict(cell)
                    for attr, cell in zip(table.attrs, row.cells)
                },
            }
        )
    summary = {"type": "summary"}
    summary.update(ExtractionService.result_summary(result))
    lines.append(summary)
    return b"".join(
        (json.dumps(line, ensure_ascii=False) + "\n").encode("utf-8")
        for line in lines
    )


def hosted_task(task_id, size):
    """A service holding one task's corpus and initial program."""
    task = build_task(task_id, size=size, seed=0)
    service = ExtractionService()
    for name in task.corpus.table_names():
        service.ingest(name, list(task.corpus.table(name)))
    client = FakeClient(ServiceApp(service))
    resp = client.post(
        "/programs",
        {"source": task.program.source(), "query": task.program.query},
    )
    assert resp.code == 201, resp.json
    return service, client, resp.json["program_id"]


@pytest.mark.parametrize("task_id, size", [("T1", 40), ("T3", 20)])
def test_run_stream_is_byte_identical_to_dict_encoding(monkeypatch, task_id, size):
    service, client, program_id = hosted_task(task_id, size)
    results = []
    run_program = service.run_program

    def recording_run(pid):
        results.append(run_program(pid))
        return results[-1]

    monkeypatch.setattr(service, "run_program", recording_run)
    resp = client.post("/programs/%s/run" % program_id)
    assert resp.code == 200
    (result,) = results
    table = result.query_table
    assert len(table) > 0
    if task_id == "T3":
        # the join's near cross-product shares cells across tuples
        cells = [cell for row in table for cell in row.cells]
        assert len({id(cell) for cell in cells}) < len(cells) / 2
    assert resp.body == dict_stream({"program_id": program_id}, result)


def test_session_meta_stream_is_byte_identical():
    """The ``/sessions/<id>/results`` framing: two meta fields, same bytes."""
    service, _, program_id = hosted_task("T1", 20)
    result = service.run_program(program_id)
    meta = {"session_id": "s1", "program_id": program_id}
    assert b"".join(stream_result(meta, result)) == dict_stream(meta, result)


def test_stream_chunks_join_to_the_per_line_body():
    """Chunked output is the per-line body, byte for byte, in few writes."""
    service, client, pid = hosted_task("T1", 600)
    result = service.run_program(pid)
    meta = {"program_id": pid}
    per_line = b"".join(
        (line + "\n").encode("utf-8") for line in stream_result(meta, result).lines
    )
    chunks = list(stream_result(meta, result))
    assert len(per_line) > 2 * NDJSONStream.chunk_bytes  # several chunks
    assert b"".join(chunks) == per_line
    assert len(chunks) <= math.ceil(len(per_line) / 65536) + 1
    assert all(len(chunk) >= 65536 for chunk in chunks[:-1])


def recorded_runs(monkeypatch, service):
    """Every result ``POST /programs/<id>/run`` streams, in order."""
    results = []
    run_program = service.run_program

    def recording_run(pid):
        results.append(run_program(pid))
        return results[-1]

    monkeypatch.setattr(service, "run_program", recording_run)
    return results


def hosted_pages(size):
    """A T1 service over ``size`` pages, plus one held-back page."""
    task = build_task("T1", size=size + 1, seed=0)
    records = task.records["IMDB"]
    service = ExtractionService()
    service.ingest("IMDB", [record.doc for record in records[:size]])
    client = FakeClient(ServiceApp(service))
    resp = client.post(
        "/programs",
        {"source": task.program.source(), "query": task.program.query},
    )
    assert resp.code == 201, resp.json
    return service, client, resp.json["program_id"], records


def upserted(record, votes):
    """``record``'s page under its own id, with a new vote count."""
    html = re.sub(r"Votes: [\d,]+", "Votes: {:,}".format(votes), record.html, count=1)
    assert html != record.html
    return {"doc_id": record.doc.doc_id, "html": html}


class TestLineMemo:
    """A hosted program re-sends the tuple lines of rows it streamed before."""

    def test_every_run_of_a_delta_sequence_is_byte_identical(self, monkeypatch):
        service, client, pid, records = hosted_pages(30)
        results = recorded_runs(monkeypatch, service)
        meta = {"program_id": pid}
        steps = [
            lambda: None,  # cold
            lambda: None,  # warm
            lambda: client.post(
                "/documents",
                {"table": "IMDB", "documents": [
                    {"doc_id": records[-1].doc.doc_id, "html": records[-1].html}
                ]},
            ),
            lambda: client.post(
                "/documents",
                {"table": "IMDB", "documents": [upserted(records[4], 1234)]},
            ),
            lambda: client.delete("/documents/%s" % records[7].doc.doc_id),
        ]
        bodies = []
        for step in steps:
            resp = step()
            assert resp is None or resp.code in (200, 201), resp.json
            run = client.post("/programs/%s/run" % pid)
            assert run.code == 200
            assert run.body == dict_stream(meta, results[-1])
            bodies.append(run.body)
        assert results[1].query_table is results[0].query_table
        tuple_lines = [body.splitlines()[1:-1] for body in bodies]
        assert tuple_lines[1] == tuple_lines[0]
        # the upsert's new vote count (1 234 < 25 000) shows up
        assert b"1,234" in bodies[3] and b"1,234" not in bodies[2]
        assert len(tuple_lines[2]) == len(tuple_lines[1]) + 1
        removed = records[7].doc.doc_id.encode()
        assert removed in bodies[3] and removed not in bodies[4]

    def test_warm_and_delta_runs_encode_only_new_rows(self, monkeypatch):
        service, client, pid, records = hosted_pages(30)
        results = recorded_runs(monkeypatch, service)
        encoded = []
        encode_cell = JSONTextEncoder._encode_cell

        def counting(encoder, cell):
            encoded.append(cell)
            return encode_cell(encoder, cell)

        monkeypatch.setattr(JSONTextEncoder, "_encode_cell", counting)

        def run():
            del encoded[:]
            assert client.post("/programs/%s/run" % pid).code == 200
            return results[-1]

        cold = run()
        assert len(encoded) > 0
        run()
        assert encoded == []  # warm: every line re-sent
        resp = client.post(
            "/documents",
            {"table": "IMDB", "documents": [upserted(records[4], 1234)]},
        )
        assert resp.code == 201
        delta = run()
        previous = {id(row) for row in cold.query_table}  # cold is alive
        new_rows = [row for row in delta.query_table if id(row) not in previous]
        assert 0 < len(new_rows) < len(delta.query_table) / 4
        assert sorted(map(id, encoded)) == sorted(
            {id(cell) for row in new_rows for cell in row.cells}
        )

    def test_a_planted_entry_for_another_object_is_not_sent(self, monkeypatch):
        service, client, pid, _ = hosted_pages(10)
        results = recorded_runs(monkeypatch, service)
        assert client.post("/programs/%s/run" % pid).code == 200
        host = service.get_program(pid)
        rows = list(results[-1].query_table)
        assert set(host.lines) == {id(row) for row in rows}
        # an equal copy of the row is still not the row
        twin = CompactTuple(rows[0].cells, maybe=rows[0].maybe)
        host.lines[id(rows[0])] = (twin, '{"type": "planted"}')
        host.lines[id(rows[1])] = (object(), '{"type": "planted"}')
        resp = client.post("/programs/%s/run" % pid)
        assert b"planted" not in resp.body
        assert resp.body == dict_stream({"program_id": pid}, results[-1])

    def test_a_stream_closed_halfway_leaves_the_memo_whole(self, monkeypatch):
        service, client, pid, records = hosted_pages(10)
        results = recorded_runs(monkeypatch, service)
        app = ServiceApp(service)
        meta = {"program_id": pid}
        assert client.post("/programs/%s/run" % pid).code == 200
        host = service.get_program(pid)
        before = dict(host.lines)
        resp = client.post(
            "/documents",
            {"table": "IMDB", "documents": [upserted(records[4], 1234)]},
        )
        assert resp.code == 201
        monkeypatch.setattr(NDJSONStream, "chunk_bytes", 1)  # a chunk per line
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/programs/%s/run" % pid,
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }
        chunks = app(environ, lambda status, headers: None)
        assert len(results[-1].query_table) > 4
        head = [next(chunks) for _ in range(3)]  # header and two tuples
        chunks.close()
        assert head == dict_stream(meta, results[-1]).splitlines(keepends=True)[:3]
        assert host.lines == before  # replaced only after the last tuple line
        resp = client.post("/programs/%s/run" % pid)
        assert resp.body == dict_stream(meta, results[-1])
        assert set(host.lines) == {id(row) for row in results[-1].query_table}

    def test_concurrent_streams_of_one_host_send_no_wrong_line(self):
        """Streams racing on one memo, with upserts between runs."""
        service, _, pid, records = hosted_pages(12)
        host = service.get_program(pid)
        meta = {"program_id": pid}
        wrong = []

        def client(k):
            for i in range(6):
                if k == 0:
                    page = upserted(records[i], 1000 + 397 * i)
                    service.ingest("IMDB", [parse_html(page["doc_id"], page["html"])])
                result = service.run_program(pid)
                body = b"".join(stream_result(meta, result, memo=host.lines))
                if body != dict_stream(meta, result):
                    wrong.append((k, i))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
