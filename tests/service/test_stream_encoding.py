"""NDJSON result streams are byte-identical to the dict export's encoding.

Tuple lines are written as text from per-cell fragments; the reference
here is the plain route they replace — one dict per line through
``cell_to_dict`` and ``json.dumps(..., ensure_ascii=False)``.
"""

import json
import math

import pytest

from repro.ctables.export import cell_to_dict
from repro.experiments.tasks import build_task
from repro.service import ExtractionService, ServiceApp
from repro.service.app import NDJSONStream, stream_result

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
