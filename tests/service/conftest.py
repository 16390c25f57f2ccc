"""Service-test fixtures: an in-process WSGI client (no sockets).

``FakeClient`` drives any WSGI app with a synthetic environ and decodes
responses — JSON bodies to dicts, NDJSON streams to lists of dicts —
so route tests exercise the exact code the real server runs, minus the
socket.
"""

import io
import json

import pytest

from repro.service import ExtractionService, ServiceApp
from repro.text.html_parser import parse_html

#: a tiny numeric-extraction program over one ``pages`` table
PROGRAM_SOURCE = (
    "q(x, <p>) :- pages(x), ie(@x, p).\n"
    "ie(@x, p) :- from(@x, p), numeric(p) = yes.\n"
)


def page_html(i):
    return "<html><body>item %d costs %d usd</body></html>" % (i, 100 + i)


def page_doc(i):
    return parse_html("d%d" % i, page_html(i))


def doc_payload(i):
    return {"doc_id": "d%d" % i, "html": page_html(i)}


class Response:
    def __init__(self, status, headers, body):
        self.code = int(status.split(" ", 1)[0])
        self.headers = dict(headers)
        self.body = body

    @property
    def json(self):
        return json.loads(self.body)

    @property
    def ndjson(self):
        return [json.loads(line) for line in self.body.decode().splitlines()]


class FakeClient:
    """Call a WSGI app directly; returns :class:`Response`."""

    def __init__(self, app):
        self.app = app

    def request(self, method, path, body=None):
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        captured = {}

        def start_response(status, headers, exc_info=None):
            captured["status"] = status
            captured["headers"] = headers

        body = self.app(environ, start_response)
        try:
            chunks = b"".join(body)
        finally:
            # what a WSGI server does once the body is sent (PEP 3333)
            close = getattr(body, "close", None)
            if close is not None:
                close()
        return Response(captured["status"], captured["headers"], chunks)

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture
def service():
    return ExtractionService()


@pytest.fixture
def client(service):
    return FakeClient(ServiceApp(service))


def ingest_pages(client, indices, table="pages"):
    return client.post(
        "/documents",
        {"table": table, "documents": [doc_payload(i) for i in indices]},
    )


def submit_program(client, source=PROGRAM_SOURCE, query="q", **extra):
    body = {"source": source, "query": query}
    body.update(extra)
    return client.post("/programs", body)
