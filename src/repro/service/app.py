"""The service's WSGI application: routing, JSON bodies, NDJSON streams.

Plain WSGI (no framework) so the app runs under the stdlib server, any
WSGI container, or a test harness that calls it directly with a fake
``environ`` — no sockets required.

Routes
------

==========  =================================  =========================
method      path                               purpose
==========  =================================  =========================
GET         /health                            liveness + object counts
GET         /metrics                           MetricsRegistry snapshot
GET         /corpus                            table sizes + digest
POST        /documents                         ingest (append/upsert)
DELETE      /documents/<doc_id>                remove one document
POST        /programs                          submit an Alog program
GET         /programs                          list hosted programs
GET         /programs/<id>                     one program's detail
DELETE      /programs/<id>                     drop a hosted program
POST        /programs/<id>/run                 execute; stream NDJSON
POST        /sessions                          start a refinement session
GET         /sessions                          list sessions
GET         /sessions/<id>                     session status + question
POST        /sessions/<id>/answer              answer pending question
GET         /sessions/<id>/results             stream refined results
DELETE      /sessions/<id>                     cancel a session
==========  =================================  =========================

Result streams are NDJSON (``application/x-ndjson``): a ``header``
line, one ``tuple`` line per result tuple — the structure-preserving
export, maybe flags and all — and a closing ``summary`` line carrying
the run's timing and partition-reuse counters.  Streaming happens
*outside* the service lock; only the execution itself serialises.
"""

import json
import math
import re

from repro.ctables.export import JSONTextEncoder
from repro.service.state import ServiceError
from repro.text.html_parser import parse_html

__all__ = ["ServiceApp", "build_app"]

_STATUS_TEXT = {
    200: "200 OK",
    201: "201 Created",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
}

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd uploads before reading them


class NDJSONStream:
    """A handler result that streams newline-delimited JSON objects.

    Lines go out in chunks of at least :attr:`chunk_bytes` (the last
    one may be shorter): a WSGI server writes each yielded chunk to the
    socket separately (wsgiref: one ``sendall`` each), so a
    thousand-tuple result costs a couple of writes, not a thousand.
    """

    #: minimum bytes per yielded chunk
    chunk_bytes = 64 * 1024

    def __init__(self, lines):
        self.lines = lines  # iterable of JSON texts, one object each

    def __iter__(self):
        pending = []
        size = 0  # characters; never more than the encoded bytes
        for line in self.lines:
            pending.append(line)
            pending.append("\n")
            size += len(line) + 1
            if size >= self.chunk_bytes:
                yield "".join(pending).encode("utf-8")
                pending = []
                size = 0
        if pending:
            yield "".join(pending).encode("utf-8")


def stream_result(meta, result):
    """The NDJSON lines for one execution result (header/tuples/summary).

    Tuple lines are written from the encoder's cell fragments (a cell
    shared by many tuples is encoded once); each is byte-identical to
    ``json.dumps({"type": "tuple", "maybe": ..., "cells": {attr:
    cell_to_dict(cell)}}, ensure_ascii=False)``.
    """
    table = result.query_table

    def lines():
        header = {"type": "header", "attrs": list(table.attrs)}
        header.update(meta)
        yield json.dumps(header, ensure_ascii=False)
        encoder = JSONTextEncoder(table)
        for row in table:
            yield '{"type": "tuple", "maybe": %s, "cells": %s}' % (
                "true" if row.maybe else "false",
                encoder.cells(row),
            )
        summary = {"type": "summary"}
        from repro.service.state import ExtractionService

        summary.update(ExtractionService.result_summary(result))
        yield json.dumps(summary, ensure_ascii=False)

    return NDJSONStream(lines())


#: ``POST /sessions`` tuning fields: ``(name, kind, valid, expected)``
_SESSION_SETTINGS = (
    ("max_iterations", int, lambda v: v >= 1, "an integer >= 1"),
    ("questions_per_iteration", int, lambda v: v >= 1, "an integer >= 1"),
    ("subset_fraction", (int, float), lambda v: 0 < v <= 1, "a number in (0, 1]"),
    ("answer_timeout", (int, float), lambda v: v > 0, "a number > 0"),
)


class ServiceApp:
    """Routes WSGI requests onto one :class:`ExtractionService`."""

    def __init__(self, service):
        self.service = service
        self.routes = [
            ("GET", re.compile(r"^/health/?$"), self._health),
            ("GET", re.compile(r"^/metrics/?$"), self._metrics),
            ("GET", re.compile(r"^/corpus/?$"), self._corpus),
            ("POST", re.compile(r"^/documents/?$"), self._ingest),
            (
                "DELETE",
                re.compile(r"^/documents/(?P<doc_id>[^/]+)$"),
                self._remove_document,
            ),
            ("POST", re.compile(r"^/programs/?$"), self._submit_program),
            ("GET", re.compile(r"^/programs/?$"), self._list_programs),
            (
                "GET",
                re.compile(r"^/programs/(?P<program_id>[^/]+)$"),
                self._get_program,
            ),
            (
                "DELETE",
                re.compile(r"^/programs/(?P<program_id>[^/]+)$"),
                self._drop_program,
            ),
            (
                "POST",
                re.compile(r"^/programs/(?P<program_id>[^/]+)/run$"),
                self._run_program,
            ),
            ("POST", re.compile(r"^/sessions/?$"), self._create_session),
            ("GET", re.compile(r"^/sessions/?$"), self._list_sessions),
            (
                "GET",
                re.compile(r"^/sessions/(?P<session_id>[^/]+)$"),
                self._session_status,
            ),
            (
                "POST",
                re.compile(r"^/sessions/(?P<session_id>[^/]+)/answer$"),
                self._session_answer,
            ),
            (
                "GET",
                re.compile(r"^/sessions/(?P<session_id>[^/]+)/results$"),
                self._session_results,
            ),
            (
                "DELETE",
                re.compile(r"^/sessions/(?P<session_id>[^/]+)$"),
                self._session_cancel,
            ),
        ]

    # ------------------------------------------------------------------
    # WSGI plumbing
    # ------------------------------------------------------------------
    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        try:
            handler, params = self._match(method, path)
            body = self._read_json(environ)
            result = handler(body, **params)
        except ServiceError as exc:
            return self._json(
                start_response, exc.status, {"error": str(exc)}
            )
        except Exception as exc:  # defensive: a bug must not kill the worker
            return self._json(start_response, 500, {"error": str(exc)})
        if isinstance(result, NDJSONStream):
            start_response(
                _STATUS_TEXT[200], [("Content-Type", "application/x-ndjson")]
            )
            return iter(result)
        status, payload = result
        return self._json(start_response, status, payload)

    def _match(self, method, path):
        allowed = set()
        for route_method, pattern, handler in self.routes:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method:
                allowed.add(route_method)
                continue
            return handler, match.groupdict()
        if allowed:
            raise ServiceError(
                "%s not allowed on %s (try %s)"
                % (method, path, "/".join(sorted(allowed))),
                status=405,
            )
        raise ServiceError("no route %s" % path, status=404)

    @staticmethod
    def _read_json(environ):
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except (TypeError, ValueError):
            length = 0
        if length <= 0:
            return {}
        if length > _MAX_BODY:
            raise ServiceError("request body too large")
        raw = environ["wsgi.input"].read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError("request body is not valid JSON: %s" % exc)
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    @staticmethod
    def _json(start_response, status, payload):
        body = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
        start_response(
            _STATUS_TEXT.get(status, "%d Error" % status),
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    @staticmethod
    def _field(
        body, name, kind=str, required=True, default=None, valid=None, expected=None
    ):
        """``body[name]`` checked against ``kind`` and the ``valid`` predicate.

        JSON booleans never pass as numbers (``True`` is an ``int`` in
        Python); ``expected`` words the 400 message, which always names
        the field.
        """
        value = body.get(name, default)
        if value is None:
            if required:
                raise ServiceError("missing required field %r" % name)
            return default
        if (
            not isinstance(value, kind)
            or (isinstance(value, bool) and kind is not bool)
            or (valid is not None and not valid(value))
        ):
            raise ServiceError(
                "field %r must be %s" % (name, expected or kind.__name__)
            )
        return value

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _health(self, body):
        return 200, {
            "status": "ok",
            "programs": len(self.service.programs),
            "sessions": len(self.service.sessions),
            "documents": sum(
                self.service.corpus.size_of(name)
                for name in self.service.corpus.table_names()
            ),
        }

    def _metrics(self, body):
        return 200, self.service.metrics_snapshot()

    def _corpus(self, body):
        return 200, self.service.corpus_info()

    def _ingest(self, body):
        table = self._field(body, "table")
        raw_docs = self._field(body, "documents", kind=list)
        documents = []
        for i, entry in enumerate(raw_docs):
            if not isinstance(entry, dict):
                raise ServiceError("documents[%d] must be an object" % i)
            doc_id = entry.get("doc_id")
            html = entry.get("html", entry.get("text"))
            if not doc_id or not isinstance(doc_id, str):
                raise ServiceError("documents[%d] needs a string doc_id" % i)
            if html is None or not isinstance(html, str):
                raise ServiceError(
                    "documents[%d] needs html (or text) content" % i
                )
            documents.append(parse_html(doc_id, html))
        added, replaced = self.service.ingest(table, documents)
        return 201, {
            "table": table,
            "added": added,
            "replaced": sorted(replaced),
        }

    def _remove_document(self, body, doc_id):
        removed = self.service.remove([doc_id])
        return 200, {"removed": sorted(removed)}

    def _submit_program(self, body):
        source = self._field(body, "source")
        # "" would run the default query under a different program id
        query = self._field(
            body,
            "query",
            required=False,
            valid=bool,
            expected="a non-empty predicate name",
        )
        tables = self._field(
            body,
            "tables",
            kind=list,
            required=False,
            valid=lambda names: all(isinstance(n, str) and n for n in names),
            expected="a list of non-empty table names",
        )
        host, resubmitted = self.service.submit_program(
            source, query=query, tables=tables
        )
        payload = host.describe()
        payload["resubmitted"] = resubmitted
        return (200 if resubmitted else 201), payload

    def _list_programs(self, body):
        hosts = self.service.programs
        return 200, {
            "programs": [hosts[pid].describe() for pid in sorted(hosts)]
        }

    def _get_program(self, body, program_id):
        return 200, self.service.get_program(program_id).describe()

    def _drop_program(self, body, program_id):
        self.service.drop_program(program_id)
        return 200, {"dropped": program_id}

    def _run_program(self, body, program_id):
        result = self.service.run_program(program_id)
        return stream_result({"program_id": program_id}, result)

    def _create_session(self, body):
        program_id = self._field(body, "program_id")
        settings = {
            name: self._field(
                body, name, kind, required=False, valid=valid, expected=expected
            )
            for name, kind, valid, expected in _SESSION_SETTINGS
        }
        wrapped = self.service.sessions.create(program_id, **settings)
        return 201, wrapped.status()

    def _list_sessions(self, body):
        return 200, {"sessions": self.service.sessions.describe()}

    def _session_status(self, body, session_id):
        return 200, self.service.sessions.get(session_id).status()

    def _session_answer(self, body, session_id):
        if "answer" not in body:
            raise ServiceError("missing required field 'answer'")
        # null is a valid answer: "I don't know"
        answer = self._field(
            body,
            "answer",
            kind=(str, int, float),
            required=False,
            valid=lambda v: not isinstance(v, float) or math.isfinite(v),
            expected="a string, a finite number or null",
        )
        wrapped = self.service.sessions.get(session_id)
        wrapped.submit_answer(answer)
        return 200, {"session_id": session_id, "state": wrapped.state}

    def _session_results(self, body, session_id):
        wrapped = self.service.sessions.get(session_id)
        if wrapped.trace is None:
            raise ServiceError(
                "session %s is %s; results stream once finished"
                % (session_id, wrapped.state),
                status=409,
            )
        return stream_result(
            {"session_id": session_id, "program_id": wrapped.program_id},
            wrapped.trace.final_result,
        )

    def _session_cancel(self, body, session_id):
        wrapped = self.service.sessions.cancel(session_id)
        return 200, {"session_id": session_id, "state": wrapped.state}


def build_app(service, rate_limit=None, rate_burst=None):
    """The full middleware stack around one service.

    ``rate_limit`` (requests/second, ``None`` = unlimited) installs the
    token bucket; logging/metrics middleware always wraps outermost so
    throttled requests are still visible.
    """
    from repro.service.middleware import (
        RateLimitMiddleware,
        RequestLogMiddleware,
        TokenBucket,
    )

    app = ServiceApp(service)
    if rate_limit:
        bucket = TokenBucket(rate_limit, capacity=rate_burst)
        app = RateLimitMiddleware(app, bucket)
    return RequestLogMiddleware(app, metrics=service.metrics)
