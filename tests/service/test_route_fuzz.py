"""Route fuzzer: arbitrary JSON bodies never make the service fail.

Every route gets arbitrary JSON objects — the fields the handlers read,
filled with any JSON value, plus unknown keys — including unpaired
surrogates, extreme numbers and ``NaN``/``Infinity`` (Python's JSON
parser accepts both).  Whatever the body, the status must be below 500,
and every streamed body must iterate to its ``summary`` line: a run
after the fuzzed request still streams whole.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import ExtractionService, ServiceApp
from tests.service.conftest import (
    PROGRAM_SOURCE,
    FakeClient,
    ingest_pages,
    submit_program,
)

#: generous wall-clock bound for a background session to stop
DEADLINE = 30.0

ROUTES = (
    ("GET", "/health"),
    ("GET", "/metrics"),
    ("GET", "/corpus"),
    ("POST", "/documents"),
    ("DELETE", "/documents/d0"),
    ("POST", "/programs"),
    ("GET", "/programs"),
    ("GET", "/programs/{pid}"),
    ("DELETE", "/programs/{pid}"),
    ("POST", "/programs/{pid}/run"),
    ("POST", "/sessions"),
    ("GET", "/sessions"),
    ("GET", "/sessions/{sid}"),
    ("POST", "/sessions/{sid}/answer"),
    ("GET", "/sessions/{sid}/results"),
    ("DELETE", "/sessions/{sid}"),
)

SURROGATES = ("\ud800", "a\udfffb", "\ud83d", "<p>\udc00 $120</p>")

EXTREME_NUMBERS = (
    0,
    -1,
    2**63,
    -(2**63),
    10**30,
    1e-300,
    1e10,
    1e308,
    float("nan"),
    float("inf"),
    float("-inf"),
)

strings = st.sampled_from(SURROGATES) | st.text(max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(EXTREME_NUMBERS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | strings
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(strings, inner, max_size=3),
    max_leaves=6,
)
#: the fields each handler reads, each with a well-formed value mixed
#: into arbitrary JSON
FIELDS = {
    "table": st.just("pages") | values,
    "documents": st.lists(
        st.fixed_dictionaries(
            {"doc_id": st.sampled_from(["d0", "new"]) | values},
            optional={"html": strings | values, "text": strings | values},
        ),
        max_size=2,
    )
    | values,
    "source": st.just(PROGRAM_SOURCE) | strings | values,
    "query": st.just("q") | values,
    "tables": st.just(["pages"]) | values,
    "program_id": st.just("{pid}") | values,
    "max_iterations": values,
    "questions_per_iteration": values,
    "subset_fraction": values,
    "answer_timeout": values,
    "answer": values,
}


def body_for(route):
    """A JSON object of the route's own fields plus unknown keys."""
    method, path = route
    if path == "/documents":
        names = ("table", "documents")
    elif path == "/programs" and method == "POST":
        names = ("source", "query", "tables")
    elif path == "/sessions" and method == "POST":
        names = (
            "program_id",
            "max_iterations",
            "questions_per_iteration",
            "subset_fraction",
            "answer_timeout",
        )
    elif path.endswith("/answer"):
        names = ("answer",)
    else:
        names = tuple(FIELDS)
    known = st.fixed_dictionaries({}, optional={n: FIELDS[n] for n in names})
    extra = st.dictionaries(strings, values, max_size=2)
    return st.tuples(extra, known).map(lambda pair: {**pair[0], **pair[1]})


requests = st.sampled_from(ROUTES).flatmap(
    lambda route: st.tuples(st.just(route), body_for(route))
)


def _setup():
    service = ExtractionService()
    client = FakeClient(ServiceApp(service))
    assert ingest_pages(client, range(3)).code == 201
    pid = submit_program(client).json["program_id"]
    return service, client, pid


def _session(client, pid):
    """A session parked on its first question."""
    resp = client.post("/sessions", {"program_id": pid, "max_iterations": 1})
    assert resp.code == 201
    return resp.json["session_id"]


def _stop_sessions(service):
    for wrapped in list(service.sessions.sessions.values()):
        wrapped.cancel()
        assert wrapped.wait(DEADLINE), wrapped.session_id


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(request=requests)
@example(
    request=(
        ("POST", "/documents"),
        {"table": "pages", "documents": [{"doc_id": "s", "html": SURROGATES[-1]}]},
    )
)
@example(
    request=(("POST", "/sessions"), {"program_id": "{pid}", "answer_timeout": 1e10})
)
@example(request=(("POST", "/sessions/{sid}/answer"), {"answer": 5}))
def test_no_route_fails_on_any_json_object(request):
    (method, path), body = request
    service, client, pid = _setup()
    try:
        sid = _session(client, pid) if "{sid}" in path else None
        path = path.format(pid=pid, sid=sid)
        if body.get("program_id") == "{pid}":
            body = dict(body, program_id=pid)
        resp = client.request(method, path, body)
        assert resp.code < 500, (method, path, body, resp.body)
        if resp.headers.get("Content-Type") == "application/x-ndjson":
            assert resp.ndjson[-1]["type"] == "summary"
        # whatever the fuzzed request stored, a run still streams whole
        if pid in service.programs:
            run = client.post("/programs/%s/run" % pid)
            assert run.code < 500, run.body
            if run.code == 200:
                assert run.ndjson[-1]["type"] == "summary"
    finally:
        _stop_sessions(service)
