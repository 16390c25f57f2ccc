"""The four end-to-end workloads of the iFlex benchmark.

``run.py`` starts this module as a fresh process per workload, with
``PYTHONHASHSEED=0`` so every run does the same work, and reads the one
JSON line it prints::

    python benchmarks/e2e/workloads.py --workload batch_extract --seed 0 \\
        --seconds 20 --trace 0 --scale 1.0 --work-dir DIR --trace-dir DIR

Each workload sets up three times (``setup_s`` is the median), then
repeats whole rounds of its work until ``--seconds`` of measured time
have passed, checking every output.  With ``--trace 1`` it instead runs
one reduced round untraced and the same round traced, and reports the
per-layer metrics of the traced round (see ``layers.py``).
"""

import argparse
import hashlib
import http.client
import json
import pathlib
import re
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from repro.analysis import analyze_program
from repro.assistant import RefinementSession, SimulatedDeveloper, SimulationStrategy
from repro.ctables.assignments import Exact, value_text
from repro.ctables.export import cell_to_dict, table_to_json
from repro.experiments.tasks import TASK_IDS, build_task
from repro.observability.spans import Tracer, write_chrome_trace
from repro.processor import ExecConfig, IFlexEngine
from repro.processor.context import ExecutionStats
from repro.service import ExtractionService
from repro.service.app import stream_result
from repro.text import Corpus, parse_html
from repro.xlog import Program

import layers

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

# Sizes at --scale 1.0, chosen so one run (three set-ups, 20 s of measured
# work and the output checks) takes 22-30 s on a 2-core box.
BATCH_TASKS = ("T1", "T5", "T7", "T8")
BATCH_DOCS = 1000
JOIN_TASKS = ("T3", "T6", "T9")
JOIN_DOCS = 100
#: join cost varies by up to 15% from one generated corpus to the next,
#: so join_superset runs each task on two
JOIN_CORPORA = 2
#: refine_session runs a session on every Table-2 task
SESSION_DOCS = 600
SESSION_JOIN_DOCS = 80
SERVE_DOCS = 1000
#: pages held back from the served corpus; appends reuse their markup
SERVE_POOL = 200
#: consecutive serve_delta cycles per measurement window
SERVE_WINDOW = 10
#: cycles of each serve_delta section in a traced run
TRACE_SERVE_CYCLES = 30
SERVE_TABLE = "IMDB"
#: documents below which a scaled table stops shrinking (the join tasks
#: plant a few shared entities per table)
MIN_DOCS = 8

#: per-layer metrics only some workloads produce; the rest report 0
ASSISTANT_METRICS = (
    "assistant.iteration_s",
    "assistant.subset_execute_s",
    "assistant.full_execute_s",
    "assistant.iterations",
    "assistant.questions",
    "assistant.simulations",
)
SERVICE_METRICS = (
    "service.ingest_call_ms",
    "service.delta_call_ms",
    "service.warm_call_ms",
    "service.encode_ms",
    "service.engine_ms",
    "service.http_overhead_ms",
    "columnar.store_saved",
    "columnar.store_loaded",
)


def _span(tracer, name, category, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, category, **attrs)


def _scaled(docs, scale):
    return max(MIN_DOCS, int(round(docs * scale)))


def _percentile(values, fraction):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


def _median_ms(seconds):
    return statistics.median(seconds) * 1e3


class Outcome:
    """Attempted and failed operations, and why the failures failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, message):
        """Count one operation; ``ok`` False records ``message``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok


def superset_missing(table, key_attr, answers):
    """Ground-truth answer keys that no result tuple can produce.

    The paper's guarantee is that the approximate result is a superset
    of the exact one, whatever the execution path: every answer key must
    be a possible value of some tuple's key cell, equal to an ``Exact``
    value's text or contained in a ``Contain`` span's text.
    """
    index = table.attr_index(key_attr)
    exact, contained = set(), set()
    for row in table:
        for assignment in row.cells[index].assignments:
            if isinstance(assignment, Exact):
                exact.add(value_text(assignment.value))
            else:
                contained.add(assignment.span.text)
    haystack = "\x00".join(contained)
    return [key for key in answers if key not in exact and key not in haystack]


def answer_keys(task):
    return sorted({value_text(row[0]) for row in task.truth.answer_rows})


def timed_setups(make, release=None):
    """Run ``make(repeat)`` SETUP_REPEATS times.

    Returns ``(median seconds, last value)``; ``release`` frees every
    other value before the next set-up starts.
    """
    durations = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        value = make(repeat)
        durations.append(time.perf_counter() - start)
        if release is not None and repeat < SETUP_REPEATS - 1:
            release(value)
    return statistics.median(durations), value


# ----------------------------------------------------------------------
# the library path: batch_extract and join_superset
# ----------------------------------------------------------------------

@dataclass
class TableJob:
    """One task's initial program over one generated corpus."""

    name: str  # <task>/seed<n>
    program: object
    pages: dict  # table -> [(doc_id, html)]
    key_attr: str
    answers: list
    docs: int


def make_jobs(task_ids, docs, seeds):
    jobs = []
    for seed in seeds:
        for task_id in task_ids:
            task = build_task(task_id, size=docs, seed=seed)
            pages = {
                name: [(r.doc.doc_id, r.html) for r in records]
                for name, records in task.records.items()
            }
            jobs.append(
                TableJob(
                    "%s/seed%d" % (task_id, seed),
                    task.program,
                    pages,
                    task.key_attr,
                    answer_keys(task),
                    sum(len(p) for p in pages.values()),
                )
            )
    return jobs


def extract(job, tracer=None):
    """parse -> lint -> engine -> execute -> encode; ``(result, json)``."""
    with _span(tracer, "parse_html", "text"):
        corpus = Corpus(
            {
                name: [parse_html(doc_id, html) for doc_id, html in pages]
                for name, pages in job.pages.items()
            }
        )
    with _span(tracer, "analyze_program", "analysis"):
        lint = analyze_program(job.program, plan=True)
    if lint.errors:
        raise RuntimeError("%s lints with errors: %s" % (job.name, lint.errors))
    with _span(tracer, "init", "processor"):
        engine = IFlexEngine(job.program, corpus, validate=False, tracer=tracer)
    with _span(tracer, "execute", "processor"):
        result = engine.execute()
    with _span(tracer, "table_to_json", "ctables"):
        text = table_to_json(result.query_table)
    return result, text


class TableChecker:
    """Superset check on a job's first result; byte identity after it."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.digests = {}
        self.counts = {}

    def check(self, job, result, text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if job.name in self.digests:
            return self.outcome.check(
                digest == self.digests[job.name],
                "%s: result differs from its first run" % job.name,
            )
        self.digests[job.name] = digest
        self.counts[job.name] = {
            "tuples": result.tuple_count,
            "assignments": result.assignment_count,
        }
        missing = superset_missing(result.query_table, job.key_attr, job.answers)
        return self.outcome.check(
            not missing,
            "%s: %d answer keys missing from the result, e.g. %r"
            % (job.name, len(missing), missing[:3]),
        )


def measure_tables(jobs, seconds, outcome):
    """Whole passes over ``jobs`` until ``seconds`` of requests ran.

    Returns ``({job name: [seconds per pass]}, counts)``.
    """
    checker = TableChecker(outcome)
    times = {job.name: [] for job in jobs}
    busy = 0.0
    while busy < seconds:
        for job in jobs:
            start = time.perf_counter()
            result, text = extract(job)
            elapsed = time.perf_counter() - start
            busy += elapsed
            times[job.name].append(elapsed)
            checker.check(job, result, text)
    return times, checker.counts


def cli_parity(job, work_dir, outcome):
    """``repro run --json`` over the emitted pages equals the library path."""
    (table, pages), = job.pages.items()
    table_dir = work_dir / "cli" / table
    table_dir.mkdir(parents=True)
    for doc_id, html in pages:
        (table_dir / ("%s.html" % doc_id)).write_text(html, encoding="utf-8")
    program_path = work_dir / "cli" / "program.alog"
    program_path.write_text(job.program.source(), encoding="utf-8")
    # the CLI names documents <table>:<file name>
    emitted = TableJob(
        job.name,
        job.program,
        {
            table: [
                ("%s:%s" % (table, path.name), path.read_text(encoding="utf-8"))
                for path in sorted(table_dir.glob("*.html"))
            ]
        },
        job.key_attr,
        job.answers,
        job.docs,
    )
    _, text = extract(emitted)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", str(program_path),
                "--table", "%s=%s" % (table, table_dir),
                "--query", job.program.query, "--json", "--no-lint",
            ],
            capture_output=True, text=True, timeout=120, check=True,
        )
        cli = json.loads(proc.stdout)
    except (subprocess.SubprocessError, ValueError):
        outcome.check(False, "repro run --json failed:\n%s" % traceback.format_exc())
        return
    outcome.check(
        json.loads(text) == cli,
        "%s: repro run --json differs from the library path" % job.name,
    )


# ----------------------------------------------------------------------
# refine_session
# ----------------------------------------------------------------------

class TimedDeveloper:
    """The simulated developer, timestamping each question and answer."""

    def __init__(self, developer):
        self._developer = developer
        self.asked = []
        self.answered = []

    def answer(self, question, registry):
        self.asked.append(time.perf_counter())
        try:
            return self._developer.answer(question, registry)
        finally:
            self.answered.append(time.perf_counter())

    def __getattr__(self, name):
        return getattr(self._developer, name)


def make_sessions(seed, scale):
    return [
        build_task(
            task_id,
            size=_scaled(SESSION_JOIN_DOCS if task_id in JOIN_TASKS else SESSION_DOCS, scale),
            seed=seed,
        )
        for task_id in TASK_IDS
    ]


def run_session(task, seed, tracer=None):
    """One Simulation-strategy session, set up as ``run_iflex`` does.

    Returns ``(trace, session, waits, seconds)``.  A wait runs from the
    previous answer (or the session start) to the next question (or the
    session end): the time the developer waits on the system.
    """
    developer = TimedDeveloper(SimulatedDeveloper(task.truth, seed=seed))
    start = time.perf_counter()
    with _span(tracer, "session", "assistant", task=task.task_id):
        session = RefinementSession(
            task.program,
            task.corpus,
            developer,
            strategy=SimulationStrategy(),
            seed=seed,
            tracer=tracer,
        )
        trace = session.run()
    end = time.perf_counter()
    waits = [
        asked - answered
        for asked, answered in zip(developer.asked + [end], [start] + developer.answered)
    ]
    return trace, session, waits, end - start


class SessionChecker:
    """Superset check per session; the same work in every round."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.counts = {}

    def check(self, task, trace):
        key = task.task_id
        counts = {
            "questions": trace.questions_asked,
            "iterations": trace.iterations,
            "tuples": trace.final_result.tuple_count,
        }
        first = self.counts.setdefault(key, counts)
        if first != counts:
            return self.outcome.check(False, "%s: %r differs from %r" % (key, counts, first))
        missing = superset_missing(
            trace.final_result.query_table, task.key_attr, answer_keys(task)
        )
        return self.outcome.check(
            not missing, "%s: %d answer keys missing, e.g. %r" % (key, len(missing), missing[:3])
        )


def measure_sessions(tasks, seed, seconds, outcome):
    """Whole rounds over ``tasks`` until ``seconds`` of sessions ran.

    Returns ``(waits, times, counts)``: per task, its session's wait
    lists and durations, one entry per round.
    """
    checker = SessionChecker(outcome)
    waits = [[] for _ in tasks]
    times = [[] for _ in tasks]
    busy = 0.0
    while busy < seconds:
        for index, task in enumerate(tasks):
            trace, _, session_waits, elapsed = run_session(task, seed)
            busy += elapsed
            waits[index].append(session_waits)
            times[index].append(elapsed)
            checker.check(task, trace)
    return waits, times, checker.counts


# ----------------------------------------------------------------------
# serve_delta
# ----------------------------------------------------------------------

class Server:
    """A ``python -m repro serve`` process and a one-connection client."""

    def __init__(self, table_dir, cache_dir, log_path):
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--table", "%s=%s" % (SERVE_TABLE, table_dir),
                "--result-cache", str(cache_dir), "--log-level", "warning",
            ],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        try:
            self.port = self._read_port(timeout=60)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout):
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("repro serve exited before listening")
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not start within %ds" % timeout)

    def request(self, method, path, body=None):
        """``(status, body bytes)``; the response is read to its last byte."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            connection.request(
                method, path, body=data, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


@dataclass
class ServeCorpus:
    """The T1 pages a service starts from, and markup for appended pages."""

    program: object
    pages: list  # [(doc_id as --table names it, html)] in corpus order
    pool: list  # [html]
    table_dir: pathlib.Path


def make_serve_corpus(seed, docs, pool, directory):
    """Generate and emit T1 pages; the last ``pool`` are held back."""
    task = build_task("T1", size=docs + pool, seed=seed)
    records = task.records[SERVE_TABLE]
    table_dir = directory / SERVE_TABLE
    table_dir.mkdir(parents=True)
    for record in records[:docs]:
        (table_dir / ("%s.html" % record.doc.doc_id)).write_text(record.html, encoding="utf-8")
    # ``repro serve --table`` loads files in sorted order as <table>:<file name>
    pages = sorted(
        ("%s:%s.html" % (SERVE_TABLE, r.doc.doc_id), r.html) for r in records[:docs]
    )
    return ServeCorpus(task.program, pages, [r.html for r in records[docs:]], table_dir)


def serve_edit(corpus, cycle):
    """``(doc_id, html, is_upsert)`` for one cycle's ingested page.

    Even cycles append a new page; odd cycles edit an existing page's
    vote count and text under the id ``--table`` gave it (any other id
    would silently append).
    """
    if cycle % 2 == 0:
        html = corpus.pool[(cycle // 2) % len(corpus.pool)]
        return "%s:added-%05d.html" % (SERVE_TABLE, cycle), html, False
    doc_id, html = corpus.pages[(cycle // 2) * 7919 % len(corpus.pages)]
    html = re.sub(r"Votes: [\d,]+", "Votes: {:,}".format(1000 + cycle * 397), html, count=1)
    return doc_id, html.replace("</div>", "<p>Revision %d</p></div>" % cycle, 1), True


class ServeClient:
    """The closed-loop client: ingest one page, run (delta), run (warm)."""

    def __init__(self, server, corpus, outcome):
        self.server = server
        self.corpus = corpus
        self.outcome = outcome
        self.pages = dict(corpus.pages)  # the corpus as the server holds it
        self.program_id = None
        self.cold = None
        self.last_tuples = None
        #: request kind -> client latencies (s)
        self.latencies = {"ingest": [], "delta": [], "warm": []}
        #: engine seconds of each delta run, from its summary line
        self.delta_engine = []
        self.recomputed = {"delta": set(), "warm": set()}

    def submit_and_run_cold(self):
        status, body = self.server.request(
            "POST", "/programs", {"source": self.corpus.program.source(), "query": "T1"}
        )
        if status != 201:
            raise RuntimeError("submit answered %d %s" % (status, body[:200]))
        self.program_id = json.loads(body)["program_id"]
        status, self.cold, _ = self.run()
        if status != 200:
            raise RuntimeError("cold run answered %d" % status)

    def run(self):
        """One ``/run``; ``(status, summary, tuple lines)``."""
        status, body = self.server.request("POST", "/programs/%s/run" % self.program_id)
        if status != 200:
            return status, None, None
        lines = [json.loads(line) for line in body.decode("utf-8").splitlines()]
        return status, lines[-1], [line for line in lines if line["type"] == "tuple"]

    def cycle(self, cycle):
        """One ingest, delta run and warm run; timed and checked."""
        doc_id, html, upsert = serve_edit(self.corpus, cycle)
        start = time.perf_counter()
        status, body = self.server.request(
            "POST",
            "/documents",
            {"table": SERVE_TABLE, "documents": [{"doc_id": doc_id, "html": html}]},
        )
        self.latencies["ingest"].append(time.perf_counter() - start)
        ok = status == 201 and (not upsert or doc_id in json.loads(body)["replaced"])
        self.outcome.check(
            ok, "cycle %d: ingest of %s answered %d %s" % (cycle, doc_id, status, body[:200])
        )
        self.pages[doc_id] = html
        for kind, expected in (("delta", 1), ("warm", 0)):
            start = time.perf_counter()
            status, summary, self.last_tuples = self.run()
            self.latencies[kind].append(time.perf_counter() - start)
            recomputed = None if summary is None else summary["partitions_recomputed"]
            self.recomputed[kind].add(recomputed)
            if kind == "delta" and summary is not None:
                self.delta_engine.append(summary["elapsed_s"])
            self.outcome.check(
                recomputed == expected,
                "cycle %d: %s run answered %d, partitions_recomputed %r (want %d)"
                % (cycle, kind, status, recomputed, expected),
            )

    def check_final(self):
        """The last streamed result equals a cold library run."""
        corpus = Corpus({SERVE_TABLE: [parse_html(d, h) for d, h in self.pages.items()]})
        program = Program.parse(
            self.corpus.program.source(), extensional=[SERVE_TABLE], query="T1"
        )
        table = IFlexEngine(program, corpus).execute().query_table
        expected = [
            {
                "type": "tuple",
                "maybe": row.maybe,
                "cells": {a: cell_to_dict(c) for a, c in zip(table.attrs, row.cells)},
            }
            for row in table
        ]
        self.outcome.check(
            self.last_tuples == expected,
            "the streamed result differs from a cold run over the final corpus",
        )


def serve_setup(seed, docs, pool, directory, outcome):
    """Generate, emit, start the server, submit T1 and run it cold."""
    corpus = make_serve_corpus(seed, docs, pool, directory / "pages")
    server = Server(corpus.table_dir, directory / "result-cache", directory / "serve.log")
    client = ServeClient(server, corpus, outcome)
    try:
        client.submit_and_run_cold()
    except BaseException:
        server.stop()
        raise
    return client


# ----------------------------------------------------------------------
# end-to-end (untraced) runs
# ----------------------------------------------------------------------

def _own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_report(docs_per_s, latencies_ms, sampled, setup_s, peak_rss_mb, counts):
    """The end-to-end metrics, and what each was computed from."""
    p50_ms, p90_ms = latencies_ms
    metrics = {
        "docs_per_s": docs_per_s,
        "request_p50_ms": p50_ms,
        "request_p90_ms": p90_ms,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    samples = {
        "docs_per_s": sampled,
        "request_p50_ms": sampled,
        "request_p90_ms": sampled,
        "peak_rss_mb": "1 process",
        "setup_s": "median of %d set-ups" % SETUP_REPEATS,
    }
    return metrics, samples, counts


def _p50_p90_ms(latencies):
    return statistics.median(latencies) * 1e3, _percentile(latencies, 0.9) * 1e3


def batch_jobs(args):
    return make_jobs(BATCH_TASKS, _scaled(BATCH_DOCS, args.scale), [args.seed])


def join_jobs(args):
    seeds = [JOIN_CORPORA * args.seed + k for k in range(JOIN_CORPORA)]
    return make_jobs(JOIN_TASKS, _scaled(JOIN_DOCS, args.scale), seeds)


def e2e_tables(args, make, outcome, parity):
    setup_s, jobs = timed_setups(lambda _: make(args))
    times, counts = measure_tables(jobs, args.seconds, outcome)
    peak = _own_peak_rss_mb()
    if parity:
        cli_parity(jobs[0], args.work_dir, outcome)
    best = [min(times[job.name]) for job in jobs]
    return e2e_report(
        sum(job.docs for job in jobs) / sum(best),
        _p50_p90_ms(best),
        "%d requests, best of %d passes" % (len(best), len(times[jobs[0].name])),
        setup_s, peak, counts,
    )


def e2e_refine_session(args, outcome):
    setup_s, tasks = timed_setups(lambda _: make_sessions(args.seed, args.scale))
    waits, times, counts = measure_sessions(tasks, args.seed, args.seconds, outcome)
    # every round asks the same questions (the checker makes sure), so
    # the n-th wait of a session is the same request in every round
    best_waits = [min(column) for rounds in waits for column in zip(*rounds)]
    docs = sum(task.corpus.size_of(name) for task in tasks for name in task.corpus.table_names())
    return e2e_report(
        docs / sum(min(values) for values in times),
        _p50_p90_ms(best_waits),
        "%d question waits, best of %d rounds" % (len(best_waits), len(times[0])),
        setup_s, _own_peak_rss_mb(), counts,
    )


def e2e_serve_delta(args, outcome):
    docs = _scaled(SERVE_DOCS, args.scale)
    pool = _scaled(SERVE_POOL, args.scale)
    setup_s, client = timed_setups(
        lambda repeat: serve_setup(
            args.seed, docs, pool, args.work_dir / ("setup-%d" % repeat), outcome
        ),
        release=lambda client: client.server.stop(),
    )
    cycles = []
    try:
        while sum(cycles) < args.seconds:
            start = time.perf_counter()
            client.cycle(len(cycles))
            cycles.append(time.perf_counter() - start)
        peak = client.server.peak_rss_mb()
    finally:
        client.server.stop()
    client.check_final()
    counts = {
        "cold_tuples": client.cold["tuples"],
        "delta_partitions_recomputed": sorted(client.recomputed["delta"], key=str),
        "warm_partitions_recomputed": sorted(client.recomputed["warm"], key=str),
    }
    # cycles never repeat exactly (the corpus grows), so the run is cut
    # into windows of consecutive cycles and each metric takes its best
    # window; a cycle ingests one document
    rates, p50s, p90s = [], [], []
    for first in range(0, max(1, len(cycles) - SERVE_WINDOW + 1), SERVE_WINDOW):
        part = slice(first, first + SERVE_WINDOW)
        p50_ms, p90_ms = _p50_p90_ms(
            [value for values in client.latencies.values() for value in values[part]]
        )
        rates.append(len(cycles[part]) / sum(cycles[part]))
        p50s.append(p50_ms)
        p90s.append(p90_ms)
    return e2e_report(
        max(rates),
        (min(p50s), min(p90s)),
        "%d requests per window, best of %d windows"
        % (3 * min(SERVE_WINDOW, len(cycles)), len(rates)),
        setup_s, peak, counts,
    )


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------

def _timed(work):
    start = time.perf_counter()
    value = work()
    return value, time.perf_counter() - start


def _untraced_wall(work):
    """``(values, seconds)`` of the faster of two untraced runs; the
    first one in a process also pays lazy imports and warm-up."""
    _, first_wall = _timed(work)
    values, second_wall = _timed(work)
    return values, min(first_wall, second_wall)


def layer_report(tracer, wall, untraced_wall, stats_list, tables, extra):
    """Every per-layer metric of one traced section."""
    metrics, unattributed = layers.attribute(tracer.spans, wall)
    stats = ExecutionStats()
    for item in stats_list:
        stats.merge(item)
    hits = stats.verify_cache_hits + stats.refine_cache_hits
    lookups = hits + stats.verify_cache_misses + stats.refine_cache_misses
    metrics.update(dict.fromkeys(ASSISTANT_METRICS + SERVICE_METRICS, 0))
    metrics.update(
        {
            "processor.execute_s": sum(
                span.duration for span in tracer.spans if span.category == "engine"
            ),
            "processor.partitions_reused": stats.partitions_reused,
            "processor.partitions_recomputed": stats.partitions_recomputed,
            "processor.ppredicate_calls": stats.ppredicate_calls,
            "features.verify_evals": stats.verify_calls + stats.index_verify_calls,
            "features.refine_evals": stats.refine_calls + stats.index_refine_calls,
            "features.naive_evals": stats.verify_calls + stats.refine_calls,
            "features.batch_spans": stats.verify_batch + stats.refine_batch,
            "features.eval_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "ctables.tuples_built": stats.tuples_built,
            "ctables.values_enumerated": stats.values_enumerated,
            "ctables.cap_hits": stats.cap_hits,
            "ctables.result_tuples": sum(t.tuple_count() for t in tables),
            "ctables.result_assignments": sum(t.assignment_count() for t in tables),
            "columnar.result_cache_hits": stats.result_cache_hits,
            "columnar.result_cache_misses": stats.result_cache_misses,
            "trace.overhead_ratio": wall / untraced_wall,
        }
    )
    metrics.update(extra)
    return metrics, unattributed


def traced_tables(args, make, outcome, tracer):
    jobs = make(args)
    checker = TableChecker(outcome)
    untraced, untraced_wall = _untraced_wall(lambda: [extract(job) for job in jobs])
    traced, wall = _timed(lambda: [extract(job, tracer) for job in jobs])
    # the traced results must be byte-identical to the untraced ones
    for job, (result, text) in zip(jobs + jobs, untraced + traced):
        checker.check(job, result, text)
    return layer_report(
        tracer, wall, untraced_wall,
        [result.stats for result, _ in traced],
        [result.query_table for result, _ in traced],
        {},
    )


def traced_refine_session(args, outcome, tracer):
    tasks = make_sessions(args.seed, args.scale)
    checker = SessionChecker(outcome)

    def run_all(tracer):
        return [run_session(task, args.seed, tracer) for task in tasks]

    untraced, untraced_wall = _untraced_wall(lambda: run_all(None))
    traced, wall = _timed(lambda: run_all(tracer))
    for task, (trace, *_) in zip(tasks + tasks, untraced + traced):
        checker.check(task, trace)
    by_id = {span.span_id: span for span in tracer.spans}
    execute = {"subset": 0.0, "reuse": 0.0}
    for span in tracer.spans:
        parent = by_id.get(span.parent_id)
        if span.category == "engine" and parent is not None and parent.category == "session":
            execute[parent.attrs["mode"]] += span.duration
    extra = {
        "assistant.iteration_s": sum(
            span.duration for span in tracer.spans if span.category == "session"
        ),
        "assistant.subset_execute_s": execute["subset"],
        "assistant.full_execute_s": execute["reuse"],
        "assistant.iterations": sum(trace.iterations for trace, *_ in traced),
        "assistant.questions": sum(trace.questions_asked for trace, *_ in traced),
        "assistant.simulations": sum(session.simulations for _, session, *_ in traced),
    }
    return layer_report(
        tracer, wall, untraced_wall,
        [trace.exec_stats for trace, *_ in traced],
        [trace.final_result.query_table for trace, *_ in traced],
        extra,
    )


def inprocess_cycle(service, program_id, corpus, cycle, outcome, tracer):
    """One serve_delta cycle through the service's library API."""
    doc_id, html, upsert = serve_edit(corpus, cycle)
    with _span(tracer, "ingest", "service"):
        with _span(tracer, "parse_html", "text"):
            document = parse_html(doc_id, html)
        _, replaced = service.ingest(SERVE_TABLE, [document])
    outcome.check(not upsert or doc_id in replaced, "cycle %d: %s not replaced" % (cycle, doc_id))
    results = []
    for kind, expected in (("delta", 1), ("warm", 0)):
        with _span(tracer, "run_program", "service", kind=kind):
            result = service.run_program(program_id)
        with _span(tracer, "stream_result", "ctables"):
            for _ in stream_result({"program_id": program_id}, result):
                pass
        outcome.check(
            result.stats.partitions_recomputed == expected,
            "cycle %d: %s run recomputed %d partitions"
            % (cycle, kind, result.stats.partitions_recomputed),
        )
        results.append(result)
    return results


def traced_serve_delta(args, outcome, tracer):
    directory = args.work_dir / "traced"
    docs = _scaled(SERVE_DOCS, args.scale)
    pool = _scaled(SERVE_POOL, args.scale)
    # over HTTP, untraced: how much of a delta run is the engine
    client = serve_setup(args.seed, docs, pool, directory / "http", outcome)
    try:
        for cycle in range(TRACE_SERVE_CYCLES):
            client.cycle(cycle)
    finally:
        client.server.stop()
    overhead = [
        latency - engine
        for latency, engine in zip(client.latencies["delta"], client.delta_engine)
    ]
    # in process: the same cycles untraced, then traced
    corpus = client.corpus
    service = ExtractionService(
        corpus=Corpus({SERVE_TABLE: [parse_html(d, h) for d, h in corpus.pages]}),
        config=ExecConfig(result_cache=str(directory / "result-cache"), partition_docs=1),
    )
    host, _ = service.submit_program(corpus.program.source(), query="T1")
    service.run_program(host.program_id)

    def cycles(first, tracer):
        results = []
        for cycle in range(first, first + TRACE_SERVE_CYCLES):
            results += inprocess_cycle(
                service, host.program_id, corpus, cycle, outcome, tracer
            )
        return results

    _, untraced_wall = _timed(lambda: cycles(0, None))
    host.engine.tracer = tracer
    host.engine.rebind_corpus()
    store = service.result_store
    saved, loaded = store.saved, store.loaded
    results, wall = _timed(lambda: cycles(TRACE_SERVE_CYCLES, tracer))

    def durations(name, **attrs):
        return [
            span.duration
            for span in tracer.spans
            if span.name == name
            and all(span.attrs.get(k) == v for k, v in attrs.items())
        ]

    extra = {
        "service.ingest_call_ms": _median_ms(durations("ingest")),
        "service.delta_call_ms": _median_ms(durations("run_program", kind="delta")),
        "service.warm_call_ms": _median_ms(durations("run_program", kind="warm")),
        "service.encode_ms": _median_ms(durations("stream_result")),
        "service.engine_ms": _median_ms(client.delta_engine),
        "service.http_overhead_ms": _median_ms(overhead),
        "columnar.store_saved": store.saved - saved,
        "columnar.store_loaded": store.loaded - loaded,
    }
    return layer_report(
        tracer, wall, untraced_wall,
        [result.stats for result in results],
        [result.query_table for result in results],
        extra,
    )


E2E = {
    "batch_extract": lambda args, outcome: e2e_tables(args, batch_jobs, outcome, parity=True),
    "join_superset": lambda args, outcome: e2e_tables(args, join_jobs, outcome, parity=False),
    "refine_session": e2e_refine_session,
    "serve_delta": e2e_serve_delta,
}
TRACED = {
    "batch_extract": lambda args, outcome, tracer: traced_tables(args, batch_jobs, outcome, tracer),
    "join_superset": lambda args, outcome, tracer: traced_tables(args, join_jobs, outcome, tracer),
    "refine_session": traced_refine_session,
    "serve_delta": traced_serve_delta,
}


def run(args):
    """``(metrics, samples, counts, outcome)`` of one workload run."""
    outcome = Outcome()
    if not args.trace:
        metrics, samples, counts = E2E[args.workload](args, outcome)
        return metrics, samples, counts, outcome
    tracer = Tracer()
    metrics, unattributed = TRACED[args.workload](args, outcome, tracer)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    write_chrome_trace(str(args.trace_dir / (stem + ".trace.json")), tracer.spans)
    (args.trace_dir / (stem + ".layers.json")).write_text(
        json.dumps({"metrics": metrics, "unattributed_s": unattributed}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return metrics, {}, {}, outcome


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(E2E), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work-dir", type=pathlib.Path, required=True)
    parser.add_argument("--trace-dir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    shutil.rmtree(args.work_dir, ignore_errors=True)  # left by a killed run
    args.work_dir.mkdir(parents=True)
    try:
        metrics, samples, counts, outcome = run(args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(
        json.dumps(
            {
                "metrics": metrics,
                "samples": samples,
                "counts": counts,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "errors": outcome.errors[:20],
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
