"""Fault-tolerance overhead: quarantine-and-rerun vs a clean run.

The ``skip`` policy contains a poisoned document by excluding it and
re-running the whole execution over the reduced corpus (k poisoned
documents → k+1 attempts).  The warm engine-level ``EvalCache`` is what
keeps that affordable: every re-run answers Verify/Refine for the
surviving documents from cache.  This bench measures the realised
overhead — a clean run, a k-poisoned ``skip`` run, and a transient
``retry`` run — and checks the byte-identity contract along the way.

Results land in ``benchmarks/results/fault_tolerance.json``.
"""

import json
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "fault_tolerance.json"

BASE_SIZE = 120
POISONED_COUNT = 3

HEADERS = ("run", "seconds", "skipped", "retries", "tuples", "identical")


def _build_corpus(n):
    from repro.text.corpus import Corpus
    from repro.text.html_parser import parse_html

    docs = [
        parse_html(
            "d%d" % i, "<p>Listing %d Price: <b>$%d.00</b></p>" % (i, 100 + 7 * i)
        )
        for i in range(n)
    ]
    return Corpus({"pages": docs})


def _faulting_predicate(poisoned, trip_dir=None, fail_times=None):
    """A cleanup p-predicate that raises on poisoned documents.

    With ``fail_times`` / ``trip_dir`` the fault is transient, counting
    its trips in one file per poisoned document under ``trip_dir``.
    """
    from repro.xlog.program import PPredicate

    def func(span):
        doc_id = span.doc.doc_id
        if doc_id in poisoned:
            if fail_times is None:
                raise RuntimeError("injected fault on %s" % doc_id)
            path = trip_dir / ("%s.trips" % doc_id)
            count = len(path.read_text().splitlines()) if path.exists() else 0
            if count < fail_times:
                with path.open("a") as fh:
                    fh.write("trip\n")
                raise RuntimeError("injected fault on %s" % doc_id)
        return [(span.text.strip(),)]

    return PPredicate("clean", func, 1, 1)


PROGRAM_SOURCE = """
q(x, <p>, c) :- pages(x), ie(@x, p), clean(@p, c).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def _build_program(poisoned, **fault_kwargs):
    from repro.xlog.program import Program

    return Program.parse(
        PROGRAM_SOURCE,
        extensional=["pages"],
        p_predicates={"clean": _faulting_predicate(poisoned, **fault_kwargs)},
        query="q",
    )


def _image(result):
    return {
        name: (table.attrs, [repr(t) for t in table.tuples])
        for name, table in result.tables.items()
    }


def _run(program, corpus, **config_kwargs):
    from repro.processor import ExecConfig, IFlexEngine

    engine = IFlexEngine(
        program, corpus, config=ExecConfig(**config_kwargs), validate=False
    )
    start = time.perf_counter()
    result = engine.execute()
    return result, time.perf_counter() - start


def fault_tolerance_comparison(scale, tmp_path):
    size = max(20, int(round(BASE_SIZE * scale)))
    poisoned = frozenset("d%d" % i for i in range(0, POISONED_COUNT * 7, 7))
    corpus = _build_corpus(size)

    clean_result, clean_seconds = _run(_build_program(frozenset()), corpus)
    reference_result, _ = _run(
        _build_program(poisoned), corpus.without(poisoned)
    )
    skip_result, skip_seconds = _run(
        _build_program(poisoned), corpus, on_error="skip"
    )
    retry_result, retry_seconds = _run(
        _build_program(poisoned, trip_dir=tmp_path, fail_times=1),
        corpus,
        on_error="retry",
        max_retries=2,
        retry_backoff=0.0,
    )
    return {
        "corpus_size": size,
        "poisoned": sorted(poisoned),
        "clean": {
            "seconds": round(clean_seconds, 3),
            "tuples": clean_result.tuple_count,
        },
        "skip": {
            "seconds": round(skip_seconds, 3),
            "tuples": skip_result.tuple_count,
            "skipped": len(skip_result.report.records),
            "attempts": len(skip_result.report.records) + 1,
            "identical_to_clean_minus_poisoned": (
                _image(skip_result) == _image(reference_result)
            ),
            "overhead_vs_clean": round(skip_seconds / clean_seconds, 2)
            if clean_seconds
            else None,
        },
        "retry": {
            "seconds": round(retry_seconds, 3),
            "tuples": retry_result.tuple_count,
            "retries": retry_result.report.retries,
            "skipped": len(retry_result.report.records),
            "identical_to_clean": (
                _image(retry_result) == _image(clean_result)
            ),
        },
    }


def test_fault_tolerance(benchmark, bench_scale, bench_seed, artifacts, tmp_path):
    payload = benchmark.pedantic(
        lambda: fault_tolerance_comparison(bench_scale, tmp_path),
        rounds=1,
        iterations=1,
    )
    rows = (
        (
            "clean (fail-fast)",
            "%.3f" % payload["clean"]["seconds"],
            0,
            0,
            payload["clean"]["tuples"],
            "-",
        ),
        (
            "skip, k=%d" % len(payload["poisoned"]),
            "%.3f" % payload["skip"]["seconds"],
            payload["skip"]["skipped"],
            0,
            payload["skip"]["tuples"],
            "yes" if payload["skip"]["identical_to_clean_minus_poisoned"] else "NO",
        ),
        (
            "retry (transient)",
            "%.3f" % payload["retry"]["seconds"],
            payload["retry"]["skipped"],
            payload["retry"]["retries"],
            payload["retry"]["tuples"],
            "yes" if payload["retry"]["identical_to_clean"] else "NO",
        ),
    )
    print_block(
        render_table(
            HEADERS, rows, title="fault tolerance — quarantine/retry overhead"
        )
    )
    artifacts.table("fault_tolerance", HEADERS, rows)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # the tentpole contract: skip == clean run minus the poisoned docs
    assert payload["skip"]["identical_to_clean_minus_poisoned"]
    assert payload["skip"]["skipped"] == len(payload["poisoned"])
    # a transient fault recovers with the full corpus intact
    assert payload["retry"]["identical_to_clean"]
    assert payload["retry"]["skipped"] == 0
    assert payload["retry"]["retries"] == len(payload["poisoned"])
