"""Semi-naive recursion: transitive closure as edge documents.

A chain of N edge pages (``<p>AAA BBB</p>``, fixed-width numbers so
``first_half`` splits source from target) closed under a recursive
``path`` predicate.  The acceptance assertions are deliberately
wall-clock-free so CI can run them at any scale: the iteration count is
*pinned* (a chain of N edges takes exactly N productive iterations plus
the one empty iteration that proves convergence), the closure size is
the exact N(N+1)/2, and the query table is byte-identical between the
unpartitioned run and a run over worker partitions.

Results land in ``benchmarks/results/recursion.json``.
"""

import json
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "recursion.json"

BASE_EDGES = 40
WORKERS = 2

#: partition counts compared: unpartitioned, then worker partitions
LAYOUTS = (1, WORKERS)

HEADERS = ("workers", "seconds", "iterations", "paths", "identical")

TC_SOURCE = """
edge(x, y) :- docs(d), pair(@d, x, y).
pair(@d, x, y) :- from(@d, x), numeric(x) = yes, first_half(x) = yes, from(@d, y), numeric(y) = yes, first_half(y) = no.
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y2, z), y = y2.
"""


def _build(edges):
    from repro.text.corpus import Corpus
    from repro.text.html_parser import parse_html
    from repro.xlog.program import Program

    docs = [
        parse_html("e%04d" % i, "<p>%04d %04d</p>" % (i, i + 1))
        for i in range(1, edges + 1)
    ]
    program = Program.parse(TC_SOURCE, extensional=["docs"], query="path")
    return program, Corpus({"docs": docs})


def _run(program, corpus, workers):
    from repro.ctables import table_key
    from repro.processor import ExecConfig, IFlexEngine

    config = ExecConfig(workers=workers)
    engine = IFlexEngine(program, corpus, config=config, validate=False)
    start = time.perf_counter()
    result = engine.execute()
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 3),
        "iterations": result.stats.fixpoint_iterations,
        "paths": result.query_table.tuple_count(),
        "key": table_key(result.query_table),
    }


def recursion_cycle(scale, seed):
    edges = max(4, int(round(BASE_EDGES * scale)))
    program, corpus = _build(edges)
    points = {
        "workers=%d" % workers: _run(program, corpus, workers)
        for workers in LAYOUTS
    }
    serial_key = points["workers=1"]["key"]
    for point in points.values():
        point["identical"] = point["key"] == serial_key
    return {"edges": edges, "workers": WORKERS, **points}


def test_recursion(benchmark, bench_scale, bench_seed, artifacts):
    cycle = benchmark.pedantic(
        lambda: recursion_cycle(bench_scale, bench_seed),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            workers,
            "%.3f" % cycle["workers=%d" % workers]["seconds"],
            cycle["workers=%d" % workers]["iterations"],
            cycle["workers=%d" % workers]["paths"],
            "yes" if cycle["workers=%d" % workers]["identical"] else "NO",
        )
        for workers in LAYOUTS
    ]
    print_block(
        render_table(
            HEADERS,
            rows,
            title="semi-naive transitive closure — %d edges"
            % (cycle["edges"],),
        )
    )
    artifacts.table("recursion", HEADERS, rows)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(cycle, indent=2) + "\n")

    edges = cycle["edges"]
    for workers in LAYOUTS:
        point = cycle["workers=%d" % workers]
        # pinned: N productive iterations + the final empty proof
        assert point["iterations"] == edges + 1, (workers, point)
        assert point["paths"] == edges * (edges + 1) // 2, (workers, point)
        assert point["identical"], (workers, point)
