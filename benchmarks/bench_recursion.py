"""Semi-naive recursion: transitive closure as edge documents.

A chain of N edge pages (``<p>AAA BBB</p>``, fixed-width numbers so
``first_half`` splits source from target) closed under a recursive
``path`` predicate.  The acceptance assertions are deliberately
wall-clock-free so CI can run them at any scale: the iteration count is
*pinned* (a chain of N edges takes exactly N productive iterations plus
the one empty iteration that proves convergence), the closure size is
the exact N(N+1)/2, and the query table is byte-identical between the
unpartitioned run and a run over corpus chunks.

Results land in ``benchmarks/results/recursion.json``.
"""

import json
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "recursion.json"

BASE_EDGES = 40

#: layouts compared: unpartitioned, then two chunks of edge documents
LAYOUTS = ("unpartitioned", "chunked")

HEADERS = ("layout", "seconds", "iterations", "paths", "identical")

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


def _run(program, corpus, partition_docs):
    from repro.ctables import table_key
    from repro.processor import ExecConfig, IFlexEngine

    config = ExecConfig(partition_docs=partition_docs)
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
    partition_docs = -(-edges // 2)
    points = {
        "unpartitioned": _run(program, corpus, None),
        "chunked": _run(program, corpus, partition_docs),
    }
    for point in points.values():
        point["identical"] = point["key"] == points["unpartitioned"]["key"]
    return {"edges": edges, "partition_docs": partition_docs, **points}


def test_recursion(benchmark, bench_scale, bench_seed, artifacts):
    cycle = benchmark.pedantic(
        lambda: recursion_cycle(bench_scale, bench_seed),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            layout,
            "%.3f" % cycle[layout]["seconds"],
            cycle[layout]["iterations"],
            cycle[layout]["paths"],
            "yes" if cycle[layout]["identical"] else "NO",
        )
        for layout in LAYOUTS
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
    for layout in LAYOUTS:
        point = cycle[layout]
        # pinned: N productive iterations + the final empty proof
        assert point["iterations"] == edges + 1, (layout, point)
        assert point["paths"] == edges * (edges + 1) // 2, (layout, point)
        assert point["identical"], (layout, point)
