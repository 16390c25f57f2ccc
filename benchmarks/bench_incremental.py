"""Incremental delta execution: cold vs warm vs one-document edit.

Runs T1 three ways against one persistent result cache — a cold run
that populates it, a warm byte-identical re-run on a fresh engine
(cross-run semantics: nothing in memory, only the store), and a
one-document edit — and records wall-clock plus the delta counters.
The interesting assertions are deliberately wall-clock-free so CI can
run them at any scale: the cold run recomputes every partition, the
warm run recomputes **zero** (100% store hits), and the edit recomputes
**exactly one** partition while the folded result stays byte-identical
to a cold run over the edited corpus.

Results land in ``benchmarks/results/incremental.json``.
"""

import json
import tempfile
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "incremental.json"

TASK_ID = "T1"
BASE_SIZE = 200
#: corpus chunks at every scale: ``partition_docs`` is ``ceil(size / 4)``
PARTITIONS = 4

HEADERS = (
    "phase",
    "seconds",
    "recomputed",
    "reused",
    "store hits",
    "store misses",
    "identical",
)


def _image(result):
    return {
        name: (table.attrs, [repr(t) for t in table.tuples])
        for name, table in result.tables.items()
    }


def _edit_one_document(corpus):
    """The edited corpus plus the id of the one rewritten document.

    Appending to the text keeps every markup region valid while moving
    the document's content digest — the minimal "someone fixed a typo
    on one page" delta.
    """
    from repro.text.corpus import Corpus
    from repro.text.document import Document

    tables = {}
    edited_id = None
    for name in corpus.table_names():
        docs = list(corpus.table(name))
        if edited_id is None and docs:
            doc = docs[0]
            docs[0] = Document(
                doc.doc_id,
                doc.text + " (second revision)",
                regions=doc.regions,
                labels=doc.labels,
                meta=doc.meta,
            )
            edited_id = doc.doc_id
        tables[name] = docs
    return Corpus(tables), edited_id


def _run(program, corpus, cache_dir, partition_docs):
    from repro.processor import ExecConfig, IFlexEngine

    config = ExecConfig(partition_docs=partition_docs, result_cache=cache_dir)
    engine = IFlexEngine(program, corpus, config=config, validate=False)
    start = time.perf_counter()
    result = engine.execute()
    return result, time.perf_counter() - start


def _point(stats, seconds, identical):
    return {
        "seconds": round(seconds, 3),
        "partitions_recomputed": stats.partitions_recomputed,
        "partitions_reused": stats.partitions_reused,
        "result_cache_hits": stats.result_cache_hits,
        "result_cache_misses": stats.result_cache_misses,
        "identical": identical,
    }


def incremental_cycle(scale, seed, metrics=None):
    from repro.experiments.tasks import build_task
    from repro.observability.metrics import record_stats

    size = max(20, int(round(BASE_SIZE * scale)))
    task = build_task(TASK_ID, size=size, seed=seed)
    partition_docs = -(-size // PARTITIONS)
    partitions = len(task.corpus.chunk(partition_docs))
    edited_corpus, edited_id = _edit_one_document(task.corpus)
    with tempfile.TemporaryDirectory() as cache_dir, \
            tempfile.TemporaryDirectory() as reference_dir:
        cold, cold_seconds = _run(task.program, task.corpus, cache_dir, partition_docs)
        warm, warm_seconds = _run(task.program, task.corpus, cache_dir, partition_docs)
        delta, delta_seconds = _run(task.program, edited_corpus, cache_dir, partition_docs)
        # the correctness reference: a cold run over the edited corpus
        # against its own empty cache
        reference, reference_seconds = _run(
            task.program, edited_corpus, reference_dir, partition_docs
        )
    if metrics is not None:
        for phase, result in (
            ("cold", cold), ("warm", warm), ("delta", delta)
        ):
            record_stats(metrics, result.stats, task=TASK_ID, phase=phase)
    cold_image = _image(cold)
    points = {
        "cold": _point(cold.stats, cold_seconds, True),
        "warm": _point(warm.stats, warm_seconds, _image(warm) == cold_image),
        "delta": _point(
            delta.stats, delta_seconds, _image(delta) == _image(reference)
        ),
        "reference": _point(reference.stats, reference_seconds, True),
    }
    return {
        "task": TASK_ID,
        "size": size,
        "partition_docs": partition_docs,
        "partitions": partitions,
        "edited_doc": edited_id,
        "warm_speedup": round(
            cold_seconds / warm_seconds if warm_seconds else float("inf"), 2
        ),
        **points,
    }


def test_incremental(benchmark, bench_scale, bench_seed, artifacts):
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cycle = benchmark.pedantic(
        lambda: incremental_cycle(bench_scale, bench_seed, metrics=registry),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            phase,
            "%.3f" % point["seconds"],
            point["partitions_recomputed"],
            point["partitions_reused"],
            point["result_cache_hits"],
            point["result_cache_misses"],
            "yes" if point["identical"] else "NO",
        )
        for phase, point in (
            (p, cycle[p]) for p in ("cold", "warm", "delta", "reference")
        )
    ]
    print_block(
        render_table(
            HEADERS,
            rows,
            title="incremental delta execution — %s, %d docs, %d partitions"
            % (cycle["task"], cycle["size"], cycle["partitions"]),
        )
    )
    artifacts.table("incremental", HEADERS, rows)
    artifacts.metrics("incremental", registry)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(cycle, indent=2) + "\n")

    parts = cycle["partitions"]
    # cold populates: every partition executes, nothing to reuse
    assert cycle["cold"]["partitions_recomputed"] == parts, cycle["cold"]
    assert cycle["cold"]["partitions_reused"] == 0, cycle["cold"]
    # warm identical re-run: zero recompute, 100% reuse, same bytes
    assert cycle["warm"]["partitions_recomputed"] == 0, cycle["warm"]
    assert cycle["warm"]["partitions_reused"] == parts, cycle["warm"]
    assert cycle["warm"]["result_cache_misses"] == 0, cycle["warm"]
    assert cycle["warm"]["identical"], cycle["warm"]
    # one-document edit: exactly one partition re-executes, and the
    # folded result is byte-identical to the cold reference run
    assert cycle["delta"]["partitions_recomputed"] == 1, cycle["delta"]
    assert cycle["delta"]["partitions_reused"] == parts - 1, cycle["delta"]
    assert cycle["delta"]["identical"], cycle["delta"]
