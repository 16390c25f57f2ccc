"""Index-driven constraint pushdown vs. span-by-span evaluation.

Runs Table 2 tasks with realistic constraint chains (the refinements a
session would push down: ``bold_font`` / ``capitalized`` / length caps)
under three configurations — the naive span-by-span path, the default
indexed vectorized-batch path, and a warm re-execution on the indexed
engine — and records verify/refine
call counts, batch-kernel counts, cache hit rates, and wall-clock.
Chained constraints are the interesting case: every refined sub-span
re-verifies all prior constraints, so the naive path re-scans the same
document text once per (hint, prior) pair while the indexed path
answers from per-document column arrays and the ``EvalCache``.

All configurations must be byte-identical (superset semantics is a
correctness contract, the index an accelerator).  The bench also times
the batch kernels in isolation against the scalar index calls they
replace (>= 5x).

Results land in ``benchmarks/results/constraint_pushdown.json``.
"""

import json
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "constraint_pushdown.json"

#: (task, base size, constraint chain) — chains mirror the refinements
#: the paper's sessions converge to: appearance checks on the title
#: attribute plus a length cap on the numeric attribute
TASKS = (
    (
        "T1",
        200,
        (
            # IMDB titles are exactly the bold anchor text: distinct_yes
            # materialises exact spans that every later constraint must
            # re-verify — the verify-heavy case indexes exist for
            ("extractIMDB", "title", "bold_font", "distinct_yes"),
            ("extractIMDB", "title", "hyperlinked", "yes"),
            ("extractIMDB", "title", "capitalized", "yes"),
            ("extractIMDB", "title", "max_length", 60),
            ("extractIMDB", "votes", "max_length", 30),
        ),
    ),
    (
        "T2",
        200,
        (
            # Ebert titles are the italic text
            ("extractEbert", "title", "italic_font", "distinct_yes"),
            ("extractEbert", "title", "capitalized", "yes"),
            ("extractEbert", "title", "max_length", 60),
            ("extractEbert", "year", "max_length", 12),
        ),
    ),
)

CONFIGS = ("unindexed", "indexed", "indexed_warm")

HEADERS = (
    "task",
    "config",
    "seconds",
    "verify (naive)",
    "verify (index)",
    "verify (batch)",
    "refine (batch)",
    "cache hit rate",
    "identical",
)

#: isolated kernel comparison: spans per call / timing repetitions
KERNEL_SPANS = 2000
KERNEL_REPS = 10


def _image(result):
    return {
        name: (table.attrs, [repr(t) for t in table.tuples])
        for name, table in result.tables.items()
    }


def _constrained_task(task_id, size, chain, seed):
    from repro.experiments.tasks import build_task

    task = build_task(task_id, size=size, seed=seed)
    program = task.program
    for predicate, attribute, feature, value in chain:
        program = program.add_constraint(predicate, attribute, feature, value)
    return task, program


def _run_once(program, corpus, config):
    from repro.processor import IFlexEngine

    engine = IFlexEngine(program, corpus, config=config, validate=False)
    start = time.perf_counter()
    result = engine.execute()
    return engine, result, time.perf_counter() - start


def _hit_rate(stats):
    hits = stats.verify_cache_hits + stats.refine_cache_hits
    total = hits + stats.verify_cache_misses + stats.refine_cache_misses
    return hits / total if total else 0.0


def _point(stats, seconds, identical):
    return {
        "seconds": round(seconds, 3),
        "verify_calls": stats.verify_calls,
        "index_verify_calls": stats.index_verify_calls,
        "refine_calls": stats.refine_calls,
        "index_refine_calls": stats.index_refine_calls,
        "verify_batch": stats.verify_batch,
        "refine_batch": stats.refine_batch,
        "verify_cache_hits": stats.verify_cache_hits,
        "verify_cache_misses": stats.verify_cache_misses,
        "refine_cache_hits": stats.refine_cache_hits,
        "refine_cache_misses": stats.refine_cache_misses,
        "cache_hit_rate": round(_hit_rate(stats), 3),
        "identical": identical,
    }


def pushdown_comparison(task_id, size, chain, scale, seed, metrics=None):
    from repro.observability.metrics import record_stats
    from repro.processor import ExecConfig

    size = max(20, int(round(size * scale)))
    task, program = _constrained_task(task_id, size, chain, seed)
    _, naive_result, naive_seconds = _run_once(
        program, task.corpus, ExecConfig(use_index=False, use_eval_cache=False)
    )
    engine, batch_result, batch_seconds = _run_once(
        program, task.corpus, ExecConfig()
    )
    # a second execution on the warm engine-level EvalCache — the
    # assistant re-executes candidate programs like this constantly
    start = time.perf_counter()
    warm_result = engine.execute()
    warm_seconds = time.perf_counter() - start
    if metrics is not None:
        record_stats(metrics, naive_result.stats, task=task_id, config="unindexed")
        record_stats(metrics, batch_result.stats, task=task_id, config="indexed")
        record_stats(metrics, warm_result.stats, task=task_id, config="indexed_warm")
    reference = _image(naive_result)
    points = {
        "unindexed": _point(naive_result.stats, naive_seconds, True),
        "indexed": _point(
            batch_result.stats, batch_seconds, _image(batch_result) == reference
        ),
        "indexed_warm": _point(
            warm_result.stats, warm_seconds, _image(warm_result) == reference
        ),
    }
    reduction = (
        points["unindexed"]["verify_calls"] / points["indexed"]["verify_calls"]
        if points["indexed"]["verify_calls"]
        else float("inf")
    )
    return {
        "task": task_id,
        "size": size,
        "chain": ["%s(%s) %s=%r" % (p, a, f, v) for p, a, f, v in chain],
        "verify_call_reduction": round(min(reduction, 1e9), 2),
        **points,
    }


def kernel_microbench():
    """The batch kernels against the scalar index calls they replace.

    A synthetic document large enough that per-call Python dispatch
    dominates the scalar loop; both paths answer from the *same* index,
    so the ratio isolates vectorization, not indexing.
    """
    import numpy as np

    from repro.features.index import IndexStore
    from repro.features.registry import default_registry
    from repro.text import parse_html
    from repro.text.span import Span

    words = [
        "Word%d" % i if i % 2 else "lower%d" % i for i in range(2 * KERNEL_SPANS)
    ]
    doc = parse_html("kernel-doc", "<p>%s</p>" % " ".join(words))
    store = IndexStore()
    registry = default_registry()
    out = []
    for feature_name, value in (("capitalized", "yes"), ("max_length", 12)):
        index = store.index_for(registry.get(feature_name), doc)
        spans = [Span(doc, t.start, t.end) for t in doc.tokens[:KERNEL_SPANS]]
        starts = np.fromiter((s.start for s in spans), dtype=np.int64)
        ends = np.fromiter((s.end for s in spans), dtype=np.int64)
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            batch = index.verify_batch(starts, ends, value)
        batch_seconds = (time.perf_counter() - start) / KERNEL_REPS
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            scalar = [index.verify(span, value) for span in spans]
        scalar_seconds = (time.perf_counter() - start) / KERNEL_REPS
        assert [bool(b) for b in batch] == [bool(s) for s in scalar]
        out.append(
            {
                "feature": feature_name,
                "spans": KERNEL_SPANS,
                "scalar_seconds": round(scalar_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "speedup": round(scalar_seconds / batch_seconds, 1),
            }
        )
    return out


def test_constraint_pushdown(benchmark, bench_scale, bench_seed, artifacts):
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()

    def body():
        comparisons = [
            pushdown_comparison(
                task_id, size, chain, bench_scale, bench_seed, metrics=registry
            )
            for task_id, size, chain in TASKS
        ]
        return comparisons, kernel_microbench()

    comparisons, kernels = benchmark.pedantic(body, rounds=1, iterations=1)
    rows = []
    for comparison in comparisons:
        for config in CONFIGS:
            point = comparison[config]
            rows.append(
                (
                    comparison["task"],
                    config,
                    "%.3f" % point["seconds"],
                    point["verify_calls"],
                    point["index_verify_calls"],
                    point["verify_batch"],
                    point["refine_batch"],
                    "%.1f%%" % (100.0 * point["cache_hit_rate"]),
                    "yes" if point["identical"] else "NO",
                )
            )
    print_block(
        render_table(HEADERS, rows, title="constraint pushdown — indexed vs unindexed")
    )
    print_block(
        render_table(
            ("feature", "spans", "scalar s", "batch s", "speedup"),
            [
                (k["feature"], k["spans"], "%.6f" % k["scalar_seconds"],
                 "%.6f" % k["batch_seconds"], "%.1fx" % k["speedup"])
                for k in kernels
            ],
            title="batch kernels vs scalar index calls (same index)",
        )
    )
    artifacts.table("constraint_pushdown", HEADERS, rows)
    artifacts.metrics("constraint_pushdown", registry)

    total_naive = sum(c["unindexed"]["verify_calls"] for c in comparisons)
    total_indexed = sum(c["indexed"]["verify_calls"] for c in comparisons)
    aggregate = total_naive / total_indexed if total_indexed else float("inf")
    payload = {
        "tasks": comparisons,
        "kernels": kernels,
        "aggregate": {
            "unindexed_verify_calls": total_naive,
            "indexed_verify_calls": total_indexed,
            "verify_call_reduction": round(min(aggregate, 1e9), 2),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # superset semantics: index and kernels are accelerators, never a change
    for config in CONFIGS:
        assert all(c[config]["identical"] for c in comparisons), config
    # batch kernels actually carry the constraint work on these chains:
    # every span answers from a vectorized kernel, none from the naive
    # feature fallback
    assert all(c["indexed"]["verify_batch"] > 0 for c in comparisons)
    assert all(c["indexed"]["refine_batch"] > 0 for c in comparisons)
    assert all(c["indexed"]["verify_calls"] == 0 for c in comparisons)
    # acceptance: indexes cut naive verify work at least in half
    assert aggregate >= 2.0, aggregate
    assert all(c["indexed"]["index_refine_calls"] > 0 for c in comparisons)
    # the warm engine answers every repeated evaluation from the cache
    assert all(c["indexed_warm"]["cache_hit_rate"] == 1.0 for c in comparisons)
    # acceptance: vectorized kernels beat the scalar calls they replace
    # by >= 5x in isolation (end-to-end wall-clock is dispatch-bound;
    # the JSON records both so the attribution is auditable)
    assert all(k["speedup"] >= 5.0 for k in kernels), kernels
