"""Partitioned-execution scaling and fork-payload accounting.

Runs extraction-dominated Table 2 tasks at worker counts {1, 2, 4} on
the process backend and records the measured wall-clock next to a
*work-division bound*: each partition's plan prefix timed serially, so
``sum / max`` bounds the speedup the partitioning itself allows on a
machine with enough cores.  The two diverge exactly when the host has
fewer cores than workers (a single-CPU container time-slices the
children and measures a slowdown); the JSON records the host CPU count
so readers can tell which regime a data point came from.

The payload section measures what actually crosses the fork pipe.  The
process backend ships result spans as references to their
fork-inherited documents (``(token, position)`` pairs); its
``payload_bytes`` is the *by-reference* figure.  The *by-value* figure
is the plain ``pickle.dumps`` size of the same per-partition results —
documents and all — recorded by a serial scheduler over the same
partitions.  Both byte counts are recorded as data; no reduction bar is
asserted.

Every configuration is also checked byte-identical to the serial run —
a scaling number from a diverging backend would be meaningless.

Results land in ``benchmarks/results/parallel_scaling.json``.
"""

import json
import os
import pickle
import time
from pathlib import Path

from repro.experiments.report import render_table

from conftest import print_block

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "parallel_scaling.json"

WORKER_COUNTS = (1, 2, 4)

#: workers used for the payload comparison (the largest configuration)
PAYLOAD_WORKERS = 4

#: extraction-dominated tasks (document-local prefixes do the work);
#: sizes give a medium corpus per the Table 2 scenario scale
TASKS = (("T1", 200), ("T5", 400), ("T7", 400))

HEADERS = ("task", "workers", "backend", "seconds", "speedup", "identical")

PAYLOAD_HEADERS = (
    "task",
    "by-value bytes",
    "by-reference bytes",
    "identical",
)


def _image(result):
    return {
        name: (table.attrs, [repr(t) for t in table.tuples])
        for name, table in result.tables.items()
    }


def _run_once(task, workers, backend):
    from repro.processor import ExecConfig, IFlexEngine

    engine = IFlexEngine(
        task.program,
        task.corpus,
        config=ExecConfig(workers=workers, backend=backend),
        validate=False,
    )
    start = time.perf_counter()
    result = engine.execute()
    return engine, result, time.perf_counter() - start


def _partition_seconds(task, partitions):
    """Each partition's local work, timed one at a time (no contention)."""
    from repro.processor import ExecConfig, IFlexEngine
    from repro.processor.executor import evaluation_order

    engine = IFlexEngine(
        task.program,
        task.corpus,
        config=ExecConfig(workers=partitions, backend="serial"),
        validate=False,
    )
    physical = engine.physical
    local = [
        name
        for group in evaluation_order(engine.unfolded)
        for name in group
        if physical.split(name).has_local_work
    ]
    seconds = []
    for pid in range(len(physical.partitions)):
        start = time.perf_counter()
        for name in local:
            physical.execute_local_partitions(name, [pid])
        seconds.append(time.perf_counter() - start)
    return seconds


def scaling_curve(task_id, size, seed):
    from repro.experiments.tasks import build_task

    task = build_task(task_id, size=size, seed=seed)
    reference, serial_seconds = _run_once(task, 1, "serial")[1:]
    reference_image = _image(reference)
    points = [
        {
            "workers": 1,
            "backend": "serial",
            "seconds": round(serial_seconds, 3),
            "speedup": 1.0,
            "identical": True,
        }
    ]
    for workers in WORKER_COUNTS[1:]:
        result, seconds = _run_once(task, workers, "process")[1:]
        points.append(
            {
                "workers": workers,
                "backend": "process",
                "seconds": round(seconds, 3),
                "speedup": round(serial_seconds / seconds, 2),
                "identical": _image(result) == reference_image,
            }
        )
    partition_seconds = _partition_seconds(task, max(WORKER_COUNTS))
    bound = (
        sum(partition_seconds) / max(partition_seconds)
        if partition_seconds and max(partition_seconds)
        else 1.0
    )
    return {
        "task": task_id,
        "size": size,
        "points": points,
        "partition_seconds": [round(s, 3) for s in partition_seconds],
        "speedup_bound": round(bound, 2),
    }


def _by_value_meter(workers):
    """A serial scheduler charging each task result's plain-pickle size."""
    from repro.processor.schedulers import SerialBackend

    class ByValueMeter(SerialBackend):
        by_value_bytes = 0

        def map(self, fn, items, shared=(), timeout=None):
            results = super().map(fn, items, shared, timeout)
            self.by_value_bytes += sum(
                len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                for result in results
            )
            return results

    return ByValueMeter(workers)


def payload_comparison(task_id, size, seed):
    """Fork-payload bytes: by-reference results vs the same results by value."""
    from repro.experiments.tasks import build_task

    task = build_task(task_id, size=size, seed=seed)
    shared_engine, shared_result, _ = _run_once(task, PAYLOAD_WORKERS, "process")
    meter = _by_value_meter(PAYLOAD_WORKERS)
    by_value_result = _run_once(task, PAYLOAD_WORKERS, meter)[1]
    return {
        "task": task_id,
        "size": size,
        "workers": PAYLOAD_WORKERS,
        "by_reference_bytes": shared_engine.physical.payload_bytes,
        "by_value_bytes": meter.by_value_bytes,
        "identical": _image(by_value_result) == _image(shared_result),
    }


def test_parallel_scaling(benchmark, bench_seed, artifacts):
    def body():
        curves = [scaling_curve(task_id, size, bench_seed) for task_id, size in TASKS]
        payloads = [
            payload_comparison(task_id, size, bench_seed) for task_id, size in TASKS
        ]
        return curves, payloads

    curves, payloads = benchmark.pedantic(body, rounds=1, iterations=1)
    rows = []
    for curve in curves:
        for point in curve["points"]:
            rows.append(
                (
                    curve["task"],
                    point["workers"],
                    point["backend"],
                    "%.3f" % point["seconds"],
                    "%.2fx" % point["speedup"],
                    "yes" if point["identical"] else "NO",
                )
            )
    cpus = os.cpu_count() or 1
    title = "parallel scaling — process backend (host cpus: %d)" % cpus
    print_block(render_table(HEADERS, rows, title=title))
    payload_rows = [
        (
            p["task"],
            p["by_value_bytes"],
            p["by_reference_bytes"],
            "yes" if p["identical"] else "NO",
        )
        for p in payloads
    ]
    print_block(
        render_table(
            PAYLOAD_HEADERS,
            payload_rows,
            title="fork payload — by-reference vs by-value results (workers: %d)"
            % PAYLOAD_WORKERS,
        )
    )
    artifacts.table("parallel_scaling", HEADERS, rows)
    artifacts.table("parallel_payload", PAYLOAD_HEADERS, payload_rows)

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "host": {"cpus": cpus},
                "worker_counts": list(WORKER_COUNTS),
                "tasks": curves,
                "payload": payloads,
            },
            indent=2,
        )
        + "\n"
    )

    # every configuration must agree with serial exactly
    assert all(p["identical"] for c in curves for p in c["points"])
    assert all(p["identical"] for p in payloads)
    # partitioning must divide the work: with 4 partitions the serially
    # measured critical path leaves >1.5x on the table for a multicore
    # host, even though a 1-cpu container cannot realise it
    assert all(c["speedup_bound"] > 1.5 for c in curves)
