"""Self-test of the end-to-end benchmark, at 2% scale.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e -q``.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.observability.spans import Span  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_harness():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.E2E) == set(workloads.TRACED)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_the_declared_metrics(trace, section, tmp_path):
    proc = _run(
        "--scale", "0.02", "--seconds", "1", "--trace", str(trace),
        "--trace-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = {tuple(line.split()[1:4:2]) for line in proc.stdout.splitlines() if "  " in line}
    assert {(name, unit) for name, unit in declared.items()} <= printed
    if trace:
        for result in results:
            values = {n: m["value"] for n, m in result["metrics"].items()}
            assert values["trace.coverage"] >= 0.95
            assert min(values.values()) >= 0
        for workload in SPEC["workloads"]:
            assert (tmp_path / ("%s-seed0.trace.json" % workload["name"])).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = _run("--workload", "batch_extract", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _span(span_id, start, end, parent=None, category="plan", name="predicate:q"):
    return Span(
        name=name, category=category, start=start, end=end,
        span_id=span_id, parent_id=parent,
    )


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1, category="operator", name="Scan[p -> x]"),
        # overlaps the scan, and the next one overruns the parent
        _span(3, 3.0, 6.0, parent=1, category="operator", name="From[x -> y]"),
        _span(4, 8.0, 12.0, parent=1, category="operator", name="Project[y]"),
    ]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert min(own.values()) >= 0


def test_feature_spans_are_an_overlay_outside_the_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 0.0, 8.0, parent=1, category="operator", name="Select[numeric(v) = 'yes']"),
        _span(3, 1.0, 3.0, parent=1, category="feature", name="verify-batch:numeric(v)"),
    ]
    metrics, unattributed = layers.attribute(spans, wall=10.0)
    assert metrics["processor.predicate_s"] == pytest.approx(2.0)
    assert metrics["processor.select_s"] == pytest.approx(8.0)
    assert metrics["features.verify_batch_s"] == pytest.approx(2.0)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert unattributed == {}
