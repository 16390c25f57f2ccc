"""End-to-end benchmark of the iFlex engine: four workloads, one command.

::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload serve_delta --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run.py --sets 2 --json-out baseline.json

Each workload runs in its own fresh process (``workloads.py``) with
``PYTHONHASHSEED=0``; this process is the only client and waits for it.
For every workload it prints each metric of ``BENCHMARK.json`` by name,
with its unit and sample count, then one JSON line::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes a Chrome trace per workload under
``--trace-dir``.  The exit code is non-zero when any output check
fails, and 2 when the checkout holds no ``src/repro`` to measure.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e_work"
#: one workload run must end well inside three minutes
RUN_TIMEOUT_S = 170


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name, args, spec):
    """Run one workload process; its report dict, or None if it crashed."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--work-dir", str(WORK / ("%s-%d" % (name, os.getpid()))),
        "--trace-dir", str(args.trace_dir),
    ]
    # a session of its own, so a hung run is killed with its server
    proc = subprocess.Popen(
        command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("%s: killed after %d s" % (name, RUN_TIMEOUT_S), file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print("%s: workload process exited %d" % (name, proc.returncode), file=sys.stderr)
        return None
    report = json.loads(stdout.strip().splitlines()[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    if set(report["metrics"]) != names:
        print(
            "%s: reported metrics differ from BENCHMARK.json: %s"
            % (name, sorted(set(report["metrics"]) ^ names)),
            file=sys.stderr,
        )
        return None
    report["units"] = {metric["name"]: metric["unit"] for metric in declared}
    return report


def result_line(report):
    """The contract's last-line JSON object for one workload."""
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": report["units"][name]}
            for name, value in sorted(report["metrics"].items())
        },
    }


def print_report(name, report):
    for metric, value in sorted(report["metrics"].items()):
        samples = report["samples"].get(metric)
        print(
            "%-15s %-32s %14.4f %-7s%s"
            % (
                name, metric, value, report["units"][metric],
                "" if samples is None else "  (%s)" % samples,
            )
        )
    print("%-15s %d of %d operations failed" % (name, report["failed"], report["attempted"]))
    for error in report["errors"]:
        print("%s: %s" % (name, error), file=sys.stderr)


def agreement(first, second, spec):
    """Rows comparing two sets; the second item is False on disagreement.

    Every end-to-end metric must agree within its bound on every
    workload, and the deterministic counts must be identical.
    """
    rows = []
    agreed = True
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            change = (b - a) / a
            ok = abs(change) <= metric["bound"]
            agreed = agreed and ok
            rows.append(
                "%-15s %-16s %12.4f %12.4f %+7.1f%% (bound %.0f%%)%s"
                % (
                    name, metric["name"], a, b, 100 * change, 100 * metric["bound"],
                    "" if ok else "  DISAGREE",
                )
            )
        same = first[name]["counts"] == second[name]["counts"]
        agreed = agreed and same
        rows.append(
            "%-15s deterministic counts %s" % (name, "identical" if same else "DIFFER")
        )
    return rows, agreed


def main(argv=None):
    if not (SRC / "repro" / "__init__.py").is_file():
        print("no src/repro under %s: nothing to measure" % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description="iFlex end-to-end benchmark")
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="workload to run (repeatable; default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measured seconds per workload run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies every corpus size"
    )
    parser.add_argument(
        "--trace-dir", type=pathlib.Path, default=WORK / "traces",
        help="where --trace 1 writes Chrome traces and layer breakdowns",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="run the workloads this many times and check that the sets agree",
    )
    parser.add_argument("--json-out", type=pathlib.Path, help="write every set as JSON")
    args = parser.parse_args(argv)
    args.trace_dir = args.trace_dir.resolve()
    names = args.workload or workloads

    sets = []
    ok = True
    for _ in range(args.sets):
        reports = {}
        for name in names:
            report = run_workload(name, args, spec)
            if report is None:
                return 1
            print_report(name, report)
            print(json.dumps(result_line(report), sort_keys=True), flush=True)
            ok = ok and report["failed"] == 0
            reports[name] = report
        sets.append(reports)
    if len(sets) > 1 and not args.trace:
        for later in sets[1:]:
            rows, agreed = agreement(sets[0], later, spec)
            print("\n".join(rows), file=sys.stderr)
            ok = ok and agreed
    if args.json_out is not None:
        kept = ("metrics", "samples", "counts", "attempted", "failed")
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "sets": [
                {name: {key: report[key] for key in kept} for name, report in reports.items()}
                for reports in sets
            ],
        }
        args.json_out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
