"""A session does not depend on ``PYTHONHASHSEED``.

The subset the assistant evaluates on (section 5.2) is drawn by
``Corpus.sample``.  When its generator was seeded from a tuple hash, the
subset, and with it every simulated result size and the question order,
changed with the interpreter's hash seed.  Hash randomization is fixed
per process, so only fresh interpreters can show it.
"""

import json
import os
import subprocess
import sys

import pytest

_PROBE = r"""
import hashlib, json
from repro.assistant import RefinementSession, SimulatedDeveloper, SimulationStrategy
from repro.ctables.export import table_to_json
from repro.experiments.tasks import build_task

task = build_task("T3", size=80, seed=0)
sample = task.corpus.sample(0.3, seed=0)
session = RefinementSession(
    task.program, task.corpus, SimulatedDeveloper(task.truth, seed=0),
    strategy=SimulationStrategy(), seed=0,
)
trace = session.run()
print(json.dumps({
    "subset_fraction": trace.subset_fraction,
    "sample": {n: [d.doc_id for d in sample.table(n)] for n in sample.table_names()},
    "session_subset": {
        n: [d.doc_id for d in session.subset_corpus.table(n)]
        for n in session.subset_corpus.table_names()
    },
    "questions": [[str(q), repr(a)] for r in trace.records for q, a in r.questions],
    "final_table": hashlib.sha256(
        table_to_json(trace.final_result.query_table).encode()
    ).hexdigest(),
}))
"""


def _run_probe(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.timeout(240)
def test_sample_and_session_identical_under_two_hash_seeds():
    first, second = _run_probe(0), _run_probe(2)
    # the subset is a real sample, so the hash seed could have moved it
    assert first["subset_fraction"] < 1.0
    assert first["questions"]
    for key in ("sample", "session_subset", "questions", "final_table"):
        assert first[key] == second[key], key
