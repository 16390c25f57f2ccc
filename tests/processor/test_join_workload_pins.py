"""Pin the initial join programs' counters and result bytes.

The first iteration of T3, T6 and T9 (section 4.1: ``similar()`` cannot
decide ambiguous cells, so the superset is a near cross-product) is the
work of the ``join_superset`` benchmark.  Any change to the join kernel —
condition binding, memoized per-cell facts, tuple construction — must
leave these runs byte-identical, with identical ``ExecutionStats``.

The constants are the SHA-256 of ``table_to_json`` of the query table
and the non-zero counters, for 30 generated pages per table on seeds 0
and 1; every other counter is zero.
"""

import hashlib

import pytest

from repro.ctables.export import table_to_json
from repro.experiments.tasks import build_task
from repro.processor import IFlexEngine
from repro.processor.context import ExecutionStats
from repro.text import Corpus

PAGES = 30

PINNED = {
    ("T3", 0): (
        "b7e5965147ecb1f248078cca030f03f5a7e6d59f8a618bd96ac3da861c1bc071",
        {"tuples_built": 1278, "cap_hits": 1008},
    ),
    ("T3", 1): (
        "7cfc561b90f8d14b347ed39abebe5ba9dd7a73b963f03368fb15ee28d9788feb",
        {"tuples_built": 1045, "cap_hits": 775},
    ),
    ("T6", 0): (
        "fa914ef16c917f93b47ad9eb82649e0ed7cc6b4e8a3dda94d6a38279cdd5ec54",
        {"tuples_built": 1140, "cap_hits": 900},
    ),
    ("T6", 1): (
        "be09f2da178d5bf781556a0f33d319e0ce06b7d313660876c2109c19392b7436",
        {"tuples_built": 1140, "cap_hits": 900},
    ),
    ("T9", 0): (
        "aa67338883a7d83395199a679fdb345a3ddb397e2eacc7e7353adb8d58d9220c",
        {
            "refine_calls": 60,
            "refine_cache_misses": 60,
            "tuples_built": 1200,
            "values_enumerated": 9000,
            "cap_hits": 900,
        },
    ),
    ("T9", 1): (
        "dc6beea256506df319df50ebfe7f5b35ad8748533fea77e84d2121b4ce1059e7",
        {
            "refine_calls": 60,
            "refine_cache_misses": 60,
            "tuples_built": 1200,
            "values_enumerated": 9000,
            "cap_hits": 900,
        },
    ),
}


@pytest.mark.parametrize("task_id, seed", sorted(PINNED))
def test_initial_join_program_is_pinned(task_id, seed):
    task = build_task(task_id, size=PAGES, seed=seed)
    corpus = Corpus({name: [r.doc for r in records] for name, records in task.records.items()})
    result = IFlexEngine(task.program, corpus, validate=False).execute()
    digest, counters = PINNED[(task_id, seed)]
    assert hashlib.sha256(table_to_json(result.query_table).encode("utf-8")).hexdigest() == digest
    assert vars(result.stats) == {**vars(ExecutionStats()), **counters}
