"""Runner scoring and scenario-grid tests."""

from repro.assistant.strategies import SequentialStrategy
from repro.ctables.assignments import Exact
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.experiments.runner import extracted_keys, run_iflex, superset_pct
from repro.experiments.scenarios import (
    SCENARIO_SIZES,
    TABLE4_SCENARIOS,
    TABLE5_SCENARIOS,
    scenario_sizes,
)
from repro.experiments.tasks import TASK_IDS, build_task


class TestScoring:
    def test_superset_pct(self):
        assert superset_pct(52, 52) == 100.0
        assert superset_pct(104, 52) == 200.0
        assert superset_pct(0, 0) == 100.0
        assert superset_pct(5, 0) == float("inf")

    def test_extracted_keys_exact(self):
        table = CompactTable(
            ["title"], [CompactTuple([Cell((Exact("A"),))]), CompactTuple([Cell((Exact("B"),))])]
        )
        assert extracted_keys(table, "title") == {"A", "B"}

    def test_extracted_keys_ambiguous(self):
        table = CompactTable(
            ["title"], [CompactTuple([Cell((Exact("A"), Exact("B")))])]
        )
        assert extracted_keys(table, "title") is None


class TestRunIFlex:
    def test_run_produces_scored_outcome(self):
        task = build_task("T7", size=30, seed=2)
        run = run_iflex(task, strategy=SequentialStrategy(), seed=2)
        assert run.task_id == "T7"
        assert run.correct_count == len(task.correct_rows)
        assert run.minutes > 0
        assert run.superset_pct >= 100.0 or run.final_count <= run.correct_count

    def test_cleanup_minutes_included(self):
        task = build_task("T3", size=15, seed=2)
        with_cleanup = run_iflex(task, strategy=SequentialStrategy(), seed=2)
        without = run_iflex(
            task, strategy=SequentialStrategy(), seed=2, include_cleanup=False
        )
        assert with_cleanup.minutes > without.minutes


class TestScenarios:
    def test_grid_covers_all_tasks(self):
        assert set(SCENARIO_SIZES) == set(TASK_IDS)
        assert set(TABLE4_SCENARIOS) == set(TASK_IDS)
        assert set(TABLE5_SCENARIOS) == set(TASK_IDS)

    def test_scenario_sizes_full_scale(self):
        sizes = scenario_sizes("T1", scale=1.0)
        assert sizes == [10, 100, 250]

    def test_scenario_sizes_scaled(self):
        sizes = scenario_sizes("T7", scale=0.1)
        assert sizes == [10, 50, 500]

    def test_natural_full_at_scale_one(self):
        sizes = scenario_sizes("T9", scale=1.0)
        assert sizes[2] is None  # natural asymmetric full size

    def test_minimum_size_floor(self):
        sizes = scenario_sizes("T1", scale=0.01)
        assert min(sizes) >= 10
