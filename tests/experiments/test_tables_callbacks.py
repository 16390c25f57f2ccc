"""Table-harness plumbing: progress callbacks and extras contracts."""

from repro.experiments.tables import table3, table4, table5


class TestProgressCallbacks:
    def test_table3_progress_called_per_scenario(self):
        seen = []
        table3(seed=0, scale=0.04, progress=seen.append)
        assert len(seen) == 27
        assert all(message.startswith("table3 ") for message in seen)

    def test_table4_progress(self):
        seen = []
        table4(seed=0, scale=0.04, progress=seen.append)
        assert len(seen) == 9

    def test_table5_progress(self):
        seen = []
        table5(seed=0, scale=0.04, progress=seen.append)
        assert len(seen) == 18
        assert any("Seq" in message for message in seen)
        assert any("Sim" in message for message in seen)


class TestExtrasContracts:
    def test_table3_runs_pair_tasks_and_runs(self):
        _, _, extras = table3(seed=0, scale=0.04)
        for task, run in extras["runs"]:
            assert task.task_id == run.task_id
            assert run.minutes > 0
        assert extras["scale"] == 0.04

    def test_table5_runs_labelled(self):
        _, _, extras = table5(seed=0, scale=0.04)
        labels = {label for _, label, _ in extras["runs"]}
        assert labels == {"Seq", "Sim"}
