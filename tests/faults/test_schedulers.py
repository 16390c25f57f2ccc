"""Task-runner regressions: contextful exception propagation, nested and
concurrent runs, and failures that keep their context when copied.
"""

import copy
import pickle
import threading

import pytest

from repro.errors import ExecutionFailure, PartitionTimeout
from repro.processor.schedulers import TaskError, run_tasks


def boom(item):
    if item == 2:
        raise ValueError("task payload %r is bad" % (item,))
    return item * 10


class TestExceptionPropagation:
    def test_task_error_carries_index_and_context(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(boom, [0, 1, 2, 3])
        error = excinfo.value
        assert error.task_index == 2
        assert isinstance(error.failure, ExecutionFailure)
        assert error.failure.exc_type == "ValueError"
        assert "task payload 2 is bad" in str(error.failure)
        assert "boom" in error.failure.traceback_summary

    def test_chains_the_original(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(boom, [2])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_watched_task_error_chains_the_original(self):
        # with a timeout the task runs on a watchdog thread; its
        # failure still comes back wrapped, index and cause intact
        with pytest.raises(TaskError) as excinfo:
            run_tasks(boom, [0, 2], timeout=30.0)
        assert excinfo.value.task_index == 1
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_enriched_failures_keep_their_context(self):
        def fail(item):
            raise ExecutionFailure(
                "doc boom", doc_id="d9", operator="Verify", feature="numeric"
            )

        with pytest.raises(TaskError) as excinfo:
            run_tasks(fail, [0, 1])
        failure = excinfo.value.failure
        assert (failure.doc_id, failure.operator, failure.feature) == (
            "d9",
            "Verify",
            "numeric",
        )


class TestFailureCopies:
    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["deepcopy", "pickle"],
    )
    def test_every_context_field_round_trips(self, duplicate):
        fields = dict(
            doc_id="d3",
            partition=2,
            operator="Verify",
            feature="numeric",
            predicate="p",
            exc_type="ValueError",
            traceback_summary="x.py:1 in f",
        )
        for failure in (
            ExecutionFailure("boom", **fields),
            PartitionTimeout("hung", **fields),
        ):
            clone = duplicate(failure)
            assert type(clone) is type(failure)
            assert clone.args == failure.args
            assert vars(clone) == vars(failure)


class TestReentrancy:
    def test_concurrent_maps_from_two_threads(self):
        # the runner keeps no module state: two threads running tasks at
        # once each get their own results back
        results = {}

        def runner(key, base):
            results[key] = run_tasks(lambda i: i + base, list(range(10)))

        threads = [
            threading.Thread(target=runner, args=("a", 100)),
            threading.Thread(target=runner, args=("b", 200)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["a"] == [100 + i for i in range(10)]
        assert results["b"] == [200 + i for i in range(10)]

    def test_nested_map_inside_serial_map(self):
        out = run_tasks(
            lambda base: run_tasks(lambda i: i * base, [1, 2, 3]), [10, 100]
        )
        assert out == [[10, 20, 30], [100, 200, 300]]
