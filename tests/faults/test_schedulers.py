"""Scheduler bug-cluster regressions: fork-payload reentrancy,
contextful worker exception propagation, and module-state hygiene when
pickling itself fails mid-map.
"""

import threading

import pytest

from repro.errors import ExecutionFailure
from repro.processor.schedulers import (
    _FORK_PAYLOADS,
    ProcessBackend,
    SerialBackend,
    TaskError,
    make_scheduler,
)
from repro.text.html_parser import parse_html

BACKENDS = (SerialBackend(), ProcessBackend(3))


def boom(item):
    if item == 2:
        raise ValueError("task payload %r is bad" % (item,))
    return item * 10


class TestExceptionPropagation:
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_task_error_carries_index_and_context(self, backend):
        with pytest.raises(TaskError) as excinfo:
            backend.map(boom, [0, 1, 2, 3])
        error = excinfo.value
        assert error.task_index == 2
        assert isinstance(error.failure, ExecutionFailure)
        assert error.failure.exc_type == "ValueError"
        assert "task payload 2 is bad" in str(error.failure)
        # the traceback summary survives even across a process boundary
        assert "boom" in error.failure.traceback_summary

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_in_process_backends_chain_the_original(self, backend):
        if backend.name == "process":
            pytest.skip("the original exception cannot cross the fork result pipe")
        with pytest.raises(TaskError) as excinfo:
            backend.map(boom, [2])
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.timeout(60)
    def test_enriched_failures_cross_the_pipe_intact(self):
        def fail(item):
            raise ExecutionFailure(
                "doc boom", doc_id="d9", operator="Verify", feature="numeric"
            )

        with pytest.raises(TaskError) as excinfo:
            ProcessBackend(2).map(fail, [0, 1])
        failure = excinfo.value.failure
        assert (failure.doc_id, failure.operator, failure.feature) == (
            "d9",
            "Verify",
            "numeric",
        )


class TestForkPayloadHygiene:
    @pytest.mark.timeout(60)
    def test_registry_empty_after_success_and_failure(self):
        backend = ProcessBackend(2)
        assert backend.map(lambda i: i + 1, [1, 2]) == [2, 3]
        assert _FORK_PAYLOADS == {}
        with pytest.raises(TaskError):
            backend.map(boom, [2, 3])
        assert _FORK_PAYLOADS == {}

    @pytest.mark.timeout(60)
    def test_unpicklable_result_is_a_contextful_error(self):
        # the child's pickler raises mid-dump; the regression was stale
        # module globals and a bare pipe error — now it must surface as
        # a TaskError naming the task, and leave the registry clean
        with pytest.raises(TaskError) as excinfo:
            ProcessBackend(2).map(lambda i: (lambda: i), [0, 1])
        assert excinfo.value.task_index == 0
        assert excinfo.value.failure.operator == "result-pickling"
        assert _FORK_PAYLOADS == {}

    @pytest.mark.timeout(60)
    def test_shared_objects_return_by_reference(self):
        doc = parse_html("shared0", "<p>shared document</p>")
        out = ProcessBackend(2).map(lambda i: (i, doc), [0, 1], shared=[doc])
        # same object, not an equal copy: results were shipped as
        # (token, index) references resolved against the parent's table
        assert out[0][1] is doc and out[1][1] is doc


class TestReentrancy:
    @pytest.mark.timeout(120)
    def test_concurrent_maps_from_two_threads(self):
        # the original bug: module-level payload slots clobbered by a
        # second in-flight map (a session simulating candidates while a
        # partitioned run executes); with the token registry each call
        # resolves its own payload
        backend = ProcessBackend(2)
        results = {}

        def runner(key, base):
            results[key] = backend.map(
                lambda i: i + base, list(range(10))
            )

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
        assert _FORK_PAYLOADS == {}

    @pytest.mark.timeout(120)
    def test_nested_map_inside_serial_map(self):
        serial = SerialBackend(2)
        process = ProcessBackend(2)
        out = serial.map(
            lambda base: process.map(lambda i: i * base, [1, 2, 3]), [10, 100]
        )
        assert out == [[10, 20, 30], [100, 200, 300]]
        assert _FORK_PAYLOADS == {}


class TestMakeScheduler:
    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert make_scheduler(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_scheduler("quantum")

    def test_thread_backend_is_gone(self):
        with pytest.raises(ValueError, match="choose from process, serial"):
            make_scheduler("thread", 2)
