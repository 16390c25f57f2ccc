"""Partition timeouts: detection by the task runner's watchdog, and the
rule that a timeout is never skippable (the hung work is not
attributable to one document).
"""

import time

import pytest

from repro.errors import PartitionTimeout
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.schedulers import TaskError, run_tasks
from tests.faults.harness import build_corpus, build_program, faulting_registry


class TestSchedulerTimeouts:
    def test_serial_detects_after_the_fact(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(lambda s: time.sleep(s), [0.15], timeout=0.05)
        assert isinstance(excinfo.value.failure, PartitionTimeout)
        assert excinfo.value.task_index == 0

    @pytest.mark.timeout(60)
    def test_serial_detects_hung_task_promptly(self):
        # regression: a task that never returns used to hang the run
        # forever (timeout was checked only after the task completed);
        # the watchdog now raises within ~1 poll interval
        start = time.perf_counter()
        with pytest.raises(TaskError) as excinfo:
            run_tasks(lambda s: time.sleep(s), [10.0], timeout=0.2)
        assert time.perf_counter() - start < 2.0
        assert isinstance(excinfo.value.failure, PartitionTimeout)
        assert excinfo.value.task_index == 0

    def test_no_timeout_means_no_limit(self):
        assert run_tasks(lambda s: time.sleep(s), [0.01]) == [None]


class TestEngineTimeouts:
    @pytest.mark.timeout(120)
    def test_hung_partition_fails_even_under_skip(self):
        # a stalling (not raising) feature on one document; the
        # watchdog detects the hung partition at the deadline (the
        # stalled thread is abandoned, not killed), and no policy may
        # contain the resulting PartitionTimeout
        registry = faulting_registry(("d4",), sleep=30.0)
        config = ExecConfig(workers=3, on_error="skip", partition_timeout=0.5)
        engine = IFlexEngine(
            build_program(), build_corpus(6), registry, config, validate=False
        )
        start = time.perf_counter()
        with pytest.raises(PartitionTimeout) as excinfo:
            engine.execute()
        assert time.perf_counter() - start < 20.0
        assert excinfo.value.partition is not None

    def test_generous_timeout_is_harmless(self):
        config = ExecConfig(workers=2, partition_timeout=60.0)
        engine = IFlexEngine(
            build_program(), build_corpus(4), None, config, validate=False
        )
        result = engine.execute()
        assert result.tuple_count > 0
        assert not result.report
