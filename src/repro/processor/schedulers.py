"""The task runner for the physical execution layer.

The plan-analysis layer (:mod:`repro.processor.split`) decides *what*
can run per corpus partition; :func:`run_tasks` runs those
per-partition tasks in process, one at a time, in order:
``run_tasks(fn, items)[i] == fn(items[i])``, which is what makes
partitioned execution byte-identical to unpartitioned execution.
Partitions exist for reuse (re-execute only the partitions whose
documents changed), not for parallel speed.

Failure transport
-----------------
A raising task never surfaces as a bare, context-free exception.  The
failure reaches the caller as a :class:`TaskError` carrying the task
index and an enriched :class:`~repro.errors.ExecutionFailure` (the
transport for the best-effort error policy's ``FailureRecord``), with
the original exception chained via ``__cause__``.  ``timeout`` bounds
how long one task may run; exceeding it raises a :class:`TaskError`
wrapping a :class:`~repro.errors.PartitionTimeout`.  Detection is not
enforcement: the hung task's thread cannot be killed.
"""

import threading
import time

from repro.errors import ExecutionFailure, PartitionTimeout
from repro.observability.logs import get_logger

__all__ = ["TaskError", "run_tasks"]

logger = get_logger("processor")

#: upper bound on the wait between timeout-deadline checks; detection
#: of a hung task happens within about one such interval of the deadline
_POLL_INTERVAL = 0.05


def _poll_interval(timeout):
    """Bounded wait between deadline checks (~timeout/10, capped)."""
    return max(min(_POLL_INTERVAL, timeout / 10.0), 0.001)


class TaskError(ExecutionFailure):
    """A task of :func:`run_tasks` failed.

    ``task_index`` is the position of the failing item; ``failure`` is
    the enriched :class:`ExecutionFailure` describing what happened (it
    chains the original exception via ``__cause__``).
    """

    def __init__(self, message, task_index=None, failure=None, **context):
        super().__init__(message, **context)
        self.task_index = task_index
        self.failure = failure


def _task_error(index, total, exc):
    """Wrap a task's exception with its task position."""
    failure = ExecutionFailure.wrap(exc)
    error = TaskError(
        "task %d (of %d) failed: %s" % (index, total, failure),
        task_index=index,
        failure=failure,
    )
    error.__cause__ = exc if exc is not failure else failure.__cause__
    return error


def _timeout_error(index, total, timeout):
    failure = PartitionTimeout(
        "task %d (of %d) exceeded the partition timeout of %.3gs"
        % (index, total, timeout),
        operator="partition",
        exc_type="PartitionTimeout",
    )
    return TaskError(str(failure), task_index=index, failure=failure)


def _watched_call(fn, item, index, total, timeout):
    """Run one task on a watchdog thread, polling the deadline.

    The caller learns about a hung task within about one polling
    interval of ``timeout`` instead of blocking until (unless) the task
    returns.  Detection is not enforcement: the stuck thread cannot be
    killed and leaks as a daemon.  A task that *completes* past the
    deadline between two polls still raises (after-the-fact detection).
    """
    outcome = {}

    def runner():
        try:
            outcome["result"] = fn(item)
        except BaseException as exc:  # transported to the calling thread
            outcome["error"] = exc

    thread = threading.Thread(
        target=runner, name="repro-task-watchdog-%d" % index, daemon=True
    )
    deadline = time.perf_counter() + timeout
    poll = _poll_interval(timeout)
    thread.start()
    while True:
        thread.join(poll)
        if not thread.is_alive():
            break
        if time.perf_counter() > deadline:
            logger.warning(
                "task %d hung past the %.3gs partition timeout; "
                "abandoning its watchdog thread",
                index,
                timeout,
            )
            raise _timeout_error(index, total, timeout)
    if "error" in outcome:
        exc = outcome["error"]
        raise _task_error(index, total, exc) from exc
    if time.perf_counter() > deadline:
        raise _timeout_error(index, total, timeout)
    return outcome["result"]


def run_tasks(fn, items, timeout=None):
    """In-process, order-preserving map with guarded tasks.

    Without a ``timeout`` every task runs inline.  With one, each task
    runs under :func:`_watched_call`, so even a hung task surfaces as a
    :class:`TaskError` within about one polling interval of the
    deadline.
    """
    items = list(items)
    out = []
    for index, item in enumerate(items):
        if timeout is None:
            try:
                out.append(fn(item))
            except Exception as exc:
                raise _task_error(index, len(items), exc) from exc
        else:
            out.append(_watched_call(fn, item, index, len(items), timeout))
    return out
