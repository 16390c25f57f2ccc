"""Pluggable schedulers for the physical execution layer.

The plan-analysis layer (:mod:`repro.processor.split`) decides *what*
can run per corpus partition; a :class:`Scheduler` decides *how* those
per-partition tasks run:

``SerialBackend``
    in-process, one task at a time — the reference behaviour;
``ProcessBackend``
    a ``fork``-based process pool.  Programs carry arbitrary Python
    callables (p-functions are often closures), which do not pickle —
    the task payload is therefore published in a module-level registry
    *before* forking so children inherit it, and only ``(token, index)``
    pairs cross the pipe going in.  Results (compact tables, stats)
    come back pickled.

All backends preserve task order: ``map(fn, items)[i] == fn(items[i])``,
which is what makes partitioned execution byte-identical to serial.

Failure transport
-----------------
A raising task never surfaces as a bare, context-free exception from
the pool.  Every backend wraps task execution: the failure reaches the
caller as a :class:`TaskError` carrying the task index and an enriched,
picklable :class:`~repro.errors.ExecutionFailure` (the transport for
the best-effort error policy's ``FailureRecord``).  ``timeout`` bounds
how long one task's result may take; exceeding it raises a
:class:`TaskError` wrapping a :class:`~repro.errors.PartitionTimeout`.

Reentrancy
----------
The fork payload registry is keyed by a per-``map`` token, so nested or
concurrent ``map`` calls (a session simulating candidates while a
partitioned run is in flight; a task that itself maps) never clobber
each other's payloads — each call publishes under its own token and
removes exactly that token when done.
"""

import io
import itertools
import multiprocessing
import pickle
import threading
import time

from repro.errors import ExecutionFailure, PartitionTimeout
from repro.observability.logs import get_logger

__all__ = [
    "Scheduler",
    "SerialBackend",
    "ProcessBackend",
    "TaskError",
    "make_scheduler",
    "BACKENDS",
]

logger = get_logger("processor")

#: upper bound on the wait between timeout-deadline checks; detection
#: of a hung task happens within about one such interval of the deadline
_POLL_INTERVAL = 0.05


def _poll_interval(timeout):
    """Bounded wait between deadline checks (~timeout/10, capped)."""
    return max(min(_POLL_INTERVAL, timeout / 10.0), 0.001)


class TaskError(ExecutionFailure):
    """A task of a scheduler ``map`` failed.

    ``task_index`` is the position of the failing item; ``failure`` is
    the enriched :class:`ExecutionFailure` describing what happened in
    the worker (for in-process backends it chains the original
    exception via ``__cause__``; across a process boundary only the
    picklable summary survives).
    """

    def __init__(self, message, task_index=None, failure=None, **context):
        super().__init__(message, **context)
        self.task_index = task_index
        self.failure = failure

    def __reduce__(self):  # pragma: no cover - TaskError stays in-process
        return (_rebuild_task_error, (self.args[0], self.task_index, self.failure))


def _rebuild_task_error(message, task_index, failure):  # pragma: no cover
    return TaskError(message, task_index=task_index, failure=failure)


def _task_error(index, total, exc):
    """Wrap a worker exception with its task position."""
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
    returns.  Detection is still not enforcement: the stuck thread
    cannot be killed and leaks as a daemon — the process backend is the
    one that terminates hung work.  A task that *completes* past the
    deadline between two polls still raises (after-the-fact detection,
    the historical serial behaviour).
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


def _serial_map(fn, items, timeout=None):
    """In-process, order-preserving map with guarded tasks.

    Without a ``timeout`` every task runs inline.  With one, each task
    runs under :func:`_watched_call`, so even a hung task surfaces as a
    :class:`TaskError` within about one polling interval of the
    deadline (previously the timeout was checked only after the task
    returned, so a hang was never detected at all).
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


class Scheduler:
    """Protocol: ``map`` a function over items, order-preserving.

    ``shared`` is an optional sequence of objects both sides of a
    process boundary already hold (fork-inherited corpus documents);
    backends that ship results between address spaces send them by
    reference instead of by value.  In-process backends ignore it.
    ``timeout`` bounds one task's result in seconds (see the module
    docstring for per-backend enforcement strength).

    After every :meth:`map`, ``last_map_payload_bytes`` holds the bytes
    that actually crossed an address-space boundary for that call
    (inbound task references plus outbound pickled results); in-process
    backends report 0.  ``payload_bytes`` accumulates across calls.
    The physical layer folds these into the
    ``repro.sched.payload_bytes`` metric.
    """

    name = "abstract"
    workers = 1
    last_map_payload_bytes = 0
    payload_bytes = 0

    def map(self, fn, items, shared=(), timeout=None):
        raise NotImplementedError


class SerialBackend(Scheduler):
    """Run every task inline, in order."""

    name = "serial"

    def __init__(self, workers=1):
        # a serial scheduler may still drive >1 logical partition (so
        # partitioned semantics can be tested without concurrency)
        self.workers = max(1, int(workers))

    def map(self, fn, items, shared=(), timeout=None):
        self.last_map_payload_bytes = 0
        return _serial_map(fn, list(items), timeout)


#: Fork payload registry: ``map``-call token -> :class:`_ForkPayload`.
#: Children inherit the whole registry at fork time; each ``map`` call
#: publishes under a fresh token and deletes exactly that token when it
#: finishes, so nested or concurrent calls never clobber one another
#: (the regression this replaces: single module-level slots that a
#: second in-flight ``map`` silently overwrote).
_FORK_PAYLOADS = {}
_FORK_TOKENS = itertools.count(1)


class _ForkPayload:
    """One ``map`` call's task closure plus its shared-object table.

    ``shared`` holds objects registered *before* forking, and
    ``shared_index`` maps ``id(obj) -> position`` over them.  Fork gives
    parent and children the same objects at the same positions, so a
    ``(token, position)`` pair is a stable cross-process reference for
    exactly as long as the payload is published — the span of one
    ``map``.
    """

    __slots__ = ("fn", "items", "shared", "shared_index")

    def __init__(self, fn, items, shared):
        self.fn = fn
        self.items = items
        self.shared = list(shared)
        self.shared_index = {id(obj): i for i, obj in enumerate(self.shared)}


def _resolve_shared(token, index):
    """Unpickling hook: registry position -> live object."""
    return _FORK_PAYLOADS[token].shared[index]


def _shared_dumps(value, token):
    payload = _FORK_PAYLOADS[token]

    def reduce_shared(obj):
        index = payload.shared_index.get(id(obj))
        if index is not None and payload.shared[index] is obj:
            return (_resolve_shared, (token, index))
        return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    # dispatch_table is keyed by class, so the per-object hook only
    # fires for shared-object classes (documents); everything else
    # pickles on the C fast path, unlike a persistent_id callback
    pickler.dispatch_table = {type(obj): reduce_shared for obj in payload.shared}
    pickler.dump(value)
    return buffer.getvalue()


def _shared_loads(blob):
    # tokens resolve through the module-level ``_resolve_shared``, so
    # the stock (C) unpickler does all the work
    return pickle.loads(blob)


def _invoke_fork_payload(task):
    """Child-side task runner: ``(ok, blob)`` or ``(err, failure)``.

    Both the task body *and* the result pickling are guarded: a result
    that cannot pickle (or a half-pickled blob abandoned mid-``dump``)
    must surface as a contextful failure in the parent, never as a
    bare pipe error — and must leave no stale module state behind.
    """
    token, index = task
    payload = _FORK_PAYLOADS[token]
    try:
        result = payload.fn(payload.items[index])
    except Exception as exc:
        return ("err", ExecutionFailure.wrap(exc))
    try:
        return ("ok", _shared_dumps(result, token))
    except Exception as exc:
        return ("err", ExecutionFailure.wrap(exc, operator="result-pickling"))


class ProcessBackend(Scheduler):
    """A ``fork``-based process pool (CPython GIL-free parallelism).

    Falls back to serial execution on platforms without the ``fork``
    start method (the scheduler protocol promises results, not a
    mechanism).  A fresh pool is forked per :meth:`map` call so the
    children always see the current payload; fork is cheap relative to
    the extraction work a partition represents.  On timeout the pool is
    terminated, killing the hung worker — the only backend that can
    enforce, not just detect.

    Payload accounting: ``last_map_payload_bytes`` after a pooled
    :meth:`map` is the pickled size of the inbound ``(token, index)``
    task references plus every outbound result blob — the bytes that
    actually crossed the pipe, excluding only fixed protocol framing.
    """

    name = "process"

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = None

    def map(self, fn, items, shared=(), timeout=None):
        items = list(items)
        self.last_map_payload_bytes = 0
        if self.workers == 1 or len(items) <= 1 or self._context is None:
            if self._context is None:  # pragma: no cover
                logger.warning("fork unavailable; process backend running serially")
            return _serial_map(fn, items, timeout)
        token = next(_FORK_TOKENS)
        _FORK_PAYLOADS[token] = _ForkPayload(fn, items, shared)
        shipped = 0
        try:
            with self._context.Pool(min(self.workers, len(items))) as pool:
                handles = []
                for i in range(len(items)):
                    task = (token, i)
                    shipped += len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
                    handles.append(
                        pool.apply_async(_invoke_fork_payload, (task,))
                    )
                outcomes = []
                for index, handle in enumerate(handles):
                    try:
                        outcomes.append(handle.get(timeout))
                    except multiprocessing.TimeoutError:
                        # leaving the ``with`` terminates the pool, so
                        # the hung child is killed, not leaked
                        raise _timeout_error(index, len(items), timeout)
                results = []
                for index, (status, value) in enumerate(outcomes):
                    if status == "err":
                        error = TaskError(
                            "task %d (of %d) failed: %s" % (index, len(items), value),
                            task_index=index,
                            failure=value,
                        )
                        raise error
                    shipped += len(value)
                    results.append(_shared_loads(value))
                return results
        finally:
            del _FORK_PAYLOADS[token]
            self.last_map_payload_bytes = shipped
            self.payload_bytes += shipped


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_scheduler(backend="serial", workers=1):
    """Build a scheduler from an :class:`ExecConfig`-style spec.

    ``backend`` may also be a ready :class:`Scheduler` instance, which
    is returned unchanged (tests inject counting schedulers this way).
    """
    if isinstance(backend, Scheduler):
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            "unknown backend %r (choose from %s)"
            % (backend, ", ".join(sorted(BACKENDS)))
        )
    return cls(workers)
