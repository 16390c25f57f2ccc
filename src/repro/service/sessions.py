"""Refinement sessions over HTTP: queue-backed developer + manager.

A :class:`~repro.assistant.session.RefinementSession` is a synchronous
loop that blocks on ``developer.answer(...)``.  To expose it over HTTP
the service runs each session on a background thread and bridges the
developer protocol through queues: the session thread parks in
:meth:`QueueDeveloper.answer` until a client POSTs an answer (or
cancels), and the pending question is readable from the session's
status at any time.

Sessions run over a *snapshot* of the service corpus taken at creation
(``corpus.without(())`` copies the table lists while sharing the
immutable Document objects), so concurrent ingestion never mutates a
corpus an engine is mid-scan on.  They share the service's result
store — a session's partition spills warm later batch runs and vice
versa — but build their own in-memory eval cache, which a
snapshot cannot stale.
"""

import itertools
import queue
import threading

from repro.analysis.typing import feature_value_error
from repro.assistant.session import RefinementSession
from repro.observability.logs import get_logger
from repro.service.state import ServiceError

__all__ = ["QueueDeveloper", "ServiceSession", "SessionManager"]

logger = get_logger("service")

#: sentinel an HTTP cancel pushes through the answer queue
_CANCEL = object()


class SessionCancelled(Exception):
    """Raised inside the session thread when a client cancels."""


class QueueDeveloper:
    """The developer protocol, bridged through a queue for HTTP clients.

    ``answer`` publishes the pending question and blocks until
    :meth:`push` delivers a value — ``None`` meaning "I don't know",
    which the session treats as a declined question, exactly like an
    empty reply at the interactive prompt.  A value the question's
    feature can never take (pushed before that question was pending,
    so ``/answer`` could not check it) also becomes "I don't know",
    with a diagnostic saying why.
    """

    def __init__(self, answer_timeout=None):
        self.answer_timeout = answer_timeout
        self.questions_seen = 0
        self.questions_answered = 0
        self.diagnostics = []
        self.pending = None
        self._answers = queue.Queue()
        self._lock = threading.Lock()

    def answer(self, question, registry):
        self.questions_seen += 1
        with self._lock:
            self.pending = {
                "predicate": question.ie_predicate,
                "attribute": question.attribute,
                "feature": question.feature_name,
                "text": question.text(registry),
            }
        try:
            value = self._answers.get(timeout=self.answer_timeout)
        except queue.Empty:
            value = None  # unattended timeout counts as "I don't know"
        finally:
            with self._lock:
                self.pending = None
        if value is _CANCEL:
            raise SessionCancelled()
        if value is None:
            return None
        error = feature_value_error(registry.get(question.feature_name), value)
        if error is not None:
            with self._lock:
                self.diagnostics.append(
                    "answer %r to %r ignored (I don't know): %s"
                    % (value, question.text(registry), error)
                )
            return None
        self.questions_answered += 1
        return value

    def notify_diagnostics(self, diagnostics):
        with self._lock:
            self.diagnostics.extend(d.render() for d in diagnostics)

    def push(self, value):
        """Deliver one answer (or ``None`` for IDK) to the session thread."""
        self._answers.put(value)

    def cancel(self):
        self._answers.put(_CANCEL)

    def pending_question(self):
        with self._lock:
            return dict(self.pending) if self.pending else None


class ServiceSession:
    """One refinement session running on a daemon thread."""

    def __init__(self, session_id, program_id, session, developer):
        self.session_id = session_id
        self.program_id = program_id
        self.session = session
        self.developer = developer
        self.state = "running"
        self.error = None
        self.trace = None
        self._thread = threading.Thread(
            target=self._run, name="repro-session-%s" % session_id, daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def _run(self):
        try:
            self.trace = self.session.run()
            self.state = "finished"
        except SessionCancelled:
            self.state = "cancelled"
        except Exception as exc:  # surfaced via status, not lost to the thread
            logger.exception("session %s failed", self.session_id)
            self.error = str(exc)
            self.state = "failed"

    def wait(self, timeout=None):
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def submit_answer(self, value):
        if self.state != "running":
            raise ServiceError(
                "session %s is %s, not awaiting answers"
                % (self.session_id, self.state),
                status=409,
            )
        pending = self.developer.pending_question()
        if value is not None and pending is not None:
            feature = self.session.registry.get(pending["feature"])
            error = feature_value_error(feature, value)
            if error is not None:
                raise ServiceError("field 'answer' does not fit: %s" % error)
        self.developer.push(value)

    def cancel(self):
        if self.state == "running":
            self.developer.cancel()

    def status(self):
        info = {
            "session_id": self.session_id,
            "program_id": self.program_id,
            "state": self.state,
            "questions_seen": self.developer.questions_seen,
            "questions_answered": self.developer.questions_answered,
            "pending_question": self.developer.pending_question(),
            "diagnostics": list(self.developer.diagnostics),
        }
        if self.error is not None:
            info["error"] = self.error
        trace = self.trace
        if trace is not None:
            info["converged"] = trace.converged
            info["iterations"] = len(trace.records)
            info["tuples"] = trace.final_result.tuple_count
            info["maybe"] = trace.final_result.maybe_count
            info["refined_source"] = trace.program.source()
        return info


class SessionManager:
    """Creates, indexes, and cancels the service's refinement sessions."""

    def __init__(self, service):
        self.service = service
        self.sessions = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def create(
        self,
        program_id,
        max_iterations=None,
        questions_per_iteration=None,
        subset_fraction=None,
        answer_timeout=None,
    ):
        service = self.service
        with service.lock:
            host = service.get_program(program_id)
            missing = sorted(
                name
                for name in host.program.extensional
                if name not in service.corpus
            )
            if missing:
                raise ServiceError(
                    "extensional table(s) not ingested: %s" % ", ".join(missing),
                    status=409,
                )
            snapshot = service.corpus.without(())
            developer = QueueDeveloper(answer_timeout=answer_timeout)
            kwargs = {}
            if max_iterations is not None:
                kwargs["max_iterations"] = max_iterations
            if questions_per_iteration is not None:
                kwargs["questions_per_iteration"] = questions_per_iteration
            if subset_fraction is not None:
                kwargs["subset_fraction"] = subset_fraction
            try:
                session = RefinementSession(
                    host.program,
                    snapshot,
                    developer,
                    features=service.features,
                    config=service.config,
                    metrics=service.metrics,
                    **kwargs
                )
            except Exception as exc:
                raise ServiceError(str(exc)) from exc
        with self._lock:
            session_id = "s%d" % next(self._ids)
            wrapped = ServiceSession(session_id, program_id, session, developer)
            self.sessions[session_id] = wrapped
        service._count("sessions_started")
        wrapped.start()
        return wrapped

    def get(self, session_id):
        wrapped = self.sessions.get(session_id)
        if wrapped is None:
            raise ServiceError("no session %r" % (session_id,), status=404)
        return wrapped

    def describe(self):
        with self._lock:
            return [
                self.sessions[sid].status() for sid in sorted(self.sessions)
            ]

    def cancel(self, session_id):
        wrapped = self.get(session_id)
        wrapped.cancel()
        return wrapped

    def __len__(self):
        return len(self.sessions)
