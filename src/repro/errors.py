"""Exception hierarchy and structured failure channel for the iFlex
reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything coming out of the library with a single handler
while still distinguishing parse errors from semantic ones.

Best-effort execution additionally needs failures as *data*, not just
control flow: a malformed document or a raising p-predicate must be
reportable (which document, which operator, how many retries) without
aborting the run.  :class:`ExecutionFailure` is the enriched exception
the error policy acts on, :class:`FailureRecord` is its per-incident
report row, and :class:`ExecutionReport` accumulates
the rows for one execution (see ``docs/robustness.md``).
"""

import traceback
from dataclasses import dataclass, field


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """Raised when an Xlog/Alog program fails to parse.

    ``line`` and ``column`` (both 1-based, or ``None`` when unknown) are
    kept as attributes even though the rendered message interpolates
    them, so tooling can point at the offending source.  A missing
    column is omitted from the message rather than rendered as 0.
    """

    def __init__(self, message, line=None, column=None):
        self.raw_message = message
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        elif line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)

    @property
    def span(self):
        """``(line, column)`` of the offending token; items may be None."""
        return (self.line, self.column)


class SafetyError(ReproError):
    """Raised when a rule is unsafe (section 2.2.2 of the paper)."""


class UnknownPredicateError(ReproError):
    """Raised when a rule references a predicate with no definition."""


class UnknownFeatureError(ReproError):
    """Raised when a domain constraint names an unregistered feature."""


class ProgramLintError(ReproError):
    """Raised by pre-execution validation when static analysis finds

    error-severity diagnostics beyond the classic safety / unknown-name
    cases.  ``diagnostics`` holds the full :class:`repro.analysis.Diagnostic`
    list so callers can render every problem, not just the first.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class EvaluationError(ReproError):
    """Raised when a program cannot be evaluated (bad input bindings,

    non-stratifiable dependencies, unbound input variables, ...).
    """


class EnumerationLimitError(ReproError):
    """Raised when an operator is asked to enumerate more possible

    values than its cap allows *and* no conservative fallback exists.
    """


# ----------------------------------------------------------------------
# structured failure channel (best-effort fault tolerance)
# ----------------------------------------------------------------------

def summarize_traceback(exc, limit=3):
    """The innermost ``limit`` frames of an exception as one line.

    Kept as a plain string so it outlives the traceback and fits in a
    failure report or a log line.
    """
    tb = getattr(exc, "__traceback__", None)
    if tb is None:
        return ""
    frames = traceback.extract_tb(tb)[-limit:]
    return " <- ".join(
        "%s:%d in %s" % (frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name)
        for frame in reversed(frames)
    )


class ExecutionFailure(ReproError):
    """An execution error enriched with best-effort context.

    Carries everything the error policy needs to decide (which document
    to quarantine, which retry counter to bump) and everything the
    failure report needs to explain the incident: document id, corpus
    partition, operator phase, feature / p-predicate name, the original
    exception class, and a one-line traceback summary.

    Every context field is a string, int, or ``None``; the original
    exception is chained via ``__cause__``.
    """

    def __init__(
        self,
        message,
        doc_id=None,
        partition=None,
        operator=None,
        feature=None,
        predicate=None,
        exc_type=None,
        traceback_summary=None,
    ):
        super().__init__(message)
        self.doc_id = doc_id
        self.partition = partition
        self.operator = operator
        self.feature = feature
        self.predicate = predicate
        self.exc_type = exc_type
        self.traceback_summary = traceback_summary

    @classmethod
    def wrap(cls, exc, **context):
        """Enrich ``exc`` into an :class:`ExecutionFailure`.

        An already-enriched failure is returned as-is, with any missing
        context fields filled in (never overwritten — the innermost
        attribution wins).
        """
        if isinstance(exc, ExecutionFailure):
            for name, value in context.items():
                if getattr(exc, name, None) is None and value is not None:
                    setattr(exc, name, value)
            return exc
        failure = cls(
            _failure_message(exc, context),
            exc_type=type(exc).__name__,
            traceback_summary=summarize_traceback(exc),
            **context,
        )
        failure.__cause__ = exc
        return failure

    def site_key(self):
        """Identity of the failure site, for per-site retry counting."""
        return (self.doc_id, self.operator, self.feature, self.predicate, self.exc_type)

    def to_record(self, retry_count=0):
        return FailureRecord(
            doc_id=self.doc_id,
            partition=self.partition,
            operator=self.operator,
            feature=self.feature,
            predicate=self.predicate,
            exc_type=self.exc_type or type(self).__name__,
            message=self.args[0] if self.args else "",
            traceback_summary=self.traceback_summary or "",
            retry_count=retry_count,
        )


def _failure_message(exc, context):
    parts = []
    if context.get("doc_id") is not None:
        parts.append("document %r" % (context["doc_id"],))
    if context.get("partition") is not None:
        parts.append("partition %d" % (context["partition"],))
    where = " (".join(parts) + ")" if len(parts) == 2 else "".join(parts)
    phase = context.get("operator") or "execution"
    subject = context.get("feature") or context.get("predicate")
    head = "%s%s failed" % (phase, " %r" % (subject,) if subject else "")
    origin = "%s: %s" % (type(exc).__name__, exc)
    return ": ".join(p for p in (where, head, origin) if p)


@dataclass
class FailureRecord:
    """One contained failure, as reported by :class:`ExecutionReport`."""

    doc_id: object
    partition: object
    operator: object
    feature: object
    predicate: object
    exc_type: str
    message: str
    traceback_summary: str = ""
    retry_count: int = 0

    def describe(self):
        where = "doc %r" % (self.doc_id,)
        if self.partition is not None:
            where += " partition %s" % (self.partition,)
        subject = self.feature or self.predicate
        phase = "%s%s" % (self.operator or "execution", " %r" % subject if subject else "")
        tail = " after %d retries" % self.retry_count if self.retry_count else ""
        return "%s: %s raised %s: %s%s" % (where, phase, self.exc_type, self.message, tail)


@dataclass
class ExecutionReport:
    """What went wrong (and was contained) during one execution.

    ``records`` lists the documents that were skipped — exactly one
    :class:`FailureRecord` per quarantined document; ``retries`` counts
    retry attempts that the ``retry`` policy consumed, including the
    ones that eventually recovered (a recovered transient fault leaves
    retries > 0 with no record).
    """

    policy: str = "fail-fast"
    records: list = field(default_factory=list)
    retries: int = 0

    def __bool__(self):
        return bool(self.records) or self.retries > 0

    @property
    def skipped_doc_ids(self):
        return [record.doc_id for record in self.records]

    def summary_line(self):
        return "error policy %r: %d document(s) skipped, %d retr%s" % (
            self.policy,
            len(self.records),
            self.retries,
            "y" if self.retries == 1 else "ies",
        )

    def render(self):
        lines = [self.summary_line()]
        lines.extend("  " + record.describe() for record in self.records)
        return "\n".join(lines)
