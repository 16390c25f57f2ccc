"""The error-policy driver around whole-execution attempts."""

import time

from repro.errors import ExecutionFailure, ExecutionReport
from repro.observability.logs import get_logger
from repro.processor.context import ERROR_POLICIES

logger = get_logger("processor")


class _PolicyDriver:
    """Applies ``ExecConfig.on_error`` around whole-execution attempts.

    Best-effort fault tolerance works by *quarantine and re-run*: when
    an attempt dies on a document-attributable
    :class:`~repro.errors.ExecutionFailure`, the offending document is
    excluded from the engine's active corpus and the execution restarts.
    The surviving result is therefore literally a clean run over the
    corpus minus the quarantined documents — the byte-identical
    invariant holds by construction, on every partition layout, for
    global plans and joins included.  Cost is bounded by k+1 attempts
    for k poisoned documents, and the engine-level Verify/Refine caches
    stay warm across attempts, so re-runs mostly replay memoized work.

    ``retry`` re-runs the *same* corpus first: each failure site (doc,
    operator, feature/predicate, exception class) gets up to
    ``max_retries`` attempts with capped exponential backoff before the
    document is quarantined as under ``skip``.  Failures with no
    document attribution always surface, whatever the policy.
    """

    def __init__(self, engine):
        config = engine.config
        policy = getattr(config, "on_error", "fail-fast")
        if policy not in ERROR_POLICIES:
            raise ValueError(
                "unknown error policy %r (choose from %s)"
                % (policy, ", ".join(ERROR_POLICIES))
            )
        self.engine = engine
        self.policy = policy
        self.max_retries = max(0, int(getattr(config, "max_retries", 2)))
        self.backoff = getattr(config, "retry_backoff", 0.05)
        self.report = ExecutionReport(policy=policy)
        self._attempts = {}  # failure site_key -> retries consumed

    def run(self, attempt):
        while True:
            try:
                return attempt()
            except ExecutionFailure as failure:
                self._handle(failure)

    def finish(self, result):
        """Stamp the report onto a completed result."""
        result.report = self.report
        result.stats.failures += len(self.report.records)
        result.stats.retries += self.report.retries
        return result

    def _handle(self, failure):
        if self.policy == "fail-fast":
            raise failure
        if failure.doc_id is None:
            # not attributable to one document: quarantining cannot help
            raise failure
        retries_used = 0
        if self.policy == "retry":
            key = failure.site_key()
            retries_used = self._attempts.get(key, 0)
            if retries_used < self.max_retries:
                self._attempts[key] = retries_used + 1
                self.report.retries += 1
                if self.backoff:
                    time.sleep(min(self.backoff * (2 ** retries_used), 2.0))
                logger.debug(
                    "retrying after failure at %r (attempt %d/%d)",
                    key,
                    retries_used + 1,
                    self.max_retries,
                )
                return
        self.engine._exclude_document(failure.doc_id)
        self.report.records.append(failure.to_record(retry_count=retries_used))
        logger.warning("quarantined document %r: %s", failure.doc_id, failure)
