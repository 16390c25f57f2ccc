"""WSGI middleware for the resident service: logging and rate limiting.

Both are plain WSGI wrappers so they compose with any app and test
without sockets.  The token bucket takes an injectable clock so tests
control time instead of sleeping.
"""

import json
import threading
import time

from repro.observability.logs import get_logger

__all__ = ["RateLimitMiddleware", "RequestLogMiddleware", "TokenBucket"]

logger = get_logger("service")


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``capacity`` burst.

    ``clock`` is any monotonic ``() -> float``; tests pass a fake to
    step time deterministically.
    """

    def __init__(self, rate, capacity=None, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive, got %r" % (rate,))
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else max(1.0, rate)
        if self.capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % (capacity,))
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, amount=1.0):
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.capacity, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount=1.0):
        """Seconds until ``amount`` tokens will have refilled (>= 0)."""
        with self._lock:
            deficit = amount - self._tokens
            return max(0.0, deficit / self.rate)


class RateLimitMiddleware:
    """Reject requests beyond the bucket with 429 + ``Retry-After``.

    Operational endpoints in ``exempt`` (health probes, metrics
    scrapes) always pass — throttling them would blind the operator
    exactly when the service is saturated.
    """

    def __init__(self, app, bucket, exempt=("/health", "/metrics")):
        self.app = app
        self.bucket = bucket
        self.exempt = frozenset(exempt)

    def __call__(self, environ, start_response):
        path = environ.get("PATH_INFO", "/")
        if path in self.exempt or self.bucket.try_acquire():
            return self.app(environ, start_response)
        retry = self.bucket.retry_after()
        body = json.dumps({"error": "rate limit exceeded"}).encode("utf-8")
        start_response(
            "429 Too Many Requests",
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
                ("Retry-After", "%d" % max(1, int(retry + 0.999))),
            ],
        )
        return [body]


class RequestLogMiddleware:
    """Log each request and fold it into the service metrics.

    Placed *outside* the rate limiter so throttled requests are still
    logged and counted (status label ``429``).  A response body that is
    not a ready list (an NDJSON result stream, encoded lazily while the
    server sends it) is recorded when the server closes it (PEP 3333),
    so the logged latency covers encoding and sending.
    """

    def __init__(self, app, metrics=None):
        self.app = app
        self.metrics = metrics

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "-")
        path = environ.get("PATH_INFO", "/")
        started = time.monotonic()
        captured = {}

        def capture(status, headers, exc_info=None):
            captured["status"] = status
            return start_response(status, headers, exc_info)

        try:
            response = self.app(environ, capture)
        except Exception:
            self._record(method, path, "500", started)
            logger.exception("%s %s failed", method, path)
            raise
        if not isinstance(response, list):
            return _ClosingBody(
                response,
                lambda: self._record(method, path, captured.get("status", "-"), started),
            )
        self._record(method, path, captured.get("status", "-"), started)
        return response

    def _record(self, method, path, status, started):
        elapsed_ms = (time.monotonic() - started) * 1000.0
        code = status.split(" ", 1)[0] if status else "-"
        logger.info("%s %s -> %s (%.1fms)", method, path, code, elapsed_ms)
        if self.metrics is not None:
            self.metrics.counter(
                "repro.service.requests",
                help="HTTP requests handled, by method and status",
            ).inc(method=method, status=code)
            if code == "429":
                self.metrics.counter(
                    "repro.service.rate_limited",
                    help="requests rejected by the token bucket",
                ).inc()


class _ClosingBody:
    """A response iterable that runs ``on_close`` when the server closes it."""

    def __init__(self, body, on_close):
        self._body = body
        self._on_close = on_close

    def __iter__(self):
        return iter(self._body)

    def close(self):
        try:
            close = getattr(self._body, "close", None)
            if close is not None:
                close()
        finally:
            self._on_close()
