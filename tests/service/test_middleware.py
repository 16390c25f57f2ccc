"""Token bucket and middleware tests (fake clock, fake environ)."""

import io
import logging

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.service import (
    RateLimitMiddleware,
    RequestLogMiddleware,
    TokenBucket,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def ok_app(environ, start_response):
    start_response("200 OK", [("Content-Type", "application/json")])
    return [b"{}"]


def call(app, path="/x", method="GET"):
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
    }
    captured = {}

    def start_response(status, headers, exc_info=None):
        captured["status"] = status
        captured["headers"] = dict(headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body


class TestTokenBucket:
    def test_burst_then_exhausted(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1, capacity=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2, capacity=2, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2/s * 0.5s = 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_capacity_caps_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100, capacity=2, clock=clock)
        clock.advance(60)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2, capacity=1, clock=clock)
        bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, capacity=0)


class TestRateLimit:
    def test_throttles_past_burst(self):
        clock = FakeClock()
        app = RateLimitMiddleware(
            ok_app, TokenBucket(rate=1, capacity=2, clock=clock)
        )
        assert call(app)[0].startswith("200")
        assert call(app)[0].startswith("200")
        status, headers, body = call(app)
        assert status.startswith("429")
        assert int(headers["Retry-After"]) >= 1
        assert b"rate limit" in body

    def test_recovers_after_refill(self):
        clock = FakeClock()
        app = RateLimitMiddleware(
            ok_app, TokenBucket(rate=1, capacity=1, clock=clock)
        )
        call(app)
        assert call(app)[0].startswith("429")
        clock.advance(1.0)
        assert call(app)[0].startswith("200")

    def test_health_and_metrics_exempt(self):
        clock = FakeClock()
        app = RateLimitMiddleware(
            ok_app, TokenBucket(rate=1, capacity=1, clock=clock)
        )
        call(app)  # drain the bucket
        for _ in range(5):
            assert call(app, path="/health")[0].startswith("200")
            assert call(app, path="/metrics")[0].startswith("200")
        assert call(app, path="/programs")[0].startswith("429")


class TestRequestLog:
    def test_counts_by_method_and_status(self):
        metrics = MetricsRegistry()
        app = RequestLogMiddleware(ok_app, metrics=metrics)
        call(app)
        call(app)
        call(app, method="POST")
        counter = metrics.counter("repro.service.requests")
        assert counter.value(method="GET", status="200") == 2
        assert counter.value(method="POST", status="200") == 1

    def test_counts_throttled_requests(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        app = RequestLogMiddleware(
            RateLimitMiddleware(
                ok_app, TokenBucket(rate=1, capacity=1, clock=clock)
            ),
            metrics=metrics,
        )
        call(app)
        call(app)
        assert (
            metrics.counter("repro.service.requests").value(
                method="GET", status="429"
            )
            == 1
        )
        assert metrics.counter("repro.service.rate_limited").value() == 1

    def test_streamed_body_recorded_once_closed(self, caplog):
        """A lazy body is logged and counted after it was sent, not when
        the app returned it (the server closes it then, PEP 3333)."""
        metrics = MetricsRegistry()
        sent = []

        def streaming_app(environ, start_response):
            start_response("200 OK", [("Content-Type", "application/x-ndjson")])

            def body():
                for chunk in (b"a\n", b"b\n"):
                    sent.append(chunk)
                    yield chunk

            return body()

        app = RequestLogMiddleware(streaming_app, metrics=metrics)
        counter = metrics.counter("repro.service.requests")
        environ = {"REQUEST_METHOD": "POST", "PATH_INFO": "/programs/p/run"}
        with caplog.at_level(logging.INFO, logger="repro.service"):
            body = app(environ, lambda status, headers, exc_info=None: None)
            assert not sent
            assert b"".join(body) == b"a\nb\n"
            assert counter.value(method="POST", status="200") == 0
            assert not caplog.records
            body.close()
        assert counter.value(method="POST", status="200") == 1
        [record] = caplog.records
        assert record.getMessage().startswith("POST /programs/p/run -> 200 (")

    def test_exceptions_counted_and_reraised(self):
        metrics = MetricsRegistry()

        def boom(environ, start_response):
            raise RuntimeError("kaput")

        app = RequestLogMiddleware(boom, metrics=metrics)
        with pytest.raises(RuntimeError):
            call(app)
        assert (
            metrics.counter("repro.service.requests").value(
                method="GET", status="500"
            )
            == 1
        )
