"""Value-bound feature tests (min_value / max_value)."""

import pytest

from repro.features.registry import default_registry
from repro.text.document import Document
from repro.text.span import doc_span


@pytest.fixture
def registry():
    return default_registry()


def span_of(text):
    return doc_span(Document("d-%d" % abs(hash(text)), text))


class TestMaxValue:
    def test_verify(self, registry):
        f = registry.get("max_value")
        assert f.verify(span_of("25000"), 25000)
        assert not f.verify(span_of("25001"), 25000)
        assert not f.verify(span_of("abc"), 25000)

    def test_refine_exact_numbers(self, registry):
        f = registry.get("max_value")
        hints = f.refine(span_of("rank 3 votes 351,000 year 2005"), 3000)
        assert {s.text for _, s in hints} == {"3", "2005"}

    def test_infer_rounds_up_nicely(self, registry):
        f = registry.get("max_value")
        value = f.infer_parameter([span_of("387"), span_of("123")])
        assert value >= 387
        assert value <= 400

    def test_infer_none_if_non_numeric(self, registry):
        f = registry.get("max_value")
        assert f.infer_parameter([span_of("abc")]) is None

    def test_candidates_from_profile(self, registry):
        f = registry.get("max_value")
        spans = [span_of(str(n)) for n in (10, 20, 500, 900)]
        candidates = f.candidate_values(spans)
        assert candidates
        assert all(isinstance(c, int) for c in candidates)


class TestMinValue:
    def test_verify(self, registry):
        f = registry.get("min_value")
        assert f.verify(span_of("1950"), 1900)
        assert not f.verify(span_of("1850"), 1900)

    def test_infer_rounds_down(self, registry):
        f = registry.get("min_value")
        value = f.infer_parameter([span_of("1952"), span_of("1967")])
        assert value <= 1952

    def test_refine(self, registry):
        f = registry.get("min_value")
        hints = f.refine(span_of("5 and 500 and 5000"), 400)
        assert {s.text for _, s in hints} == {"500", "5000"}
