"""Syntactic feature tests (numeric, capitalized, patterns, lengths)."""

import pytest

from repro.features.registry import default_registry
from repro.text.document import Document
from repro.text.span import Span, doc_span


@pytest.fixture
def registry():
    return default_registry()


def span_of(text):
    return doc_span(Document("d-%d" % abs(hash(text)) , text))


class TestNumeric:
    def test_verify_yes(self, registry):
        f = registry.get("numeric")
        assert f.verify(span_of("351,000"), "yes")
        assert f.verify(span_of("35.99"), "yes")
        assert not f.verify(span_of("abc"), "yes")

    def test_verify_no(self, registry):
        f = registry.get("numeric")
        assert f.verify(span_of("abc"), "no")
        assert not f.verify(span_of("42"), "no")

    def test_distinct_yes_requires_maximal_number(self, registry):
        f = registry.get("numeric")
        doc = Document("d", "x 12345 y")
        assert f.verify(Span(doc, 2, 7), "distinct_yes")
        assert f.verify(Span(doc, 3, 6), "yes")
        assert not f.verify(Span(doc, 3, 6), "distinct_yes")

    def test_refine_yields_exact_number_tokens(self, registry):
        f = registry.get("numeric")
        span = span_of("Sqft: 2750. Price: $351,000.")
        hints = f.refine(span, "yes")
        assert all(mode == "exact" for mode, _ in hints)
        assert {s.text for _, s in hints} == {"2750", "351,000"}

    def test_refine_no_complements_numbers(self, registry):
        f = registry.get("numeric")
        span = span_of("a 12 b")
        hints = f.refine(span, "no")
        for _, s in hints:
            assert "12" not in s.text


    @pytest.mark.parametrize("text", ["nan", "NaN", "Infinity", "-inf", "1_000"])
    def test_float_only_spellings_are_not_numbers(self, registry, text):
        """Verify and Refine agree: no NUMBER token, so no number."""
        f = registry.get("numeric")
        span = span_of(text)
        assert not f.verify(span, "yes")
        assert f.verify(span, "no")
        # Refine(yes) keeps only NUMBER tokens; none of them spans the text
        assert span.text not in {s.text for _, s in f.refine(span, "yes")}

    @pytest.mark.parametrize("text", ["351,000", "$35.99", "42", "-7"])
    def test_verify_agrees_with_refine_on_numbers(self, registry, text):
        f = registry.get("numeric")
        span = span_of(text)
        assert f.verify(span, "yes")
        assert f.refine(span, "yes")


class TestCapitalized:
    def test_verify(self, registry):
        f = registry.get("capitalized")
        assert f.verify(span_of("Cherry Hills"), "yes")
        assert not f.verify(span_of("Cherry hills"), "yes")
        assert not f.verify(span_of("123"), "yes")  # no word tokens

    def test_refine_returns_runs(self, registry):
        f = registry.get("capitalized")
        hints = f.refine(span_of("visit Cherry Hills soon"), "yes")
        (mode, span), = hints
        assert mode == "contain"
        assert span.text == "Cherry Hills"

    def test_refine_multiple_runs(self, registry):
        f = registry.get("capitalized")
        hints = f.refine(span_of("Alice went to Cherry Hills"), "yes")
        assert [s.text for _, s in hints] == ["Alice", "Cherry Hills"]


class TestPattern:
    def test_fullmatch_semantics(self, registry):
        f = registry.get("pattern")
        assert f.verify(span_of("1999"), r"19\d\d")
        assert not f.verify(span_of("in 1999"), r"19\d\d")

    def test_refine_exact_matches(self, registry):
        f = registry.get("pattern")
        hints = f.refine(span_of("from 1975 to 2005"), r"19\d\d|20\d\d")
        assert {s.text for _, s in hints} == {"1975", "2005"}
        assert all(mode == "exact" for mode, _ in hints)


class TestStartsEndsWith:
    def test_starts_with(self, registry):
        f = registry.get("starts_with")
        assert f.verify(span_of("SIGMOD 2008"), r"[A-Z][A-Z]+")
        assert not f.verify(span_of("the SIGMOD"), r"[A-Z][A-Z]+")

    def test_ends_with(self, registry):
        f = registry.get("ends_with")
        assert f.verify(span_of("SIGMOD 2008"), r"20\d\d")
        assert not f.verify(span_of("2008 SIGMOD"), r"20\d\d")

    def test_starts_with_refine_is_superset(self, registry):
        f = registry.get("starts_with")
        span = span_of("the PODS 2003 page")
        hints = f.refine(span, r"[A-Z][A-Z]+")
        assert hints
        for _, s in hints:
            assert f.verify(s, r"[A-Z][A-Z]+")


class TestLengths:
    def test_max_length_verify(self, registry):
        f = registry.get("max_length")
        assert f.verify(span_of("short"), 5)
        assert not f.verify(span_of("longer"), 5)

    def test_max_length_refine_windows(self, registry):
        f = registry.get("max_length")
        span = span_of("aaa bbb ccc ddd")
        hints = f.refine(span, 7)
        for mode, s in hints:
            assert mode == "contain"
            assert len(s) <= 7

    def test_max_length_infer(self, registry):
        f = registry.get("max_length")
        assert f.infer_parameter([span_of("abc"), span_of("abcdef")]) == 6

    def test_min_length(self, registry):
        f = registry.get("min_length")
        assert f.verify(span_of("abcdef"), 3)
        assert not f.verify(span_of("ab"), 3)
        assert f.infer_parameter([span_of("abc"), span_of("ab")]) == 2


class TestPersonName:
    def test_matches_two_part_names(self, registry):
        f = registry.get("person_name")
        assert f.verify(span_of("Alice Chen"), "yes")
        assert f.verify(span_of("Robert F. Xu"), "yes")
        assert not f.verify(span_of("alice chen"), "yes")

    def test_does_not_match_across_newlines(self, registry):
        f = registry.get("person_name")
        doc = Document("d", "Rachel Moreau\nKaren Ullman")
        hints = f.refine(doc_span(doc), "yes")
        assert {s.text for _, s in hints} == {"Rachel Moreau", "Karen Ullman"}

    def test_refine_exact(self, registry):
        f = registry.get("person_name")
        hints = f.refine(span_of("meet Alice Chen today"), "yes")
        (mode, span), = hints
        assert mode == "exact" and span.text == "Alice Chen"
