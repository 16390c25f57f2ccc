"""Document model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.text.document import Document, Label


def make_doc(text="Price: $351,000 here", **kwargs):
    return Document("d", text, **kwargs)


class TestDocumentBasics:
    def test_identity_by_doc_id(self):
        a = Document("same", "text one")
        b = Document("same", "text two")
        assert a == b
        assert hash(a) == hash(b)

    def test_different_ids_differ(self):
        assert Document("a", "t") != Document("b", "t")

    def test_len_is_text_length(self):
        assert len(make_doc("abcd")) == 4

    def test_unknown_region_kind_rejected(self):
        with pytest.raises(ValueError):
            Document("d", "text", regions={"blink": [(0, 2)]})

    def test_regions_sorted(self):
        doc = make_doc(regions={"bold": [(10, 12), (2, 5)]})
        assert doc.regions_of("bold") == [(2, 5), (10, 12)]

    def test_regions_of_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_doc().regions_of("nope")

    def test_tokens_cached(self):
        doc = make_doc()
        assert doc.tokens is doc.tokens


class TestRegionQueries:
    def test_interval_covered_by(self):
        doc = make_doc(regions={"bold": [(7, 15)]})
        assert doc.interval_covered_by("bold", 8, 12)
        assert doc.interval_covered_by("bold", 7, 15)
        assert not doc.interval_covered_by("bold", 6, 12)
        assert not doc.interval_covered_by("bold", 8, 16)

    def test_regions_overlapping(self):
        doc = make_doc(regions={"bold": [(0, 3), (7, 15), (18, 20)]})
        assert doc.regions_overlapping("bold", 2, 8) == [(0, 3), (7, 15)]
        assert doc.regions_overlapping("bold", 3, 7) == []

    def test_tokens_in(self):
        doc = make_doc("one two three")
        tokens = doc.tokens_in(4, 13)
        assert [t.text for t in tokens] == ["two", "three"]

    def test_tokens_in_partial_token_excluded(self):
        doc = make_doc("one two three")
        tokens = doc.tokens_in(4, 6)  # cuts "two" short
        assert tokens == []

    @given(
        st.text(alphabet=st.sampled_from("ab1 .,$\n"), max_size=40),
        st.integers(-5, 45),
        st.integers(-5, 45),
    )
    def test_tokens_in_matches_brute_force(self, text, start, end):
        """Empty, inverted, out-of-range and mid-token bounds included."""
        doc = make_doc(text)
        expected = [t for t in doc.tokens if start <= t.start and t.end <= end]
        assert doc.tokens_in(start, end) == expected


class TestLabels:
    def test_preceding_label(self):
        labels = [Label("Intro", 0, 5), Label("Schools", 20, 27)]
        doc = make_doc("x" * 40, labels=labels)
        assert doc.preceding_label(10).text == "Intro"
        assert doc.preceding_label(30).text == "Schools"
        assert doc.preceding_label(0) is None

    def test_preceding_label_at_boundary(self):
        doc = make_doc("x" * 40, labels=[Label("A", 0, 5)])
        assert doc.preceding_label(5).text == "A"
        assert doc.preceding_label(4) is None
