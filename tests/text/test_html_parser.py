"""HTML → Document conversion tests."""

import time

import pytest

from repro.text.html_parser import parse_html


class TestTextFlattening:
    def test_plain_paragraphs(self):
        doc = parse_html("d", "<p>one</p><p>two</p>")
        assert doc.text == "one\ntwo\n"

    def test_whitespace_collapsed(self):
        doc = parse_html("d", "<p>a   b\n\n  c</p>")
        assert doc.text == "a b c\n"

    def test_entities_decoded(self):
        doc = parse_html("d", "<p>a &amp; b &lt;ok&gt;</p>")
        assert "a & b <ok>" in doc.text

    def test_br_breaks_line(self):
        doc = parse_html("d", "<p>a<br>b</p>")
        assert doc.text == "a\nb\n"


class TestRegions:
    def test_bold_region_offsets(self):
        doc = parse_html("d", "<p>Price: <b>$351,000</b> now</p>")
        (start, end), = doc.regions_of("bold")
        assert doc.text[start:end] == "$351,000"

    def test_strong_and_em_aliases(self):
        doc = parse_html("d", "<p><strong>B</strong> and <em>I</em></p>")
        assert len(doc.regions_of("bold")) == 1
        assert len(doc.regions_of("italic")) == 1

    def test_hyperlink_region(self):
        doc = parse_html("d", "<p><a href='#'>Basktall HS</a></p>")
        (start, end), = doc.regions_of("hyperlink")
        assert doc.text[start:end] == "Basktall HS"

    def test_title_regions(self):
        doc = parse_html("d", "<html><title>Top Movies</title><body><p>x</p></body></html>")
        (start, end), = doc.regions_of("title")
        assert doc.text[start:end] == "Top Movies"

    def test_list_items(self):
        doc = parse_html("d", "<ul><li>one item</li><li>two item</li></ul>")
        regions = doc.regions_of("list_item")
        assert len(regions) == 2
        assert doc.text[regions[0][0] : regions[0][1]] == "one item"

    def test_region_trimmed_of_whitespace(self):
        doc = parse_html("d", "<p><b>  padded  </b></p>")
        (start, end), = doc.regions_of("bold")
        assert doc.text[start:end] == "padded"

    def test_nested_formatting(self):
        doc = parse_html("d", "<p><a href='#'><b>Linked Bold</b></a></p>")
        (bs, be), = doc.regions_of("bold")
        (hs, he), = doc.regions_of("hyperlink")
        assert doc.text[bs:be] == "Linked Bold"
        assert doc.text[hs:he] == "Linked Bold"

    def test_stray_end_tag_tolerated(self):
        doc = parse_html("d", "<p>hello</b> world</p>")
        assert "hello" in doc.text


class TestLabels:
    def test_h2_becomes_label(self):
        doc = parse_html("d", "<h2>Schools</h2><p>after</p>")
        assert len(doc.labels) == 1
        assert doc.labels[0].text == "Schools"
        assert doc.text[doc.labels[0].start : doc.labels[0].end] == "Schools"

    def test_labels_in_document_order(self):
        doc = parse_html("d", "<h2>A</h2><p>x</p><h3>B</h3><p>y</p>")
        assert [l.text for l in doc.labels] == ["A", "B"]

    def test_preceding_label_resolution(self):
        doc = parse_html("d", "<h2>Panels</h2><ul><li>Jane Doe</li></ul>")
        offset = doc.text.index("Jane")
        assert doc.preceding_label(offset).text == "Panels"


class TestScannerRules:
    """The scanner's rules (module docstring) on edge cases, several of
    which CPython patch releases of ``html.parser`` disagree on."""

    @pytest.mark.parametrize(
        "html,text",
        [
            # unterminated at end of input: kept as characters
            ("<!--x", "<!--x"),
            ("a <b", "a <b"),
            # a "<" that starts no construct is text
            ("a<1b", "a<1b"),
            # "</" without a letter is a bogus end tag: dropped, closes nothing
            ("</ b>", ""),
            ("<b>x</ b>", "x"),
            # script content is raw text, not markup and not unescaped
            ("<script>a<b>c</b></script>x", "a<b>c</b>x"),
            ("<style>p &amp; q</STYLE >r", "p &amp; qr"),
            # references to invalid code points unescape to nothing
            ("&#1;", ""),
            ("<p>&#1;</p>", ""),
            ("<b>&#1;</b>x", "x"),
            ("<h2>&#x0b;&#127;</h2>", ""),
        ],
    )
    def test_text_and_no_regions(self, html, text):
        doc = parse_html("d", html)
        assert doc.text == text
        assert not any(doc.regions.values())
        assert doc.labels == []

    def test_quoted_gt_does_not_end_the_tag(self):
        doc = parse_html("d", "<a href='x>y'>l</a>")
        assert doc.text == "l"
        assert doc.regions_of("hyperlink") == [(0, 1)]

    def test_tag_names_are_lowercased(self):
        doc = parse_html("d", "<P>a <B>b</b> <Strong>c</STRONG></p>")
        assert doc.text == "a b c\n"
        assert doc.regions_of("bold") == [(2, 3), (4, 5)]

    def test_self_closing_tags(self):
        doc = parse_html("d", "<p>a<br/>b<b />c</b><a href=x/>d</a></p>")
        assert doc.text == "a\nbcd\n"
        assert doc.regions_of("bold") == []
        assert doc.regions_of("hyperlink") == [(4, 5)]

    def test_comments_declarations_and_pis_are_dropped(self):
        html = "<!DOCTYPE html><?xml v?><p>a<!-- <b>x</b> -->b</p><!x>"
        doc = parse_html("d", html)
        assert doc.text == "ab\n"
        assert doc.regions_of("bold") == []

    def test_unclosed_quote_is_an_ordinary_character(self):
        doc = parse_html("d", "<p class='x>hello</p><b>bold</b>")
        assert doc.text == "hello\nbold"
        assert doc.regions_of("bold") == [(6, 10)]

    def test_start_tag_cut_short_by_lt_is_text(self):
        doc = parse_html("d", "<a b <b>x</b>")
        assert doc.text == "<a b x"
        assert doc.regions_of("bold") == [(5, 6)]
        assert doc.regions_of("hyperlink") == []


class TestWorstCase:
    """Adversarial markup parses in linear time and keeps its characters.

    ``html.parser`` needs minutes for the first of these (its start-tag
    search restarts at every ``<``)."""

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "html", ["<a " * 40000, "<a b='" * 20000, "<!--" * 20000], ids=["lt-a", "quote", "comment"]
    )
    def test_parses_fast_and_keeps_the_input(self, html):
        started = time.perf_counter()
        doc = parse_html("d", html)
        assert time.perf_counter() - started < 10
        assert doc.text == html
