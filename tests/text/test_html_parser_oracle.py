"""Differential tests: the scanner against the ``html.parser`` oracle.

The generated markup is well-formed and avoids every construct whose
``html.parser`` parse changed between CPython 3.9 and 3.13 (stray
``<``, unterminated constructs, ``--`` inside comments, self-closing
non-void elements, markup inside ``<title>``, which newer patch
releases read as text), so the oracle's answer is the same on each.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.tasks import TASK_IDS, build_task
from repro.text.html_parser import parse_html
from tests.text.html_oracle import document_image, oracle_parse

_TAGS = [
    "b", "i", "u", "a", "p", "li", "ul", "h1", "h2", "h3", "h5",
    "div", "em", "strong", "table", "tr", "body",
    # names the flattener does not know
    "span", "td", "section", "x-card", "nav1",
]
_VOID_TAGS = ["br", "hr", "img"]
_ENTITIES = [
    "&amp;", "&lt;", "&gt;", "&quot;", "&copy;", "&nbsp;", "&eacute;",
    "&#65;", "&#8212;", "&#x42;", "&#X3a9;",
    # invalid code points: html.unescape makes them ""
    "&#1;", "&#x0b;", "&#127;",
]
_WHITESPACE = [" ", "  ", "\n", "\t", " \n\t ", "\r\n"]
#: text never holds "<" or "&" (entities are drawn on their own)
_TEXT = "abcXYZ019 .,:;$-!?=/'\">"


def _cased(draw, name):
    mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(name))
    return draw(st.sampled_from([name, name.upper(), name.capitalize(), mixed]))


@st.composite
def _attributes(draw):
    out = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["href", "class", "data-x", "ID", "hidden"]))
        form = draw(st.integers(0, 3))
        if form == 0:
            out.append(" " + name)
            continue
        quote = "'" if form == 1 else '"'
        other = '"' if quote == "'" else "'"
        value = draw(st.text(alphabet="ab >=/" + other, max_size=6))
        equals = draw(st.sampled_from(["=", " = "]))
        out.append(" %s%s%s%s%s" % (name, equals, quote, value, quote))
    return "".join(out)


def _text(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return draw(st.text(alphabet=_TEXT, min_size=1, max_size=8))
    if choice == 1:
        return draw(st.sampled_from(_ENTITIES))
    return draw(st.sampled_from(_WHITESPACE))


@st.composite
def _leaf(draw):
    choice = draw(st.integers(0, 5))
    if choice <= 2:
        return _text(draw)
    if choice == 3:
        tag = _cased(draw, draw(st.sampled_from(_VOID_TAGS)))
        close = draw(st.sampled_from([">", "/>", " />"]))
        return "<%s%s%s" % (tag, draw(_attributes()), close)
    if choice == 4:
        body = draw(st.text(alphabet="ab <>/=", max_size=8))
        return "<!-- %s -->" % body
    tag = draw(st.sampled_from(["script", "style", "title"]))
    if tag == "title":
        body = "".join(_text(draw) for _ in range(draw(st.integers(0, 3))))
    else:
        body = "".join(draw(st.lists(st.sampled_from(["a", " ", ">", "=", "{}", "&amp;"]))))
    return "<%s>%s</%s>" % (_cased(draw, tag), body, _cased(draw, tag))


@st.composite
def _element(draw, children):
    name = draw(st.sampled_from(_TAGS))
    inner = "".join(draw(st.lists(children, max_size=4)))
    end = draw(st.sampled_from([">", " >"]))
    return "<%s%s>%s</%s%s" % (
        _cased(draw, name), draw(_attributes()), inner, _cased(draw, name), end
    )


_CONTENT = st.recursive(_leaf(), lambda children: _element(children), max_leaves=16)


@st.composite
def well_formed_pages(draw):
    doctype = draw(st.sampled_from(["", "<!DOCTYPE html>", "<!doctype html>\n"]))
    return doctype + "".join(draw(st.lists(_CONTENT, max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(well_formed_pages())
def test_scanner_matches_the_oracle_on_well_formed_markup(html):
    assert document_image(parse_html("d", html)) == document_image(oracle_parse("d", html))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_scanner_matches_the_oracle_on_every_task_page(task_id, seed):
    task = build_task(task_id, size=150, seed=seed)
    pages = [record for records in task.records.values() for record in records]
    assert pages
    for record in pages:
        doc_id = record.doc.doc_id
        assert document_image(parse_html(doc_id, record.html)) == document_image(
            oracle_parse(doc_id, record.html)
        ), doc_id
