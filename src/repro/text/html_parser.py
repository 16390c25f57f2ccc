"""Conversion of (simple) HTML pages into :class:`Document` objects.

The paper's corpora are crawled Web pages; iFlex's features reason about
presentation.  The flattened text records, as character intervals, where
``<b>``/``<strong>`` (``bold``), ``<i>``/``<em>`` (``italic``), ``<u>``
(``underline``), ``<a>`` (``hyperlink``), ``<title>``/``<h1>`` (``title``)
and ``<li>`` (``list_item``) occurred.  ``<h2>``-``<h5>`` become section
:class:`Label` objects; as in browsers, a heading opened inside one
closes it, so labels never nest and their texts never add up to more
than the document's.  Block tags (``<p>``, ``<br>``, ...) start and end
a line.  One left-to-right regex scan reads the markup in linear time and
never raises.  At each ``<``:

* ``<!--`` opens a comment up to ``-->``.  ``<!``, ``<?`` and ``</``
  without a letter (``<!DOCTYPE html>``, ``</ b>``) run to ``>``.  All of
  these are dropped.
* ``</name ...>`` closes the innermost open tag of that name, if any.
* ``<name ...>`` is a start tag.  A ``>`` inside a quoted value does not
  end it (``<a href='x>y'>``); a quote opens a value only right after
  ``=`` and only if it closes.  ``/>`` also closes the tag (``<br/>``)
  unless the ``/`` ends an unquoted value.  A ``<`` outside quotes cuts
  the tag short: its text up to there is text.
* Names run to whitespace, ``/`` or ``>`` and are lowercased.  Any other
  ``<`` is text (``a<1b``).
* Text goes through :func:`html.unescape`, except the raw content of
  ``<script>`` and ``<style>``, which runs to their end tag.
* A construct still open at the end of the input (``<!--x``, ``a <b``) is
  text from its ``<`` on.  Its search read to the end, so the scan stops
  there instead of retrying at each later ``<``, which is quadratic.

Whitespace runs collapse to one space, and none follows a space or a
newline.  Regions and labels are trimmed of whitespace; empty ones are
dropped.
"""

import re
from html import unescape

from repro.text.document import Document, Label

__all__ = ["parse_html"]

_REGION_TAGS = {
    "b": "bold", "strong": "bold", "i": "italic", "em": "italic", "u": "underline",
    "a": "hyperlink", "title": "title", "h1": "title", "li": "list_item",
}
_LABEL_TAGS = {"h2", "h3", "h4", "h5"}
_BLOCK_TAGS = set(
    "p div br li tr ul ol table title h1 h2 h3 h4 h5 h6 hr body html head".split()
)

#: one alternative per construct, each stopping at the first character it
#: cannot take.  A missing closing group means the input ended inside the
#: construct or, for a start tag, that its attributes ran into a ``<``.
_SCAN = re.compile(
    r"""
    (?P<text>[^<]+)
  | <!--(?P<comment>[\s\S]*?-->)?
  | </(?P<end>[a-zA-Z][^\t\n\r\f />\x00]*)[^>]*(?P<end_gt>>)?
  | <(?P<start>[a-zA-Z][^\t\n\r\f />\x00<]*)
     (?P<attrs>(?:[^<>"'=]+|=\s*"[^"]*"|=\s*'[^']*'|[="'])*)
     (?P<close>>)?
  | <[!?/][^>]*(?P<decl_gt>>)?
  | <
    """,
    re.VERBOSE,
)
#: a ``/`` that ends an unquoted attribute value does not self-close
_UNQUOTED_SLASH = re.compile(r"""=\s*[^\s"'=]*/\Z""")
_RAW_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.IGNORECASE) for tag in ("script", "style")}
_WS_RE = re.compile(r"\s+")


class _Builder:
    """The text so far, and the region and label tags opened and closed in it."""

    __slots__ = ("parts", "length", "last", "open", "closed")

    def __init__(self):
        self.parts, self.length, self.last = [], 0, "\n"
        self.open = {}  # tag -> offsets where its open instances start
        self.closed = []  # (tag, start, end), trimmed in document()

    def append(self, chunk):
        if chunk:
            self.parts.append(chunk)
            self.length += len(chunk)
            self.last = chunk[-1]

    def text(self, data):
        chunk = _WS_RE.sub(" ", data)
        self.append(chunk[1:] if chunk[:1] == " " and self.last in " \n" else chunk)

    def start(self, tag):
        if tag in _LABEL_TAGS:
            for label in _LABEL_TAGS:  # at most one label is open
                for begin in self.open.pop(label, ()):
                    self.closed.append((label, begin, self.length))
        if tag in _BLOCK_TAGS and self.last != "\n":
            self.append("\n")
        if tag in _REGION_TAGS or tag in _LABEL_TAGS:
            self.open.setdefault(tag, []).append(self.length)

    def end(self, tag):
        if self.open.get(tag):
            self.closed.append((tag, self.open[tag].pop(), self.length))
        if tag in _BLOCK_TAGS and self.last != "\n":
            self.append("\n")

    def document(self, doc_id, meta):
        text = "".join(self.parts)
        regions, labels = {}, []
        for tag, start, end in self.closed:
            # text holds no whitespace run longer than " \n": O(1) each
            while start < end and text[end - 1].isspace():
                end -= 1
            while start < end and text[start].isspace():
                start += 1
            if start == end:
                continue
            if tag in _LABEL_TAGS:
                labels.append(Label(text[start:end], start, end))
            else:
                regions.setdefault(_REGION_TAGS[tag], []).append((start, end))
        labels.sort(key=lambda label: label.start)
        return Document(doc_id, text, regions=regions, labels=labels, meta=meta)


def parse_html(doc_id, html, meta=None):
    """Parse an HTML string into a :class:`Document` (rules: module doc)."""
    out, pos = _Builder(), 0
    while pos < len(html):
        for match in _SCAN.finditer(html, pos):
            kind = match.lastgroup
            if kind == "text":
                out.text(unescape(match.group()))
            elif kind == "close":
                tag = match.group("start").lower()
                out.start(tag)
                attrs = match.group("attrs")
                if attrs[-1:] == "/" and not _UNQUOTED_SLASH.search(attrs):
                    out.end(tag)
                elif tag in _RAW_END:
                    # raw text, then the scan resumes after the end tag
                    found = _RAW_END[tag].search(html, match.end())
                    pos = found.end() if found else len(html)
                    out.text(html[match.end() : found.start() if found else pos])
                    break
            elif kind == "end_gt":
                out.end(match.group("end").lower())
            elif kind == "attrs" and html.startswith("<", match.end()):
                out.text(unescape(match.group()))  # a start tag cut short by "<"
            elif kind is None and match.end() - match.start() == 1:
                out.text("<")
            elif kind not in ("comment", "decl_gt"):
                # the input ended inside a construct
                out.text(unescape(html[match.start() :]))
                pos = len(html)
                break
        else:
            break
    return out.document(doc_id, meta)
