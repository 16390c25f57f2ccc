"""The reference HTML flattener the scanner is tested against.

``oracle_parse`` drives the standard library's :mod:`html.parser` with
the flattening rules of :mod:`repro.text.html_parser`: the same region,
label and block tags, the same per-run whitespace collapse and the same
region trimming.  It is the differential tests' oracle only: the stdlib
parser is quadratic on some inputs and its output on malformed markup
changed between CPython patch releases, so it is compared only on
inputs whose parse every supported version agrees on.
"""

import re
from html.parser import HTMLParser

from repro.text.document import Document, Label
from repro.text.html_parser import _BLOCK_TAGS, _LABEL_TAGS, _REGION_TAGS

_WS_RE = re.compile(r"\s+")


class _OracleBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._parts = []
        self._length = 0
        self._open = []  # stack of (tag, kind_or_None, start_offset)
        self._regions = {}
        self._labels = []

    def _last_char(self):
        for part in reversed(self._parts):
            if part:
                return part[-1]
        return "\n"

    def _append(self, text):
        if text:
            self._parts.append(text)
            self._length += len(text)

    def _ensure_newline(self):
        if self._last_char() != "\n":
            self._append("\n")

    def handle_data(self, data):
        chunk = _WS_RE.sub(" ", data)
        if chunk == " ":
            if self._last_char() not in " \n":
                self._append(" ")
            return
        if chunk.startswith(" ") and self._last_char() in " \n":
            chunk = chunk.lstrip(" ")
        self._append(chunk)

    def handle_starttag(self, tag, attrs):
        if tag in _BLOCK_TAGS:
            self._ensure_newline()
        kind = _REGION_TAGS.get(tag)
        if kind is not None or tag in _LABEL_TAGS:
            self._open.append((tag, kind, self._length))

    def handle_endtag(self, tag):
        for index in range(len(self._open) - 1, -1, -1):
            open_tag, kind, start = self._open[index]
            if open_tag != tag:
                continue
            del self._open[index]
            text = "".join(self._parts)[start : self._length]
            stripped = text.rstrip()
            end = start + len(stripped)
            start += len(stripped) - len(stripped.lstrip())
            if end > start:
                if kind is not None:
                    self._regions.setdefault(kind, []).append((start, end))
                if tag in _LABEL_TAGS:
                    self._labels.append(Label(stripped.strip(), start, end))
            break
        if tag in _BLOCK_TAGS:
            self._ensure_newline()


def oracle_parse(doc_id, html):
    """The :class:`Document` the stdlib-based flattener builds."""
    builder = _OracleBuilder()
    builder.feed(html)
    builder.close()
    labels = sorted(builder._labels, key=lambda label: label.start)
    return Document(doc_id, "".join(builder._parts), regions=builder._regions, labels=labels)


def document_image(doc):
    """What a parse is compared on: text, non-empty regions, labels."""
    regions = {kind: intervals for kind, intervals in doc.regions.items() if intervals}
    return doc.text, regions, [(l.text, l.start, l.end) for l in doc.labels]
