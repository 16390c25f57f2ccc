"""Exporting compact tables and execution results.

Downstream users of a best-effort IE system need the approximate
results *out* of the engine: as plain Python structures, JSON, or CSV.
Exports preserve the approximation structure — each cell reports its
assignments (kind + text + offsets), expansion flags, and maybe flags —
or can flatten to "best guess" rows (one value per cell) for quick
spreadsheeting.

JSON *text* never goes through the dict export: :class:`JSONTextEncoder`
writes it directly, encoding each distinct cell object once per call.
A superset's tuples share cells heavily (a join's first iteration is a
near cross-product of a small set of cells), so the text costs one
string concatenation per tuple instead of three dicts and their
``json.dumps``.  The text is byte-identical to ``json.dumps`` of the
dict export with ``ensure_ascii=False``.
"""

import csv
import io
import json
from json.encoder import encode_basestring

from repro.ctables.assignments import Contain, Exact, value_text
from repro.text.span import Span

__all__ = [
    "assignment_to_dict",
    "cell_to_dict",
    "table_to_dicts",
    "table_to_json",
    "table_to_csv",
    "result_to_dict",
    "JSONTextEncoder",
]


def _span_to_dict(span):
    return {
        "doc": span.doc.doc_id,
        "start": span.start,
        "end": span.end,
        "text": span.text,
    }


def assignment_to_dict(assignment):
    """One assignment as a plain dict."""
    if isinstance(assignment, Exact):
        value = assignment.value
        if isinstance(value, Span):
            return {"kind": "exact", "span": _span_to_dict(value)}
        return {"kind": "exact", "value": value}
    if isinstance(assignment, Contain):
        return {"kind": "contain", "span": _span_to_dict(assignment.span)}
    raise TypeError("not an assignment: %r" % (assignment,))


def cell_to_dict(cell):
    return {
        "expansion": cell.is_expansion,
        "assignments": [assignment_to_dict(a) for a in cell.assignments],
    }


def table_to_dicts(table):
    """The full structure-preserving export."""
    return {
        "attrs": list(table.attrs),
        "tuples": [
            {
                "maybe": t.maybe,
                "cells": {
                    attr: cell_to_dict(cell)
                    for attr, cell in zip(table.attrs, t.cells)
                },
            }
            for t in table
        ],
    }


def _newline(unit, level):
    """What ``json.dumps`` writes before a line at ``level``.

    ``unit`` is one level of indentation, ``None`` for no indent (and
    no newlines).
    """
    return "" if unit is None else "\n" + unit * level


def _separator(unit, level):
    """What ``json.dumps`` writes between two items at ``level``."""
    return ", " if unit is None else "," + _newline(unit, level)


def _container(unit, brackets, items, level):
    """An object or array closing at ``level``, items at ``level + 1``."""
    if not items:
        return brackets
    return (
        brackets[0]
        + _newline(unit, level + 1)
        + _separator(unit, level + 1).join(items)
        + _newline(unit, level)
        + brackets[1]
    )


class JSONTextEncoder:
    """JSON text of one table's ``cells`` objects, each distinct cell once.

    ``cells(row)`` returns exactly what ``json.dumps`` writes (with
    ``indent`` and ``ensure_ascii=False``) for the row's
    ``{attr: cell_to_dict(cell)}`` mapping when that mapping sits at
    nesting ``level`` of a larger document.  Repeated attribute names
    collapse as the dict does: the first name's position, the last
    cell's value.  Cell fragments are memoized by ``id(cell)``; the
    memo lives as long as the encoder, and the table keeps every cell
    alive for that time, so no id can be reused.
    """

    def __init__(self, table, indent=None, level=0):
        self.indent = indent
        self.unit = None
        if indent is not None:
            self.unit = indent if isinstance(indent, str) else " " * indent
        last = {}
        for index, attr in enumerate(table.attrs):
            last[attr] = index
        self._members = [
            # json.dumps's own rendering of a key (str, int, float, ...)
            (json.dumps({attr: 0}, ensure_ascii=False)[1:-4] + ": ", index)
            for attr, index in last.items()
        ]
        self._open = "{" + _newline(self.unit, level + 1)
        self._separator = _separator(self.unit, level + 1)
        self._close = _newline(self.unit, level) + "}"
        # %-templates of the fixed shapes inside a cell, which closes at
        # level + 1; the indent unit is literal text, so its % is escaped
        cell = level + 1
        escaped = None if self.unit is None else self.unit.replace("%", "%%")

        def template(level, *members):
            return _container(escaped, "{}", members, level)

        self._cell = template(cell, '"expansion": %s', '"assignments": %s')
        self._list = (
            "[" + _newline(self.unit, cell + 2),
            _separator(self.unit, cell + 2),
            _newline(self.unit, cell + 1) + "]",
        )
        self._exact_value = template(cell + 2, '"kind": "exact"', '"value": %s')
        self._exact_span = template(cell + 2, '"kind": "exact"', '"span": %s')
        self._contain = template(cell + 2, '"kind": "contain"', '"span": %s')
        self._span = template(
            cell + 3, '"doc": %s', '"start": %s', '"end": %s', '"text": %s'
        )
        self._value_level = cell + 3  # an exact value; a span's are one deeper
        self._memo = {}

    def value(self, value, level):
        """``json.dumps(value)``, re-indented to close at ``level``."""
        if type(value) is str:
            return encode_basestring(value)
        if type(value) is int:
            return int.__repr__(value)
        text = json.dumps(value, indent=self.indent, ensure_ascii=False)
        if self.unit is None:
            return text
        return text.replace("\n", _newline(self.unit, level))

    def cells(self, row):
        """The row's ``cells`` object as JSON text."""
        memo = self._memo
        text = ""
        for key, index in self._members:
            cell = row.cells[index]
            fragment = memo.get(id(cell))
            if fragment is None:
                fragment = memo[id(cell)] = self._encode_cell(cell)
            text += (self._separator if text else self._open) + key + fragment
        return text + self._close if text else "{}"

    def _encode_cell(self, cell):
        if cell.assignments:
            opening, separator, closing = self._list
            assignments = (
                opening
                + separator.join(map(self._encode_assignment, cell.assignments))
                + closing
            )
        else:
            assignments = "[]"
        return self._cell % ("true" if cell.is_expansion else "false", assignments)

    def _encode_assignment(self, assignment):
        if isinstance(assignment, Exact):
            value = assignment.value
            if isinstance(value, Span):
                return self._exact_span % self._encode_span(value)
            return self._exact_value % self.value(value, self._value_level)
        if isinstance(assignment, Contain):
            return self._contain % self._encode_span(assignment.span)
        raise TypeError("not an assignment: %r" % (assignment,))

    def _encode_span(self, span):
        level = self._value_level + 1
        return self._span % (
            self.value(span.doc.doc_id, level),
            self.value(span.start, level),
            self.value(span.end, level),
            encode_basestring(span.text),
        )


def table_to_json(table, indent=None):
    """``json.dumps(table_to_dicts(table), indent=indent, ensure_ascii=False)``

    written straight to text by one :class:`JSONTextEncoder`.
    """
    encoder = JSONTextEncoder(table, indent=indent, level=3)
    unit = encoder.unit
    opening = "{" + _newline(unit, 3) + '"maybe": '
    middle = _separator(unit, 3) + '"cells": '
    closing = _newline(unit, 2) + "}"
    tuples = [
        opening
        + ("true" if row.maybe else "false")
        + middle
        + encoder.cells(row)
        + closing
        for row in table
    ]
    return _container(
        unit,
        "{}",
        [
            '"attrs": ' + encoder.value(list(table.attrs), 1),
            '"tuples": ' + _container(unit, "[]", tuples, 1),
        ],
        0,
    )


def _best_guess(cell):
    """A single representative value text for a cell.

    Prefers exact assignments (first, deterministically); falls back to
    the anchor span of a contain family.
    """
    for assignment in cell.assignments:
        if isinstance(assignment, Exact):
            return value_text(assignment.value)
    for assignment in cell.assignments:
        if isinstance(assignment, Contain):
            return assignment.span.text
    return ""


def table_to_csv(table, include_maybe_column=True):
    """Flatten to one best-guess row per compact tuple."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = list(table.attrs)
    if include_maybe_column:
        header.append("maybe")
    writer.writerow(header)
    for t in table:
        row = [_best_guess(cell) for cell in t.cells]
        if include_maybe_column:
            row.append("?" if t.maybe else "")
        writer.writerow(row)
    return buffer.getvalue()


def result_to_dict(result):
    """Export an :class:`~repro.processor.executor.ExecutionResult`."""
    return {
        "summary": result.summary(),
        "reuse": dict(result.reuse_summary),
        "tables": {name: table_to_dicts(t) for name, t in result.tables.items()},
    }
