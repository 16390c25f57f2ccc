"""Diagnostics: machine-readable problems found by static analysis.

A :class:`Diagnostic` is one problem: a severity, a stable code
(``ALOG001``...), a human message, and — when the parser provided
source spans — the line/column region it points at.  The analyzer
collects *all* diagnostics in one run instead of raising on the first
problem, which is what an iterative best-effort workflow needs: the
developer fixes everything one pass surfaced, not one thing per run.

Codes are registered in :data:`CODES` with their default severity and a
short title; ``docs/cli.md`` renders the same table for users.
"""

import json
from dataclasses import dataclass, field

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "CODES",
    "Diagnostic",
    "AnalysisResult",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: code -> (default severity, short title).  Stable: never renumber.
CODES = {
    "ALOG000": (ERROR, "parse error"),
    "ALOG001": (ERROR, "unsafe rule"),
    "ALOG002": (ERROR, "unknown predicate"),
    "ALOG003": (ERROR, "unknown feature"),
    "ALOG004": (ERROR, "inconsistent predicate arity"),
    "ALOG005": (ERROR, "declaration arity mismatch"),
    "ALOG006": (ERROR, "attribute annotation on unbound variable"),
    "ALOG007": (ERROR, "existence annotation on extensional head"),
    "ALOG008": (ERROR, "duplicate attribute annotation"),
    "ALOG009": (ERROR, "contradictory domain constraints"),
    "ALOG010": (ERROR, "unsatisfiable comparison set"),
    "ALOG011": (WARNING, "dead rule"),
    "ALOG012": (WARNING, "unused extracted variable"),
    "ALOG013": (WARNING, "predicate assumed extensional"),
    "ALOG014": (ERROR, "unknown query predicate"),
    "ALOG015": (WARNING, "duplicate rule label"),
    "ALOG016": (ERROR, "recursive predicate"),
    "ALOG017": (ERROR, "conflicting head column types"),
    "ALOG018": (ERROR, "operand types can never match"),
    # ALOG019 ("constraint can never use an index") is retired with the
    # feature indexes; the number is not reused
    "ALOG020": (WARNING, "unbounded fan-out"),
    "ALOG021": (WARNING, "unbounded local table consumed globally"),
}

#: severity -> SARIF 2.1.0 result level
_SARIF_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}


@dataclass(frozen=True)
class Diagnostic:
    """One statically detected problem in an Alog program."""

    severity: str  # 'error' | 'warning' | 'info'
    code: str  # e.g. 'ALOG001'
    message: str
    #: index of the offending rule in the analyzed rule list (0-based),
    #: or None for program-level problems (e.g. unknown query).
    rule_index: object = None
    rule_label: str = ""
    line: object = None  # 1-based, None when no source span is known
    column: object = None
    end_line: object = None
    end_column: object = None

    @property
    def span(self):
        """``(line, column, end_line, end_column)`` or ``None``."""
        if self.line is None:
            return None
        return (self.line, self.column, self.end_line, self.end_column)

    @property
    def title(self):
        return CODES.get(self.code, (self.severity, self.code))[1]

    def to_dict(self):
        """A JSON-safe dict; round-trips through :func:`json.loads`."""
        return {
            "severity": self.severity,
            "code": self.code,
            "title": self.title,
            "message": self.message,
            "rule_index": self.rule_index,
            "rule_label": self.rule_label or None,
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }

    def render(self, path=None):
        """``path:line:col: severity CODE: message`` (parts optional)."""
        prefix = []
        if path:
            prefix.append(str(path))
        if self.line is not None:
            prefix.append(str(self.line))
            if self.column is not None:
                prefix.append(str(self.column))
        location = ":".join(prefix)
        rule = " [rule %s]" % self.rule_label if self.rule_label else ""
        body = "%s %s: %s%s" % (self.severity, self.code, self.message, rule)
        return "%s: %s" % (location, body) if location else body

    def sort_key(self):
        """Deterministic stream order: position, then code, then text.

        Keyed on ``(line, col, code)`` first so the merged output of all
        passes is stable regardless of pass registration order — two
        analyzer builds that emit the same diagnostics print them
        identically.
        """
        return (
            self.line if self.line is not None else 1 << 30,
            self.column if self.column is not None else 1 << 30,
            self.code,
            _SEVERITY_ORDER.get(self.severity, 3),
            self.message,
            self.rule_index if isinstance(self.rule_index, int) else -1,
        )

    def to_sarif(self, path=None):
        """This diagnostic as one SARIF 2.1.0 ``result`` object."""
        result = {
            "ruleId": self.code,
            "level": _SARIF_LEVELS.get(self.severity, "none"),
            "message": {"text": self.message},
        }
        physical = {}
        if path is not None:
            physical["artifactLocation"] = {"uri": str(path)}
        if self.line is not None:
            region = {"startLine": self.line}
            if self.column is not None:
                region["startColumn"] = self.column
            if self.end_line is not None:
                region["endLine"] = self.end_line
            if self.end_column is not None:
                region["endColumn"] = self.end_column
            physical["region"] = region
        if physical:
            result["locations"] = [{"physicalLocation": physical}]
        return result


@dataclass
class AnalysisResult:
    """Everything one analyzer run found, ordered by source position.

    Besides the diagnostic stream, the deeper passes publish their
    computed artifacts here: :attr:`types` (per-predicate column types
    and doc-locality, from the typed-dataflow pass),
    :attr:`stratification` (the SCC stratification a future semi-naive
    evaluator would run on), and :attr:`plan_report` (static plan
    statistics, only when plan analysis was requested).
    """

    diagnostics: list = field(default_factory=list)
    #: name -> :class:`~repro.analysis.typing.PredicateType`
    types: dict = field(default_factory=dict)
    #: :class:`~repro.analysis.stratify.Stratification` or None
    stratification: object = None
    #: :class:`~repro.analysis.planlint.PlanReport` or None
    plan_report: object = None

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def infos(self):
        return [d for d in self.diagnostics if d.severity == INFO]

    @property
    def ok(self):
        """True when no error-severity diagnostics were found."""
        return not self.errors

    def codes(self):
        return sorted({d.code for d in self.diagnostics})

    def render(self, path=None):
        """Human-readable listing plus a summary line."""
        lines = [d.render(path) for d in self.diagnostics]
        lines.append(self.summary_line())
        return "\n".join(lines)

    def summary_line(self):
        n_err, n_warn, n_info = len(self.errors), len(self.warnings), len(self.infos)
        line = "%d error%s, %d warning%s" % (
            n_err, "" if n_err == 1 else "s",
            n_warn, "" if n_warn == 1 else "s",
        )
        if n_info:
            line += ", %d info%s" % (n_info, "" if n_info == 1 else "s")
        return line

    def to_dict(self, path=None):
        data = {
            "program": str(path) if path is not None else None,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }
        if self.stratification is not None:
            data["strata"] = self.stratification.to_dict()
        if self.plan_report is not None:
            data["plan"] = self.plan_report.to_dict()
        return data

    def to_json(self, path=None, indent=None):
        return json.dumps(self.to_dict(path), indent=indent)

    def to_sarif(self, path=None):
        """The whole result as a SARIF 2.1.0 log (one run).

        The rule table carries every registered code with its default
        severity, so CI annotation tools can render titles and levels
        without knowing Alog.
        """
        rules = [
            {
                "id": code,
                "shortDescription": {"text": title},
                "defaultConfiguration": {"level": _SARIF_LEVELS[severity]},
            }
            for code, (severity, title) in sorted(CODES.items())
        ]
        return {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {"driver": {"name": "repro-lint", "rules": rules}},
                    "results": [d.to_sarif(path) for d in self.diagnostics],
                }
            ],
        }

    def to_sarif_json(self, path=None, indent=2):
        return json.dumps(self.to_sarif(path), indent=indent)
