"""Syntactic features: properties of the span text itself."""

import re

from repro.features.base import (
    DISTINCT_YES,
    Feature,
    NO,
    YES,
    complement_intervals,
)
from repro.text.span import Span
from repro.text.tokenize import NUMBER, WORD

__all__ = [
    "NumericFeature",
    "CapitalizedFeature",
    "PatternFeature",
    "StartsWithFeature",
    "EndsWithFeature",
    "MaxLengthFeature",
    "MinLengthFeature",
    "PersonNameFeature",
]


class NumericFeature(Feature):
    """``numeric(a) = yes``: the span is a number.

    ``distinct_yes`` additionally requires that the number is maximal,
    i.e. not embedded in a longer digit run.  Refinement emits ``exact``
    assignments, one per maximal number token — this is what turns
    ``contain("Cozy ... High")`` cells into the ``exact(351000)`` cells
    of the paper's Figure 3.
    """

    name = "numeric"
    question_values = (YES, NO)

    def verify(self, span, value):
        is_number = span.numeric_value is not None
        if value == YES:
            return is_number
        if value == NO:
            return not is_number
        if value == DISTINCT_YES:
            if not is_number:
                return False
            text = span.doc.text
            before = text[span.start - 1] if span.start > 0 else " "
            after = text[span.end] if span.end < len(text) else " "
            return not before.isdigit() and not after.isdigit()
        raise ValueError("unsupported value %r for numeric" % (value,))

    def refine(self, span, value):
        number_tokens = [t for t in span.tokens if t.kind == NUMBER]
        if value in (YES, DISTINCT_YES):
            return [("exact", Span(span.doc, t.start, t.end)) for t in number_tokens]
        if value == NO:
            gaps = complement_intervals(
                [(t.start, t.end) for t in number_tokens], span.start, span.end
            )
            return [("contain", Span(span.doc, s, e)) for s, e in gaps]
        raise ValueError("unsupported value %r for numeric" % (value,))


class CapitalizedFeature(Feature):
    """``capitalized(a) = yes``: every word token starts uppercase."""

    name = "capitalized"
    question_values = (YES, NO)

    @staticmethod
    def _is_cap(token):
        return token.kind == WORD and token.text[:1].isupper()

    def verify(self, span, value):
        words = [t for t in span.tokens if t.kind == WORD]
        satisfied = bool(words) and all(self._is_cap(t) for t in words)
        if value == YES:
            return satisfied
        if value == NO:
            return not satisfied
        raise ValueError("unsupported value %r for capitalized" % (value,))

    def refine(self, span, value):
        if value != YES:
            # ``no`` admits nearly everything; stay loose.
            return [("contain", span)]
        hints = []
        run_start = None
        last_end = None
        for token in span.tokens:
            if token.kind == WORD and not self._is_cap(token):
                if run_start is not None:
                    hints.append(("contain", Span(span.doc, run_start, last_end)))
                run_start = None
            elif self._is_cap(token):
                if run_start is None:
                    run_start = token.start
                last_end = token.end
        if run_start is not None:
            hints.append(("contain", Span(span.doc, run_start, last_end)))
        return hints


class _RegexParamFeature(Feature):
    """Shared plumbing for features parameterised by a regex/string."""

    parameterized = True
    param_type = "str"
    question_values = ()

    @staticmethod
    def _compiled(value):
        return re.compile(value)


class PatternFeature(_RegexParamFeature):
    """``pattern(a) = regex``: the whole span matches the regex."""

    name = "pattern"

    def verify(self, span, value):
        return self._compiled(value).fullmatch(span.text) is not None

    def refine(self, span, value):
        hints = []
        for match in self._compiled(value).finditer(span.text):
            if match.start() == match.end():
                continue
            hints.append(
                ("exact", Span(span.doc, span.start + match.start(), span.start + match.end()))
            )
        return hints


class StartsWithFeature(_RegexParamFeature):
    """``starts_with(a) = regex``: the span text begins with a match."""

    name = "starts_with"

    def verify(self, span, value):
        return self._compiled(value).match(span.text) is not None

    def refine(self, span, value):
        # Satisfying spans start at a match start; a ``contain`` from
        # each match start to the end of the region is a (loose but
        # safe) superset, tightened later by Verify rechecks.
        hints = []
        for match in self._compiled(value).finditer(span.text):
            start = span.start + match.start()
            if start < span.end:
                hints.append(("contain", Span(span.doc, start, span.end)))
        return hints


class EndsWithFeature(_RegexParamFeature):
    """``ends_with(a) = regex``: the span text ends with a match."""

    name = "ends_with"

    def verify(self, span, value):
        regex = self._compiled(value)
        return any(m.end() == len(span.text) for m in regex.finditer(span.text))

    def refine(self, span, value):
        hints = []
        for match in self._compiled(value).finditer(span.text):
            end = span.start + match.end()
            if end > span.start:
                hints.append(("contain", Span(span.doc, span.start, end)))
        return hints


class MaxLengthFeature(Feature):
    """``max_length(a) = n``: the span has at most ``n`` characters."""

    name = "max_length"
    parameterized = True
    param_type = "int"
    question_values = ()

    def verify(self, span, value):
        return len(span) <= int(value)

    def refine(self, span, value):
        limit = int(value)
        if len(span) <= limit:
            return [("contain", span)]
        tokens = span.tokens
        hints = []
        prev_j = -1
        for i, first in enumerate(tokens):
            j = i
            while j + 1 < len(tokens) and tokens[j + 1].end - first.start <= limit:
                j += 1
            if first.end - first.start > limit:
                continue
            if j > prev_j:  # maximal: not contained in the previous window
                hints.append(("contain", Span(span.doc, first.start, tokens[j].end)))
                prev_j = j
        return hints


    def candidate_values(self, spans):
        lengths = sorted(len(s) for s in spans if len(s))
        if not lengths:
            return []
        out = []
        for q in (0.5, 0.75, 0.9):
            out.append(lengths[min(len(lengths) - 1, int(q * len(lengths)))])
        return sorted(set(out))

    def infer_parameter(self, true_spans):
        if not true_spans:
            return None
        return max(len(s) for s in true_spans)


class MinLengthFeature(Feature):
    """``min_length(a) = n``: the span has at least ``n`` characters."""

    name = "min_length"
    parameterized = True
    param_type = "int"
    question_values = ()

    def verify(self, span, value):
        return len(span) >= int(value)

    def refine(self, span, value):
        # Short sub-spans fail the constraint, so no tight ``contain``
        # exists; keep the region and rely on Verify rechecks.
        if len(span) >= int(value):
            return [("contain", span)]
        return []

    def infer_parameter(self, true_spans):
        if not true_spans:
            return None
        return min(len(s) for s in true_spans)


#: First Last, First M. Last, hyphenated last names, up to four parts.
#: Name parts may be separated by spaces/tabs only — a newline always
#: separates two different pieces of page text.
_PERSON_RE = re.compile(
    r"[A-Z][a-z]+(?:[ \t]+[A-Z]\.)?(?:[ \t]+[A-Z][a-z]+(?:-[A-Z][a-z]+)?){1,2}"
)


class PersonNameFeature(Feature):
    """``person_name(a) = yes``: the span looks like a person name.

    Backs the DBLife tasks' ``personPattern`` predicate (section 6.3).
    """

    name = "person_name"
    question_values = (YES, NO)

    def verify(self, span, value):
        matched = _PERSON_RE.fullmatch(span.text) is not None
        if value == YES:
            return matched
        if value == NO:
            return not matched
        raise ValueError("unsupported value %r for person_name" % (value,))

    def refine(self, span, value):
        if value != YES:
            return [("contain", span)]
        hints = []
        for match in _PERSON_RE.finditer(span.text):
            hints.append(
                ("exact", Span(span.doc, span.start + match.start(), span.start + match.end()))
            )
        return hints
