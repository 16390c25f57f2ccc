"""Feature framework: ``Verify`` and ``Refine`` (paper sections 2.2.2, 4.2).

A *text feature* captures a characteristic of text spans ("is numeric",
"is in bold font", "is preceded by '$'").  A *domain constraint*
``f(a) = v`` asserts that every value of attribute ``a`` has feature
``f`` with value ``v``.  Per the paper, adding a new feature requires
implementing exactly two procedures:

``Verify(s, f, v)``
    Does span ``s`` satisfy ``f(s) = v``?

``Refine(s, f, v)``
    All *maximal* sub-spans ``t`` of ``s`` with ``f(t) = v``.  Each is
    reported as either ``('exact', t)`` — only ``t`` itself satisfies
    the constraint — or ``('contain', t)`` — every sub-span of ``t``
    satisfies it.  (Section 4.2's Case 2: ``italics = yes`` refines to
    ``contain``, ``italics = distinct_yes`` refines to ``exact``.)

Returning a looser hint than strictly necessary (e.g. ``contain`` over a
region where only some sub-spans qualify) is *permitted*: the processor
re-checks candidate spans with ``Verify`` when other constraints narrow
them (section 4.2's multi-constraint recheck), so looseness costs
precision of the intermediate superset, never correctness.

Feature values
--------------
Boolean features take ``yes`` / ``no`` / ``distinct_yes`` /
``distinct_no``; *parameterised* features (``preceded_by``,
``max_value``, ...) take a scalar parameter as their value.
"""

from dataclasses import dataclass

from repro.text.span import Span

__all__ = [
    "YES",
    "NO",
    "DISTINCT_YES",
    "DISTINCT_NO",
    "UNKNOWN",
    "BOOLEAN_VALUES",
    "Feature",
    "FeatureCapability",
    "complement_intervals",
    "clip_intervals",
    "trim_to_tokens",
]

YES = "yes"
NO = "no"
DISTINCT_YES = "distinct_yes"
DISTINCT_NO = "distinct_no"
UNKNOWN = "unknown"

#: The answer space of a non-parameterised (boolean) feature question.
BOOLEAN_VALUES = (YES, NO, DISTINCT_YES)


@dataclass(frozen=True)
class FeatureCapability:
    """One feature's consolidated capability record.

    :meth:`Feature.capability` derives it from the class in one place;
    static analysis, the registry and the assistant all read this
    record.

    param_type:
        Scalar kind of a parameterised feature's value (``'str'`` /
        ``'int'`` / ``'number'``); ``None`` for boolean features and
        parameterised features accepting anything.
    opaque:
        A name-only placeholder — analysis skips value- and
        capability-based checks entirely.
    """

    param_type: object = None
    opaque: bool = False


class Feature:
    """Base class for text features.

    Subclasses set :attr:`name`, and either :attr:`parameterized` =
    False (value drawn from :data:`BOOLEAN_VALUES`) or True (value is a
    scalar parameter).  They implement :meth:`verify` and
    :meth:`refine`; optionally :meth:`candidate_values` (used by the
    simulation strategy to propose parameter values from data) and
    :meth:`infer_parameter` (used by the simulated developer to answer
    a parameterised question from ground-truth spans).
    """

    name = None
    parameterized = False
    #: Scalar kind of the parameter for parameterised features —
    #: ``'str'``, ``'int'``, or ``'number'``; ``None`` for boolean
    #: features (and for parameterised features that accept anything).
    #: The analyzer's typing pass checks constraint values against it.
    param_type = None
    #: True for name-only placeholders (``FeatureRegistry.declare``):
    #: the name is known but the semantics are not, so the analyzer
    #: skips value- and capability-based checks.
    opaque = False
    #: Values the next-effort assistant will consider when simulating
    #: this feature's question (boolean features only).
    question_values = BOOLEAN_VALUES

    # ------------------------------------------------------------------
    def verify(self, span, value):
        """True iff ``f(span) = value``."""
        raise NotImplementedError

    def refine(self, span, value):
        """Maximal satisfying sub-spans as ``(mode, span)`` hints."""
        raise NotImplementedError

    def capability(self):
        """This feature's :class:`FeatureCapability` record."""
        return FeatureCapability(param_type=self.param_type, opaque=self.opaque)

    # ------------------------------------------------------------------
    def candidate_values(self, spans):
        """Plausible parameter values, profiled from candidate ``spans``.

        Only meaningful for parameterised features; the default is no
        candidates, which removes the feature from the simulation
        strategy's question space.
        """
        return []

    def infer_parameter(self, true_spans):
        """The parameter value a developer looking at ``true_spans``

        would give, or ``None`` if this feature cannot infer one.
        """
        return None

    def question_text(self, attribute):
        """Human-readable question, as the assistant would phrase it."""
        if self.parameterized:
            return "what is the value of %s for %s?" % (self.name, attribute)
        return "is %s %s?" % (attribute, self.name.replace("_", " "))

    def __repr__(self):
        return "<Feature %s>" % (self.name,)


# ----------------------------------------------------------------------
# interval helpers shared by feature implementations
# ----------------------------------------------------------------------

def clip_intervals(intervals, start, end):
    """Intersect each ``(s, e)`` interval with ``[start, end)``."""
    out = []
    for s, e in intervals:
        s2, e2 = max(s, start), min(e, end)
        if s2 < e2:
            out.append((s2, e2))
    return out


def complement_intervals(intervals, start, end):
    """The gaps of ``intervals`` within ``[start, end)``."""
    out = []
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if s >= e:
            continue
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < end:
        out.append((cursor, end))
    return out


def trim_to_tokens(doc, start, end):
    """Shrink ``[start, end)`` to the token-covered sub-interval.

    Returns ``None`` when no token lies fully inside.
    """
    tokens = doc.tokens_in(start, end)
    if not tokens:
        return None
    return (tokens[0].start, tokens[-1].end)


def interval_span(doc, interval):
    """Build a :class:`Span` from a ``(start, end)`` interval."""
    return Span(doc, interval[0], interval[1])
