"""Applying domain constraints to compact-table cells (section 4.2).

The selection ``σ_k`` for a domain constraint ``k: f(a) = v`` rewrites
each cell of attribute ``a`` assignment by assignment:

* ``exact(s)`` — keep iff ``Verify(s, f, v)``;
* ``contain(s)`` — replace by ``Refine(s, f, v)``'s maximal satisfying
  sub-spans, each an ``exact`` or ``contain`` assignment.

When a chain of constraints ``k1, ..., kn`` applies to one attribute,
a span produced while refining with ``kj`` may violate an earlier
``ki``; the paper mandates rechecking against all previously applied
constraints, which is what ``prior_constraints`` carries.  (Any
application order then yields the same final assignments.)

Both Verify and Refine route through the execution context, which
consults the :class:`~repro.processor.context.EvalCache` before calling
the feature's own ``verify``/``refine``.
"""

import functools
import re

from repro.ctables.assignments import Contain, Exact, value_number, value_text

__all__ = [
    "apply_constraint_to_cell",
    "verify_scalar",
]


@functools.lru_cache(maxsize=256)
def _compiled_pattern(pattern):
    return re.compile(pattern)


def verify_scalar(feature, value_obj, feature_value):
    """``Verify`` for scalar (non-span) cell values.

    Scalars (already cast out of their document) can only be checked
    against content features; context/formatting features cannot reject
    them, so we keep them — conservative, hence superset-safe.
    """
    name = feature.name
    if name == "numeric":
        is_number = value_number(value_obj) is not None
        return is_number if feature_value in ("yes", "distinct_yes") else not is_number
    if name == "max_value":
        number = value_number(value_obj)
        return number is not None and number <= float(feature_value)
    if name == "min_value":
        number = value_number(value_obj)
        return number is not None and number >= float(feature_value)
    if name == "max_length":
        return len(value_text(value_obj)) <= int(feature_value)
    if name == "min_length":
        return len(value_text(value_obj)) >= int(feature_value)
    if name == "pattern":
        return (
            _compiled_pattern(str(feature_value)).fullmatch(value_text(value_obj))
            is not None
        )
    return True  # context/formatting features cannot reject a scalar


def _passes_all(span, constraints, context):
    for feature_name, feature_value in constraints:
        feature = context.feature(feature_name)
        if not context.verify_value(feature, span, feature_value):
            return False
    return True


def apply_constraint_to_cell(cell, feature_name, feature_value, prior_constraints, context):
    """``A(k, ·)`` over every assignment of ``cell``.

    Returns the transformed cell (possibly empty).  ``prior_constraints``
    is the list of ``(feature, value)`` pairs already applied to this
    attribute; newly materialised spans are rechecked against them.
    """
    feature = context.feature(feature_name)
    out = []
    seen = set()

    def emit(assignment):
        if assignment not in seen:
            seen.add(assignment)
            out.append(assignment)

    for assignment in cell.assignments:
        if isinstance(assignment, Exact):
            if context.verify_value(feature, assignment.value, feature_value):
                emit(assignment)
            continue
        # contain(s): refine, then recheck each produced span
        for mode, span in context.refine_span(feature, assignment.span, feature_value):
            if mode == "exact":
                if _passes_all(span, prior_constraints, context):
                    emit(Exact(span))
            else:
                emit(Contain(span))
    return cell.with_assignments(out)
