"""Bottom-up evaluation order over stratified-safe recursive groups.

:func:`evaluation_order` condenses the unfolded program's dependency
graph into predicate groups, dependencies first; a recursive component
that is not stratified-safe raises the same ``ALOG016`` diagnostic the
analyzer reports.
"""

from repro.errors import EvaluationError
from repro.observability.logs import get_logger
from repro.xlog.ast import PredicateAtom

__all__ = ["evaluation_order"]

logger = get_logger("processor")


def _recursion_error(message, rule=None, node=None):
    """An :class:`EvaluationError` carrying an ``ALOG016`` diagnostic.

    The rendered message includes the offending rule's source span (when
    the parser provided one) and the diagnostic itself rides on the
    exception's ``diagnostic`` attribute for tooling.
    """
    from repro.analysis.diagnostics import CODES, Diagnostic

    span = getattr(node, "span", None) if node is not None else None
    if span is None and rule is not None:
        span = getattr(rule, "span", None)
    diagnostic = Diagnostic(
        severity=CODES["ALOG016"][0],
        code="ALOG016",
        message=message,
        rule_label=(rule.label or rule.head.name) if rule is not None else "",
        line=span.line if span else None,
        column=span.column if span else None,
        end_line=span.end_line if span else None,
        end_column=span.end_column if span else None,
    )
    error = EvaluationError(diagnostic.render())
    error.diagnostic = diagnostic
    return error


def _stratification_for(program):
    """The stratify pass's view of ``program``, or ``None``.

    Used only when the caller has no analyzer result to hand (the
    validating engine passes its lint result's stratification instead of
    re-analyzing).  An analysis failure is logged at debug level and
    degrades to ``None`` — the ordering then refuses the cycle with the
    plain fallback message rather than masking the original error.
    """
    try:
        from repro.analysis.stratify import stratify_program

        return stratify_program(program)
    except Exception:
        logger.debug("stratification analysis failed", exc_info=True)
        return None


def _group_anchor(names, sites):
    """The first in-group dependency edge site, for diagnostics."""
    for head in names:
        for dep in names:
            site = sites.get((head, dep))
            if site is not None:
                return site
    return None, None


def evaluation_order(program, stratification=None):
    """Bottom-up evaluation order: a list of predicate *groups*.

    Each group is a sorted tuple of intensional predicate names that
    evaluate together.  Non-recursive predicates form singleton groups
    and are computed exactly once; a recursive strongly connected
    component becomes one multi-member (or self-recursive singleton)
    group, which the engine iterates to fixpoint with its semi-naive
    loop.  Groups come out dependencies-first — for an acyclic program
    the flattened order is identical to the historical depth-first
    postorder.

    Only *stratified-safe* recursion is ordered.  A cycle through a ψ
    annotation, IE extraction, or a procedural predicate has no fixpoint
    semantics and raises :class:`EvaluationError` through the same
    ``ALOG016`` diagnostic the analyzer reports pre-execution.

    ``stratification`` is the caller's already-computed analysis of the
    *original* program (unfolding erases IE atoms, so classifying the
    unfolded rules would mistake an IE cycle for plain relational
    recursion); ``None`` computes one here over the program as given.
    Visited bookkeeping is all hash-based (Tarjan index maps), so
    ordering is linear in the dependency graph.
    """
    from repro.analysis.stratify import tarjan_scc

    deps = {}
    sites = {}  # (head, dep) -> (rule, atom) of the first such edge
    for rule in program.skeleton_rules:
        deps.setdefault(rule.head.name, set())
        for atom in rule.body_atoms(PredicateAtom):
            if atom.name in program.intensional:
                deps[rule.head.name].add(atom.name)
                sites.setdefault((rule.head.name, atom.name), (rule, atom))
    info = stratification
    info_resolved = stratification is not None
    order = []
    for component in tarjan_scc(deps):
        names = tuple(sorted(component))
        recursive = len(names) > 1 or names[0] in deps.get(names[0], ())
        if recursive:
            if not info_resolved:
                info = _stratification_for(program)
                info_resolved = True
            cycle = info.cycle_for(names[0]) if info is not None else None
            rule, atom = _group_anchor(names, sites)
            if cycle is None:
                raise _recursion_error(
                    "recursive predicate %r: dependency cycle cannot be "
                    "evaluated bottom-up (stratification analysis "
                    "unavailable)" % (names[0],),
                    rule=rule,
                    node=atom,
                )
            if not cycle.safe:
                raise _recursion_error(cycle.message, rule=rule, node=atom)
        order.append(names)
    return order
