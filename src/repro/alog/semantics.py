"""Reference possible-worlds semantics for Alog (sections 2.2.3, 3).

This module materialises — for *bounded* inputs — the exact set of
possible relations an Alog program defines, straight from the paper's
definitions:

* Definition 1 (existence annotation): the possible relations are the
  powerset of the rule's Xlog relation;
* Definition 2 (attribute annotations): group the Xlog relation by the
  non-annotated attributes and choose one value per annotated attribute
  per group;
* Alog semantics: a rule over approximate inputs is evaluated for each
  combination of possible input relations, and its output set is the
  union over combinations; a predicate defined by several rules takes
  one possible relation per rule and unions them.

The approximate query processor must return a *superset* of this set
(section 4); the test suite checks exactly that.  Everything here is
exponential and capped — reference oracle, not production code.
"""

import itertools

from repro.ctables.assignments import value_key
from repro.errors import EnumerationLimitError
from repro.features.registry import default_registry
from repro.xlog.ast import PredicateAtom
from repro.xlog.engine import XlogEngine
from repro.alog.unfold import unfold_program

__all__ = [
    "annotate_relation",
    "powerset_relations",
    "rule_possible_relations",
    "program_possible_relations",
]

DEFAULT_MAX_WORLDS = 200_000


def _freeze(rows):
    return frozenset(tuple(value_key(v) for v in row) for row in rows)


def powerset_relations(relations, max_worlds=DEFAULT_MAX_WORLDS):
    """Close a set of frozen relations under subsets (Definition 1)."""
    out = set()
    for relation in relations:
        rows = sorted(relation)
        if 2 ** len(rows) * len(relations) > max_worlds:
            raise EnumerationLimitError(
                "powerset of %d rows exceeds the world cap" % (len(rows),)
            )
        for r in range(len(rows) + 1):
            for combo in itertools.combinations(rows, r):
                out.add(frozenset(combo))
    return out


def annotate_relation(rows, annotations, max_worlds=DEFAULT_MAX_WORLDS):
    """All possible relations of concrete ``rows`` under ``(f, A)``.

    ``rows`` are tuples of actual values; ``annotations`` is the pair
    ``(existence, annotated_attribute_indexes)``.  Returns a set of
    frozen relations (frozensets of value-key tuples).
    """
    existence, annotated_indexes = annotations
    annotated_indexes = tuple(annotated_indexes)
    if not annotated_indexes:
        base = {_freeze(rows)}
    else:
        groups = {}
        for row in rows:
            key = tuple(
                value_key(v)
                for i, v in enumerate(row)
                if i not in annotated_indexes
            )
            group = groups.setdefault(key, {i: {} for i in annotated_indexes})
            for i in annotated_indexes:
                group[i].setdefault(value_key(row[i]), None)
        group_keys = list(groups)
        per_group_choices = []
        count = 1
        for key in group_keys:
            group = groups[key]
            choices = list(
                itertools.product(*[list(group[i]) for i in annotated_indexes])
            )
            count *= len(choices)
            if count > max_worlds:
                raise EnumerationLimitError("attribute annotation exceeds world cap")
            per_group_choices.append(choices)
        base = set()
        for combo in itertools.product(*per_group_choices):
            base.add(
                frozenset(
                    _merge_row(key, choice, annotated_indexes)
                    for key, choice in zip(group_keys, combo)
                )
            )
    if existence:
        return powerset_relations(base, max_worlds)
    return base


def _merge_row(group_key, annotated_values, annotated_indexes):
    total = len(group_key) + len(annotated_values)
    row = [None] * total
    annotated_iter = iter(annotated_values)
    key_iter = iter(group_key)
    for i in range(total):
        if i in annotated_indexes:
            row[i] = next(annotated_iter)
        else:
            row[i] = next(key_iter)
    return tuple(row)


def rule_possible_relations(rule, rows, max_worlds=DEFAULT_MAX_WORLDS):
    """Definitions 1-2 applied to a rule's precise relation ``rows``."""
    existence, annotated_names = rule.annotations
    attr_names = rule.head.attr_names
    indexes = tuple(attr_names.index(name) for name in annotated_names)
    return annotate_relation(rows, (existence, indexes), max_worlds)


def program_possible_relations(
    program,
    corpus,
    feature_registry=None,
    max_worlds=DEFAULT_MAX_WORLDS,
    from_limit=2_000,
):
    """The exact set of possible relations of the query predicate.

    Unfolds the program, then evaluates intensional predicates bottom-up
    where each predicate carries a *set* of possible relations; a rule
    is evaluated once per combination of input relations (the paper's
    Example 2.4), and its annotation set-expansion is applied to each
    result.
    """
    unfolded = unfold_program(program)
    features = feature_registry or default_registry()
    engine = XlogEngine(unfolded, corpus, features, from_limit=from_limit)
    order = engine._topological_order()

    possible = {}  # name -> list of relations, each a list of concrete rows
    for name in order:
        rules = unfolded.rules_for(name)
        body_intensional = sorted(
            {
                atom.name
                for rule in rules
                for atom in rule.body_atoms(PredicateAtom)
                if atom.name in unfolded.intensional
            }
        )
        input_sets = [possible[dep] for dep in body_intensional]
        combos = list(itertools.product(*input_sets)) if input_sets else [()]
        out_relations = {}
        for combo in combos:
            relations = dict(zip(body_intensional, combo))
            per_rule = []
            for rule in rules:
                rows = engine._eval_rule(rule, relations)
                per_rule.append(
                    [
                        _rows_for(frozen, rows)
                        for frozen in rule_possible_relations(rule, rows, max_worlds)
                    ]
                )
            # several rules: one possible relation per rule, unioned
            for choice in itertools.product(*per_rule):
                union = {}
                for rows in choice:
                    for row in rows:
                        union.setdefault(tuple(value_key(v) for v in row), row)
                out_relations.setdefault(frozenset(union), list(union.values()))
                if len(out_relations) > max_worlds:
                    raise EnumerationLimitError("program exceeds the world cap")
        possible[name] = list(out_relations.values())
    query_relations = possible[unfolded.query]
    return {_freeze(rows) for rows in query_relations}


def _rows_for(frozen, candidate_rows):
    """Reconstruct concrete rows for a frozen relation from candidates.

    Annotated choices always pick values present in some candidate row,
    but a chosen *combination* need not equal any single candidate row,
    so fall back to per-cell reconstruction from the frozen keys.
    """
    by_key = {}
    for row in candidate_rows:
        for value in row:
            by_key.setdefault(value_key(value), value)
    out = []
    for key_tuple in frozen:
        out.append(tuple(by_key[k] for k in key_tuple))
    return out
