"""Pass 8 — typed dataflow inference (``ALOG017``, ``ALOG018``).

Alog is untyped on the surface, but every column of every predicate has
a value discipline the engine relies on: extensional variables and
``from`` outputs hold document spans, p-predicate outputs hold whatever
the procedure declares, constants are scalars.  This pass runs a
fixed-point inference over the rule set and publishes a
:class:`PredicateType` per predicate — column types over the lattice
``span | int | float | str`` (``int ⊔ float = float``, any other
mismatch is a conflict) plus *doc-locality*: whether a column is
guaranteed to hold spans of the tuple's single source document, the
property :mod:`repro.processor.split` keys partitioning on.

Two codes come out of it:

``ALOG017``
    two rules for the same predicate bind a head column to
    incompatible types — the union the evaluator builds would mix
    value disciplines;

``ALOG018``
    an operand application that can never hold: a boolean feature
    given a non-boolean value, a parameterised feature given the wrong
    scalar kind, or an ordering comparison against text/null (ordering
    is numeric-only, see :mod:`repro.xlog.comparisons`).
"""

from dataclasses import dataclass

from repro.xlog.ast import (
    Arith,
    ComparisonAtom,
    Const,
    ConstraintAtom,
    ORDERING_OPS,
    PredicateAtom,
    Var,
)

__all__ = ["SPAN", "INT", "FLOAT", "STR", "CONFLICT", "PredicateType",
           "join_types", "infer_types", "check_types", "feature_value_error"]

SPAN = "span"
INT = "int"
FLOAT = "float"
STR = "str"
#: the lattice top: two incompatible observations
CONFLICT = "conflict"

#: the only values a non-parameterised (boolean) feature can take
_BOOLEAN_VALUES = frozenset(("yes", "no", "distinct_yes", "distinct_no"))


def join_types(a, b):
    """Least upper bound of two column types (``None`` = unknown)."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if {a, b} == {INT, FLOAT}:
        return FLOAT
    return CONFLICT


@dataclass(frozen=True)
class PredicateType:
    """Inferred column types and doc-locality of one predicate."""

    name: str
    columns: tuple  # attribute names, from the first rule head
    types: tuple  # one of SPAN/INT/FLOAT/STR/CONFLICT/None per column
    doc_local: tuple  # bool per column

    def render(self):
        parts = []
        for column, kind, local in zip(self.columns, self.types, self.doc_local):
            suffix = "@doc" if local else ""
            parts.append("%s: %s%s" % (column, kind or "?", suffix))
        return "%s(%s)" % (self.name, ", ".join(parts))

    def to_dict(self):
        return {
            "columns": list(self.columns),
            "types": list(self.types),
            "doc_local": list(self.doc_local),
        }


def _rule_bindings(rule, facts, table, local):
    """``(var_types, var_local)`` for one rule under the current tables."""
    types = {}
    locality = {}

    def bind(term, kind, is_local):
        if not isinstance(term, Var):
            return
        types[term.name] = join_types(types.get(term.name), kind)
        locality[term.name] = locality.get(term.name, True) and is_local

    def bind_columns(atom, positions):
        column_types = table.get(atom.name)
        column_local = local.get(atom.name)
        for i in positions:
            kind = None
            if column_types is not None and i < len(column_types):
                kind = column_types[i]
                if kind == CONFLICT:
                    kind = None  # don't cascade conflicts downstream
            is_local = bool(
                column_local is not None
                and i < len(column_local)
                and column_local[i]
            )
            bind(atom.args[i], kind, is_local)

    for atom in rule.body_atoms(PredicateAtom):
        kind = facts.atom_kind(atom)
        if kind == "extensional":
            for var in atom.variables:
                bind(var, SPAN, True)
        elif kind == "from":
            if len(atom.args) == 2:
                bind(atom.args[1], SPAN, True)
        elif kind == "intensional":
            bind_columns(atom, range(len(atom.args)))
        elif kind == "ie":
            # only output positions are bound at the call site
            positions = [
                i for i, flag in enumerate(atom.input_flags) if not flag
            ]
            bind_columns(atom, positions)
        elif kind == "p_predicate":
            spec = facts.p_predicate_specs.get(atom.name)
            declared = getattr(spec, "output_types", None) or ()
            for i, arg in enumerate(atom.output_args):
                bind(arg, declared[i] if i < len(declared) else None, False)
        # p_function / unresolved: binds nothing
    return types, locality


def infer_types(facts):
    """Fixed-point column types and locality for every rule head.

    Returns ``(types, local)``: name -> list per column, where a type is
    SPAN/INT/FLOAT/STR/CONFLICT/None and locality is True/False/None
    (None = no rule observed yet).
    """
    table = {}
    local = {}
    for rule in facts.rules:
        name = rule.head.name
        table.setdefault(name, [None] * len(rule.head.args))
        local.setdefault(name, [None] * len(rule.head.args))
    changed = True
    iterations = 0
    # the lattice has height 3, so |rules| * height bounds convergence;
    # the explicit cap keeps a malformed program from spinning
    limit = 3 * max(1, len(facts.rules)) + 3
    while changed and iterations < limit:
        changed = False
        iterations += 1
        for rule in facts.rules:
            var_types, var_local = _rule_bindings(rule, facts, table, local)
            name = rule.head.name
            column_types = table[name]
            column_local = local[name]
            for i, arg in enumerate(rule.head.args):
                if i >= len(column_types):
                    break  # arity drift is ALOG004's report, not ours
                kind = join_types(column_types[i], var_types.get(arg.var.name))
                if kind != column_types[i]:
                    column_types[i] = kind
                    changed = True
                is_local = var_local.get(arg.var.name, False)
                if column_local[i] is None:
                    merged = is_local
                else:
                    merged = column_local[i] and is_local
                if merged != column_local[i]:
                    column_local[i] = merged
                    changed = True
    return table, local


# ----------------------------------------------------------------------
# the analyzer pass
# ----------------------------------------------------------------------

def check_types(analyzer):
    facts = analyzer.facts
    table, local = infer_types(facts)
    first_head = {}
    for rule in facts.rules:
        first_head.setdefault(rule.head.name, rule.head)
    analyzer.types = {
        name: PredicateType(
            name=name,
            columns=tuple(first_head[name].attr_names),
            types=tuple(table[name][: len(first_head[name].args)]),
            doc_local=tuple(
                bool(v) for v in local[name][: len(first_head[name].args)]
            ),
        )
        for name in sorted(table)
    }
    _report_head_conflicts(analyzer, table, local)
    for rule in facts.rules:
        var_types, _ = _rule_bindings(rule, facts, table, local)
        _check_constraint_values(analyzer, rule)
        _check_comparison_operands(analyzer, rule, var_types)


def _report_head_conflicts(analyzer, table, local):
    """``ALOG017`` once per conflicting (predicate, column)."""
    facts = analyzer.facts
    for name in sorted(table):
        conflicted = {
            i for i, kind in enumerate(table[name]) if kind == CONFLICT
        }
        if not conflicted:
            continue
        running = {}
        for rule in facts.rules:
            if rule.head.name != name:
                continue
            var_types, _ = _rule_bindings(rule, facts, table, local)
            for i in sorted(conflicted):
                if i >= len(rule.head.args):
                    continue
                arg = rule.head.args[i]
                contribution = var_types.get(arg.var.name)
                seen = running.get(i)
                if contribution is None:
                    continue
                if contribution == CONFLICT:
                    analyzer.emit(
                        "ALOG017",
                        "column %r of %r is bound to incompatible types "
                        "within one rule body" % (arg.var.name, name),
                        rule=rule,
                        node=rule.head,
                    )
                    conflicted.discard(i)
                elif seen is None:
                    running[i] = (contribution, rule)
                elif join_types(seen[0], contribution) == CONFLICT:
                    analyzer.emit(
                        "ALOG017",
                        "rule heads disagree on column %r of %r: rule %r "
                        "binds it to %s but rule %r binds it to %s"
                        % (
                            arg.var.name,
                            name,
                            seen[1].label or seen[1].head.name,
                            seen[0],
                            rule.label or rule.head.name,
                            contribution,
                        ),
                        rule=rule,
                        node=rule.head,
                    )
                    conflicted.discard(i)


def feature_value_error(feature, value):
    """Why ``value`` can never satisfy ``feature``, or ``None`` if it fits.

    The ``ALOG018`` value check, shared with the refinement loop's answer
    validation: a boolean feature takes yes/no/distinct_yes/distinct_no,
    a parameterised one the scalar kind its ``param_type`` names.  Opaque
    placeholders and untyped parameters accept anything.
    """
    if getattr(feature, "opaque", False):
        return None
    name = feature.name
    if not feature.parameterized:
        if isinstance(value, str) and value in _BOOLEAN_VALUES:
            return None
        return (
            "boolean feature %r takes yes/no/distinct_yes/distinct_no, not %r "
            "— the constraint can never hold" % (name, value)
        )
    expected = feature.capability().param_type
    if expected == STR and not isinstance(value, str):
        return "feature %r takes a text parameter, not %r" % (name, value)
    if expected == INT and not _is_int(value):
        return "feature %r takes an integer parameter, not %r" % (name, value)
    if expected == "number" and not _is_number(value):
        return "feature %r takes a numeric parameter, not %r" % (name, value)
    return None


def _check_constraint_values(analyzer, rule):
    """``ALOG018`` for feature values of the wrong scalar kind."""
    registry = analyzer.facts.registry
    for atom in rule.body_atoms(ConstraintAtom):
        if atom.feature not in registry:
            continue  # unknown feature: the schema pass reports ALOG003
        error = feature_value_error(registry.get(atom.feature), atom.value)
        if error is not None:
            analyzer.emit("ALOG018", error, rule=rule, node=atom)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_comparison_operands(analyzer, rule, var_types):
    """``ALOG018`` for orderings that can never hold (numeric-only)."""
    for atom in rule.body_atoms(ComparisonAtom):
        if atom.op not in ORDERING_OPS:
            continue
        for term in (atom.left, atom.right):
            if isinstance(term, Const):
                if term.value_type is None:
                    analyzer.emit(
                        "ALOG018",
                        "ordering %r compares against null, which never "
                        "holds" % (atom,),
                        rule=rule,
                        node=atom,
                    )
                elif term.value_type == STR:
                    analyzer.emit(
                        "ALOG018",
                        "ordering %r compares against text %r, but "
                        "ordering is numeric-only — the comparison never "
                        "holds" % (atom, term.value),
                        rule=rule,
                        node=atom,
                    )
                continue
            var = term.var if isinstance(term, Arith) else term
            if isinstance(var, Var) and var_types.get(var.name) == STR:
                analyzer.emit(
                    "ALOG018",
                    "ordering %r applies to %r, whose inferred type is "
                    "str — ordering is numeric-only, so the comparison "
                    "never holds" % (atom, var.name),
                    rule=rule,
                    node=atom,
                )
