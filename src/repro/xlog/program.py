"""Programs: rules + declarations, with predicate resolution.

A :class:`Program` owns the parsed rules plus everything the parser
cannot know:

* which predicate names are **extensional** (backed by corpus tables);
* which are **p-predicates** / **p-functions** (backed by Python
  procedures — the paper's Perl/Java);
* which head predicate is the **query**.

**IE predicates** are recognised structurally: a rule whose head has
``@input`` arguments is a *description rule*, and its head name is an
IE predicate (section 2.2.2).  A p-predicate procedure may also be
registered for an IE predicate name — that is the paper's "cleanup
procedure" path (section 2.2.4), and it takes precedence over
description rules during unfolding only when no description rule
exists.

Programs are immutable; refinement (adding a domain constraint to a
description rule) returns a new program, which is what lets the
executor cache per-rule results across iterations (section 5.2 reuse).
"""

from dataclasses import dataclass

from repro.errors import SafetyError, UnknownPredicateError
from repro.xlog.ast import (
    ConstraintAtom,
    PredicateAtom,
    Rule,
    Var,
)
from repro.xlog.parser import parse_rules

__all__ = ["PPredicate", "PFunction", "Program", "FROM_PREDICATE"]

#: The built-in sub-span generator predicate (section 2.2.2).
FROM_PREDICATE = "from"


@dataclass(frozen=True)
class PPredicate:
    """A procedural predicate: ``func(*inputs)`` yields output tuples.

    ``arity = n_inputs + n_outputs``; the relation it defines contains
    ``inputs + outputs`` rows, per the paper's definition.
    """

    name: str
    func: object
    n_inputs: int
    n_outputs: int
    #: optional declared column types of the procedure's outputs
    #: (``'span' | 'int' | 'float' | 'str'`` per output position); the
    #: analyzer's typed-dataflow pass folds them into its inference,
    #: and ``None`` simply leaves the outputs untyped
    output_types: object = None

    @property
    def arity(self):
        return self.n_inputs + self.n_outputs


@dataclass(frozen=True)
class PFunction:
    """A procedural scalar function over fully bound arguments."""

    name: str
    func: object


class Program:
    """An Xlog/Alog program: rules, declarations, and the query."""

    def __init__(
        self,
        rules,
        extensional=(),
        p_predicates=None,
        p_functions=None,
        query=None,
    ):
        self.rules = tuple(rules)
        if not self.rules:
            raise ValueError("a program needs at least one rule")
        self.extensional = frozenset(extensional)
        self.p_predicates = dict(p_predicates or {})
        self.p_functions = dict(p_functions or {})
        self.query = query or self.rules[0].head.name
        self._classify()
        self._check_references()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, source, **kwargs):
        """Parse ``source`` and build a program around the rules."""
        return cls(parse_rules(source), **kwargs)

    # ------------------------------------------------------------------
    def _classify(self):
        self.description_rules = tuple(
            r for r in self.rules if r.head.input_vars
        )
        self.skeleton_rules = tuple(
            r for r in self.rules if not r.head.input_vars
        )
        self.ie_predicates = frozenset(r.head.name for r in self.description_rules)
        self.intensional = frozenset(r.head.name for r in self.skeleton_rules)
        if self.query not in self.intensional:
            raise UnknownPredicateError(
                "query predicate %r is not the head of any rule" % (self.query,)
            )

    def _check_references(self):
        for rule in self.rules:
            for atom in rule.body_atoms(PredicateAtom):
                name = atom.name
                known = (
                    name == FROM_PREDICATE
                    or name in self.extensional
                    or name in self.intensional
                    or name in self.ie_predicates
                    or name in self.p_predicates
                    or name in self.p_functions
                )
                if not known:
                    raise UnknownPredicateError(
                        "rule %r references unknown predicate %r"
                        % (rule.label or rule.head.name, name)
                    )

    # ------------------------------------------------------------------
    def atom_kind(self, atom):
        """One of 'from', 'extensional', 'intensional', 'ie',

        'p_predicate', 'p_function' for a relational body atom.
        """
        name = atom.name
        if name == FROM_PREDICATE:
            return "from"
        if name in self.intensional:
            return "intensional"
        if name in self.ie_predicates:
            return "ie"
        if name in self.extensional:
            return "extensional"
        if name in self.p_predicates:
            return "p_predicate"
        if name in self.p_functions:
            return "p_function"
        raise UnknownPredicateError("unresolvable predicate %r" % (name,))

    def rules_for(self, name):
        return [r for r in self.rules if r.head.name == name]

    def description_rules_for(self, name):
        return [r for r in self.description_rules if r.head.name == name]

    # ------------------------------------------------------------------
    # safety (section 2.2.2)
    # ------------------------------------------------------------------
    def check_safety(self):
        """Raise :class:`SafetyError` for any unsafe rule.

        A rule is safe if every non-input head variable appears in the
        body in an extensional or intensional predicate, or as an
        output variable of an IE predicate / p-predicate / ``from``.

        The check itself lives in the static analyzer
        (:mod:`repro.analysis.safety`, diagnostic ``ALOG001``); this
        wrapper keeps the historical fail-fast API by raising on the
        first unsafe rule.
        """
        # local import: repro.analysis imports this module
        from repro.analysis import safety
        from repro.analysis.analyzer import Analyzer, _make_facts

        analyzer = Analyzer(
            _make_facts(
                self.rules,
                extensional=self.extensional,
                p_predicates=self.p_predicates,
                p_functions=self.p_functions,
                query=self.query,
            )
        )
        safety.check_safety(analyzer)
        for diagnostic in analyzer.diagnostics:
            raise SafetyError(diagnostic.message)

    # ------------------------------------------------------------------
    # refinement (copy-on-write)
    # ------------------------------------------------------------------
    def add_constraint(self, ie_predicate, attribute, feature, value):
        """A new program whose description rule(s) for ``ie_predicate``

        carry the extra domain constraint ``feature(attribute) = value``.
        This is exactly what the next-effort assistant does with an
        answered question (section 5).
        """
        target_rules = self.description_rules_for(ie_predicate)
        if not target_rules:
            raise UnknownPredicateError(
                "no description rule for IE predicate %r" % (ie_predicate,)
            )
        new_rules = []
        touched = False
        for rule in self.rules:
            if rule.head.name == ie_predicate and rule.head.input_vars:
                head_vars = {v.name for v in rule.head.output_vars}
                if attribute in head_vars:
                    constraint = ConstraintAtom(feature, Var(attribute), value)
                    rule = Rule(
                        rule.head,
                        rule.body + (constraint,),
                        label=rule.label,
                        span=rule.span,
                    )
                    touched = True
            new_rules.append(rule)
        if not touched:
            raise UnknownPredicateError(
                "IE predicate %r has no output attribute %r" % (ie_predicate, attribute)
            )
        return self._replace_rules(new_rules)

    def _replace_rules(self, rules):
        return Program(
            rules,
            extensional=self.extensional,
            p_predicates=self.p_predicates,
            p_functions=self.p_functions,
            query=self.query,
        )

    # ------------------------------------------------------------------
    def constraints_on(self, ie_predicate, attribute):
        """All ``(feature, value)`` constraints already on an attribute."""
        out = []
        for rule in self.description_rules_for(ie_predicate):
            for atom in rule.body_atoms(ConstraintAtom):
                if atom.var.name == attribute:
                    out.append((atom.feature, atom.value))
        return out

    def ie_attributes(self):
        """``(ie_predicate, attribute)`` pairs open to refinement."""
        pairs = []
        for rule in self.description_rules:
            for var in rule.head.output_vars:
                pair = (rule.head.name, var.name)
                if pair not in pairs:
                    pairs.append(pair)
        return pairs

    def __repr__(self):
        return "Program(query=%r, %d rules)" % (self.query, len(self.rules))

    def source(self):
        """Round-trippable textual form of the rules."""
        return ".\n".join(repr(r) for r in self.rules) + "."
