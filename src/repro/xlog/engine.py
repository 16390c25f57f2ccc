"""The precise (exact) Xlog engine.

Bottom-up least-model evaluation of a non-recursive program, exactly as
traditional Datalog semantics prescribes (section 2.1): each rule's
body is evaluated over concrete bindings, p-predicates invoke their
procedures, and the query predicate's relation is the program result.

This engine serves three roles in the reproduction:

1. the **Xlog baseline** of the experiments (precise IE programs whose
   IE predicates are implemented procedurally);
2. the **reference semantics** for Alog: evaluating an unfolded rule
   body precisely (with ``from`` enumerating token-aligned sub-spans)
   yields the relation *R* to which Definitions 1-2 apply
   (:mod:`repro.alog.semantics`);
3. the execution back-end for **cleanup procedures**.

``from`` enumeration is capped (it is quadratic); the approximate
processor in :mod:`repro.processor` is the scalable path.
"""

from repro.ctables.assignments import value_key
from repro.errors import EnumerationLimitError, EvaluationError
from repro.features.registry import default_registry
from repro.text.span import Span, doc_span
from repro.xlog.ast import (
    Arith,
    ComparisonAtom,
    ConstraintAtom,
    Const,
    PredicateAtom,
    Var,
)
from repro.xlog.comparisons import comparison_holds

__all__ = ["XlogEngine"]

DEFAULT_FROM_LIMIT = 20_000


class XlogEngine:
    """Evaluate a program precisely over a corpus."""

    def __init__(self, program, corpus, feature_registry=None, from_limit=DEFAULT_FROM_LIMIT):
        self.program = program
        self.corpus = corpus
        self.features = feature_registry or default_registry()
        self.from_limit = from_limit
        self._relations = None

    # ------------------------------------------------------------------
    def evaluate(self):
        """Compute all intensional relations; returns name → rows."""
        if self._relations is not None:
            return self._relations
        self.program.check_safety()
        relations = {}
        for name in self._topological_order():
            rows = []
            for rule in self.program.rules_for(name):
                rows.extend(self._eval_rule(rule, relations))
            relations[name] = _dedup(rows)
        self._relations = relations
        return relations

    def query_result(self):
        """The rows of the query predicate."""
        return self.evaluate()[self.program.query]

    # ------------------------------------------------------------------
    def _topological_order(self):
        deps = {}
        for rule in self.program.skeleton_rules:
            deps.setdefault(rule.head.name, set())
            for atom in rule.body_atoms(PredicateAtom):
                if atom.name in self.program.intensional and atom.name != rule.head.name:
                    deps[rule.head.name].add(atom.name)
                elif atom.name == rule.head.name:
                    raise EvaluationError(
                        "recursive predicate %r is not supported" % (atom.name,)
                    )
        order = []
        visiting = set()

        def visit(name):
            if name in order:
                return
            if name in visiting:
                raise EvaluationError("recursive dependency through %r" % (name,))
            visiting.add(name)
            for dep in sorted(deps.get(name, ())):
                visit(dep)
            visiting.discard(name)
            order.append(name)

        for name in sorted(deps):
            visit(name)
        return order

    # ------------------------------------------------------------------
    # rule evaluation over concrete bindings
    # ------------------------------------------------------------------
    def _eval_rule(self, rule, relations, seed=None):
        bindings = [dict(seed or {})]
        remaining = list(rule.body)
        while remaining and bindings:
            atom = self._pick_ready(remaining, bindings[0])
            remaining.remove(atom)
            bindings = self._apply_atom(atom, bindings, relations)
        if remaining and not bindings:
            # all bindings died; result is empty regardless of the rest
            return []
        rows = []
        for binding in bindings:
            try:
                rows.append(tuple(binding[v.name] for v in rule.head.variables))
            except KeyError as exc:
                raise EvaluationError(
                    "head variable %s unbound in rule %r" % (exc, rule.label or rule.head.name)
                )
        return rows

    def _pick_ready(self, remaining, sample_binding):
        bound = set(sample_binding)

        def ready(atom):
            if isinstance(atom, ComparisonAtom):
                return all(v.name in bound for v in atom.variables)
            if isinstance(atom, ConstraintAtom):
                return atom.var.name in bound
            kind = self.program.atom_kind(atom)
            if kind == "p_function":
                return all(
                    not isinstance(a, Var) or a.name in bound for a in atom.args
                )
            if kind in ("extensional", "intensional"):
                return True
            # from / ie / p_predicate need their inputs
            return all(
                not isinstance(a, Var) or a.name in bound for a in atom.input_args
            )

        # filters first (cheap), then generators, preserving body order
        for atom in remaining:
            if isinstance(atom, (ComparisonAtom, ConstraintAtom)) and ready(atom):
                return atom
            if (
                isinstance(atom, PredicateAtom)
                and self.program.atom_kind(atom) == "p_function"
                and ready(atom)
            ):
                return atom
        for atom in remaining:
            if ready(atom):
                return atom
        raise EvaluationError(
            "no body atom is ready to evaluate (unbound inputs?): %r" % (remaining,)
        )

    # ------------------------------------------------------------------
    def _apply_atom(self, atom, bindings, relations):
        if isinstance(atom, ComparisonAtom):
            return [b for b in bindings if self._comparison(atom, b)]
        if isinstance(atom, ConstraintAtom):
            return [b for b in bindings if self._constraint(atom, b)]
        kind = self.program.atom_kind(atom)
        if kind == "p_function":
            return [b for b in bindings if self._p_function(atom, b)]
        if kind == "extensional":
            rows = [(doc_span(d),) for d in self.corpus.table(atom.name)]
            return self._join(atom, bindings, rows)
        if kind == "intensional":
            if atom.name not in relations:
                raise EvaluationError("relation %r not yet computed" % (atom.name,))
            return self._join(atom, bindings, relations[atom.name])
        if kind == "from":
            return self._apply_from(atom, bindings)
        if kind == "ie":
            return self._apply_ie(atom, bindings, relations)
        if kind == "p_predicate":
            return self._apply_p_predicate(atom, bindings)
        raise EvaluationError("cannot evaluate atom %r" % (atom,))

    # -- individual atom kinds -------------------------------------------
    def _term_value(self, term, binding):
        if isinstance(term, Var):
            return binding[term.name]
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Arith):
            from repro.ctables.assignments import value_number

            number = value_number(binding[term.var.name])
            return None if number is None else number + term.offset
        raise EvaluationError("unexpected term %r" % (term,))

    def _comparison(self, atom, binding):
        return comparison_holds(
            self._term_value(atom.left, binding),
            atom.op,
            self._term_value(atom.right, binding),
        )

    def _constraint(self, atom, binding):
        value = binding[atom.var.name]
        if not isinstance(value, Span):
            return False
        return self.features.get(atom.feature).verify(value, atom.value)

    def _p_function(self, atom, binding):
        args = [self._term_value(a, binding) for a in atom.args]
        return bool(self.program.p_functions[atom.name].func(*args))

    def _join(self, atom, bindings, rows):
        out = []
        for binding in bindings:
            for row in rows:
                extended = self._unify(atom.args, row, binding)
                if extended is not None:
                    out.append(extended)
        return out

    @staticmethod
    def _unify(args, row, binding):
        if len(args) != len(row):
            raise EvaluationError(
                "arity mismatch: %d args vs row of %d" % (len(args), len(row))
            )
        extended = None
        for arg, value in zip(args, row):
            if isinstance(arg, Const):
                if value_key(arg.value) != value_key(value):
                    return None
                continue
            name = arg.name
            current = (extended or binding).get(name, _MISSING)
            if current is _MISSING:
                if extended is None:
                    extended = dict(binding)
                extended[name] = value
            elif value_key(current) != value_key(value):
                return None
        return extended if extended is not None else dict(binding)

    def _apply_from(self, atom, bindings):
        if len(atom.args) != 2:
            raise EvaluationError("from/2 expects (input, output)")
        source_term, out_term = atom.args
        out = []
        for binding in bindings:
            source = self._term_value(source_term, binding)
            if not isinstance(source, Span):
                raise EvaluationError("from() input must be a span, got %r" % (source,))
            if source.count_token_aligned_subspans() > self.from_limit:
                raise EnumerationLimitError(
                    "from() would enumerate %d sub-spans (limit %d); use the "
                    "approximate processor"
                    % (source.count_token_aligned_subspans(), self.from_limit)
                )
            for sub in source.token_aligned_subspans():
                extended = self._unify((out_term,), (sub,), binding)
                if extended is not None:
                    out.append(extended)
        return out

    def _apply_ie(self, atom, bindings, relations):
        rules = self.program.description_rules_for(atom.name)
        if not rules:
            return self._apply_p_predicate(atom, bindings)
        out = []
        for binding in bindings:
            for rule in rules:
                head_inputs = rule.head.input_vars
                atom_inputs = atom.input_args
                if len(head_inputs) != len(atom_inputs):
                    raise EvaluationError(
                        "input arity mismatch invoking IE predicate %r" % (atom.name,)
                    )
                seed = {
                    hv.name: self._term_value(at, binding)
                    for hv, at in zip(head_inputs, atom_inputs)
                }
                for row in self._eval_rule(rule, relations, seed=seed):
                    extended = self._unify(atom.args, row, binding)
                    if extended is not None:
                        out.append(extended)
        return out

    def _apply_p_predicate(self, atom, bindings):
        spec = self.program.p_predicates.get(atom.name)
        if spec is None:
            raise EvaluationError(
                "IE predicate %r has neither description rules nor a procedure"
                % (atom.name,)
            )
        out = []
        for binding in bindings:
            inputs = [self._term_value(a, binding) for a in atom.input_args]
            if len(inputs) != spec.n_inputs:
                raise EvaluationError(
                    "p-predicate %r expects %d inputs, got %d"
                    % (atom.name, spec.n_inputs, len(inputs))
                )
            for output in spec.func(*inputs):
                row = tuple(inputs) + tuple(output)
                extended = self._unify(atom.args, row, binding)
                if extended is not None:
                    out.append(extended)
        return out


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _dedup(rows):
    seen = {}
    for row in rows:
        seen.setdefault(tuple(value_key(v) for v in row), row)
    return list(seen.values())
