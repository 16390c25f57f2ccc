"""Pass 9 (opt-in) — static plan-level performance lint (``ALOG020``, ``ALOG021``).

The surface passes check what a program *means*; this one checks what
it will *cost*.  It compiles every intensional predicate exactly the
way the engine would (unfold, :func:`~repro.processor.plan.compile_rule`,
:func:`~repro.processor.split.split_plan`) and walks the operator trees
symbolically, tracking for each attribute whether it is

``doc``
    a whole-document span from an extensional scan,
``wide``
    an unbounded ``from`` expansion no constraint has narrowed yet —
    the one state that makes downstream work explode,
``narrowed``
    an expansion after its first domain constraint,
``value``
    an exact scalar (p-predicate output, or an enumerated input).

Two codes fall out of the walk (``ALOG019`` is retired and its number
not reused):

``ALOG020`` (warning)
    unbounded fan-out — a join with no linking condition (Cartesian
    product) or a p-predicate enumerating a still-wide input cell
    (the ``enumerate_values`` cap is how that ends at runtime);
``ALOG021`` (warning)
    the global part of a plan (a join, a union, a cross-document ψ)
    consumes a document-local table that still carries a wide
    attribute: the cross-document operator sees its full unbounded
    expansion.

Each compiled rule also gets a structural cost estimate from
:meth:`~repro.baselines.cost_model.CostModel.plan_complexity` — a
relative score over the same coefficients the Xlog baseline model uses
— published as the :class:`PlanReport` behind ``repro lint --plan``.

The pass is opt-in (``analyze_*(..., plan=True)``): it needs a
compilable program, and its diagnostics are advisory by design — the
pre-execution gate runs it, but only the surface passes produce
blocking errors.
"""

from dataclasses import dataclass, field

__all__ = ["PlanRow", "PlanReport", "check_plan"]

#: merge rank for union children: the loosest state wins
_STATE_RANK = {"value": 0, "narrowed": 1, "doc": 2, "wide": 3}


@dataclass(frozen=True)
class PlanRow:
    """Static statistics of one compiled rule plan."""

    predicate: str
    rule_label: str
    attributes: int
    extractions: int  # FromOp + PPredicateOp count
    joins: int
    constraints: int
    locality: str  # 'local' | 'mixed' | 'global'
    cost: float

    def to_dict(self):
        return {
            "predicate": self.predicate,
            "rule": self.rule_label,
            "attributes": self.attributes,
            "extractions": self.extractions,
            "joins": self.joins,
            "constraints": self.constraints,
            "locality": self.locality,
            "cost": self.cost,
        }


@dataclass
class PlanReport:
    """Every rule's static plan statistics, evaluation order."""

    rows: list = field(default_factory=list)

    def to_dict(self):
        return {"rules": [row.to_dict() for row in self.rows]}

    def render(self):
        headers = (
            "rule", "predicate", "attrs", "extract", "joins",
            "constraints", "locality", "cost",
        )
        table = [headers]
        for row in self.rows:
            table.append(
                (
                    row.rule_label,
                    row.predicate,
                    str(row.attributes),
                    str(row.extractions),
                    str(row.joins),
                    str(row.constraints),
                    row.locality,
                    "%.1f" % row.cost,
                )
            )
        widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
        lines = []
        for i, r in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the symbolic walk
# ----------------------------------------------------------------------

class _Scout:
    """Walks one rule's plan, computing attr states and emitting codes."""

    def __init__(self, analyzer, anchor, pred_states):
        self.analyzer = analyzer
        self.anchor = anchor  # original rule for diagnostics (may be None)
        self.pred_states = pred_states
        self.memo = {}  # id(op) -> {attr: state}

    def emit(self, code, message):
        self.analyzer.emit(code, message, rule=self.anchor)

    def states(self, op):
        cached = self.memo.get(id(op))
        if cached is None:
            cached = self._compute(op)
            self.memo[id(op)] = cached
        return cached

    def _compute(self, op):
        from repro.processor.operators import (
            AnnotateOp,
            ConditionSelect,
            ConstraintSelect,
            FromOp,
            JoinOp,
            PPredicateOp,
            ProjectOp,
            ScanExtensional,
            ScanIntensional,
            UnionOp,
        )

        if isinstance(op, ScanExtensional):
            return {op.attrs[0]: "doc"}
        if isinstance(op, ScanIntensional):
            source = self.pred_states.get(op.predicate)
            return {
                attr: (source[i] if source and i < len(source) else "value")
                for i, attr in enumerate(op.attrs)
            }
        if isinstance(op, FromOp):
            out = dict(self.states(op.child))
            out[op.out_attr] = "wide"
            return out
        if isinstance(op, ConstraintSelect):
            out = dict(self.states(op.child))
            if out.get(op.attr) == "wide":
                out[op.attr] = "narrowed"
            return out
        if isinstance(op, ConditionSelect):
            return self.states(op.child)
        if isinstance(op, PPredicateOp):
            out = dict(self.states(op.child))
            for attr in op.input_attrs:
                if out.get(attr) == "wide":
                    self.emit(
                        "ALOG020",
                        "p-predicate %r enumerates attribute %r while it "
                        "is still an unconstrained expansion: every "
                        "sub-span becomes a procedure call, which is how "
                        "runs hit the enumerate_values cap — add a "
                        "domain constraint on %r first"
                        % (op.name, attr, attr),
                    )
                out[attr] = "value"
            for attr in op.output_attrs:
                out[attr] = "value"
            return out
        if isinstance(op, JoinOp):
            out = dict(self.states(op.left))
            out.update(self.states(op.right))
            if not op.conditions:
                self.emit(
                    "ALOG020",
                    "join of (%s) and (%s) has no linking condition: a "
                    "Cartesian product pairs every tuple with every "
                    "other — add a comparison or p-function relating "
                    "the two sides"
                    % (", ".join(op.left.attrs), ", ".join(op.right.attrs)),
                )
            return out
        if isinstance(op, ProjectOp):
            child = self.states(op.child)
            return {attr: child.get(attr, "value") for attr in op.attrs}
        if isinstance(op, AnnotateOp):
            return self.states(op.child)
        if isinstance(op, UnionOp):
            merged = ["value"] * len(op.attrs)
            for child in op.children():
                child_states = self.states(child)
                for i, attr in enumerate(child.attrs):
                    state = child_states.get(attr, "value")
                    if _STATE_RANK[state] > _STATE_RANK[merged[i]]:
                        merged[i] = state
            return dict(zip(op.attrs, merged))
        # TableSource / unknown operators: already-merged concrete
        # tables, nothing unbounded left
        return {attr: "value" for attr in getattr(op, "attrs", ())}


# ----------------------------------------------------------------------
# the analyzer pass
# ----------------------------------------------------------------------

def check_plan(analyzer, program=None):
    """Run the plan lint; attaches a :class:`PlanReport` to the analyzer.

    Needs a resolvable, compilable program whose recursion (if any) is
    stratified-safe; anything else silently skips — the surface passes
    already reported why.  Recursive heads are legal: the lint walks
    the flattened group order, scouting each member's plan once (an
    in-group scan that has no state yet scouts as a plain value input,
    which is what a fixpoint iteration sees too).
    """
    from repro.analysis.analyzer import facts_program

    facts = analyzer.facts
    if analyzer.stratification is not None and any(
        not cycle.safe for cycle in analyzer.stratification.cycles
    ):
        return
    if program is None:
        program = facts_program(facts)
    if program is None:
        return
    try:
        from repro.alog.unfold import unfold_program
        from repro.processor.ordering import evaluation_order
        from repro.processor.plan import compile_program

        unfolded = unfold_program(program)
        order = [
            name
            for group in evaluation_order(
                unfolded, stratification=analyzer.stratification
            )
            for name in group
        ]
        compiled = compile_program(unfolded)
    except Exception:
        return

    from repro.baselines.cost_model import CostModel
    from repro.processor.operators import (
        ConstraintSelect,
        FromOp,
        JoinOp,
        PPredicateOp,
        UnionOp,
    )
    from repro.processor.split import split_plan, walk_plan

    cost_model = CostModel()
    by_label = {(r.label, r.head.name): r for r in facts.skeleton_rules}
    report = PlanReport()
    pred_states = {}
    for name in order:
        scouts = []
        for rule, plan in compiled.get(name, ()):
            anchor = by_label.get((rule.label, rule.head.name))
            scout = _Scout(analyzer, anchor, pred_states)
            root_states = scout.states(plan)
            scouts.append((rule, plan, scout, root_states))
            ops = list(walk_plan(plan))
            constraints = [o for o in ops if isinstance(o, ConstraintSelect)]
            extractions = sum(
                1 for o in ops if isinstance(o, (FromOp, PPredicateOp))
            )
            joins = sum(1 for o in ops if isinstance(o, JoinOp))
            rule_split = split_plan(plan)
            if rule_split.fully_local:
                locality = "local"
            elif rule_split.has_local_work:
                locality = "mixed"
            else:
                locality = "global"
            report.rows.append(
                PlanRow(
                    predicate=name,
                    rule_label=rule.label or rule.head.name,
                    attributes=len(plan.attrs),
                    extractions=extractions,
                    joins=joins,
                    constraints=len(constraints),
                    locality=locality,
                    cost=cost_model.plan_complexity(
                        len(plan.attrs), extractions, joins
                    ),
                )
            )
        if not scouts:
            continue
        if len(scouts) == 1:
            pred_plan = scouts[0][1]
        else:
            pred_plan = UnionOp([plan for _, plan, _, _ in scouts])
        _check_global_use(analyzer, name, pred_plan, scouts)
        head_states = _head_states(pred_plan, scouts)
        pred_states[name] = head_states
    analyzer.plan_report = report


def _owning_scout(op, scouts):
    """The per-rule scout whose plan contains ``op`` (memo lookup)."""
    for rule, _, scout, _ in scouts:
        if id(op) in scout.memo:
            return rule, scout
    return None, None


def _head_states(pred_plan, scouts):
    """The predicate's output states by position, for ScanIntensional."""
    from repro.processor.operators import UnionOp

    if isinstance(pred_plan, UnionOp):
        merged = ["value"] * len(pred_plan.attrs)
        for _, plan, _, root_states in scouts:
            for i, attr in enumerate(plan.attrs):
                state = root_states.get(attr, "value")
                if _STATE_RANK[state] > _STATE_RANK[merged[i]]:
                    merged[i] = state
        return merged
    _, plan, _, root_states = scouts[0]
    return [root_states.get(attr, "value") for attr in plan.attrs]


def _check_global_use(analyzer, name, pred_plan, scouts):
    """``ALOG021``: the global part consuming a wide local table."""
    from repro.processor.split import split_plan

    split = split_plan(pred_plan)
    if not split.has_local_work or split.fully_local:
        return
    for root in split.local_roots:
        rule, scout = _owning_scout(root, scouts)
        if scout is None:
            continue
        states = scout.memo[id(root)]
        wide = sorted(a for a, s in states.items() if s == "wide")
        if not wide:
            continue
        if len(wide) > 1:
            subject = "attributes %s are still unbounded expansions" % (
                ", ".join(wide),
            )
        else:
            subject = "attribute %s is still an unbounded expansion" % wide[0]
        analyzer.emit(
            "ALOG021",
            "the global part of %r consumes a document-local table whose "
            "%s: the cross-document operator above it sees the full "
            "sub-span fan-out — constrain %s before the boundary"
            % (name, subject, ", ".join(wide)),
            rule=scout.anchor,
        )
