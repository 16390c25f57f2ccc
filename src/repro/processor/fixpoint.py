"""The semi-naive fixpoint loop over one recursive predicate group."""

from repro.errors import ExecutionFailure
from repro.xlog.ast import PredicateAtom

__all__ = ["FixpointMixin"]


class FixpointMixin:
    """The fixpoint steps of :class:`~repro.processor.executor.IFlexEngine`.

    They read the engine's unfolded program and ``config``.
    """

    def _run_fixpoint(self, group, context):
        """The semi-naive loop: iterate one recursive group to fixpoint.

        Iteration 1 evaluates every rule against empty group relations
        (recursive rules contribute nothing; base rules seed the
        totals).  Later iterations evaluate only rules that can derive
        something new: a rule with exactly one in-group atom runs with
        that relation bound to the previous iteration's *delta*
        (semi-naive — every new derivation must use a new tuple there),
        a rule with several in-group atoms re-runs naively whenever any
        of its inputs grew, and base rules never re-run.  Derived tuples
        deduplicate against everything already seen by canonical tuple
        key (:func:`repro.ctables.keys.tuple_key`) — the fixed-point
        test is "this iteration's delta is empty", i.e. the canonical
        table key stopped changing.  Updates install Jacobi-style, after
        the whole iteration, so results never depend on member order;
        iteration over members and tuples follows deterministic list
        order, which is what keeps results byte-identical across
        partition layouts (the loop runs outside the partition tasks —
        recursive plans scan intensional tables, so they are never
        document-local).

        Returns ``({member: table}, iterations)`` or raises an
        :class:`~repro.errors.ExecutionFailure` (operator ``Fixpoint``,
        no document attribution, so every error policy surfaces it) when
        ``config.max_fixpoint_iterations`` is reached while deltas are
        still non-empty.
        """
        from repro.ctables.ctable import CompactTable
        from repro.ctables.keys import tuple_key
        from repro.processor.plan import compile_rule

        group_set = set(group)
        plans = {}
        attrs = {}
        for member in group:
            rule_plans = []
            for rule in self.unfolded.rules_for(member):
                plan = compile_rule(rule, self.unfolded)
                targets = tuple(
                    atom.name
                    for atom in rule.body_atoms(PredicateAtom)
                    if atom.name in group_set
                )
                rule_plans.append((plan, targets))
            plans[member] = rule_plans
            attrs[member] = rule_plans[0][0].attrs
        totals = {m: CompactTable(attrs[m]) for m in group}
        deltas = dict(totals)
        seen = {m: set() for m in group}
        for member in group:
            context.relations[member] = totals[member]
        limit = max(1, int(getattr(self.config, "max_fixpoint_iterations", 100)))
        iterations = 0
        while True:
            iterations += 1
            context.stats.fixpoint_iterations += 1
            fresh = {}
            for member in group:
                new_table = CompactTable(attrs[member])
                for plan, targets in plans[member]:
                    if iterations == 1:
                        produced = plan.execute(context)
                    elif not targets:
                        continue  # base rule: already accumulated
                    elif all(not deltas[t].tuples for t in set(targets)):
                        continue  # no input grew: nothing new derivable
                    elif len(targets) == 1:
                        produced = self._with_relation(
                            context, targets[0], deltas[targets[0]], plan
                        )
                    else:
                        produced = plan.execute(context)
                    for tup in produced.tuples:
                        key = tuple_key(tup)
                        if key in seen[member]:
                            continue
                        seen[member].add(key)
                        new_table.add(tup)
                fresh[member] = new_table
            # Jacobi update: every rule above ran against the previous
            # totals/deltas; install the new deltas only once the whole
            # iteration is done (Gauss-Seidel would make results depend
            # on member order within the group)
            converged = all(not fresh[m].tuples for m in group)
            for member in group:
                deltas[member] = fresh[member]
                if fresh[member].tuples:
                    totals[member] = CompactTable.union(
                        [totals[member], fresh[member]], attrs=attrs[member]
                    )
                    context.relations[member] = totals[member]
            if converged:
                return totals, iterations
            if iterations >= limit:
                growing = [m for m in group if fresh[m].tuples]
                raise ExecutionFailure(
                    "recursive group (%s) did not reach a fixpoint within "
                    "%d iteration(s) (max_fixpoint_iterations); still "
                    "deriving new tuples for: %s"
                    % (", ".join(group), limit, ", ".join(growing)),
                    operator="Fixpoint",
                    predicate=",".join(group),
                )

    def _with_relation(self, context, name, table, plan):
        """Execute ``plan`` with one relation temporarily rebound."""
        saved = context.relations[name]
        context.relations[name] = table
        try:
            return plan.execute(context)
        finally:
            context.relations[name] = saved
