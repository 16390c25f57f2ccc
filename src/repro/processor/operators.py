"""Physical operators over compact tables (section 4.1-4.3).

Every operator consumes/produces :class:`CompactTable` under *superset
semantics*: the set of possible relations represented by the output is
a superset of the exact Alog answer.  Certainty claims are the
dangerous direction (marking a tuple certain removes worlds), so all
the maybe-flag logic errs conservative; see
:mod:`repro.processor.conditions` for the exact rule.
"""

from repro.ctables.assignments import Contain
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.errors import EnumerationLimitError, EvaluationError, ExecutionFailure
from repro.processor.bannotate import annotate_table
from repro.processor.conditions import cell_tokens
from repro.processor.constraints import apply_constraint_to_cell
from repro.text.span import Span, doc_span


def combo_doc_id(values):
    """The document a value combination is attributable to, or ``None``.

    Best-effort failure isolation quarantines *documents*; a raising
    p-predicate or p-function is attributed to the document of the first
    span among its arguments (document-local plans guarantee all spans
    share one document).
    """
    for value in values:
        if isinstance(value, Span):
            return value.doc.doc_id
    return None


__all__ = [
    "Operator",
    "ScanExtensional",
    "ScanIntensional",
    "TableSource",
    "FromOp",
    "ConstraintSelect",
    "ConditionSelect",
    "JoinOp",
    "ProjectOp",
    "PPredicateOp",
    "AnnotateOp",
    "UnionOp",
    "combo_doc_id",
]


def _cache_traffic(stats):
    return (
        stats.verify_cache_hits + stats.refine_cache_hits,
        stats.verify_cache_misses + stats.refine_cache_misses,
    )


class Operator:
    """Base class; subclasses define ``attrs`` and ``_execute``."""

    attrs = ()

    def execute(self, context):
        """Run the operator (and, through ``_execute``, its subtree).

        With a tracer on the context the call records one ``operator``
        span named by :meth:`describe`, nested under whatever span is
        open (the predicate, a partition, the parent operator).  Its
        attributes carry the output cardinalities and the EvalCache
        traffic of the whole subtree, measured like the span's window.
        """
        tracer = getattr(context, "tracer", None)
        if tracer is None:
            return self._execute(context)
        hits, misses = _cache_traffic(context.stats)
        with tracer.span(self.describe(), "operator") as span:
            table = self._execute(context)
            hits_after, misses_after = _cache_traffic(context.stats)
            span.attrs.update(
                tuples=len(table),
                assignments=table.assignment_count(),
                maybe=table.maybe_count(),
                cache_hits=hits_after - hits,
                cache_misses=misses_after - misses,
            )
        return table

    def _execute(self, context):
        raise NotImplementedError

    def children(self):
        return []

    def explain(self, depth=0):
        """An EXPLAIN-style rendering of the plan tree."""
        lines = ["  " * depth + self.describe()]
        for child in self.children():
            lines.extend(child.explain(depth + 1).splitlines())
        return "\n".join(lines)

    def describe(self):
        return type(self).__name__


class ScanExtensional(Operator):
    """One row per corpus document, as an ``exact`` whole-doc span."""

    def __init__(self, table_name, attr):
        self.table_name = table_name
        self.attrs = (attr,)

    def _execute(self, context):
        table = CompactTable(self.attrs)
        for doc in context.corpus.table(self.table_name):
            table.add(CompactTuple([Cell.exact(doc_span(doc))]))
        context.stats.tuples_built += len(table)
        return table

    def describe(self):
        return "Scan[%s -> %s]" % (self.table_name, self.attrs[0])


class ScanIntensional(Operator):
    """Read an already-computed intensional relation, renaming attrs."""

    def __init__(self, predicate, attrs):
        self.predicate = predicate
        self.attrs = tuple(attrs)

    def _execute(self, context):
        source = context.relations.get(self.predicate)
        if source is None:
            raise EvaluationError("relation %r not yet computed" % (self.predicate,))
        if len(source.attrs) != len(self.attrs):
            raise EvaluationError(
                "arity mismatch scanning %r: %r vs %r"
                % (self.predicate, source.attrs, self.attrs)
            )
        table = CompactTable(self.attrs)
        for t in source:
            table.add(t)
        return table

    def describe(self):
        return "ScanRel[%s -> (%s)]" % (self.predicate, ", ".join(self.attrs))


class TableSource(Operator):
    """Wrap an existing compact table as a plan leaf (reuse path)."""

    def __init__(self, table):
        self.table = table
        self.attrs = table.attrs

    def _execute(self, context):
        return self.table

    def describe(self):
        return "Table[(%s), %d tuples]" % (", ".join(self.attrs), len(self.table))


class FromOp(Operator):
    """The built-in ``from(@x, y)`` sub-span generator (section 4.2).

    Never enumerates: for an input cell with assignments
    ``{m1(s1), ..., mn(sn)}`` it produces the expansion cell
    ``expand({contain(s1), ..., contain(sn)})``.
    """

    def __init__(self, child, source_attr, out_attr):
        self.child = child
        self.source_attr = source_attr
        self.out_attr = out_attr
        self.attrs = child.attrs + (out_attr,)

    def children(self):
        return [self.child]

    def _execute(self, context):
        source_table = self.child.execute(context)
        index = source_table.attr_index(self.source_attr)
        table = CompactTable(self.attrs)
        for t in source_table:
            anchors = []
            for assignment in t.cells[index].assignments:
                span = assignment.anchor_span
                if span is not None:
                    anchors.append(Contain(span))
            new_cell = Cell.expansion(anchors)
            table.add(CompactTuple(t.cells + (new_cell,), maybe=t.maybe))
        context.stats.tuples_built += len(table)
        return table

    def describe(self):
        return "From[%s -> %s]" % (self.source_attr, self.out_attr)


class ConstraintSelect(Operator):
    """``σ_k`` for a domain constraint ``feature(attr) = value``."""

    def __init__(self, child, attr, feature, value, priors=()):
        self.child = child
        self.attr = attr
        self.feature = feature
        self.value = value
        self.priors = tuple(priors)
        self.attrs = child.attrs

    def children(self):
        return [self.child]

    def _execute(self, context):
        source = self.child.execute(context)
        return apply_constraint_to_table(
            source, self.attr, self.feature, self.value, self.priors, context
        )

    def describe(self):
        return "Select[%s(%s) = %r]" % (self.feature, self.attr, self.value)


def apply_constraint_to_table(source, attr, feature, value, priors, context, mark_maybe=True):
    """Shared by :class:`ConstraintSelect` and the reuse path.

    ``mark_maybe=False`` is used by the reuse path when ``attr`` is an
    *annotated* attribute of the rule: the new constraint commutes past
    ψ (it trims each group's value pool before the one-per-group
    choice), so a group with any surviving value keeps a certain tuple.

    With a tracer on the context, the whole pass over the table — all of
    this constraint's Verify/Refine work — records one
    ``verify-batch:`` feature span attributed with the evaluation
    traffic it caused (stats deltas).
    """
    tracer = getattr(context, "tracer", None)
    if tracer is None:
        return _constraint_pass(source, attr, feature, value, priors, context, mark_maybe)
    stats = context.stats
    verify, refine = stats.verify_calls, stats.refine_calls
    hits, misses = _cache_traffic(stats)
    with tracer.span(
        "verify-batch:%s(%s)" % (feature, attr),
        category="feature",
        feature=str(feature),
        attribute=attr,
        value=str(value),
    ) as span:
        table = _constraint_pass(source, attr, feature, value, priors, context, mark_maybe)
        verify_after, refine_after = stats.verify_calls, stats.refine_calls
        hits_after, misses_after = _cache_traffic(stats)
        span.attrs.update(
            verify_evals=verify_after - verify,
            refine_evals=refine_after - refine,
            cache_hits=hits_after - hits,
            cache_misses=misses_after - misses,
        )
        span.attrs["out_tuples"] = len(table)
    return table


def _constraint_pass(source, attr, feature, value, priors, context, mark_maybe):
    index = source.attr_index(attr)
    table = CompactTable(source.attrs)
    for t in source:
        old_cell = t.cells[index]
        new_cell = apply_constraint_to_cell(old_cell, feature, value, priors, context)
        if new_cell.is_empty():
            continue
        if new_cell is old_cell:  # every assignment survived as it was
            table.tuples.append(t)
            continue
        new_tuple = t.with_cell(index, new_cell)
        if mark_maybe and new_cell != old_cell and not old_cell.is_expansion:
            new_tuple = new_tuple.as_maybe()
        table.tuples.append(new_tuple)
    context.stats.tuples_built += len(table)
    return table


class ConditionSelect(Operator):
    """``σ_f`` for a comparison or p-function condition."""

    def __init__(self, child, condition):
        self.child = child
        self.attrs = child.attrs
        self.condition = condition.bind(self.attrs)

    def children(self):
        return [self.child]

    def _execute(self, context):
        source = self.child.execute(context)
        table = CompactTable(self.attrs)
        for t in source:
            state = self.condition.apply(t.cells, t.maybe, context)
            if state is None:
                continue
            cells, maybe = state
            if cells is not t.cells or maybe != t.maybe:
                t = CompactTuple.trusted(cells, maybe)
            table.tuples.append(t)
        context.stats.tuples_built += len(table)
        return table

    def describe(self):
        return "Select[%r]" % (self.condition,)


class JoinOp(Operator):
    """θ-join of two fragments with a list of conditions (section 4.1).

    Nested loops over the Cartesian product; when one condition is a
    blockable similarity p-function, a token index over the right side
    prunes pairs that share no token (they cannot satisfy the
    condition, so pruning is exact, not approximate).  The conditions
    are bound to the join's attributes once and run per pair over its
    cells by position, with one memo of per-cell facts per execution.
    A kept pair becomes one tuple, built once with its final maybe flag.
    Blocked pairs share a token, so a first blocking condition skips its
    empty-overlap test.
    """

    def __init__(self, left, right, conditions=()):
        self.left = left
        self.right = right
        overlap = set(left.attrs) & set(right.attrs)
        if overlap:
            raise EvaluationError("join sides share attributes: %r" % (overlap,))
        self.attrs = left.attrs + right.attrs
        self.conditions = [condition.bind(self.attrs) for condition in conditions]

    def children(self):
        return [self.left, self.right]

    def _execute(self, context):
        left_table = self.left.execute(context)
        right_table = self.right.execute(context)
        table = CompactTable(self.attrs)
        memo = {}
        blocking = self._blocking_condition(context)
        if blocking is not None:
            pairs = self._blocked_pairs(left_table, right_table, blocking, memo)
        else:
            pairs = (
                (lt, rt) for lt in left_table for rt in right_table
            )
        conditions = self.conditions
        if blocking is not None and blocking[0] is conditions[0]:
            # the first condition sees each pair's cells as blocking did
            conditions = [conditions[0].on_overlapping_pairs()] + conditions[1:]
        rows = table.tuples
        for lt, rt in pairs:
            state = (lt.cells + rt.cells, lt.maybe or rt.maybe)
            for condition in conditions:
                state = condition.apply(*state, context, memo)
                if state is None:
                    break
            else:
                rows.append(CompactTuple.trusted(*state))
        context.stats.tuples_built += len(table)
        return table

    # -- token blocking ---------------------------------------------------
    def _blocking_condition(self, context):
        """``(condition, left position, right position)`` of the first

        share-a-token condition over one cell of each side, or ``None``.
        """
        if not context.config.blocking_joins:
            return None
        split = len(self.left.attrs)
        for condition in self.conditions:
            if getattr(getattr(condition, "func", None), "blockable", False):
                keys = sorted(s.key for s in condition.sides if not s.is_const)
                if len(keys) == 2 and keys[0] < split <= keys[1]:
                    return condition, keys[0], keys[1] - split
        return None

    def _blocked_pairs(self, left_table, right_table, blocking, memo):
        _, left_index, right_index = blocking
        postings = {}
        for position, rt in enumerate(right_table):
            for token in cell_tokens(rt.cells[right_index], memo):
                postings.setdefault(token, set()).add(position)
        right_tuples = right_table.tuples
        for lt in left_table:
            candidates = set()
            for token in cell_tokens(lt.cells[left_index], memo):
                candidates.update(postings.get(token, ()))
            for position in sorted(candidates):
                yield lt, right_tuples[position]

    def describe(self):
        return "Join[%s]" % (", ".join(repr(c) for c in self.conditions) or "cross")


class ProjectOp(Operator):
    """π onto a subset/reordering of attributes (duplicates kept)."""

    def __init__(self, child, attrs):
        self.child = child
        self.attrs = tuple(attrs)

    def children(self):
        return [self.child]

    def _execute(self, context):
        source = self.child.execute(context)
        indexes = [source.attr_index(a) for a in self.attrs]
        table = CompactTable(self.attrs)
        table.tuples = [
            CompactTuple.trusted(tuple([t.cells[i] for i in indexes]), t.maybe) for t in source
        ]
        return table

    def describe(self):
        return "Project[%s]" % (", ".join(self.attrs),)


class PPredicateOp(Operator):
    """Evaluate a procedural p-predicate over compact tuples (§4.1).

    For each tuple: expansion cells are expanded away, the possible
    input tuples are enumerated, the procedure runs once per possible
    input, and each produced row becomes an ``exact`` compact tuple —
    flagged maybe when the input represented more than one possible
    tuple (or was itself maybe).
    """

    def __init__(self, child, name, spec, input_attrs, output_attrs):
        self.child = child
        self.name = name
        self.spec = spec
        self.input_attrs = tuple(input_attrs)
        self.output_attrs = tuple(output_attrs)
        self.attrs = child.attrs + self.output_attrs

    def children(self):
        return [self.child]

    def _execute(self, context):
        import itertools

        source = self.child.execute(context)
        cap = context.config.ppredicate_cap
        input_indexes = [source.attr_index(a) for a in self.input_attrs]
        table = CompactTable(self.attrs)
        for t in source:
            # only the *input* cells need concrete values; other cells
            # (including wide expansion families) pass through untouched
            value_lists = []
            choice_uncertainty = t.maybe
            total = 1
            for i in input_indexes:
                cell = t.cells[i]
                values, complete = cell.enumerate_values(cap)
                total *= max(1, len(values))
                if not complete or total > cap:
                    raise EnumerationLimitError(
                        "p-predicate %r input cell too wide; add domain "
                        "constraints before the cleanup step" % (self.name,)
                    )
                if not cell.is_expansion and len(values) > 1:
                    choice_uncertainty = True
                value_lists.append(values)
            for combo in itertools.product(*value_lists):
                context.stats.ppredicate_calls += 1
                try:
                    outputs = list(self.spec.func(*combo))
                except Exception as exc:
                    raise ExecutionFailure.wrap(
                        exc,
                        doc_id=combo_doc_id(combo),
                        operator="PPredicate",
                        predicate=self.name,
                    ) from exc
                for output in outputs:
                    cells = list(t.cells)
                    for i, v in zip(input_indexes, combo):
                        cells[i] = Cell.exact(v)
                    cells.extend(Cell.exact(v) for v in output)
                    table.add(CompactTuple(cells, maybe=choice_uncertainty))
        context.stats.tuples_built += len(table)
        return table

    def describe(self):
        return "PPredicate[%s(%s) -> (%s)]" % (
            self.name,
            ", ".join(self.input_attrs),
            ", ".join(self.output_attrs),
        )


class AnnotateOp(Operator):
    """The ψ annotation operator (section 4.3)."""

    def __init__(self, child, existence, annotated_attrs):
        self.child = child
        self.existence = existence
        self.annotated_attrs = tuple(annotated_attrs)
        self.attrs = child.attrs

    def children(self):
        return [self.child]

    def _execute(self, context):
        source = self.child.execute(context)
        return annotate_table(source, self.existence, self.annotated_attrs, context)

    def describe(self):
        parts = []
        if self.existence:
            parts.append("?")
        parts.extend("<%s>" % a for a in self.annotated_attrs)
        return "Annotate[%s]" % (", ".join(parts) or "none")


class UnionOp(Operator):
    """Multiset union of same-schema tables (multi-rule predicates)."""

    def __init__(self, children):
        self._children = list(children)
        if not self._children:
            raise EvaluationError("union of zero children")
        self.attrs = self._children[0].attrs
        for child in self._children[1:]:
            # positional alignment: different rules for one predicate may
            # name the same attribute positions differently
            if len(child.attrs) != len(self.attrs):
                raise EvaluationError(
                    "union children have different arities: %r vs %r"
                    % (child.attrs, self.attrs)
                )

    def children(self):
        return list(self._children)

    def _execute(self, context):
        table = CompactTable(self.attrs)
        for child in self._children:
            for t in child.execute(context):
                table.add(t)
        return table

    def describe(self):
        return "Union[%d]" % (len(self._children),)
