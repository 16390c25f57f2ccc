"""Plan analysis: splitting a compiled plan at the document boundary.

Document-at-a-time IE is embarrassingly parallel: every operator that
consumes one document's tuples independently of every other document's
can run once per corpus partition, with the per-partition compact
tables unioned afterwards.  This module walks a compiled operator tree
and splits it into

*document-local prefix*
    maximal subtrees whose output over the whole corpus equals the
    union of their outputs over the corpus partitions — extensional
    scans, ``from`` generators, constraint/condition selections,
    projections, per-tuple p-predicates, and ψ whose group keys contain
    a document-anchored attribute;

*global suffix*
    everything above those subtrees — cross-document joins, scans of
    already-merged intensional tables, multi-rule unions, and any ψ
    whose groups may span documents.

The analysis is purely structural, so re-compiling the same predicate
yields the same split: the physical layer relies on this to execute the
prefix per partition from fresh plan copies and align the results.

An attribute is *document-anchored* when every value it can hold is a
span of the tuple's single source document (span identity includes the
``doc_id``, so grouping by such an attribute can never merge tuples
from different documents — or partitions).
"""

from repro.processor.operators import (
    AnnotateOp,
    ConditionSelect,
    ConstraintSelect,
    FromOp,
    Operator,
    PPredicateOp,
    ProjectOp,
    ScanExtensional,
    UnionOp,
)

__all__ = [
    "GatherOp",
    "PlanSplit",
    "split_plan",
    "bind_tables",
    "walk_plan",
    "subtree_locality",
]


def walk_plan(root):
    """Depth-first iterator over every operator of a compiled plan.

    Static analyses (``repro lint --plan``) use this to count and
    classify operators without executing anything.
    """
    yield root
    for child in root.children():
        for op in walk_plan(child):
            yield op


class GatherOp(Operator):
    """Suffix leaf holding the union of per-partition prefix results.

    Takes the place of a document-local subtree when the global suffix
    executes; ``index`` identifies which local root it replaced so
    tracing can attribute the per-partition measurements back to it.
    """

    def __init__(self, table, attrs, partitions, index=0):
        self.table = table
        self.attrs = tuple(attrs)
        self.partitions = partitions
        self.index = index

    def _execute(self, context):
        return self.table

    def span_attrs(self):
        return {"index": self.index}

    def describe(self):
        return "Gather[(%s), %d partitions, %d tuples]" % (
            ", ".join(self.attrs),
            self.partitions,
            len(self.table),
        )


def _locality(op):
    """``(local, doc_attrs)`` for one subtree.

    ``local`` — executing per partition and unioning equals executing
    whole-corpus; ``doc_attrs`` — output attributes guaranteed to hold
    spans of the tuple's single source document.
    """
    if isinstance(op, ScanExtensional):
        return True, set(op.attrs)
    if isinstance(op, FromOp):
        local, docs = _locality(op.child)
        # the generated cell is expand({contain(s_i)}) over anchors of
        # the source document, so the output attr is doc-anchored too
        return local, docs | {op.out_attr}
    if isinstance(op, (ConstraintSelect, ConditionSelect)):
        # per-tuple filters; surviving cells hold subsets of the input
        # assignments, so doc anchoring is preserved
        return _locality(op.child)
    if isinstance(op, ProjectOp):
        local, docs = _locality(op.child)
        return local, docs & set(op.attrs)
    if isinstance(op, PPredicateOp):
        # the procedure runs once per possible input tuple: per-tuple
        # work.  Input cells are re-written to enumerated values — for a
        # doc-anchored attr those are spans of the same document — while
        # procedure *outputs* are arbitrary and never doc-anchored.
        local, docs = _locality(op.child)
        return local, set(docs)
    if isinstance(op, AnnotateOp):
        local, docs = _locality(op.child)
        effective = [a for a in op.annotated_attrs if a in op.child.attrs]
        if not effective:
            # existence-only ψ flags tuples individually
            return local, docs
        keys = set(op.child.attrs) - set(effective)
        if not (docs & keys):
            # groups may merge tuples from different documents
            return False, set()
        # each group is confined to one document, so grouping per
        # partition produces exactly the serial groups (in scan order)
        return local, docs & keys
    if isinstance(op, UnionOp):
        # per-partition interleaving of the children would reorder the
        # multiset relative to a serial child-by-child union, so unions
        # stay in the suffix (their children may still be local)
        return False, set()
    # JoinOp pairs tuples across documents; ScanIntensional/TableSource/
    # GatherOp read merged tables; unknown operators: conservatively global
    return False, set()


def subtree_locality(op):
    """Public form of the locality judgment for one subtree.

    Returns ``(local, doc_attrs)`` — whether the subtree is
    document-local and which output attributes are doc-anchored; the
    same judgment :func:`split_plan` uses, exposed for static analysis.
    """
    return _locality(op)


def _collect_local_roots(op, out):
    local, _ = _locality(op)
    if local:
        out.append(op)
        return
    for child in op.children():
        _collect_local_roots(child, out)


class PlanSplit:
    """One compiled plan, analyzed into prefix subtrees + suffix."""

    def __init__(self, root):
        self.root = root
        self.local_roots = []
        _collect_local_roots(root, self.local_roots)
        #: the whole plan is document-local (the common shape for an
        #: unfolded single-rule extraction predicate)
        self.fully_local = len(self.local_roots) == 1 and self.local_roots[0] is root

    @property
    def has_local_work(self):
        return bool(self.local_roots)

    def explain(self):
        """The split as text: local roots marked inside the plan tree."""
        marked = {id(op) for op in self.local_roots}

        def render(op, depth):
            flag = " *local*" if id(op) in marked else ""
            lines = ["  " * depth + op.describe() + flag]
            for child in op.children():
                lines.extend(render(child, depth + 1))
            return lines

        return "\n".join(render(self.root, 0))


def split_plan(plan):
    """Analyze one compiled plan; returns a :class:`PlanSplit`."""
    return PlanSplit(plan)


def bind_tables(split, tables, partitions=1):
    """The global suffix with each local root replaced by a gather leaf.

    Mutates ``split``'s (freshly compiled) tree in place; ``tables``
    pairs with ``split.local_roots`` by position.  When the whole plan
    was local the suffix degenerates to the gather leaf itself.
    """
    if len(tables) != len(split.local_roots):
        raise ValueError(
            "expected %d gathered tables, got %d"
            % (len(split.local_roots), len(tables))
        )
    replacements = {
        id(op): GatherOp(table, op.attrs, partitions, index=i)
        for i, (op, table) in enumerate(zip(split.local_roots, tables))
    }
    if id(split.root) in replacements:
        return replacements[id(split.root)]
    _rebind(split.root, replacements)
    return split.root


def _rebind(op, replacements):
    for name in ("child", "left", "right"):
        child = getattr(op, name, None)
        if child is None:
            continue
        if id(child) in replacements:
            setattr(op, name, replacements[id(child)])
        else:
            _rebind(child, replacements)
    if getattr(op, "_children", None):
        op._children = [replacements.get(id(c), c) for c in op._children]
        for child in op._children:
            if not isinstance(child, GatherOp):
                _rebind(child, replacements)
