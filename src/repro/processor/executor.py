"""The approximate program executor ("stitching" + reuse, §4 and §5.2).

:class:`IFlexEngine` evaluates an Alog program over a corpus: it
unfolds description rules, compiles one plan per intensional predicate,
executes them bottom-up over compact tables in the order of
:mod:`~repro.processor.ordering`, and returns the query predicate's
table.  Every predicate's table goes through the reuse ladder of
:mod:`~repro.processor.reuse`; stratified-safe recursive groups iterate
to fixpoint (:mod:`~repro.processor.fixpoint`), and the error policy of
:mod:`~repro.processor.policy` wraps each whole-execution attempt.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

from repro.alog.unfold import unfold_program
from repro.errors import (
    EvaluationError,
    ProgramLintError,
    SafetyError,
    UnknownFeatureError,
    UnknownPredicateError,
)
from repro.processor.context import EvalCache, ExecConfig, ExecutionContext
from repro.processor.fixpoint import FixpointMixin
from repro.processor.ordering import _stratification_for, evaluation_order
from repro.processor.physical import PhysicalExecutor
from repro.processor.plan import compile_predicate
from repro.processor.policy import _PolicyDriver
from repro.processor.reuse import ReuseMixin, RuleCache, _Run
from repro.xlog.ast import PredicateAtom

__all__ = ["IFlexEngine", "ExecutionResult"]

#: diagnostic code -> the exception type API callers historically caught
_LEGACY_ERROR_TYPES = {
    "ALOG001": SafetyError,
    "ALOG002": UnknownPredicateError,
    "ALOG014": UnknownPredicateError,
    "ALOG003": UnknownFeatureError,
    "ALOG016": EvaluationError,
}


@dataclass
class ExecutionResult:
    """What one program execution produced.

    The query table's three counts are taken in one pass, on first use:
    result tables are finished when execution returns (operators build
    new tables, cache hits share finished ones) and nothing mutates them
    afterwards.
    """

    query_table: object
    tables: dict
    stats: object
    elapsed: float
    reuse_summary: dict = field(default_factory=dict)
    #: :class:`~repro.errors.ExecutionReport` of contained failures
    #: (``None`` only on legacy construction paths)
    report: object = None

    @cached_property
    def _counts(self):
        return self.query_table.counts()

    @property
    def tuple_count(self):
        return self._counts[0]

    @property
    def assignment_count(self):
        return self._counts[1]

    @property
    def maybe_count(self):
        return self._counts[2]

    def summary(self):
        return {
            "tuples": self.tuple_count,
            "assignments": self.assignment_count,
            "maybe": self.maybe_count,
            "elapsed_s": self.elapsed,
        }


class IFlexEngine(ReuseMixin, FixpointMixin):
    """Approximate executor for one program over one corpus.

    With ``validate=True`` (the default) the static analyzer runs over
    the program before any plan is compiled, so a defective program
    fails up front with the classic exception types instead of half-way
    through an expensive extraction.  Pass ``validate=False`` when the
    program was already linted (the CLI does) or when executing a
    deliberately partial program.
    """

    def __init__(
        self,
        program,
        corpus,
        features=None,
        config=None,
        validate=True,
        eval_cache=None,
        tracer=None,
        metrics=None,
    ):
        self.program = program
        self.corpus = corpus
        self.features = features
        self.config = config or ExecConfig()
        #: optional :class:`~repro.observability.spans.Tracer`; when set,
        #: executions emit engine, plan, operator, partition, and
        #: scheduler spans.  Read per execution, so assigning it after
        #: construction reaches every layer.
        self.tracer = tracer
        #: optional :class:`~repro.observability.metrics.MetricsRegistry`;
        #: every completed execution folds its (layout-deterministic)
        #: counters into it
        self.metrics = metrics
        # Verify/Refine memo, shared by every execution of this engine
        # (and across engines when the caller passes its own — the
        # assistant session shares one session-wide).  It is keyed by
        # immutable document content, so sharing never changes results.
        self.eval_cache = eval_cache if eval_cache is not None else EvalCache()
        self.lint_result = None
        if validate:
            self.lint_result = self._validate()
        self.unfolded = unfold_program(program)
        # recursion safety is classified on the *original* program (the
        # unfolded one has IE atoms inlined away); reuse the analyzer's
        # stratification when validation ran instead of re-analyzing
        stratification = getattr(self.lint_result, "stratification", None)
        if stratification is None:
            stratification = _stratification_for(program)
        self.order = evaluation_order(
            self.unfolded, stratification=stratification
        )
        #: the groups the semi-naive fixpoint loop evaluates (multi-member
        #: components plus self-recursive singletons)
        self.recursive_groups = frozenset(
            group
            for group in self.order
            if len(group) > 1 or self._self_recursive(group[0])
        )
        #: documents quarantined by the error policy; the *active*
        #: corpus (what executions actually see) excludes them
        self.excluded_docs = set()
        self._active = self.corpus
        self.physical = self._make_physical()
        from repro.columnar.results import ResultStore

        #: persistent partition-result store per ``config.result_cache``
        #: (``None`` disables the delta execution path entirely)
        self.result_store = ResultStore.from_config(self.config)
        #: the store-backed cache :meth:`execute` uses when the caller
        #: passes none of its own; created lazily, reused across runs
        self._default_cache = None
        #: predicate -> may its table be persisted?  Procedural atoms
        #: (p-predicates / p-functions) are Python callables invisible
        #: to rule reprs, so any predicate that invokes one — directly
        #: or through an upstream intensional — must never be served
        #: from disk, where the same name may be bound to other code.
        self._persistable = self._persistable_predicates()
        self._docs_map = None

    @property
    def active_corpus(self):
        """The corpus minus quarantined documents."""
        return self._active

    def _exclude_document(self, doc_id):
        """Quarantine one document and rebuild the partitioned view."""
        self.excluded_docs.add(doc_id)
        self.rebind_corpus()

    def rebind_corpus(self, corpus=None, edited_docs=()):
        """Re-point this resident engine at a mutated (or new) corpus.

        The engine-as-library entry point the service's ingestion path
        uses: shared acceleration state (eval cache, result store, the
        default rule cache) stays resident — reuse fingerprints are
        content-addressed, so stale entries simply miss — while
        everything derived from the corpus *view* (active corpus,
        partitioning, the doc-id decode map) is rebuilt.
        ``edited_docs`` names documents replaced *in place* (same id,
        new content): their content-keyed cache entries are
        the one thing content addressing cannot age out, so they are
        invalidated explicitly.  Quarantined documents stay quarantined.
        """
        if corpus is not None:
            self.corpus = corpus
        if edited_docs:
            self.eval_cache.invalidate_docs(edited_docs)
        self._active = (
            self.corpus.without(self.excluded_docs)
            if self.excluded_docs
            else self.corpus
        )
        self.physical = self._make_physical(self.physical)
        self._docs_map = None
        return self

    def _make_physical(self, previous=None):
        """The physical execution layer over the active corpus.

        Without ``partition_docs`` chunking the corpus is one partition,
        and every plan executes directly on the run's context (the
        original single-threaded code path, byte for byte).
        ``previous`` is the executor it replaces after a corpus change.
        """
        return PhysicalExecutor(
            self.unfolded,
            self._active,
            self.features,
            self.config,
            order=[g[0] for g in self.order if g not in self.recursive_groups],
            previous=previous,
        )

    def _self_recursive(self, name):
        """Does any of ``name``'s rules reference ``name`` in its body?"""
        return any(
            atom.name == name
            for rule in self.unfolded.rules_for(name)
            for atom in rule.body_atoms(PredicateAtom)
        )

    def _persistable_predicates(self):
        """``{name: bool}`` — which predicates may persist to disk.

        A recursive group shares one verdict: its members derive from
        each other, so if any member touches procedural code the whole
        group must stay off disk.
        """
        procedural = set(self.unfolded.p_predicates) | set(
            self.unfolded.p_functions
        )
        persistable = {}
        for group in self.order:
            clean = True
            for name in group:
                for rule in self.unfolded.rules_for(name):
                    for atom in rule.body_atoms(PredicateAtom):
                        if atom.name in procedural:
                            clean = False
                        elif (
                            atom.name in self.unfolded.intensional
                            and atom.name not in group
                        ):
                            clean = clean and persistable.get(atom.name, True)
            for name in group:
                persistable[name] = clean
        return persistable

    def _docs_by_id(self):
        """``doc_id -> Document`` over the active corpus (decode target)."""
        if self._docs_map is None:
            docs = {}
            for name in self._active.table_names():
                for doc in self._active.table(name):
                    docs[doc.doc_id] = doc
            self._docs_map = docs
        return self._docs_map

    def _partitioned_path(self, name):
        """Does this predicate route through the partition-keyed cache?"""
        return self.physical.partitioned and self.physical.fully_local(name)

    def _context(self):
        """A fresh whole-corpus execution context on the shared stores."""
        return ExecutionContext(
            self.unfolded,
            self._active,
            self.features,
            self.config,
            eval_cache=self.eval_cache,
            tracer=self.tracer,
        )

    def _span(self, name, category, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category, **attrs)

    def _validate(self):
        """Analyze the program; raise on the first error diagnostic.

        Errors map onto the historical exception types so existing
        callers keep their ``except`` clauses: unsafe rules raise
        :class:`SafetyError`, unresolved predicates
        :class:`UnknownPredicateError`, unknown features
        :class:`UnknownFeatureError`; anything else raises
        :class:`ProgramLintError` carrying the full diagnostic list.
        Warnings never block execution — the result is kept on
        ``self.lint_result`` for callers that surface them.
        """
        from repro.analysis import analyze_program

        result = analyze_program(self.program, registry=self.features, plan=True)
        for diagnostic in result.errors:
            exc_type = _LEGACY_ERROR_TYPES.get(diagnostic.code)
            if exc_type is not None:
                raise exc_type(diagnostic.message)
            raise ProgramLintError(diagnostic.message, result.diagnostics)
        return result

    # ------------------------------------------------------------------
    def execute(self, cache=None):
        """Run the program; returns an :class:`ExecutionResult`.

        The configured error policy (``ExecConfig.on_error``) is applied
        around the whole execution: under ``skip`` / ``retry`` a
        document-attributable failure quarantines the document and
        re-runs, and the result carries an
        :class:`~repro.errors.ExecutionReport` describing every
        contained incident (``result.report``).

        With a configured ``result_cache`` and no caller-supplied
        ``cache``, executions run against an engine-owned store-backed
        :class:`RuleCache`, so warm processes hydrate unchanged
        partition results from disk and recompute only dirty ones.
        """
        if cache is None and self.result_store is not None:
            if self._default_cache is None:
                self._default_cache = RuleCache(store=self.result_store)
            cache = self._default_cache
        driver = _PolicyDriver(self)
        with self._span(
            "execute", "engine", policy=driver.policy, query=self.unfolded.query
        ):
            result = driver.finish(driver.run(lambda: self._execute_attempt(cache)))
        if self.metrics is not None:
            from repro.observability.metrics import record_execution

            record_execution(self.metrics, result)
        return result

    def _execute_attempt(self, cache=None):
        """One uninterrupted execution over the active corpus."""
        start = time.perf_counter()
        context = self._context()
        run = _Run(cache, context)
        stats = context.stats
        for group in self.order:
            if group in self.recursive_groups:
                self._execute_fixpoint(group, run)
                continue
            name = group[0]
            fingerprint = self._fingerprint(name, run)
            store_hits = stats.result_cache_hits
            with self._span("predicate:%s" % name, "plan", predicate=name) as span:
                entry = cache.get(name) if cache is not None else None
                if entry is not None and entry.fingerprint.token == fingerprint.token:
                    table, kind = entry.table, "full"
                elif self._partitioned_path(name):
                    # constraints apply partition by partition, not here
                    table, kind = self._resolve(
                        run, name, fingerprint, store=self._merged_store(cache, name),
                        compute=lambda: self._execute_partitioned(name, run),
                    )
                else:
                    table, kind = self._resolve(
                        run, name, fingerprint, entry, self._merged_store(cache, name),
                        compute=lambda: (
                            compile_predicate(name, self.unfolded).execute(context),
                            "computed",
                        ),
                    )
                if span is not None:
                    # what explain_analyze renders the reuse lines from
                    span.attrs.update(
                        store_hits=stats.result_cache_hits - store_hits,
                        partitions_reused=run.partitions_reused.get(name, 0),
                    )
            self._remember(run, name, fingerprint, table, kind)
            run.tokens[name] = fingerprint.token
        if run.partition_tokens:
            # counted per corpus partition, over every partition-local
            # predicate that went through the partition-keyed cache
            # (see _execute_partitioned); a cacheless run counts none
            recomputed = len(run.recomputed)
            stats.partitions_recomputed += recomputed
            stats.partitions_reused += len(self.physical.partitions) - recomputed
        elapsed = time.perf_counter() - start
        return ExecutionResult(
            query_table=context.relations[self.unfolded.query],
            tables=dict(context.relations),
            stats=stats,
            elapsed=elapsed,
            reuse_summary=run.reuse,
        )

    # -- semi-naive fixpoint over recursive groups ---------------------

    def _execute_fixpoint(self, group, run):
        """Evaluate one recursive group, against the caches first.

        Fixpoint results reuse only wholesale: the members of a
        component derive from each other, so either every member's table
        comes back (memory or store) under its current fingerprint, or
        the whole group recomputes.  The constraints-commute incremental
        path deliberately does not apply — a constraint added to a
        recursive rule changes which tuples *feed back*, not merely
        which survive a final filter.  A computed group's fixpoint span
        records its iteration count.
        """
        self._group_tokens(group, run)
        fingerprints = {m: self._fingerprint(m, run) for m in group}
        label = "+".join(group)
        cache = run.cache
        with self._span("fixpoint:%s" % label, "plan", predicates=label) as span:
            tables = {}
            kind = "full"
            for member in group:
                fingerprint = fingerprints[member]
                entry = cache.get(member) if cache is not None else None
                if entry is not None and entry.fingerprint.token == fingerprint.token:
                    tables[member] = entry.table
                    continue
                store = self._merged_store(cache, member)
                tables[member], kind = self._resolve(run, member, fingerprint, store=store)
                if kind == "computed":
                    tables, iterations = self._run_fixpoint(group, run.context)
                    if span is not None:
                        span.attrs["iterations"] = iterations
                    break
        note = ", fixpoint group %s" % label
        for member in group:
            self._remember(run, member, fingerprints[member], tables[member], kind, note)

    def explain(self):
        """The compiled plan for every predicate, as text."""
        parts = []
        for group in self.order:
            recursive = group in self.recursive_groups
            for name in group:
                plan = compile_predicate(name, self.unfolded)
                header = (
                    "%s (semi-naive fixpoint group: %s)"
                    % (name, " + ".join(group))
                    if recursive
                    else name
                )
                parts.append("%s:\n%s" % (header, plan.explain(1)))
        return "\n".join(parts)

    def explain_analyze(self, cache=None):
        """EXPLAIN ANALYZE: :meth:`execute`, then render its spans.

        Returns ``(ExecutionResult, report_text)``.  The run is an
        ordinary traced execution — same error policy, reuse chain,
        result-cache hydration and counters — on the engine's tracer, or
        on a private one when none is set.  The report has one section
        per predicate: its operator rows (for a partitioned predicate,
        the per-partition measurements merged, counts summing to the
        serial counts), or a line saying which cache answered it; then
        the cache summary and any contained failures.
        """
        from repro.observability.spans import Tracer
        from repro.processor.tracing import render_analysis

        saved = self.tracer
        tracer = self.tracer = saved if saved is not None else Tracer()
        mark = len(tracer.spans)
        try:
            result = self.execute(cache)
        finally:
            self.tracer = saved
        text = render_analysis(
            tracer.spans[mark:], self.order, self.recursive_groups, result
        )
        return result, text

