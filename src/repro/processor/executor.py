"""The approximate program executor ("stitching" + reuse, §4 and §5.2).

:class:`IFlexEngine` evaluates an Alog program over a corpus: it
unfolds description rules, compiles one plan per intensional predicate,
executes them bottom-up over compact tables, and returns the query
predicate's table.  Stratified-safe recursive components evaluate as
*groups*: a semi-naive fixpoint loop iterates the component's rules
over per-iteration delta tables until no new tuple (by canonical key)
appears; genuinely unsafe cycles — ψ, IE, or procedural predicates in
the cycle — are refused with ``ALOG016`` exactly as before.

Cross-iteration **reuse** (section 5.2) is keyed on a per-predicate
fingerprint.  When a refinement only *adds* domain constraints to a
predicate's rules — the common case during assistant-driven iteration —
the new constraints are applied directly to the cached table (domain
constraints commute, section 4.2) instead of re-extracting from
scratch; anything downstream re-executes against the updated table.
"""

import hashlib
import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.alog.unfold import unfold_program
from repro.errors import (
    EvaluationError,
    ExecutionFailure,
    ExecutionReport,
    PartitionTimeout,
    ProgramLintError,
    SafetyError,
    UnknownFeatureError,
    UnknownPredicateError,
)
from repro.observability.logs import get_logger
from repro.processor.context import ERROR_POLICIES, EvalCache, ExecConfig, ExecutionContext
from repro.processor.operators import apply_constraint_to_table
from repro.processor.plan import compile_predicate
from repro.xlog.ast import ConstraintAtom, PredicateAtom, Rule

__all__ = ["IFlexEngine", "ExecutionResult", "RuleCache", "evaluation_order"]

logger = get_logger("processor")

#: diagnostic code -> the exception type API callers historically caught
_LEGACY_ERROR_TYPES = {
    "ALOG001": SafetyError,
    "ALOG002": UnknownPredicateError,
    "ALOG014": UnknownPredicateError,
    "ALOG003": UnknownFeatureError,
    "ALOG016": EvaluationError,
}


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


@dataclass
class ExecutionResult:
    """What one program execution produced."""

    query_table: object
    tables: dict
    stats: object
    elapsed: float
    reuse_summary: dict = field(default_factory=dict)
    #: :class:`~repro.errors.ExecutionReport` of contained failures
    #: (``None`` only on legacy construction paths)
    report: object = None

    @property
    def tuple_count(self):
        return self.query_table.tuple_count()

    @property
    def assignment_count(self):
        return self.query_table.assignment_count()

    def summary(self):
        return {
            "tuples": self.tuple_count,
            "assignments": self.assignment_count,
            "maybe": self.query_table.maybe_count(),
            "elapsed_s": self.elapsed,
        }


@dataclass
class _Fingerprint:
    bases: tuple          # per-rule repr with constraints stripped
    constraints: tuple    # per-rule sorted (attr, feature, value-repr)
    upstream: tuple       # tokens of referenced intensional tables
    corpus_sig: object
    #: SHA-256 state over the token payload's ``(bases, constraints``
    #: prefix, shared by every fingerprint of one :class:`_RulePart`
    prefix: object = field(default=None, repr=False, compare=False)

    @property
    def token(self):
        """A short, *process-stable* hex token over the fingerprint.

        The persistent result store keys files on this, so it must not
        depend on per-process ``PYTHONHASHSEED`` the way ``hash()``
        does.  Every field reprs deterministically (rule reprs, tuples,
        the corpus content digest), so a SHA-256 over the combined repr
        is stable across processes and runs.
        """
        token = self.__dict__.get("_token")
        if token is None:
            hasher = self.prefix.copy() if self.prefix is not None else _prefix_hasher(
                self.bases, self.constraints
            )
            # together with the prefix: repr((bases, constraints,
            # upstream, corpus_sig)), the payload tokens have always hashed
            hasher.update(("%r, %r)" % (self.upstream, self.corpus_sig)).encode("utf-8"))
            token = hasher.hexdigest()[:24]
            self.__dict__["_token"] = token
        return token


def _prefix_hasher(bases, constraints):
    return hashlib.sha256(("(%r, %r, " % (bases, constraints)).encode("utf-8"))


class _RulePart:
    """The partition-independent half of one predicate's fingerprint.

    Built once per predicate per run: the rule reprs (bases and
    constraints), the upstream intensional names, and the token's
    hashed prefix.  :meth:`fingerprint` adds the upstream tokens and the
    corpus signature — one call per partition on the partitioned path.
    """

    def __init__(self, rules, intensional):
        bases = []
        constraints = []
        upstream = set()
        for rule in rules:
            base, cons = _split_rule(rule)
            bases.append(base)
            constraints.append(cons)
            for atom in rule.body_atoms(PredicateAtom):
                if atom.name in intensional:
                    upstream.add(atom.name)
        self.bases = tuple(bases)
        self.constraints = tuple(constraints)
        self.upstream = tuple(sorted(upstream))
        self.prefix = _prefix_hasher(self.bases, self.constraints)

    def _upstream_tokens(self, tokens):
        # every upstream token is set by evaluation order
        return tuple((name, tokens.get(name)) for name in self.upstream)

    def fingerprint(self, tokens, corpus_sig):
        return _Fingerprint(
            bases=self.bases,
            constraints=self.constraints,
            upstream=self._upstream_tokens(tokens),
            corpus_sig=corpus_sig,
            prefix=self.prefix,
        )

    def matches(self, fingerprint, tokens, corpus_sig):
        """Would :meth:`fingerprint` equal ``fingerprint``?

        Field by field — what the token hashes — without building one.
        """
        return (
            fingerprint.corpus_sig == corpus_sig
            and fingerprint.upstream == self._upstream_tokens(tokens)
            and fingerprint.bases == self.bases
            and fingerprint.constraints == self.constraints
        )


class _Run:
    """Per-execution bookkeeping of the reuse chain."""

    def __init__(self):
        #: predicate -> whole-corpus fingerprint token
        self.tokens = {}
        #: predicate -> [fingerprint token per corpus partition], for the
        #: predicates that went through the partition-keyed cache (their
        #: tables are in ``ExecutionContext.partition_relations``)
        self.partition_tokens = {}
        #: predicate -> :class:`_RulePart`
        self.rule_parts = {}
        #: some predicate went through the partition-keyed cache
        self.partitioned = False
        #: corpus partitions a partition-local predicate re-executed on
        self.recomputed = set()


@dataclass
class _CacheEntry:
    fingerprint: _Fingerprint
    table: object


class RuleCache:
    """Per-predicate compact-table cache for cross-iteration reuse.

    Entries are keyed ``(predicate name, partition id)``.  Partition
    ``None`` holds the whole-corpus table — the only key serial
    execution uses, and always written so results reuse across worker
    configurations.  Partitioned execution additionally keys the
    document-local predicates per corpus partition, so the
    constraints-commute incremental path applies partition by partition.

    With a ``store`` (a :class:`~repro.columnar.results.ResultStore`),
    entries additionally hydrate from and spill to disk by fingerprint
    token: a fresh process over an unchanged plan and corpus re-serves
    persisted partition tables instead of re-extracting (counted in
    ``store_hits``).
    """

    def __init__(self, store=None):
        self._entries = {}
        #: optional persistent backing store shared across processes
        self.store = store
        self.full_hits = 0
        self.incremental_hits = 0
        self.misses = 0
        self.store_hits = 0

    def get(self, name, partition=None):
        return self._entries.get((name, partition))

    def put(self, name, fingerprint, table, partition=None):
        self._entries[(name, partition)] = _CacheEntry(fingerprint, table)

    def __len__(self):
        return len(self._entries)


def _split_rule(rule):
    """``(base_repr, constraints)`` — constraints in body order."""
    body = tuple(a for a in rule.body if not isinstance(a, ConstraintAtom))
    constraints = tuple(
        (a.var.name, a.feature, repr(a.value))
        for a in rule.body
        if isinstance(a, ConstraintAtom)
    )
    return repr(Rule(rule.head, body)), constraints


class _PolicyDriver:
    """Applies ``ExecConfig.on_error`` around whole-execution attempts.

    Best-effort fault tolerance works by *quarantine and re-run*: when
    an attempt dies on a document-attributable
    :class:`~repro.errors.ExecutionFailure`, the offending document is
    excluded from the engine's active corpus and the execution restarts.
    The surviving result is therefore literally a clean run over the
    corpus minus the quarantined documents — the byte-identical
    invariant holds by construction, on every partition layout, for
    global plans and joins included.  Cost is bounded by k+1 attempts
    for k poisoned documents, and the engine-level Verify/Refine caches
    stay warm across attempts, so re-runs mostly replay memoized work.

    ``retry`` re-runs the *same* corpus first: each failure site (doc,
    operator, feature/predicate, exception class) gets up to
    ``max_retries`` attempts with capped exponential backoff before the
    document is quarantined as under ``skip``.  Failures with no
    document attribution — and :class:`PartitionTimeout`, where the
    guilty document is unknown — always surface, whatever the policy.
    """

    def __init__(self, engine):
        config = engine.config
        policy = getattr(config, "on_error", "fail-fast")
        if policy not in ERROR_POLICIES:
            raise ValueError(
                "unknown error policy %r (choose from %s)"
                % (policy, ", ".join(ERROR_POLICIES))
            )
        self.engine = engine
        self.policy = policy
        self.max_retries = max(0, int(getattr(config, "max_retries", 2)))
        self.backoff = getattr(config, "retry_backoff", 0.05)
        self.report = ExecutionReport(policy=policy)
        self._attempts = {}  # failure site_key -> retries consumed

    def run(self, attempt):
        while True:
            try:
                return attempt()
            except ExecutionFailure as failure:
                self._handle(failure)

    def finish(self, result):
        """Stamp the report onto a completed result."""
        result.report = self.report
        result.stats.failures += len(self.report.records)
        result.stats.retries += self.report.retries
        return result

    def _handle(self, failure):
        if self.policy == "fail-fast":
            raise failure
        if failure.doc_id is None or isinstance(failure, PartitionTimeout):
            # not attributable to one document: quarantining cannot help
            raise failure
        retries_used = 0
        if self.policy == "retry":
            key = failure.site_key()
            retries_used = self._attempts.get(key, 0)
            if retries_used < self.max_retries:
                self._attempts[key] = retries_used + 1
                self.report.retries += 1
                if self.backoff:
                    time.sleep(min(self.backoff * (2 ** retries_used), 2.0))
                logger.debug(
                    "retrying after failure at %r (attempt %d/%d)",
                    key,
                    retries_used + 1,
                    self.max_retries,
                )
                return
        self.engine._exclude_document(failure.doc_id)
        self.report.records.append(failure.to_record(retry_count=retries_used))
        logger.warning("quarantined document %r: %s", failure.doc_id, failure)


class IFlexEngine:
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
        self._active = self.corpus.without(self.excluded_docs)
        self.physical = self._make_physical(self.physical)
        self._docs_map = None

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
        """The physical execution layer, or None on the serial path.

        With one worker the engine executes plans directly (the original
        single-threaded code path, byte for byte); with more — or with
        ``partition_docs`` chunking configured, as the resident service
        does — it routes every plan through
        :class:`~repro.processor.physical.PhysicalExecutor`.
        ``previous`` is the executor it replaces after a corpus change.
        """
        if getattr(self.config, "workers", 1) <= 1 and not getattr(
            self.config, "partition_docs", None
        ):
            return None
        from repro.processor.physical import PhysicalExecutor

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
        return (
            self.physical is not None
            and self.physical.partitioned
            and self.physical.fully_local(name)
        )

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
        run = _Run()
        reuse_summary = {}
        for group in self.order:
            if group in self.recursive_groups:
                self._execute_fixpoint(group, context, cache, run, reuse_summary)
                continue
            name = group[0]
            fingerprint = self._fingerprint(name, run)
            table = None
            kind = None
            reused = 0
            stats = context.stats
            store_hits = stats.result_cache_hits
            with self._span("predicate:%s" % name, "plan", predicate=name) as span:
                if cache is not None:
                    entry = cache.get(name)
                    if entry is not None and entry.fingerprint.token == fingerprint.token:
                        table = entry.table
                        kind = "full"
                    elif self._partitioned_path(name):
                        if (
                            self.physical.upstream(name)
                            and cache.store is not None
                            and self._persistable[name]
                        ):
                            # a chained predicate persists its merged table
                            table = self._store_load(cache, context, fingerprint)
                            if table is not None:
                                kind = "full"
                        if table is None:
                            table, kind, reused = self._execute_partitioned(
                                name, context, cache, run
                            )
                    else:
                        if cache.store is not None and self._persistable[name]:
                            table = self._store_load(cache, context, fingerprint)
                            if table is not None:
                                kind = "full"
                        if table is None and entry is not None:
                            table = self._incremental(
                                name, entry, fingerprint, context
                            )
                            if table is not None:
                                kind = "incremental"
                if table is None:
                    table = self._execute_plan(name, context)
                    kind = "computed"
                if span is not None:
                    # what explain_analyze renders the reuse lines from
                    span.attrs.update(
                        store_hits=stats.result_cache_hits - store_hits,
                        partitions_reused=reused,
                    )
            reuse_summary[name] = kind
            context.relations[name] = table
            run.tokens[name] = fingerprint.token
            if cache is not None:
                if kind == "full":
                    cache.full_hits += 1
                elif kind == "incremental":
                    cache.incremental_hits += 1
                else:
                    cache.misses += 1
                cache.put(name, fingerprint, table)
                if (
                    kind == "computed"
                    and cache.store is not None
                    and self._persistable[name]
                    and not self._stored_per_partition(name)
                ):
                    cache.store.save(fingerprint.token, table)
            if logger.isEnabledFor(logging.DEBUG):  # the counts walk the table
                logger.debug(
                    "%s: %d tuples, %d assignments (%s)",
                    name,
                    table.tuple_count(),
                    table.assignment_count(),
                    kind,
                )
        if run.partitioned:
            # counted per corpus partition, over every partition-local
            # predicate of the run (see _execute_partitioned)
            recomputed = len(run.recomputed)
            context.stats.partitions_recomputed += recomputed
            context.stats.partitions_reused += len(self.physical.partitions) - recomputed
        elapsed = time.perf_counter() - start
        return ExecutionResult(
            query_table=context.relations[self.unfolded.query],
            tables=dict(context.relations),
            stats=context.stats,
            elapsed=elapsed,
            reuse_summary=reuse_summary,
        )

    def _stored_per_partition(self, name):
        """Does ``name`` persist per partition slice, not merged?

        Partitioned predicates that read documents do: spilling their
        merged table too would short-circuit the delta path on warm
        runs.  Chained predicates hold their partition tables in memory
        only and persist the merged table, one save per computation.
        """
        return self._partitioned_path(name) and not self.physical.upstream(name)

    def _execute_plan(self, name, context):
        """One predicate's table: direct on the serial path, through the

        physical layer (partitioned when the plan is wholly
        document-local) when the corpus is partitioned.
        """
        if self.physical is not None:
            return self.physical.execute_plan(name, context)
        return compile_predicate(name, self.unfolded).execute(context)

    # -- semi-naive fixpoint over recursive groups ---------------------

    def _group_tokens(self, group, tokens):
        """Content-addressed reuse tokens for one recursive group.

        A predicate's fingerprint normally embeds the tokens of its
        upstream intensionals, which is circular inside a recursive
        component.  The group digest breaks the cycle: one SHA-256 over
        every member's split rules, the tokens of all out-of-group
        upstream intensionals, and the corpus content signature; each
        member's token is that digest salted with its own name, so the
        per-member fingerprints (and the persistent store keys derived
        from them) stay process-stable.
        """
        payload = []
        upstream = set()
        for member in group:
            for rule in self.unfolded.rules_for(member):
                base, cons = _split_rule(rule)
                payload.append((member, base, cons))
                for atom in rule.body_atoms(PredicateAtom):
                    if (
                        atom.name in self.unfolded.intensional
                        and atom.name not in group
                    ):
                        upstream.add((atom.name, tokens.get(atom.name)))
        digest = hashlib.sha256(
            repr(
                (
                    tuple(payload),
                    tuple(sorted(upstream)),
                    ("content", self._active.content_digest),
                )
            ).encode("utf-8")
        ).hexdigest()
        for member in group:
            tokens[member] = hashlib.sha256(
                ("%s:%s" % (digest, member)).encode("utf-8")
            ).hexdigest()[:24]

    def _execute_fixpoint(self, group, context, cache, run, reuse_summary):
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
        self._group_tokens(group, run.tokens)
        fingerprints = {m: self._fingerprint(m, run) for m in group}
        label = "+".join(group)
        with self._span("fixpoint:%s" % label, "plan", predicates=label) as span:
            tables = None
            if cache is not None:
                tables = self._fixpoint_reuse(group, fingerprints, cache, context)
            if tables is not None:
                kind = "full"
            else:
                kind = "computed"
                tables, iterations = self._run_fixpoint(group, context)
                if span is not None:
                    span.attrs["iterations"] = iterations
        for member in group:
            reuse_summary[member] = kind
            context.relations[member] = tables[member]
            if cache is not None:
                if kind == "full":
                    cache.full_hits += 1
                else:
                    cache.misses += 1
                cache.put(member, fingerprints[member], tables[member])
                if (
                    kind == "computed"
                    and cache.store is not None
                    and self._persistable[member]
                ):
                    cache.store.save(fingerprints[member].token, tables[member])
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "%s: %d tuples, %d assignments (%s, fixpoint group %s)",
                    member,
                    tables[member].tuple_count(),
                    tables[member].assignment_count(),
                    kind,
                    label,
                )

    def _fixpoint_reuse(self, group, fingerprints, cache, context):
        """Hydrate a whole recursive group from the caches, or ``None``."""
        tables = {}
        for member in group:
            fingerprint = fingerprints[member]
            entry = cache.get(member)
            if entry is not None and entry.fingerprint.token == fingerprint.token:
                tables[member] = entry.table
                continue
            if cache.store is not None and self._persistable[member]:
                table = self._store_load(cache, context, fingerprint)
                if table is not None:
                    tables[member] = table
                    continue
            return None
        return tables

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

    def _execute_partitioned(self, name, context, cache, run):
        """A partition-local predicate with a partition-keyed cache.

        Each corpus partition gets its own fingerprint (same rules, the
        partition's corpus signature — and, for a chained predicate, the
        upstream's token for that partition) and its own full-hit /
        incremental / compute decision; only partitions that could not
        be reused are re-executed, in partition order.  Returns ``(merged
        table, kind, partitions reused)`` where ``kind`` summarises the
        weakest reuse across partitions.

        The run counts *corpus partitions*: one is recomputed when any
        partition-local predicate re-executed on it, reused when every
        one was served from cache.  Chained partition tables are held in
        memory only, so in a process that hydrated the upstream from the
        result store a chained predicate re-executes (and counts) every
        partition its cache holds no entry for.
        """
        from repro.ctables.ctable import CompactTable

        partitions = self.physical.partitions
        upstream = self.physical.upstream(name)
        if upstream is None:
            store = cache.store if self._persistable[name] else None
            seeds, upstream_tokens = None, None
        else:
            store = None
            seeds, upstream_tokens = self._upstream_partitions(
                upstream, context, cache, run
            )
        part = self._rule_part(name, run)
        tables = []
        kinds = []
        fingerprints = []
        fresh = []  # partitions whose cache entry is replaced
        for pid, corpus_sig in enumerate(self.physical.corpus_sigs()):
            tokens = {upstream: upstream_tokens[pid]} if upstream else {}
            entry = cache.get(name, partition=pid)
            if entry is not None and part.matches(entry.fingerprint, tokens, corpus_sig):
                # the clean-partition fast path: no new fingerprint, no
                # token to hash, nothing to put back
                fingerprints.append(entry.fingerprint)
                tables.append(entry.table)
                kinds.append("full")
                continue
            fingerprint = part.fingerprint(tokens, corpus_sig)
            fingerprints.append(fingerprint)
            fresh.append(pid)
            table, kind = None, "full"
            if store is not None:
                table = self._store_load(cache, context, fingerprint)
            if table is None and entry is not None:
                table = self._incremental(name, entry, fingerprint, context)
                kind = "incremental"
            tables.append(table)
            kinds.append(kind)
        missing = [pid for pid, table in enumerate(tables) if table is None]
        # the delta accounting: clean partitions fold in from cache,
        # dirty ones (content digest moved, or cold) re-execute
        run.partitioned = True
        run.recomputed.update(missing)
        if missing:
            computed = self.physical.execute_local_partitions(
                name, missing, tracer=context.tracer, upstream=seeds
            )
            for pid, (table, stats) in zip(missing, computed):
                tables[pid] = table
                kinds[pid] = "computed"
                context.stats.merge(stats)
        for pid in fresh:
            cache.put(name, fingerprints[pid], tables[pid], partition=pid)
            if store is not None and kinds[pid] == "computed":
                store.save(fingerprints[pid].token, tables[pid])
        context.partition_relations[name] = tables
        run.partition_tokens[name] = [fp.token for fp in fingerprints]
        merged = CompactTable.union(tables, attrs=self.physical.split(name).root.attrs)
        kind = next(k for k in ("computed", "incremental", "full") if k in kinds)
        return merged, kind, len(partitions) - len(missing)

    def _upstream_partitions(self, upstream, context, cache, run):
        """``(tables, tokens)`` by partition of a chained predicate's upstream.

        Normally the upstream just went through the partition-keyed
        cache this run.  When it was a whole-table hit instead, its
        partitions resolve now, through the same cache (on a resident
        engine: all in-memory hits), traced under a span of their own.
        """
        if upstream not in run.partition_tokens:
            with self._span("partitions:%s" % upstream, "plan", predicate=upstream):
                self._execute_partitioned(upstream, context, cache, run)
        return context.partition_relations[upstream], run.partition_tokens[upstream]

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

    def _store_load(self, cache, context, fingerprint):
        """One persistent-store lookup, with hit/miss accounting.

        Returns the hydrated table or ``None``; corrupt and stale
        entries count as misses (the store logs and the caller
        recomputes).
        """
        table = cache.store.load(fingerprint.token, self._docs_by_id())
        if table is None:
            context.stats.result_cache_misses += 1
            return None
        context.stats.result_cache_hits += 1
        cache.store_hits += 1
        return table

    # ------------------------------------------------------------------
    def _rule_part(self, name, run):
        part = run.rule_parts.get(name)
        if part is None:
            part = run.rule_parts[name] = _RulePart(
                self.unfolded.rules_for(name), self.unfolded.intensional
            )
        return part

    def _fingerprint(self, name, run):
        """The predicate's whole-corpus reuse fingerprint.

        The corpus signature is the active corpus's *content* digest —
        doc ids alone would serve stale results after an in-place
        document edit, which the persistent store must never do.  (The
        partitioned path fingerprints each corpus slice separately.)
        """
        return self._rule_part(name, run).fingerprint(
            run.tokens, ("content", self._active.content_digest)
        )

    def _incremental(self, name, entry, fingerprint, context):
        """Apply added-constraint deltas to a cached table, or None."""
        old, new = entry.fingerprint, fingerprint
        if (
            old.bases != new.bases
            or old.upstream != new.upstream
            or old.corpus_sig != new.corpus_sig
            or len(old.constraints) != len(new.constraints)
        ):
            return None
        rules = self.unfolded.rules_for(name)
        if len(rules) != 1:
            # a multi-rule head unions tables from several rules; one
            # rule's new constraint must not filter another rule's
            # tuples, so fall back to a full recompute
            return None
        annotated = set(rules[0].annotations[1])
        table = entry.table
        table_attrs = set(table.attrs)
        deltas = []
        for old_cons, new_cons in zip(old.constraints, new.constraints):
            old_list = list(old_cons)
            for item in old_list:
                if item not in new_cons:
                    return None  # a constraint was removed: no reuse
            remaining = list(new_cons)
            for item in old_list:
                remaining.remove(item)
            for attr, feature, value_repr in remaining:
                if attr not in table_attrs:
                    return None  # constrained attr was projected away
                priors = [
                    (f, _unrepr(v)) for a, f, v in old_list if a == attr
                ]
                deltas.append((attr, feature, _unrepr(value_repr), priors))
        for attr, feature, value, priors in deltas:
            table = apply_constraint_to_table(
                table,
                attr,
                feature,
                value,
                priors,
                context,
                # constraints commute past psi for annotated attributes
                mark_maybe=attr not in annotated,
            )
        return table


def _unrepr(value_repr):
    """Recover a constraint value from its repr (str/int/float only)."""
    import ast

    return ast.literal_eval(value_repr)
