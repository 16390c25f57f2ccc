"""Execution context and configuration for the approximate processor."""

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionFailure
from repro.features.index import IndexStore
from repro.features.registry import default_registry
from repro.text.span import Span

__all__ = [
    "ERROR_POLICIES",
    "EvalCache",
    "ExecConfig",
    "ExecutionContext",
    "ExecutionStats",
    "FeatureEvaluator",
]


@dataclass
class ExecConfig:
    """Caps and switches for approximate execution.

    enum_cap:
        Maximum values enumerated out of one cell when a comparison /
        p-function / ψ needs concrete values.  Hitting the cap degrades
        the operator to a conservative keep-as-maybe (superset-safe).
    ppredicate_cap:
        Maximum possible tuples a cleanup p-predicate is invoked over
        per compact tuple (section 4.1).
    blocking_joins:
        Enable token-blocking for similarity joins (the paper's
        approximate-string-join optimisation lives in its full version;
        token blocking is the standard equivalent).
    """

    enum_cap: int = 2_000
    #: Maximum value *combinations* one condition will test on a single
    #: tuple; beyond it the condition degrades to keep-as-maybe.
    pair_cap: int = 1_000
    ppredicate_cap: int = 5_000
    blocking_joins: bool = True
    #: Corpus partitions for the document-local plan prefix; 1 keeps the
    #: engine on the original single-threaded path.
    workers: int = 1
    #: Scheduler for per-partition work: ``serial`` | ``process`` (see
    #: :mod:`repro.processor.schedulers`).
    backend: str = "serial"
    #: Documents per corpus partition (``Corpus.chunk``) instead of the
    #: default ``workers``-way split (``Corpus.partition``).  Chunk
    #: boundaries are positionally stable under ingestion — appending
    #: documents never moves an existing full chunk — which is what the
    #: resident service needs for "ingest k docs, recompute exactly the
    #: k affected partitions".  ``None`` keeps the historical split.
    partition_docs: object = None
    #: Consult per-document feature indexes for Verify/Refine (see
    #: :mod:`repro.features.index`); ``False`` forces the naive
    #: span-by-span path (the CLI's ``--no-index``).
    use_index: bool = True
    #: Error policy for document-attributable failures (a feature or
    #: p-predicate raising on a malformed document): ``fail-fast``
    #: surfaces the enriched exception, ``skip`` quarantines the
    #: offending document and re-runs (result identical to a clean run
    #: over the corpus minus that document), ``retry`` retries the
    #: failing site with capped exponential backoff before skipping.
    #: See :data:`ERROR_POLICIES` and ``docs/robustness.md``.
    on_error: str = "fail-fast"
    #: Retry attempts per failure site under the ``retry`` policy.
    max_retries: int = 2
    #: Base backoff delay in seconds for ``retry`` (doubles per attempt,
    #: capped at 2s); 0 disables sleeping (deterministic tests).
    retry_backoff: float = 0.05
    #: Seconds one partition may run before the scheduler raises a
    #: :class:`~repro.errors.PartitionTimeout`; ``None`` means no limit.
    partition_timeout: object = None
    #: Directory (or a :class:`~repro.columnar.results.ResultStore`) for
    #: persisted partition results, keyed by (plan fingerprint, corpus
    #: content digest); ``None`` disables persistence (the CLI's
    #: ``--result-cache``).  Warm runs hydrate unchanged partitions from
    #: it instead of re-executing the local plan prefix.
    result_cache: object = None
    #: Iteration cap for the semi-naive fixpoint loop over one recursive
    #: predicate group (the CLI's ``--max-fixpoint-iterations``).  Each
    #: iteration re-derives deltas for every group member; proving
    #: convergence costs one final empty iteration, so the cap must
    #: exceed the longest derivation chain by at least one.  Hitting it
    #: raises an :class:`~repro.errors.ExecutionFailure` (operator
    #: ``Fixpoint``) that surfaces under every error policy.
    max_fixpoint_iterations: int = 100


#: Valid ``ExecConfig.on_error`` values.
ERROR_POLICIES = ("fail-fast", "skip", "retry")


@dataclass
class ExecutionStats:
    """Counters the benchmarks and the assistant report on.

    ``verify_calls`` / ``refine_calls`` count *naive* feature
    evaluations actually performed; work answered by a per-document
    index counts under ``index_verify_calls`` / ``index_refine_calls``
    instead, and work answered from the :class:`EvalCache` counts only
    as a hit.  The total number of Verify requests the processor made
    is therefore ``verify_calls + index_verify_calls +
    verify_cache_hits`` (likewise for Refine).
    """

    verify_calls: int = 0
    refine_calls: int = 0
    index_verify_calls: int = 0
    index_refine_calls: int = 0
    #: spans answered through the vectorized batch kernels — a subset
    #: of ``index_verify_calls`` / ``index_refine_calls``, counted per
    #: *span* (not per batch call) so partitioned totals sum exactly to
    #: the serial totals
    verify_batch: int = 0
    refine_batch: int = 0
    verify_cache_hits: int = 0
    verify_cache_misses: int = 0
    refine_cache_hits: int = 0
    refine_cache_misses: int = 0
    tuples_built: int = 0
    values_enumerated: int = 0
    cap_hits: int = 0
    ppredicate_calls: int = 0
    #: documents quarantined by the error policy (``skip`` / exhausted
    #: ``retry``); matches ``len(ExecutionReport.records)``
    failures: int = 0
    #: retry attempts consumed by the ``retry`` policy
    retries: int = 0
    #: corpus partitions on which every partition-local predicate was
    #: served from cache (in-memory or persistent) instead of
    #: re-execution; ticks only when a reuse cache is active, so
    #: cacheless runs stay counter-identical across backends
    partitions_reused: int = 0
    #: corpus partitions on which some partition-local predicate was
    #: re-executed while a reuse cache was active (the delta path's
    #: "dirty" count; one per partition, however many predicates ran)
    partitions_recomputed: int = 0
    #: persistent-store lookups that produced a usable table
    result_cache_hits: int = 0
    #: persistent-store lookups that missed (absent, stale, or corrupt)
    result_cache_misses: int = 0
    #: semi-naive fixpoint iterations across all recursive groups
    #: (including the final empty iteration that proves convergence);
    #: ticks in the coordinating process only, so the count is
    #: identical across scheduler backends
    fixpoint_iterations: int = 0

    def merge(self, other):
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class EvalCache:
    """Memoized ``Verify``/``Refine`` results.

    Keys are ``(feature name, value, doc_id, start, end)`` — the span's
    interned identity, matching ``Span.__hash__``.  Results depend only
    on immutable document content, never on the program being executed,
    so one cache is sound across constraint chains, rules, engine runs,
    partitions, and assistant candidate simulations with nothing to
    invalidate.  Refine hints are stored as tuples (an empty result is a
    valid, cacheable answer).
    """

    __slots__ = ("verify", "refine")

    def __init__(self):
        self.verify = {}
        self.refine = {}

    def clear(self):
        self.verify.clear()
        self.refine.clear()

    def invalidate_docs(self, doc_ids):
        """Drop every entry for the given documents.

        The one case where "nothing to invalidate" breaks down: an
        in-place document *edit* (same ``doc_id``, new content), the
        resident service's upsert path.  Keys carry the doc id at
        position 2 (``(feature, value, doc_id, start, end)``).
        """
        doc_ids = set(doc_ids)
        for cache in (self.verify, self.refine):
            stale = [key for key in cache if key[2] in doc_ids]
            for key in stale:
                del cache[key]

    def __len__(self):
        return len(self.verify) + len(self.refine)


#: sentinel distinguishing "not cached" from cached falsy results
_MISSING = object()


class FeatureEvaluator:
    """Verify/Refine dispatch: :class:`EvalCache` → index → naive.

    Owns no policy beyond the lookup order; ``index_store=None`` skips
    the index layer.  ``eval_cache=None`` skips memoization too; the
    engine always passes a cache, so only the fully naive reference
    that the equivalence tests build directly runs without one.
    ``stats`` receives the counters (see :class:`ExecutionStats`).
    """

    __slots__ = ("index_store", "eval_cache", "stats")

    def __init__(self, index_store=None, eval_cache=None, stats=None):
        self.index_store = index_store
        self.eval_cache = eval_cache
        self.stats = stats if stats is not None else ExecutionStats()

    def verify_value(self, feature, value_obj, feature_value):
        """``Verify`` generalised to scalar cell values, accelerated."""
        if isinstance(value_obj, Span):
            return self.verify_span(feature, value_obj, feature_value)
        from repro.processor.constraints import verify_scalar

        self.stats.verify_calls += 1
        return verify_scalar(feature, value_obj, feature_value)

    def _cache_key(self, feature, span, feature_value):
        key = (feature.name, feature_value, span.doc.doc_id, span.start, span.end)
        try:
            hash(key)
        except TypeError:  # unhashable feature value: bypass the cache
            return None
        return key

    def verify_span(self, feature, span, feature_value):
        try:
            cache = self.eval_cache
            key = None
            if cache is not None:
                key = self._cache_key(feature, span, feature_value)
                if key is not None:
                    cached = cache.verify.get(key, _MISSING)
                    if cached is not _MISSING:
                        self.stats.verify_cache_hits += 1
                        return cached
                    self.stats.verify_cache_misses += 1
            result = None
            if self.index_store is not None:
                index = self.index_store.index_for(feature, span.doc)
                if index is not None:
                    result = index.verify(span, feature_value)
            if result is None:
                self.stats.verify_calls += 1
                result = feature.verify(span, feature_value)
            else:
                self.stats.index_verify_calls += 1
            if key is not None:
                cache.verify[key] = result
            return result
        except ExecutionFailure:
            raise
        except Exception as exc:
            # the failure channel: a raising feature (or index build over
            # a malformed document) becomes a document-attributable
            # ExecutionFailure the error policy can act on
            raise ExecutionFailure.wrap(
                exc,
                doc_id=span.doc.doc_id,
                operator="Verify",
                feature=feature.name,
            ) from exc

    def refine_span(self, feature, span, feature_value):
        """Refine hints for ``contain(span)`` as a tuple of
        ``(mode, span)`` pairs."""
        try:
            cache = self.eval_cache
            key = None
            if cache is not None:
                key = self._cache_key(feature, span, feature_value)
                if key is not None:
                    cached = cache.refine.get(key, _MISSING)
                    if cached is not _MISSING:
                        self.stats.refine_cache_hits += 1
                        return cached
                    self.stats.refine_cache_misses += 1
            hints = None
            if self.index_store is not None:
                index = self.index_store.index_for(feature, span.doc)
                if index is not None:
                    hints = index.refine(span, feature_value)
            if hints is None:
                self.stats.refine_calls += 1
                hints = feature.refine(span, feature_value)
            else:
                self.stats.index_refine_calls += 1
            hints = tuple(hints)
            if key is not None:
                cache.refine[key] = hints
            return hints
        except ExecutionFailure:
            raise
        except Exception as exc:
            raise ExecutionFailure.wrap(
                exc,
                doc_id=span.doc.doc_id,
                operator="Refine",
                feature=feature.name,
            ) from exc

    # ------------------------------------------------------------------
    # batch entry points
    # ------------------------------------------------------------------
    #
    # The batch methods answer many spans of one constraint in one pass.
    # They are *counter-exact* re-implementations of the scalar loop:
    # for every span the same evaluation tier is chosen (cache hit /
    # index / naive fallback) and the same counters tick — plus
    # ``verify_batch`` / ``refine_batch`` marking the spans whose answer
    # came from a vectorized kernel.  Two facts make that equivalence
    # hold:
    #
    # * a kernel answers a value iff the scalar index answers it
    #   (``can_*_batch`` is exact), so the index/naive split is
    #   identical;
    # * within one batch, duplicates after the first occurrence count as
    #   cache hits — exactly what the scalar loop does, since its first
    #   occurrence inserts into the cache before the second looks up.
    #
    # Spans over documents whose index cannot batch the value take the
    # scalar path unchanged, so a mixed batch still counts identically.

    def _group_by_doc(self, spans):
        by_doc = {}
        for pos, span in enumerate(spans):
            doc = span.doc
            entry = by_doc.get(doc.doc_id)
            if entry is None:
                by_doc[doc.doc_id] = entry = (doc, [])
            entry[1].append(pos)
        return by_doc

    def verify_span_batch(self, feature, spans, feature_value):
        """``verify_span`` over a span batch; results align with ``spans``."""
        results = [None] * len(spans)
        store = self.index_store
        stats = self.stats
        cache = self.eval_cache
        for doc_id, (doc, positions) in self._group_by_doc(spans).items():
            index = store.index_for(feature, doc) if store is not None else None
            if index is None or not index.can_verify_batch(feature_value):
                for pos in positions:
                    results[pos] = self.verify_span(
                        feature, spans[pos], feature_value
                    )
                continue
            try:
                kernel = []  # (position, cache key) pending the kernel
                first_at = {}  # key -> position of its first occurrence
                copies = []
                for pos in positions:
                    span = spans[pos]
                    key = None
                    if cache is not None:
                        key = self._cache_key(feature, span, feature_value)
                    if key is not None:
                        cached = cache.verify.get(key, _MISSING)
                        if cached is not _MISSING:
                            stats.verify_cache_hits += 1
                            results[pos] = cached
                            continue
                        src = first_at.get(key)
                        if src is not None:
                            stats.verify_cache_hits += 1
                            copies.append((pos, src))
                            continue
                        stats.verify_cache_misses += 1
                        first_at[key] = pos
                    stats.index_verify_calls += 1
                    stats.verify_batch += 1
                    kernel.append((pos, key))
                if kernel:
                    count = len(kernel)
                    starts = np.fromiter(
                        (spans[p].start for p, _ in kernel), np.int64, count
                    )
                    ends = np.fromiter(
                        (spans[p].end for p, _ in kernel), np.int64, count
                    )
                    answers = index.verify_batch(starts, ends, feature_value)
                    for (pos, key), answer in zip(kernel, answers.tolist()):
                        answer = bool(answer)
                        results[pos] = answer
                        if key is not None:
                            cache.verify[key] = answer
                for pos, src in copies:
                    results[pos] = results[src]
            except ExecutionFailure:
                raise
            except Exception as exc:
                raise ExecutionFailure.wrap(
                    exc,
                    doc_id=doc_id,
                    operator="Verify",
                    feature=feature.name,
                ) from exc
        return results

    def refine_span_batch(self, feature, spans, feature_value):
        """``refine_span`` over a span batch; results align with ``spans``."""
        results = [None] * len(spans)
        store = self.index_store
        stats = self.stats
        cache = self.eval_cache
        for doc_id, (doc, positions) in self._group_by_doc(spans).items():
            index = store.index_for(feature, doc) if store is not None else None
            if index is None or not index.can_refine_batch(feature_value):
                for pos in positions:
                    results[pos] = self.refine_span(
                        feature, spans[pos], feature_value
                    )
                continue
            try:
                kernel = []
                first_at = {}
                copies = []
                for pos in positions:
                    span = spans[pos]
                    key = None
                    if cache is not None:
                        key = self._cache_key(feature, span, feature_value)
                    if key is not None:
                        cached = cache.refine.get(key, _MISSING)
                        if cached is not _MISSING:
                            stats.refine_cache_hits += 1
                            results[pos] = cached
                            continue
                        src = first_at.get(key)
                        if src is not None:
                            stats.refine_cache_hits += 1
                            copies.append((pos, src))
                            continue
                        stats.refine_cache_misses += 1
                        first_at[key] = pos
                    stats.index_refine_calls += 1
                    stats.refine_batch += 1
                    kernel.append((pos, key))
                if kernel:
                    count = len(kernel)
                    starts = np.fromiter(
                        (spans[p].start for p, _ in kernel), np.int64, count
                    )
                    ends = np.fromiter(
                        (spans[p].end for p, _ in kernel), np.int64, count
                    )
                    batches = index.refine_batch(doc, starts, ends, feature_value)
                    for (pos, key), hints in zip(kernel, batches):
                        hints = tuple(hints)
                        results[pos] = hints
                        if key is not None:
                            cache.refine[key] = hints
                for pos, src in copies:
                    results[pos] = results[src]
            except ExecutionFailure:
                raise
            except Exception as exc:
                raise ExecutionFailure.wrap(
                    exc,
                    doc_id=doc_id,
                    operator="Refine",
                    feature=feature.name,
                ) from exc
        return results


class ExecutionContext:
    """Everything operators need while a plan runs.

    ``index_store`` / ``eval_cache`` may be passed in to share across
    contexts (the engine shares one store across partitions; the
    assistant session shares both across simulations).  When omitted,
    fresh ones are created (no index store under ``use_index=False``) —
    so parallel partition contexts get *fresh* eval caches, keeping per-partition
    hit/miss counters identical to a serial run over the same documents
    (cache keys are document-scoped and partitions are document-disjoint).
    """

    def __init__(
        self,
        program,
        corpus,
        features=None,
        config=None,
        index_store=None,
        eval_cache=None,
        tracer=None,
    ):
        self.program = program
        self.corpus = corpus
        self.features = features or default_registry()
        self.config = config or ExecConfig()
        self.stats = ExecutionStats()
        #: optional :class:`~repro.observability.spans.Tracer`; operators
        #: that batch feature work record spans on it when present
        self.tracer = tracer
        if not getattr(self.config, "use_index", True):
            index_store = None
        elif index_store is None:
            index_store = IndexStore()
        if eval_cache is None:
            eval_cache = EvalCache()
        self.evaluator = FeatureEvaluator(index_store, eval_cache, self.stats)
        #: name -> CompactTable for already-evaluated intensional preds
        self.relations = {}
        #: name -> [CompactTable per corpus partition] for the predicates
        #: this run evaluated partition by partition (what the chained
        #: predicates downstream of them scan, partition by partition)
        self.partition_relations = {}

    @property
    def index_store(self):
        return self.evaluator.index_store

    @property
    def eval_cache(self):
        return self.evaluator.eval_cache

    def feature(self, name):
        return self.features.get(name)

    def verify_value(self, feature, value_obj, feature_value):
        return self.evaluator.verify_value(feature, value_obj, feature_value)

    def refine_span(self, feature, span, feature_value):
        return self.evaluator.refine_span(feature, span, feature_value)

    def p_function(self, name):
        return self.program.p_functions[name]

    def p_predicate(self, name):
        return self.program.p_predicates[name]
