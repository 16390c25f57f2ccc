"""The iterative refinement session (sections 2.2.4, 5, 5.2).

One :class:`RefinementSession` reproduces the paper's development loop:

1. execute the current Alog program over a random **subset** of the
   input (5-30 %, by input size) with per-rule **reuse**;
2. check **convergence** (result size and assignment count stable for
   k = 3 iterations); when converged, switch to reuse mode over the
   full input and stop;
3. otherwise have the **strategy** pick a question, the (simulated)
   **developer** answer it, fold the answer into the program as a new
   domain constraint, and iterate.

The trace records exactly what the paper's Table 4 reports per
iteration: result size, execution mode, questions asked, and time.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.assistant.convergence import ConvergenceMonitor
from repro.assistant.strategies import SequentialStrategy
from repro.features.registry import default_registry
from repro.observability.logs import get_logger
from repro.processor.context import (
    EvalCache,
    ExecConfig,
    ExecutionStats,
    FeatureEvaluator,
)
from repro.processor.executor import IFlexEngine, RuleCache
from repro.xlog.ast import PredicateAtom, Var

__all__ = ["RefinementSession", "SessionTrace", "IterationRecord", "auto_subset_fraction"]

logger = get_logger("assistant")


def auto_subset_fraction(corpus):
    """The paper's 5-30 % subset, scaled to the input size."""
    largest = max((corpus.size_of(n) for n in corpus.table_names()), default=0)
    if largest <= 60:
        return 1.0
    if largest <= 200:
        return 0.30
    if largest <= 1000:
        return 0.15
    return 0.05


@dataclass
class IterationRecord:
    """One row of the paper's Table 4."""

    index: int
    mode: str  # 'subset' or 'reuse' (full input)
    tuples: int
    assignments: int
    elapsed: float
    questions: list = field(default_factory=list)  # (Question, answer|None)
    #: lint warnings newly introduced by this iteration's refinements
    warnings: list = field(default_factory=list)

    @property
    def answered(self):
        return [qa for qa in self.questions if qa[1] is not None]


@dataclass
class SessionTrace:
    """The full outcome of a refinement session."""

    records: list
    converged: bool
    final_result: object  # ExecutionResult over the full corpus
    program: object
    subset_fraction: float
    machine_seconds: float
    questions_asked: int
    questions_answered: int
    #: static-analysis warnings for the starting program
    lint_warnings: list = field(default_factory=list)
    #: session-wide ExecutionStats: every engine run (subset, full,
    #: candidate simulations) plus the strategy's prior-estimation
    #: probes, merged
    exec_stats: object = None
    #: :class:`~repro.errors.FailureRecord` rows for every document the
    #: error policy quarantined during the session (empty when clean or
    #: under ``fail-fast``)
    failure_records: list = field(default_factory=list)

    @property
    def iterations(self):
        return len([r for r in self.records if r.mode == "subset"])

    def tuple_series(self):
        return [r.tuples for r in self.records]


class _CacheCopy:
    """Shallow-copyable view so simulations never pollute the cache.

    The persistent backing store *is* shared with the clone: simulated
    candidates may hydrate from (and spill to) it safely — writes are
    atomic and content-addressed, so concurrent simulations cannot
    corrupt or cross-pollute entries.
    """

    @staticmethod
    def copy(cache):
        clone = RuleCache(store=getattr(cache, "store", None))
        clone._entries = dict(cache._entries)
        return clone


class RefinementSession:
    """Drives execute → converge? → ask → refine until convergence."""

    def __init__(
        self,
        program,
        corpus,
        developer,
        strategy=None,
        features=None,
        config=None,
        subset_fraction=None,
        seed=0,
        max_iterations=20,
        k_convergence=3,
        questions_per_iteration=2,
        telemetry=None,
        tracer=None,
        metrics=None,
    ):
        #: optional :class:`~repro.observability.telemetry.TelemetrySink`;
        #: the session emits one ``iteration`` record per loop turn plus
        #: a closing ``session`` summary (the paper's Table-4 columns)
        self.telemetry = telemetry
        #: optional tracer shared with the subset/full engines (never
        #: with candidate simulations, which may run in forked workers)
        self.tracer = tracer
        #: optional metrics registry the subset/full engine runs record
        #: into
        self.metrics = metrics
        self.program = program
        self.corpus = corpus
        self.developer = developer
        self.strategy = strategy or SequentialStrategy()
        self.registry = features or default_registry()
        self.config = config or ExecConfig()
        self.subset_fraction = (
            subset_fraction if subset_fraction is not None else auto_subset_fraction(corpus)
        )
        self.subset_corpus = (
            corpus
            if self.subset_fraction >= 1.0
            else corpus.sample(self.subset_fraction, seed=seed)
        )
        self.max_iterations = max_iterations
        self.questions_per_iteration = questions_per_iteration
        self.monitor = ConvergenceMonitor(k=k_convergence)
        self.asked = set()
        #: markup-example feedback: (ie_pred, attr) -> [Span]
        self.examples = {}
        self.machine_seconds = 0.0
        #: how many candidate refinements were simulated (section 5.1)
        self.simulations = 0
        #: contained failures across every engine run this session made
        #: (``config.on_error`` = ``skip`` / ``retry``): one
        #: FailureRecord per quarantined document, in discovery order
        self.failure_records = []
        #: doc_ids already quarantined — later iterations run over the
        #: reduced corpus directly instead of re-discovering the fault
        self.poisoned_docs = set()
        from repro.columnar.results import ResultStore

        #: one persistent result store shared by subset, full, and
        #: simulation executions (``None`` unless the config names a
        #: ``result_cache`` directory) — iteration N+1's unchanged
        #: partitions hydrate from iteration N's spills
        self._result_store = ResultStore.from_config(self.config)
        self._subset_cache = RuleCache(store=self._result_store)
        self._full_cache = RuleCache(store=self._result_store)
        #: iteration records restored from a saved trace
        #: (:func:`repro.assistant.persistence.resume_session`); a
        #: continued run's trace starts with these and numbers its own
        #: iterations after them
        self.prior_records = []
        self._last_subset_result = None
        self._known_warnings = set()
        #: One corpus-wide eval cache shared by *every*
        #: engine this session builds — subset and full executions and
        #: all candidate simulations.  Verify/Refine results are keyed
        #: by document content alone, never by the program, so a
        #: candidate's constraint cannot stale any entry: sharing needs
        #: no invalidation at all (the subset corpus samples the same
        #: Document objects, so doc_id-keyed entries carry over).  This
        #: is what stops the next-effort loop paying full re-evaluation
        #: per candidate.
        self._eval_cache = EvalCache()
        self.exec_stats = ExecutionStats()
        #: assistant-side Verify dispatch for strategy probes, on the
        #: same shared cache, counting into ``exec_stats``
        self._probe_evaluator = FeatureEvaluator(self._eval_cache, self.exec_stats)

    # ------------------------------------------------------------------
    # hooks used by strategies
    # ------------------------------------------------------------------
    def applicable(self, question):
        """Data-aware pruning of the question space (section 5.1.1).

        The assistant never asks about markup the corpus does not
        contain (no italics anywhere → no italics questions), skips
        word-shaped features for attributes already constrained to be
        numeric, and only asks open-ended regex questions when the
        task scripted an answer for them.
        """
        feature_name = question.feature_name
        region_kind = getattr(self.registry.get(feature_name), "region_kind", None)
        if region_kind is not None and region_kind not in self._corpus_region_kinds():
            return False
        if feature_name in ("prec_label_contains", "prec_label_max_dist"):
            if not self._corpus_has_labels():
                return False
        if feature_name in ("starts_with", "ends_with", "pattern"):
            # open-ended regex questions: a simulated developer can only
            # answer them when the task scripted an answer; a human
            # (interactive) developer has no such limitation
            truth = getattr(self.developer, "truth", None)
            if truth is not None:
                return question.key() in truth.scripted_answers
            return True
        constraints = self.program.constraints_on(
            question.ie_predicate, question.attribute
        )
        if ("numeric", "yes") in constraints or ("numeric", "distinct_yes") in constraints:
            if feature_name in ("capitalized", "person_name"):
                return False
        return True

    def _corpus_region_kinds(self):
        if not hasattr(self, "_region_kinds_cache"):
            kinds = set()
            for name in self.subset_corpus.table_names():
                for doc in self.subset_corpus.table(name):
                    for kind, intervals in doc.regions.items():
                        if intervals:
                            kinds.add(kind)
            self._region_kinds_cache = kinds
        return self._region_kinds_cache

    def _corpus_has_labels(self):
        if not hasattr(self, "_has_labels_cache"):
            self._has_labels_cache = any(
                doc.labels
                for name in self.subset_corpus.table_names()
                for doc in self.subset_corpus.table(name)
            )
        return self._has_labels_cache

    def add_example(self, ie_predicate, attribute, span):
        """Record a developer-marked example value (section 5.1.1).

        Examples shrink the simulation strategy's answer space: answers
        the example contradicts are never simulated.
        """
        self.examples.setdefault((ie_predicate, attribute), []).append(span)

    def collect_examples(self):
        """Ask the developer for one example per refinable attribute.

        Only developers exposing ``provide_example(ie_pred, attr)``
        participate (the simulated developer does; a session may also
        pre-seed examples via :meth:`add_example`).
        """
        provide = getattr(self.developer, "provide_example", None)
        if provide is None:
            return 0
        count = 0
        for ie_predicate, attribute in self.program.ie_attributes():
            span = provide(ie_predicate, attribute)
            if span is not None:
                self.add_example(ie_predicate, attribute, span)
                count += 1
        return count

    def example_spans(self, ie_predicate, attribute):
        return self.examples.get((ie_predicate, attribute), [])

    def verify_feature(self, feature, span, value):
        """Assistant-side ``Verify`` on the session's shared caches.

        Strategies estimate answer priors by verifying features over
        sampled candidate spans; routing those probes through the shared
        :class:`EvalCache` means a span verified during
        extraction (or a previous iteration's probing) is never
        re-evaluated.  Counts into :attr:`exec_stats`.
        """
        return self._probe_evaluator.verify_span(feature, span, value)

    def simulate_refinement(self, ie_predicate, attribute, feature, value):
        """Result size if the developer answered ``value`` (section 5.1).

        Runs over the evaluation subset with a throwaway copy of the
        reuse cache, so simulation cost is one incremental constraint
        application in the common case.
        """
        self.simulations += 1
        score, elapsed, stats = self._simulate_one(ie_predicate, attribute, feature, value)
        self.machine_seconds += elapsed
        self.exec_stats.merge(stats)
        return score

    def simulate_refinements(self, candidates):
        """Batch :meth:`simulate_refinement`; scores in candidate order.

        ``candidates`` holds ``(ie_predicate, attribute, feature,
        value)`` tuples.  With ``config.workers > 1`` the candidate
        executions fan out on the same scheduler backend the engine uses
        for partitioned plans — each candidate is an independent program
        over the evaluation subset, so answer simulation parallelises
        across candidates rather than within one.  ``machine_seconds``
        accumulates per-candidate engine time either way, keeping the
        cost model wall-clock-independent.
        """
        candidates = list(candidates)
        self.simulations += len(candidates)
        workers = getattr(self.config, "workers", 1)
        if workers <= 1 or len(candidates) <= 1:
            results = [self._simulate_one(*candidate) for candidate in candidates]
        else:
            from repro.processor.schedulers import make_scheduler

            scheduler = make_scheduler(getattr(self.config, "backend", "serial"), workers)
            results = scheduler.map(
                lambda candidate: self._simulate_one(*candidate), candidates
            )
        scores = []
        for score, elapsed, stats in results:
            self.machine_seconds += elapsed
            self.exec_stats.merge(stats)
            scores.append(score)
        return scores

    def _simulate_one(self, ie_predicate, attribute, feature, value):
        """``(score, engine seconds, stats)`` for one candidate refinement.

        Appends to the shared eval cache but never
        invalidates (entries are content-keyed), so batches of these may
        run concurrently: concurrent writers only ever write identical
        values under identical keys, and the rule caches are only read,
        through throwaway copies.  Per-candidate cache-hit counters do
        depend on execution order across a parallel batch, which is why
        stats are returned and merged (order-insensitive) rather than
        compared per candidate.
        """
        try:
            variant = self.program.add_constraint(ie_predicate, attribute, feature, value)
        except Exception:
            return float("inf"), 0.0, ExecutionStats()
        # validate=False: simulation deliberately tries constraints that
        # may be infeasible (the result is then 0 tuples, a fine answer).
        # No tracer/metrics here: candidate batches may run on worker
        # threads, and the session's Tracer is not thread-safe.
        engine = IFlexEngine(
            variant,
            self.subset_corpus,
            self.registry,
            self._simulation_config(),
            validate=False,
            eval_cache=self._eval_cache,
        )
        result = engine.execute(cache=_CacheCopy.copy(self._subset_cache))
        # tuple count first; narrowing measures as tie-breakers, so a
        # question that shrinks the extraction without (yet) moving the
        # result size still beats a no-op question
        assignments = sum(t.assignment_count() for t in result.tables.values())
        values = sum(t.encoded_value_count() for t in result.tables.values())
        score = result.tuple_count + assignments * 1e-5 + values * 1e-10
        return score, result.elapsed, result.stats

    def _simulation_config(self):
        """The candidate engines' config: always single-worker.

        Parallel sessions fan out *across* candidates, and the subset
        corpus is small — partitioning it inside each simulation would
        nest pools for no gain.
        """
        if getattr(self.config, "workers", 1) <= 1:
            return self.config
        if not hasattr(self, "_serial_config"):
            from dataclasses import replace

            self._serial_config = replace(self.config, workers=1, backend="serial")
        return self._serial_config

    def attribute_profile(self, ie_predicate, attribute, max_tuples=50):
        """Candidate spans currently extracted for an attribute.

        Used to profile parameter values for parameterised features
        (``preceded_by`` candidates, value quantiles, ...).
        """
        if self._last_subset_result is None:
            return []
        column = self._column_for(ie_predicate, attribute)
        if column is None:
            return []
        head, attr = column
        table = self._last_subset_result.tables.get(head)
        if table is None or attr not in table.attrs:
            return []
        index = table.attr_index(attr)
        spans = []
        for t in table.tuples[:max_tuples]:
            for assignment in t.cells[index].assignments:
                span = assignment.anchor_span
                if span is not None:
                    spans.append(span)
        return spans

    def _column_for(self, ie_predicate, attribute):
        description_rules = self.program.description_rules_for(ie_predicate)
        if not description_rules:
            return None
        head = description_rules[0].head
        for rule in self.program.skeleton_rules:
            for atom in rule.body_atoms(PredicateAtom):
                if atom.name != ie_predicate:
                    continue
                for head_arg, arg in zip(head.args, atom.args):
                    if head_arg.var.name == attribute and isinstance(arg, Var):
                        if arg.name in rule.head.attr_names:
                            return (rule.head.name, arg.name)
        return None

    # ------------------------------------------------------------------
    # static analysis surfacing (next-effort feedback)
    # ------------------------------------------------------------------
    def lint(self):
        """Static-analysis result for the current program (never raises)."""
        from repro.analysis import analyze_program

        return analyze_program(self.program, registry=self.registry)

    def _surface_warnings(self):
        """Warnings not yet seen this session, pushed to the developer.

        A developer exposing ``notify_diagnostics(diagnostics)`` (the
        interactive one does) gets them as feedback alongside the
        questions; simulated developers just ignore them.
        """
        fresh = []
        for diagnostic in self.lint().warnings:
            key = (diagnostic.code, diagnostic.rule_label, diagnostic.message)
            if key in self._known_warnings:
                continue
            self._known_warnings.add(key)
            fresh.append(diagnostic)
        if fresh:
            notify = getattr(self.developer, "notify_diagnostics", None)
            if notify is not None:
                notify(fresh)
        return fresh

    # ------------------------------------------------------------------
    def run(self):
        """Run the session to convergence (or exhaustion).

        A session resumed from a save file continues its trace: restored
        iteration records lead the returned trace and new iterations
        number after them.
        """
        lint_warnings = self._surface_warnings()
        prior = list(self.prior_records)
        base = max((r.index for r in prior), default=0)
        records = []
        converged = False
        for index in range(base + 1, base + self.max_iterations + 1):
            before = self._progress_snapshot()
            exhausted = False
            with self._iteration_span(index, "subset"):
                result = self._execute_subset()
                # the monitor watches the result size, the number of
                # assignments the whole extraction produced, and the total
                # number of encoded values (sensitive to narrowing)
                extraction_assignments = sum(
                    table.assignment_count() for table in result.tables.values()
                )
                extraction_values = sum(
                    table.encoded_value_count() for table in result.tables.values()
                )
                record = IterationRecord(
                    index=index,
                    mode="subset",
                    tuples=result.tuple_count,
                    assignments=extraction_assignments,
                    elapsed=result.elapsed,
                )
                records.append(record)
                logger.debug(
                    "iteration %d: %d tuples, %d assignments, %d values",
                    index,
                    result.tuple_count,
                    extraction_assignments,
                    extraction_values,
                )
                converged = self.monitor.observe(
                    result.tuple_count, extraction_assignments, extraction_values
                )
                if not converged:
                    exhausted = not self._refine(record)
            self._emit_iteration(record, before)
            if converged or exhausted:
                break
        before = self._progress_snapshot()
        final_index = base + len(records) + 1
        with self._iteration_span(final_index, "reuse"):
            final_result = self._execute_full()
        final_record = IterationRecord(
            index=final_index,
            mode="reuse",
            tuples=final_result.tuple_count,
            assignments=sum(
                table.assignment_count()
                for table in final_result.tables.values()
            ),
            elapsed=final_result.elapsed,
        )
        records.append(final_record)
        self._emit_iteration(final_record, before)
        trace = SessionTrace(
            records=prior + records,
            converged=converged,
            final_result=final_result,
            program=self.program,
            subset_fraction=self.subset_fraction,
            machine_seconds=self.machine_seconds,
            questions_asked=len(self.asked),
            questions_answered=self.developer.questions_answered,
            lint_warnings=lint_warnings,
            exec_stats=self.exec_stats,
            failure_records=list(self.failure_records),
        )
        self._emit_session(trace)
        return trace

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _iteration_span(self, index, mode):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(
            "iteration[%d]" % index, category="session", index=index, mode=mode
        )

    def _progress_snapshot(self):
        """Cumulative counters, snapshotted so iterations report deltas."""
        snapshot = dict(vars(self.exec_stats))
        snapshot["_failures"] = len(self.failure_records)
        snapshot["_simulations"] = self.simulations
        return snapshot

    def _emit_iteration(self, record, before):
        """One ``iteration`` telemetry record (Table-4 columns + cost)."""
        if self.telemetry is None:
            return
        stats = vars(self.exec_stats)
        delta = {name: stats[name] - before.get(name, 0) for name in stats}
        self.telemetry.emit(
            "iteration",
            index=record.index,
            mode=record.mode,
            tuples=record.tuples,
            assignments=record.assignments,
            questions_asked=len(record.questions),
            questions_answered=len(record.answered),
            elapsed_s=record.elapsed,
            cache_hits=delta["verify_cache_hits"] + delta["refine_cache_hits"],
            cache_misses=delta["verify_cache_misses"] + delta["refine_cache_misses"],
            verify_evals=delta["verify_calls"],
            refine_evals=delta["refine_calls"],
            simulations=self.simulations - before["_simulations"],
            failures=len(self.failure_records) - before["_failures"],
        )

    def _emit_session(self, trace):
        """The closing ``session`` summary telemetry record."""
        if self.telemetry is None:
            return
        self.telemetry.emit(
            "session",
            converged=trace.converged,
            iterations=trace.iterations,
            subset_fraction=trace.subset_fraction,
            machine_seconds=trace.machine_seconds,
            questions_asked=trace.questions_asked,
            questions_answered=trace.questions_answered,
            simulations=self.simulations,
            failures=len(trace.failure_records),
            tuples=trace.final_result.tuple_count,
            assignments=trace.final_result.assignment_count,
        )

    # ------------------------------------------------------------------
    def _absorb_report(self, result):
        """Fold an execution's contained failures into session state.

        A poisoned document discovered mid-refinement (under the
        ``skip`` / ``retry`` policies) is removed from both the subset
        and the full corpus, so the session survives it *and* stops
        paying its quarantine re-run on every subsequent iteration —
        the fault is discovered once, recorded once, excluded forever.
        """
        report = getattr(result, "report", None)
        if report is None or not report.records:
            return
        self.failure_records.extend(report.records)
        fresh = {r.doc_id for r in report.records} - self.poisoned_docs
        if fresh:
            self.poisoned_docs |= fresh
            self.subset_corpus = self.subset_corpus.without(fresh)
            self.corpus = self.corpus.without(fresh)

    def _execute_subset(self):
        # the session lints explicitly (warnings as feedback, never
        # blocking), so its engines skip the pre-execution validation
        engine = IFlexEngine(
            self.program,
            self.subset_corpus,
            self.registry,
            self.config,
            validate=False,
            eval_cache=self._eval_cache,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        result = engine.execute(cache=self._subset_cache)
        self.machine_seconds += result.elapsed
        self.exec_stats.merge(result.stats)
        self._absorb_report(result)
        self._last_subset_result = result
        return result

    def _execute_full(self):
        engine = IFlexEngine(
            self.program,
            self.corpus,
            self.registry,
            self.config,
            validate=False,
            eval_cache=self._eval_cache,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        result = engine.execute(cache=self._full_cache)
        self.machine_seconds += result.elapsed
        self.exec_stats.merge(result.stats)
        self._absorb_report(result)
        return result

    def _refine(self, record):
        """Ask ``questions_per_iteration`` questions; True unless the

        question space is exhausted before anything was asked.
        """
        refined = False
        for _ in range(self.questions_per_iteration):
            question = self.strategy.select(self)
            if question is None:
                if refined:
                    record.warnings = self._surface_warnings()
                return bool(record.questions)
            self.asked.add(question.key())
            answer = self.developer.answer(question, self.registry)
            record.questions.append((question, answer))
            logger.debug(
                "asked %s -> %s", question, "IDK" if answer is None else answer
            )
            if answer is None:
                continue
            try:
                self.program = self.program.add_constraint(
                    question.ie_predicate,
                    question.attribute,
                    question.feature_name,
                    answer,
                )
                refined = True
            except Exception:
                continue  # un-applicable answer; treat as declined
        if refined:
            record.warnings = self._surface_warnings()
        return True
