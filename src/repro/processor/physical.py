"""The physical execution layer: partitioned plan execution.

:class:`PhysicalExecutor` sits between the engine's per-predicate loop
and the operator trees.  Partitions exist for partition-keyed reuse
(the engine's result cache re-executes only the partitions whose
documents changed), so only predicates that can be reused partition
by partition are partitioned.  For each predicate it

1. asks the plan-analysis layer (:mod:`repro.processor.split`) whether
   the whole plan is document-local;
2. if so, partitions the corpus (``Corpus.partition``) and executes the
   plan once per partition, in order, through
   :func:`~repro.processor.schedulers.run_tasks`, then unions the
   per-partition compact tables (``CompactTable.union``, preserving
   maybe flags and multiset semantics — and, because partitions are
   contiguous document slices processed in order, the exact
   unpartitioned tuple order);
3. otherwise executes the plan once over the whole corpus, on the
   caller's context, exactly as an unpartitioned run does.

Under fixed-size chunking (``partition_docs``, the resident service's
layout) a predicate whose plan is a tuple-local pipeline over a scan of
an earlier partition-local predicate (a *chained* predicate, see
:mod:`repro.processor.split`) is partition-local too: it runs partition
by partition, each partition context seeded with the upstream's table
for that same partition, so a delta re-executes only the partitions it
dirtied all down the chain.

With one worker (the default) every plan executes exactly as the
original unpartitioned engine did — same operators, same context,
same statistics — so that path is the identity baseline the
determinism tests compare partitioned runs against.

Per-partition work re-compiles the predicate's plan from the program:
compilation is deterministic and cheap relative to extraction, and
fresh trees mean no operator state is shared across partitions.
"""

from repro.ctables.ctable import CompactTable
from repro.observability.logs import get_logger
from repro.observability.spans import Tracer
from repro.processor.context import ExecutionContext
from repro.processor.plan import compile_predicate
from repro.processor.schedulers import TaskError, run_tasks
from repro.processor.split import PlanSplit

__all__ = ["PhysicalExecutor"]

logger = get_logger("processor")


class PhysicalExecutor:
    """Executes one (unfolded) program's plans over a partitioned corpus.

    Tracing is per call: with a tracer (the calling context's, or the
    one passed to :meth:`execute_local_partitions`), every task batch
    records a scheduler span and each partition task builds its *own*
    :class:`~repro.observability.spans.Tracer` — operators record into
    it — whose spans ride back as the last element of the task's result
    tuple, like ``ExecutionStats``, and are grafted under the scheduler
    span.
    """

    def __init__(
        self,
        program,
        corpus,
        features,
        config,
        order=(),
        previous=None,
    ):
        self.program = program
        #: the non-recursive predicates in evaluation order: a plan may
        #: scan one of them partition by partition only if it comes
        #: earlier (recursive groups always run globally)
        self.order = tuple(order)
        self.corpus = corpus
        self.features = features
        self.config = config
        workers = getattr(config, "workers", 1)
        partition_docs = getattr(config, "partition_docs", None)
        self.chunked = bool(partition_docs)
        if partition_docs:
            # fixed-size chunks: boundaries are positionally stable, so
            # a resident engine's partition-keyed reuse survives corpus
            # growth (appends only touch the tail chunks); ``previous``,
            # the executor this one replaces after a corpus change,
            # lends its unchanged chunks (an empty corpus chunks to
            # itself, which is never lent)
            reuse = ()
            if previous is not None and previous.partitions[0] is not previous.corpus:
                reuse = previous.partitions
            self.partitions = corpus.chunk(partition_docs, reuse=reuse)
        else:
            self.partitions = corpus.partition(workers) if workers > 1 else [corpus]
        self.timeout = getattr(config, "partition_timeout", None)
        self._splits = {}
        self._corpus_sigs = None

    @property
    def partitioned(self):
        return len(self.partitions) > 1

    def corpus_sigs(self):
        """``("content", digest)`` per partition, computed once.

        The corpus half of every partition fingerprint, shared by all
        the partition-local predicates of every run on this executor.
        """
        if self._corpus_sigs is None:
            self._corpus_sigs = [("content", p.content_digest) for p in self.partitions]
        return self._corpus_sigs

    # ------------------------------------------------------------------
    # plan analysis (resolved once, in evaluation order)
    # ------------------------------------------------------------------
    def split(self, name):
        """The predicate's plan split; chained where chunking allows.

        Chaining follows the chunked layout (``partition_docs``): its
        boundaries are positionally stable, so a resident engine's
        partition-keyed cache reuses a chained predicate's partitions
        from run to run.  Worker-count partitions move whenever the
        corpus changes size and serve one-shot runs, where a chained
        predicate's partitions could never be reused: there it reads
        the merged upstream table, globally.
        """
        if not self._splits and self.chunked:
            chained = {}
            for pred in self.order:
                split = PlanSplit(compile_predicate(pred, self.program), chained)
                self._splits[pred] = split
                if split.fully_local:
                    chained[pred] = split.anchored
        if name not in self._splits:
            self._splits[name] = PlanSplit(compile_predicate(name, self.program))
        return self._splits[name]

    def fully_local(self, name):
        return self.split(name).fully_local

    def upstream(self, name):
        """The chained predicate ``name``'s partition-local plan scans."""
        return self.split(name).upstream

    # ------------------------------------------------------------------
    # partition-level execution
    # ------------------------------------------------------------------
    def _map(self, work, pids, label="", tracer=None):
        """:func:`run_tasks` with partition-attributed failures.

        The task runner reports failures by *task index*; this layer knows
        which corpus partition each task was, stamps it onto the
        failure, and re-raises the bare :class:`ExecutionFailure` so the
        engine's error policy sees the same exception type whether the
        plan ran serially or partitioned.

        With a tracer, the whole batch is recorded as a scheduler span,
        and each task's result tuple carries its partition span list as
        the *last* element; that element is stripped here and adopted
        into the tracer, so callers see the untraced result shapes.
        """
        if tracer is None:
            return self._map_raw(work, pids)
        with tracer.span(
            "scheduler.map",
            category="scheduler",
            tasks=len(pids),
            predicate=label,
        ) as scheduler_span:
            results = self._map_raw(work, pids)
            stripped = []
            for result in results:
                *rest, spans = result
                tracer.adopt(spans, parent=scheduler_span)
                stripped.append(tuple(rest))
            return stripped

    def _map_raw(self, work, pids):
        try:
            return run_tasks(work, pids, timeout=self.timeout)
        except TaskError as error:
            failure = error.failure if error.failure is not None else error
            if failure.partition is None and error.task_index is not None:
                failure.partition = pids[error.task_index]
            if failure.__cause__ is None:
                failure.__cause__ = error.__cause__
            raise failure from error.__cause__

    def _partition_context(self, pid, tracer=None, seeds=None):
        # The eval cache is *fresh* per partition so hit/miss counters
        # are layout-independent and sum to the unpartitioned counts —
        # cache keys are document-scoped and partitions
        # document-disjoint, so a shared cache could not produce extra
        # hits anyway.
        context = ExecutionContext(
            self.program,
            self.partitions[pid],
            self.features,
            self.config,
            tracer=tracer,
        )
        for name, tables in (seeds or {}).items():
            context.relations[name] = tables[pid]
        return context

    def execute_local_partitions(self, name, pids=None, tracer=None, upstream=None):
        """Run a *fully local* predicate plan on each requested partition.

        Returns ``[(table, stats)]`` in partition order.  The engine's
        partition-keyed reuse cache calls this with only the partitions
        whose cached tables could not be reused.  A chained predicate
        needs ``upstream``: its upstream's tables by partition id; each
        partition context sees its own.  Tasks never write to the
        caller's tracer: with tracing on, each task records into its own
        fresh tracer and the spans come back inside the result tuple.
        """
        pids = range(len(self.partitions)) if pids is None else pids
        chained = self.upstream(name)
        seeds = {chained: upstream} if chained else None
        traced = tracer is not None

        def work(pid):
            worker_tracer = Tracer() if traced else None
            context = self._partition_context(pid, worker_tracer, seeds)
            plan = compile_predicate(name, self.program)
            if worker_tracer is None:
                return plan.execute(context), context.stats
            partition = self.partitions[pid]
            with worker_tracer.span(
                "partition[%d]" % pid,
                category="partition",
                partition=pid,
                documents=sum(partition.size_of(n) for n in partition.table_names()),
            ):
                table = plan.execute(context)
            return table, context.stats, worker_tracer.spans

        return self._map(work, list(pids), label=name, tracer=tracer)

    # ------------------------------------------------------------------
    # whole-plan execution
    # ------------------------------------------------------------------
    def execute_plan(self, name, context):
        """Execute one predicate's plan over the whole corpus.

        A fully local plan on a partitioned corpus runs partition by
        partition; every other plan executes the tree directly on
        ``context``, as an unpartitioned run does.  Partition statistics
        merge into ``context.stats``, so counters match a serial
        execution exactly.  A fully local predicate's per-partition
        tables stay in ``context.partition_relations`` for the chained
        predicates downstream of it.
        """
        info = self.split(name)
        if not (self.partitioned and info.fully_local):
            return compile_predicate(name, self.program).execute(context)
        computed = self.execute_local_partitions(
            name,
            tracer=context.tracer,
            upstream=context.partition_relations.get(info.upstream),
        )
        for _, stats in computed:
            context.stats.merge(stats)
        tables = context.partition_relations[name] = [t for t, _ in computed]
        return CompactTable.union(tables, attrs=info.root.attrs)
