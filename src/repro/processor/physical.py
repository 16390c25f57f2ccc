"""The physical execution layer: the corpus partitions.

:class:`PhysicalExecutor` holds the engine's view of the corpus as
partitions.  Partitions exist for partition-keyed reuse (the engine's
result cache re-executes only the partitions whose documents changed),
so only predicates that can be reused partition by partition are
partitioned.  The plan-analysis layer (:mod:`repro.processor.split`)
judges whether a predicate's whole plan is document-local; if so, the
engine's reuse step (:mod:`repro.processor.reuse`) has the executor run
the plan once per partition that needs it, in order, in a plain loop,
and unions the per-partition compact tables (``CompactTable.union``,
preserving maybe flags and multiset semantics — and, because
partitions are contiguous document slices processed in order, the
exact unpartitioned tuple order).  Every other plan runs once over the
whole corpus, on the caller's context, exactly as an unpartitioned run
does.

The corpus is cut into fixed-size chunks (``ExecConfig.partition_docs``
documents each, :meth:`~repro.text.corpus.Corpus.chunk`) whose
boundaries are positionally stable, so partition-keyed reuse survives
corpus growth.  A predicate whose plan is a tuple-local pipeline over a
scan of an earlier partition-local predicate (a *chained* predicate,
see :mod:`repro.processor.split`) is partition-local too: it runs
partition by partition, each partition context seeded with the
upstream's table for that same partition, so a delta re-executes only
the partitions it dirtied all down the chain.

Without ``partition_docs`` (the default) the corpus is one partition
and every plan executes exactly as the original unpartitioned engine
did — same operators, same context, same statistics — so that path is
the identity baseline the determinism tests compare partitioned runs
against.

Per-partition work re-compiles the predicate's plan from the program:
compilation is deterministic and cheap relative to extraction, and
fresh trees mean no operator state is shared across partitions.
"""

from contextlib import nullcontext

from repro.errors import ExecutionFailure
from repro.processor.context import ExecutionContext
from repro.processor.plan import compile_predicate
from repro.processor.split import PlanSplit

__all__ = ["PhysicalExecutor"]


class PhysicalExecutor:
    """Executes one (unfolded) program's plans over a partitioned corpus.

    Tracing is per call: with a tracer on the run context passed to
    :meth:`execute_local_partitions`, each batch records a
    ``scheduler.map`` span with one ``partition[i]`` span per partition
    under it, and the partition's operators record into the same tracer.
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
        partition_docs = getattr(config, "partition_docs", None)
        if partition_docs:
            # appends only touch the tail chunks; ``previous``, the
            # executor this one replaces after a corpus change, lends its
            # unchanged chunks (an empty corpus chunks to itself, which
            # is never lent)
            reuse = ()
            if previous is not None and previous.partitions[0] is not previous.corpus:
                reuse = previous.partitions
            self.partitions = corpus.chunk(partition_docs, reuse=reuse)
        else:
            self.partitions = [corpus]
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
        """The predicate's plan split, chained over the predicates
        before it in evaluation order."""
        if not self._splits:
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
    def _partition_context(self, pid, run_context, chained, upstream):
        # The run's eval cache: its keys are document-scoped and the
        # partitions document-disjoint, so hit/miss counters sum to the
        # unpartitioned counts, and a quarantine re-run replays the
        # evaluations an earlier attempt made.
        context = ExecutionContext(
            self.program,
            self.partitions[pid],
            self.features,
            self.config,
            eval_cache=run_context.eval_cache,
            tracer=run_context.tracer,
        )
        if chained:
            context.relations[chained] = upstream[pid]
        return context

    def execute_local_partitions(self, name, pids, context, upstream=None):
        """Run a *fully local* predicate plan on each of ``pids``, in order.

        ``context`` is the run's whole-corpus context: every partition
        shares its eval cache and tracer.  Returns ``[(table, stats)]``
        in ``pids`` order.  The engine's
        partition-keyed reuse calls this with only the partitions whose
        cached tables could not be reused.  A chained predicate needs
        ``upstream``: its upstream's tables by partition id; each
        partition context sees its own.

        An :class:`~repro.errors.ExecutionFailure` raised in a partition
        gets that partition's id (unless it already names one); every
        other exception propagates unchanged, as in an unpartitioned
        run.
        """
        chained = self.upstream(name)
        tracer = context.tracer
        if tracer is None:
            batch = nullcontext()
        else:
            batch = tracer.span(
                "scheduler.map", category="scheduler", tasks=len(pids), predicate=name
            )
        results = []
        with batch:
            for pid in pids:
                local = self._partition_context(pid, context, chained, upstream)
                plan = compile_predicate(name, self.program)
                try:
                    with self._partition_span(pid, tracer):
                        results.append((plan.execute(local), local.stats))
                except ExecutionFailure as failure:
                    ExecutionFailure.wrap(failure, partition=pid)
                    raise
        return results

    def _partition_span(self, pid, tracer):
        if tracer is None:
            return nullcontext()
        partition = self.partitions[pid]
        return tracer.span(
            "partition[%d]" % pid,
            category="partition",
            partition=pid,
            documents=sum(partition.size_of(n) for n in partition.table_names()),
        )
