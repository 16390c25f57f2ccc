"""The resident extraction service core (engine-as-library).

One :class:`ExtractionService` owns the state every request shares:

* one mutable :class:`~repro.text.corpus.Corpus` documents are ingested
  into and removed from;
* one :class:`~repro.processor.context.EvalCache` and one
  :class:`~repro.columnar.results.ResultStore` — shared by *every*
  submitted program, exactly as a single batch run shares them across
  partitions;
* one resident :class:`~repro.processor.executor.IFlexEngine` per
  submitted program, each with a persistent
  :class:`~repro.processor.executor.RuleCache` so re-submitting an
  unchanged program recomputes **zero** partitions;
* one :class:`~repro.observability.metrics.MetricsRegistry` every
  execution folds its counters into (the ``/metrics`` endpoint).

There is deliberately no per-call process state: document ingestion
mutates the corpus in place, invalidates exactly the content-keyed
cache entries an in-place edit stales, and rebinds every resident
engine (:meth:`IFlexEngine.rebind_corpus`) — so the next execution's
delta path recomputes only the partitions whose content digests moved.
The default configuration partitions by fixed-size document chunks
(``ExecConfig.partition_docs``), whose boundaries are positionally
stable under ingestion: appending k documents dirties exactly the
chunks they land in.

Thread safety: every corpus mutation and every execution runs under one
service lock (executions share mutable rule caches); streaming a
finished result happens outside it.
"""

import hashlib
import threading
from dataclasses import replace

from repro.errors import ReproError
from repro.observability.logs import get_logger
from repro.observability.metrics import MetricsRegistry
from repro.processor.context import EvalCache, ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.processor.library import make_similar
from repro.text.corpus import Corpus
from repro.xlog.program import PFunction, Program

__all__ = ["ExtractionService", "ProgramHost", "ServiceError"]

logger = get_logger("service")

#: documents per partition when the caller's config does not choose —
#: small enough that single-document ingestion dirties one partition
DEFAULT_PARTITION_DOCS = 1


class ServiceError(ReproError):
    """A request-attributable failure, carrying its HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class ProgramHost:
    """One submitted program's resident execution state.

    Besides the engine and its rule cache, a host keeps the NDJSON tuple
    lines of the last result it streamed, as ``{id(row): (row, line)}``
    (:func:`~repro.service.app.stream_result` reads and replaces it).
    Result tables are finished when execution returns and never mutated,
    and a warm or delta run shares the unchanged rows of the previous
    result, so a line is re-sent whenever its stored row *is* the row
    being streamed; the entry holds that row, so its id cannot be reused
    while the entry lives.  The memo holds one result's lines.
    """

    __slots__ = (
        "program_id",
        "source",
        "query",
        "tables",
        "program",
        "engine",
        "cache",
        "warnings",
        "runs",
        "last_summary",
        "lines",
    )

    def __init__(self, program_id, source, query, tables, program, engine, warnings):
        self.program_id = program_id
        self.source = source
        self.query = query
        self.tables = tables
        self.program = program
        self.engine = engine
        #: the persistent rule cache every run of this program reuses —
        #: what makes a warm re-submission recompute zero partitions
        self.cache = RuleCache(store=engine.result_store)
        self.warnings = warnings
        self.runs = 0
        self.last_summary = None
        #: the tuple lines of the last streamed result, by row identity
        self.lines = {}

    def describe(self):
        info = {
            "program_id": self.program_id,
            "query": self.program.query,
            "tables": sorted(self.program.extensional),
            "runs": self.runs,
            "warnings": list(self.warnings),
        }
        if self.last_summary is not None:
            info["last_summary"] = dict(self.last_summary)
        return info


class ExtractionService:
    """Resident engines plus shared stores behind one lock."""

    def __init__(
        self,
        corpus=None,
        features=None,
        config=None,
        metrics=None,
        similar_threshold=0.6,
    ):
        self.lock = threading.RLock()
        self.corpus = corpus if corpus is not None else Corpus()
        self.features = features
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.similar_threshold = similar_threshold
        # one persistent result store instance shared by every engine:
        # ExecConfig.result_cache accepts a ResultStore, so normalising
        # the config here means each engine's from_config() resolves to
        # this same object (shared counters, shared rewrite set);
        # the normalised config is a copy, the caller's stays as given
        from repro.columnar.results import ResultStore

        config = config or ExecConfig()
        self.result_store = ResultStore.from_config(config)
        self.config = replace(
            config,
            partition_docs=config.partition_docs or DEFAULT_PARTITION_DOCS,
            result_cache=self.result_store,
        )
        # corpus-wide acceleration state, shared across programs and
        # sessions exactly as one engine shares it across partitions
        self.eval_cache = EvalCache()
        self.programs = {}
        from repro.service.sessions import SessionManager

        self.sessions = SessionManager(self)

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------
    def _p_functions(self):
        similar = make_similar(self.similar_threshold)
        return {
            "similar": PFunction("similar", similar),
            "approxMatch": PFunction("approxMatch", similar),
        }

    @staticmethod
    def program_digest(source, query, tables):
        payload = repr((source, query, tuple(sorted(tables))))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def submit_program(self, source, query=None, tables=None):
        """Parse, lint, and host one Alog program; idempotent.

        Returns ``(host, resubmitted)``.  The program id is a digest of
        (source, query, declared tables), so re-submitting an unchanged
        program resolves to the *same* resident engine and rule cache —
        the warm path.  A defective program raises :class:`ServiceError`
        (HTTP 400) carrying the analyzer's message.
        """
        if not source or not source.strip():
            raise ServiceError("empty program source")
        with self.lock:
            declared = (
                tuple(tables) if tables else tuple(self.corpus.table_names())
            )
            program_id = self.program_digest(source, query, declared)
            host = self.programs.get(program_id)
            if host is not None:
                return host, True
            try:
                program = Program.parse(
                    source,
                    extensional=declared,
                    p_functions=self._p_functions(),
                    query=query,
                )
                engine = IFlexEngine(
                    program,
                    self.corpus,
                    features=self.features,
                    config=self.config,
                    validate=True,
                    eval_cache=self.eval_cache,
                    metrics=self.metrics,
                )
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
            warnings = []
            lint = engine.lint_result
            if lint is not None:
                warnings = [d.render() for d in lint.warnings]
            host = ProgramHost(
                program_id, source, query, declared, program, engine, warnings
            )
            self.programs[program_id] = host
            self._count("programs_submitted")
            logger.info("program %s submitted (query=%s)", program_id, program.query)
            return host, False

    def get_program(self, program_id):
        host = self.programs.get(program_id)
        if host is None:
            raise ServiceError("no program %r" % (program_id,), status=404)
        return host

    def drop_program(self, program_id):
        with self.lock:
            self.get_program(program_id)
            del self.programs[program_id]

    def run_program(self, program_id):
        """Execute one hosted program; returns its ExecutionResult.

        Runs under the service lock (rule caches are not concurrency
        safe); the caller streams the finished result outside it.
        """
        with self.lock:
            host = self.get_program(program_id)
            missing = sorted(
                name
                for name in host.program.extensional
                if name not in self.corpus
            )
            if missing:
                raise ServiceError(
                    "extensional table(s) not ingested: %s" % ", ".join(missing),
                    status=409,
                )
            try:
                result = host.engine.execute(cache=host.cache)
            except ReproError as exc:
                raise ServiceError(str(exc), status=500) from exc
            host.runs += 1
            host.last_summary = self.result_summary(result)
            self._count("executions")
            return result

    @staticmethod
    def result_summary(result):
        stats = result.stats
        summary = result.summary()
        summary.update(
            reuse=dict(result.reuse_summary),
            partitions_reused=stats.partitions_reused,
            partitions_recomputed=stats.partitions_recomputed,
            result_cache_hits=stats.result_cache_hits,
            result_cache_misses=stats.result_cache_misses,
        )
        return summary

    # ------------------------------------------------------------------
    # documents
    # ------------------------------------------------------------------
    def ingest(self, table, documents):
        """Add (or in-place replace) documents; rebind every engine.

        Returns ``(added, replaced_ids)``.  Replaced documents — same
        ``doc_id``, new content — are the one mutation content-addressed
        caches cannot age out by missing, so their eval-cache entries
        are invalidated explicitly before the engines rebind.
        """
        if not table or not str(table).strip():
            raise ServiceError("ingest needs a table name")
        documents = list(documents)
        if not documents:
            raise ServiceError("ingest needs at least one document")
        with self.lock:
            try:
                replaced = self.corpus.add_documents(
                    table, documents, replace=True
                )
            except ValueError as exc:
                raise ServiceError(str(exc)) from exc
            self._invalidate(replaced)
            self._refresh_engines()
            self._count("documents_ingested", len(documents))
            logger.info(
                "ingested %d document(s) into %r (%d replaced)",
                len(documents),
                table,
                len(replaced),
            )
            return len(documents) - len(replaced), replaced

    def remove(self, doc_ids):
        """Remove documents from every table; rebind every engine."""
        with self.lock:
            removed = self.corpus.remove_documents(doc_ids)
            if not removed:
                raise ServiceError(
                    "no such document(s): %s" % ", ".join(sorted(doc_ids)),
                    status=404,
                )
            self._invalidate(removed)
            self._refresh_engines()
            self._count("documents_removed", len(removed))
            return removed

    def _invalidate(self, doc_ids):
        if doc_ids:
            self.eval_cache.invalidate_docs(doc_ids)

    def _refresh_engines(self):
        for host in self.programs.values():
            host.engine.rebind_corpus()

    def corpus_info(self):
        with self.lock:
            tables = {
                name: self.corpus.size_of(name)
                for name in self.corpus.table_names()
            }
            return {
                "tables": tables,
                "documents": sum(tables.values()),
                "content_digest": self.corpus.content_digest,
            }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _count(self, name, amount=1):
        self.metrics.counter(
            "repro.service.%s" % name,
            help="resident-service lifecycle counter",
        ).inc(amount)

    def metrics_snapshot(self):
        with self.lock:
            return self.metrics.snapshot()
