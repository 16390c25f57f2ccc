"""Incremental delta execution: the persistent partition-result cache.

The contract under test, end to end:

* a warm, identical re-run in a fresh process hydrates every partition
  from the store (100% reuse, zero recompute);
* after editing / adding / removing documents, only the partitions
  whose content digests moved re-execute — and the folded result is
  byte-identical to a cold run over the changed corpus, at every chunk
  size, with deterministic stats counters;
* predicates that invoke procedural atoms (p-predicates / p-functions)
  never persist;
* the quarantine path composes: a faulted run's spills serve a clean
  run over ``corpus.without(poisoned)``;
* no store configured means no files, no counter ticks — the
  historical execution path, byte for byte.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import PPredicate, Program
from tests.faults.harness import faulting_registry
from tests.processor.test_parallel import result_image

#: documents per partition of :func:`run`: four partitions of eight docs
PARTITION_DOCS = 2
#: partitioned layouts, both run serially: :func:`run`'s own chunks and
#: chunks of another size
LAYOUTS = {"serial": {}, "chunked": {"partition_docs": 3}}

PROGRAM_SOURCE = """
q(x, <p>) :- pages(x), ie(@x, p).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def build_program():
    return Program.parse(PROGRAM_SOURCE, extensional=["pages"], query="q")


def page(i, salt=""):
    return parse_html(
        "d%d" % i,
        "<p>Listing %d%s Price: <b>$%d.00</b></p>" % (i, salt, 100 + 10 * i),
    )


def build_corpus(n=8, salts=()):
    salts = dict(salts)
    return Corpus({"pages": [page(i, salts.get(i, "")) for i in range(n)]})


def run(corpus, store_dir, registry=None, **config_kwargs):
    """One fresh-engine execution (cold process semantics: no warm
    in-memory cache, only whatever ``store_dir`` holds on disk)."""
    config_kwargs.setdefault("partition_docs", PARTITION_DOCS)
    config = ExecConfig(
        result_cache=str(store_dir) if store_dir is not None else None,
        **config_kwargs,
    )
    engine = IFlexEngine(
        build_program(), corpus, features=registry, config=config, validate=False
    )
    return engine.execute()


def partition_count(corpus):
    return len(corpus.chunk(PARTITION_DOCS))


class TestWarmAndDelta:
    def test_warm_identical_rerun_hits_every_partition(self, tmp_path):
        corpus = build_corpus()
        cold = run(corpus, tmp_path)
        parts = partition_count(corpus)
        assert cold.stats.partitions_recomputed == parts
        assert cold.stats.partitions_reused == 0
        warm = run(corpus, tmp_path)
        assert warm.stats.partitions_recomputed == 0
        assert warm.stats.partitions_reused == parts
        assert warm.stats.result_cache_misses == 0
        assert set(warm.reuse_summary.values()) == {"full"}
        assert result_image(warm) == result_image(cold)

    def test_editing_one_doc_recomputes_only_its_partition(self, tmp_path):
        corpus = build_corpus()
        run(corpus, tmp_path)
        edited = build_corpus(salts={5: " changed"})
        delta = run(edited, tmp_path)
        assert delta.stats.partitions_recomputed == 1
        assert delta.stats.partitions_reused == partition_count(corpus) - 1
        # byte-identical to a cold run over the edited corpus
        cold = run(build_corpus(salts={5: " changed"}), None)
        assert result_image(delta) == result_image(cold)

    def test_editing_k_docs_recomputes_their_partitions(self, tmp_path):
        corpus = build_corpus()
        run(corpus, tmp_path)
        # docs 0 and 7 live in the first and last of 4 partitions
        edited = build_corpus(salts={0: " a", 7: " b"})
        delta = run(edited, tmp_path)
        assert delta.stats.partitions_recomputed == 2
        assert delta.stats.partitions_reused == partition_count(corpus) - 2

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_delta_matches_cold_on_every_backend(self, layout, tmp_path):
        store = tmp_path / layout
        run(build_corpus(), store, **LAYOUTS[layout])
        edited = build_corpus(salts={3: " now different"})
        delta = run(edited, store, **LAYOUTS[layout])
        cold = run(build_corpus(salts={3: " now different"}), None, **LAYOUTS[layout])
        assert result_image(delta) == result_image(cold)
        assert delta.stats.partitions_recomputed == 1

    def test_second_process_warm_run_reuses(self, tmp_path):
        """Cross-process warmth: tokens and files survive the process."""
        run(build_corpus(), tmp_path)
        code = (
            "import sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
            "from tests.processor.test_incremental import build_corpus, run\n"
            "result = run(build_corpus(), %r)\n"
            "assert result.stats.partitions_recomputed == 0, vars(result.stats)\n"
            "assert result.stats.partitions_reused > 0\n"
            % (
                os.path.join(os.path.dirname(__file__), "..", ".."),
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                str(tmp_path),
            )
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
        )

    def test_fingerprint_token_is_process_stable(self):
        code = (
            "from repro.processor.reuse import _Fingerprint\n"
            "print(_Fingerprint(bases=('b',), constraints=((),), "
            "upstream=(), corpus_sig=('content', 'abc')).token)\n"
        )
        tokens = set()
        for seed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                check=True,
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join(
                        [
                            os.path.join(
                                os.path.dirname(__file__), "..", "..", "src"
                            ),
                            os.environ.get("PYTHONPATH", ""),
                        ]
                    ),
                },
            )
            tokens.add(out.stdout.strip())
        assert len(tokens) == 1


class TestExplainAnalyze:
    def _engine(self, corpus, store_dir):
        config = ExecConfig(partition_docs=PARTITION_DOCS, result_cache=str(store_dir))
        return IFlexEngine(
            build_program(), corpus, config=config, validate=False
        )

    def test_warm_analyze_hydrates_and_reports(self, tmp_path):
        corpus = build_corpus()
        cold = run(corpus, tmp_path)
        result, report = self._engine(corpus, tmp_path).explain_analyze()
        assert result.stats.partitions_recomputed == 0
        assert result.stats.partitions_reused == partition_count(corpus)
        assert result.stats.result_cache_misses == 0
        assert "result cache:" in report
        assert "hydrated from the result cache" in report
        assert result_image(result) == result_image(cold)

    def test_cold_analyze_measures_and_populates_the_store(self, tmp_path):
        corpus = build_corpus()
        result, report = self._engine(corpus, tmp_path).explain_analyze()
        parts = partition_count(corpus)
        assert result.stats.partitions_recomputed == parts
        assert result.stats.partitions_reused == 0
        # full cold measurement: operator rows present for every rule
        assert "operator" in report and "result cache:" in report
        # the analyze run spilled its results: a later run hydrates
        warm = run(corpus, tmp_path)
        assert warm.stats.partitions_recomputed == 0
        assert warm.stats.partitions_reused == parts
        assert result_image(warm) == result_image(result)

    def test_storeless_analyze_keeps_the_cold_report(self, tmp_path):
        engine = IFlexEngine(
            build_program(),
            build_corpus(),
            config=ExecConfig(partition_docs=PARTITION_DOCS),
            validate=False,
        )
        result, report = engine.explain_analyze()
        assert "result cache:" not in report
        assert result.stats.partitions_reused == 0
        assert result.stats.partitions_recomputed == 0


def _mutate(n, op, targets):
    """Apply one corpus mutation; returns the changed corpus builder args."""
    if op == "edit":
        return build_corpus(n, salts={i: " edited" for i in targets})
    if op == "remove":
        keep = [i for i in range(n) if i not in targets]
        return Corpus({"pages": [page(i) for i in keep]})
    docs = [page(i) for i in range(n)] + [
        page(1000 + j, " fresh") for j in sorted(targets)
    ]
    return Corpus({"pages": docs})


class TestDifferentialProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=5, max_value=9),
        op=st.sampled_from(("edit", "remove", "add")),
        targets=st.sets(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=3
        ),
    )
    def test_delta_runs_byte_identical_across_backends(
        self, tmp_path_factory, n, op, targets
    ):
        """Delta == cold on every layout; each partition is reused or
        recomputed, exactly once."""
        base = build_corpus(n)
        mutated = _mutate(n, op, targets)
        reference = run(_mutate(n, op, targets), None)
        root = tmp_path_factory.mktemp("delta")
        for layout, config in LAYOUTS.items():
            # one store per layout, warmed by a same-layout base run
            store = root / layout
            run(base, store, **config)
            delta = run(mutated, store, **config)
            assert result_image(delta) == result_image(reference), (
                "%s delta diverged (op=%s targets=%s)" % (layout, op, targets)
            )
            partitions = len(mutated.chunk(config.get("partition_docs", PARTITION_DOCS)))
            if partitions == 1:
                # one partition runs unpartitioned: no partition counters
                partitions = 0
            stats = delta.stats
            assert stats.partitions_recomputed + stats.partitions_reused == partitions


class TestQuarantineInteraction:
    def test_faulted_spills_serve_the_clean_reduced_corpus(self, tmp_path):
        poisoned = {"d2"}
        corpus = build_corpus()
        faulted = run(
            corpus,
            tmp_path,
            registry=faulting_registry(poisoned),
            on_error="skip",
        )
        assert faulted.report.records  # the document was quarantined
        # a clean engine over corpus.without(poisoned), sharing the
        # store, hydrates every partition the faulted run persisted
        reduced = corpus.without(poisoned)
        clean = run(reduced, tmp_path)
        assert clean.stats.partitions_recomputed == 0
        assert clean.stats.partitions_reused == partition_count(reduced)
        assert result_image(clean) == result_image(faulted)

    def test_faulted_delta_matches_cold_over_reduced(self, tmp_path):
        poisoned = {"d1"}
        corpus = build_corpus()
        faulted = run(
            corpus,
            tmp_path,
            registry=faulting_registry(poisoned),
            on_error="skip",
        )
        cold = run(corpus.without(poisoned), None)
        assert result_image(faulted) == result_image(cold)


TAINTED_SOURCE = """
q(x, <p>, c) :- pages(x), ie(@x, p), clean(@p, c).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def _tainted_program():
    def clean(span):
        return [(span.text.strip(),)]

    return Program.parse(
        TAINTED_SOURCE,
        extensional=["pages"],
        p_predicates={"clean": PPredicate("clean", clean, 1, 1)},
        query="q",
    )


class TestProceduralTaint:
    def _run(self, store_dir):
        config = ExecConfig(partition_docs=PARTITION_DOCS, result_cache=str(store_dir))
        engine = IFlexEngine(
            _tainted_program(), build_corpus(), config=config, validate=False
        )
        return engine, engine.execute()

    def test_tainted_predicate_never_persists(self, tmp_path):
        engine, first = self._run(tmp_path)
        assert engine._persistable == {"q": False}
        assert not [
            name for name in os.listdir(str(tmp_path)) if ".res" in name
        ]
        # a fresh process cannot trust the p-predicate's name across
        # processes, so the warm run recomputes instead of hydrating
        _, second = self._run(tmp_path)
        assert second.reuse_summary["q"] == "computed"
        assert second.stats.result_cache_hits == 0
        assert second.stats.result_cache_misses == 0
        assert result_image(second) == result_image(first)


class TestDisabledPaths:
    def test_no_store_means_no_counters_and_no_files(self, tmp_path):
        result = run(build_corpus(), None)
        stats = result.stats
        assert stats.partitions_reused == 0
        assert stats.partitions_recomputed == 0
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 0

    def test_caller_cache_without_store_stays_in_memory(self, tmp_path):
        cache = RuleCache()
        config = ExecConfig(partition_docs=PARTITION_DOCS)
        engine = IFlexEngine(
            build_program(), build_corpus(), config=config, validate=False
        )
        first = engine.execute(cache=cache)
        second = engine.execute(cache=cache)
        assert first.stats.partitions_recomputed == partition_count(
            build_corpus()
        )
        assert set(second.reuse_summary.values()) == {"full"}
        assert cache.store is None and second.stats.result_cache_hits == 0


class TestSessionSharing:
    def test_session_caches_share_one_store(self, tmp_path):
        from repro.assistant.session import RefinementSession

        class _NoQuestions:
            def ask(self, *args, **kwargs):  # pragma: no cover - unused
                return None

        session = RefinementSession(
            build_program(),
            build_corpus(),
            _NoQuestions(),
            config=ExecConfig(result_cache=str(tmp_path)),
        )
        assert session._result_store is not None
        assert session._subset_cache.store is session._result_store
        assert session._full_cache.store is session._result_store
        clone = session._subset_cache.copy()
        assert clone.store is session._result_store
