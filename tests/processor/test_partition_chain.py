"""Chained partition-local predicates: tuple-local work over a partitioned table.

A predicate whose plan is ``ScanRel`` of a partition-local predicate
followed only by tuple-local operators (condition ``Select``,
``Project``, ψ grouped by a doc-anchored key) runs per corpus partition
on the partition-keyed cache path, seeded with the upstream's table for
the same partition.  The contract:

* every step of a resident engine's life — cold, warm, append, in-place
  edit, removal, an added constraint on the chained predicate — is
  byte-identical to a cold unpartitioned run, at every chunk size, with
  or without a persistent result store behind the in-memory cache;
* ``partitions_recomputed`` / ``partitions_reused`` count corpus
  partitions (a partition is recomputed once, however many predicates
  re-executed on it) and are identical with and without the store;
* annotated ψ over keys that are not doc-anchored, joins, multi-rule
  unions and recursive groups stay global.
"""

import functools
import tempfile

import pytest

from repro.observability.spans import Tracer
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.xlog.program import Program
from tests.processor.test_incremental import build_corpus, page
from tests.processor.test_parallel import result_image
from tests.processor.test_recursion import TC_SOURCE, chain, edge_corpus

#: the resident engine's cache backends: the in-memory RuleCache alone,
#: or backed by a persistent result store
CACHES = ("memory", "stored")

#: T1's shape: extract -> ψ -> ScanRel -> condition -> project
SOURCE = """
items(x, <p>) :- pages(x), ie(@x, p).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
cheap(p) :- items(x, p), p < 150.
"""

#: the same program after a refinement adds a constraint to the chained rule
REFINED = SOURCE.replace("p < 150.", 'p < 150, preceded_by(p) = "$".')


def program(source=SOURCE, query="cheap"):
    return Program.parse(source, extensional=["pages"], query=query)


def cold_image(source, corpus):
    """A serial cold run over a snapshot of ``corpus``."""
    snapshot = Corpus({"pages": list(corpus.table("pages"))})
    return result_image(IFlexEngine(program(source), snapshot).execute())


def engine_for(source, corpus, partition_docs, **config):
    return IFlexEngine(
        program(source),
        corpus,
        config=ExecConfig(partition_docs=partition_docs, **config),
    )


@functools.lru_cache(maxsize=None)
def lifecycle(caches, partition_docs):
    """One resident engine's life: ``[(step, image, expected, counters)]``."""
    if caches == "stored":
        with tempfile.TemporaryDirectory() as store:
            return _lifecycle(partition_docs, result_cache=store)
    return _lifecycle(partition_docs)


def _lifecycle(partition_docs, **config):
    corpus = build_corpus(6)
    engine = engine_for(SOURCE, corpus, partition_docs, **config)
    cache = RuleCache()
    steps = []

    def step(label, source=SOURCE, run_engine=None):
        result = (run_engine or engine).execute(cache=cache)
        steps.append(
            (
                label,
                result_image(result),
                cold_image(source, corpus),
                (result.stats.partitions_recomputed, result.stats.partitions_reused),
                dict(result.reuse_summary),
            )
        )

    step("cold")
    step("warm")
    corpus.add_documents("pages", [page(6)])
    engine.rebind_corpus()
    step("append")
    corpus.add_documents("pages", [page(2, salt=" EDITED")], replace=True)
    engine.rebind_corpus(edited_docs=["d2"])
    step("edit")
    corpus.remove_documents(["d4"])
    engine.rebind_corpus()
    step("remove")
    # a refinement: a new engine over the refined program, same cache
    refined = engine_for(REFINED, corpus, partition_docs, **config)
    step("constraint", source=REFINED, run_engine=refined)
    return steps


#: (recomputed, reused) per step, by chunk size, over d0..d5:
#: append d6, edit d2, remove d4 (shifting the chunks after it)
EXPECTED_COUNTERS = {
    1: [(6, 0), (0, 0), (1, 6), (1, 6), (2, 4), (0, 6)],
    3: [(2, 0), (0, 0), (1, 2), (1, 2), (1, 1), (0, 2)],
}


class TestLifecycle:
    @pytest.mark.parametrize("partition_docs", [1, 3])
    @pytest.mark.parametrize("caches", CACHES)
    def test_every_step_matches_a_serial_cold_run(self, caches, partition_docs):
        for label, image, expected, _, _ in lifecycle(caches, partition_docs):
            assert image == expected, label

    @pytest.mark.parametrize("partition_docs", [1, 3])
    @pytest.mark.parametrize("caches", CACHES)
    def test_counters_identical_across_backends(self, caches, partition_docs):
        counters = [c for _, _, _, c, _ in lifecycle(caches, partition_docs)]
        reference = [c for _, _, _, c, _ in lifecycle("memory", partition_docs)]
        assert counters == reference
        assert counters == EXPECTED_COUNTERS[partition_docs]

    @pytest.mark.parametrize("partition_docs", [1, 3])
    def test_reuse_paths(self, partition_docs):
        summaries = {
            label: summary
            for label, _, _, _, summary in lifecycle("memory", partition_docs)
        }
        assert summaries["cold"] == {"items": "computed", "cheap": "computed"}
        assert summaries["warm"] == {"items": "full", "cheap": "full"}
        assert summaries["append"] == {"items": "computed", "cheap": "computed"}
        # the constraints-commute path, partition by partition
        assert summaries["constraint"] == {"items": "full", "cheap": "incremental"}


class TestRouting:
    def test_chained_predicate_is_partition_local(self):
        engine = engine_for(SOURCE, build_corpus(4), 1)
        assert engine.physical.fully_local("cheap")
        assert engine.physical.upstream("cheap") == "items"
        assert engine.physical.upstream("items") is None

    def test_one_delta_reexecutes_one_partition_of_each_predicate(self):
        corpus = build_corpus(6)
        tracer = Tracer()
        engine = engine_for(SOURCE, corpus, 1)
        cache = RuleCache()
        engine.execute(cache=cache)
        corpus.add_documents("pages", [page(6)])
        engine.rebind_corpus()
        engine.tracer = tracer
        delta = engine.execute(cache=cache)
        scans = [s for s in tracer.spans if s.name.startswith("ScanRel[items")]
        extractions = [s for s in tracer.spans if s.name.startswith("Scan[pages")]
        assert len(scans) == len(extractions) == 1
        assert delta.stats.partitions_recomputed == 1

    def test_chain_of_chains(self):
        source = SOURCE + "cheaper(p) :- cheap(p), p < 130.\n"
        corpus = build_corpus(6)
        engine = IFlexEngine(
            program(source, query="cheaper"),
            corpus,
            config=ExecConfig(partition_docs=2),
        )
        assert engine.physical.upstream("cheaper") == "cheap"
        cache = RuleCache()
        engine.execute(cache=cache)
        corpus.add_documents("pages", [page(2, salt=" EDITED")], replace=True)
        engine.rebind_corpus(edited_docs=["d2"])
        delta = engine.execute(cache=cache)
        assert delta.stats.partitions_recomputed == 1
        assert delta.stats.partitions_reused == 2
        snapshot = Corpus({"pages": list(corpus.table("pages"))})
        cold = IFlexEngine(program(source, query="cheaper"), snapshot).execute()
        assert result_image(delta) == result_image(cold)

    def test_upstream_refinement_reaches_the_chained_predicate(self):
        """Same documents, refined upstream rules: every chained
        partition keys on its upstream's new token and re-runs."""
        corpus = build_corpus(6)
        cache = RuleCache()
        engine_for(SOURCE, corpus, 1).execute(cache=cache)
        refined = program().add_constraint("ie", "p", "preceded_by", "$")
        engine = IFlexEngine(refined, corpus, config=ExecConfig(partition_docs=1))
        result = engine.execute(cache=cache)
        assert result.reuse_summary == {"items": "incremental", "cheap": "computed"}
        assert result.stats.partitions_recomputed == 6
        snapshot = Corpus({"pages": list(corpus.table("pages"))})
        assert result_image(result) == result_image(
            IFlexEngine(refined, snapshot).execute()
        )

    def test_whole_table_hit_upstream_resolves_its_partitions(self):
        """A chained predicate whose upstream was a whole-table hit reads
        the upstream's partitions back from the cache (here: a refined
        program whose new constraint cannot be applied incrementally)."""
        corpus = build_corpus(6)
        cache = RuleCache()
        engine_for(SOURCE, corpus, 1).execute(cache=cache)
        changed = SOURCE.replace("p < 150", "p < 140")
        result = engine_for(changed, corpus, 1).execute(cache=cache)
        assert result.reuse_summary == {"items": "full", "cheap": "computed"}
        # the chained rule changed everywhere: every partition re-ran it
        assert result.stats.partitions_recomputed == 6
        assert result_image(result) == cold_image(changed, corpus)

    def test_fresh_process_over_a_changed_corpus(self, tmp_path):
        """A new engine over the result store: every partition table,
        chained ones included, persists under its own token, so only the
        edited document's partition re-runs, all down the chain."""
        store = str(tmp_path / "rc")
        engine_for(SOURCE, build_corpus(6), 1, result_cache=store).execute()
        edited = build_corpus(6, salts={3: " changed"})
        tracer = Tracer()
        engine = engine_for(SOURCE, edited, 1, result_cache=store)
        engine.tracer = tracer
        result = engine.execute()
        scans = [s for s in tracer.spans if s.name.startswith("ScanRel[items")]
        extractions = [s for s in tracer.spans if s.name.startswith("Scan[pages")]
        assert (len(scans), len(extractions)) == (1, 1)
        # items and cheap: every chunk but d3's hydrated
        assert result.stats.result_cache_hits == 10
        assert result.stats.partitions_recomputed == 1
        assert result.stats.partitions_reused == 5
        assert result_image(result) == cold_image(SOURCE, edited)
        # an unchanged rerun hydrates every partition of both predicates
        again = engine_for(SOURCE, edited, 1, result_cache=store).execute()
        assert again.reuse_summary == {"items": "full", "cheap": "full"}
        assert again.stats.partitions_recomputed == 0

    def test_cacheless_parallel_run_matches_serial(self):
        corpus = build_corpus(6)
        result = engine_for(SOURCE, corpus, 2).execute()
        assert result_image(result) == cold_image(SOURCE, corpus)


#: plans that scan the partition-local ``items`` but must stay global
GLOBAL_CASES = {
    # ψ grouped by p: p is not doc-anchored, so groups span documents
    "annotated ψ over a key that is not doc-anchored": (
        "byprice(p, <x>) :- items(x, p).\n",
        "byprice",
    ),
    "join": ("pairs(p, q) :- items(x, p), items(y, q), p < q.\n", "pairs"),
    "multi-rule union": (
        "ends(p) :- items(x, p), p < 120.\nends(p) :- items(x, p), p > 160.\n",
        "ends",
    ),
}


class TestStaysGlobal:
    @pytest.mark.parametrize("case", sorted(GLOBAL_CASES))
    def test_global_and_correct(self, case):
        extra, query = GLOBAL_CASES[case]
        source = SOURCE + extra
        corpus = build_corpus(6)
        engine = IFlexEngine(
            program(source, query=query), corpus, config=ExecConfig(partition_docs=1)
        )
        assert not engine.physical.fully_local(query)
        assert engine.physical.upstream(query) is None
        cache = RuleCache()
        engine.execute(cache=cache)
        corpus.add_documents("pages", [page(6)])
        engine.rebind_corpus()
        delta = engine.execute(cache=cache)
        assert delta.reuse_summary[query] == "computed"
        assert delta.stats.partitions_recomputed == 1  # items only
        snapshot = Corpus({"pages": list(corpus.table("pages"))})
        cold = IFlexEngine(program(source, query=query), snapshot).execute()
        assert result_image(delta) == result_image(cold)

    def test_annotated_ψ_over_a_doc_anchored_key_is_chained(self):
        source = SOURCE + "bydoc(x, <p>) :- items(x, p), p < 150.\n"
        engine = IFlexEngine(
            program(source, query="bydoc"),
            build_corpus(4),
            config=ExecConfig(partition_docs=1),
        )
        assert engine.physical.upstream("bydoc") == "items"

    def test_recursive_group_over_a_local_predicate(self):
        source = TC_SOURCE + "far(x, z) :- path(x, z), z > 3.\n"
        corpus = edge_corpus(chain(4))
        engine = IFlexEngine(
            Program.parse(source, extensional=["docs"], query="far"),
            corpus,
            config=ExecConfig(partition_docs=1),
        )
        assert engine.physical.fully_local("edge")
        assert not engine.physical.fully_local("path")
        # downstream of a recursive group: its merged table, not chained
        assert engine.physical.upstream("far") is None
        assert not engine.physical.fully_local("far")
        result = engine.execute(cache=RuleCache())
        serial = IFlexEngine(
            Program.parse(source, extensional=["docs"], query="far"), corpus
        ).execute()
        assert result_image(result) == result_image(serial)
