"""Fixed-size document chunking (``ExecConfig.partition_docs``).

Partitions hold a fixed number of documents so their boundaries stay
put as the corpus grows.  The
contract: chunked execution is byte-identical to serial execution, and
within one engine the delta path re-executes only the chunks an
append or edit dirtied.
"""

import pytest

from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from tests.processor.test_incremental import build_corpus, build_program, page
from tests.processor.test_parallel import result_image


def execute(corpus, cache=None, **config_kwargs):
    engine = IFlexEngine(
        build_program(), corpus, config=ExecConfig(**config_kwargs)
    )
    return engine, engine.execute(cache=cache)


class TestEquivalence:
    @pytest.mark.parametrize("partition_docs", [1, 2, 3, 8, 50])
    def test_chunked_matches_serial(self, partition_docs):
        corpus = build_corpus(8)
        _, serial = execute(corpus)
        _, chunked = execute(corpus, partition_docs=partition_docs)
        assert result_image(chunked) == result_image(serial)


class TestResidentDelta:
    def test_append_recomputes_only_new_chunks(self):
        corpus = build_corpus(4)
        engine = IFlexEngine(
            build_program(), corpus, config=ExecConfig(partition_docs=1)
        )
        cache = RuleCache()
        cold = engine.execute(cache=cache)
        assert cold.stats.partitions_recomputed == 4

        corpus.add_documents("pages", [page(4), page(5)])
        engine.rebind_corpus()
        delta = engine.execute(cache=cache)
        assert delta.stats.partitions_recomputed == 2
        assert delta.stats.partitions_reused == 4
        assert result_image(delta) == result_image(
            execute(build_corpus(6))[1]
        )

    def test_edit_recomputes_only_its_chunk(self):
        corpus = build_corpus(6)
        engine = IFlexEngine(
            build_program(), corpus, config=ExecConfig(partition_docs=2)
        )
        cache = RuleCache()
        engine.execute(cache=cache)

        edited = page(3, salt=" EDITED")
        corpus.add_documents("pages", [edited], replace=True)
        engine.rebind_corpus(edited_docs=["d3"])
        delta = engine.execute(cache=cache)
        assert delta.stats.partitions_recomputed == 1  # d3's chunk only
        assert delta.stats.partitions_reused == 2
        assert result_image(delta) == result_image(
            execute(build_corpus(6, salts={3: " EDITED"}))[1]
        )

    def test_rebind_to_new_corpus_object(self):
        engine = IFlexEngine(
            build_program(), build_corpus(2), config=ExecConfig(partition_docs=1)
        )
        first = engine.execute()
        assert first.tuple_count == 2
        engine.rebind_corpus(build_corpus(5))
        second = engine.execute()
        assert second.tuple_count == 5

    def test_rebind_preserves_quarantine(self):
        corpus = build_corpus(4)
        engine = IFlexEngine(
            build_program(), corpus, config=ExecConfig(partition_docs=1)
        )
        engine._exclude_document("d1")
        engine.rebind_corpus()
        assert engine.execute().tuple_count == 3
