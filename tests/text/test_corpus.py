"""Corpus tests: tables, sampling, signatures."""

import pytest

from repro.text.corpus import Corpus
from repro.text.document import Document


def docs(prefix, n):
    return [Document("%s-%d" % (prefix, i), "text %d" % i) for i in range(n)]


class TestTables:
    def test_add_and_get(self):
        corpus = Corpus({"A": docs("a", 3)})
        assert corpus.size_of("A") == 3
        assert "A" in corpus
        assert corpus.table_names() == ["A"]

    def test_missing_table_raises(self):
        with pytest.raises(KeyError):
            Corpus().table("nope")

    def test_duplicate_doc_ids_rejected(self):
        d = Document("dup", "x")
        with pytest.raises(ValueError):
            Corpus({"A": [d, d]})

    def test_len_counts_tables(self):
        corpus = Corpus({"A": docs("a", 1), "B": docs("b", 2)})
        assert len(corpus) == 2


class TestSampling:
    def test_sample_fraction(self):
        corpus = Corpus({"A": docs("a", 100)})
        sampled = corpus.sample(0.1, seed=3)
        assert sampled.size_of("A") == 10

    def test_sample_deterministic(self):
        corpus = Corpus({"A": docs("a", 50)})
        ids1 = [d.doc_id for d in corpus.sample(0.2, seed=7).table("A")]
        ids2 = [d.doc_id for d in corpus.sample(0.2, seed=7).table("A")]
        assert ids1 == ids2

    def test_sample_different_seeds_differ(self):
        corpus = Corpus({"A": docs("a", 100)})
        ids1 = {d.doc_id for d in corpus.sample(0.1, seed=1).table("A")}
        ids2 = {d.doc_id for d in corpus.sample(0.1, seed=2).table("A")}
        assert ids1 != ids2

    def test_sample_keeps_at_least_one(self):
        corpus = Corpus({"A": docs("a", 3)})
        assert corpus.sample(0.01, seed=0).size_of("A") == 1

    def test_sample_bad_fraction(self):
        corpus = Corpus({"A": docs("a", 3)})
        with pytest.raises(ValueError):
            corpus.sample(0.0)
        with pytest.raises(ValueError):
            corpus.sample(1.5)

    def test_sample_of_empty_table(self):
        corpus = Corpus({"A": []})
        assert corpus.sample(0.5).size_of("A") == 0


class TestMutation:
    """The service's in-place mutation surfaces (add/remove/upsert)."""

    def test_add_documents_appends(self):
        corpus = Corpus({"A": docs("a", 2)})
        replaced = corpus.add_documents("A", docs("b", 2))
        assert replaced == []
        assert corpus.size_of("A") == 4

    def test_add_documents_creates_table(self):
        corpus = Corpus()
        corpus.add_documents("A", docs("a", 1))
        assert corpus.table_names() == ["A"]

    def test_add_documents_duplicate_rejected_without_replace(self):
        corpus = Corpus({"A": docs("a", 2)})
        with pytest.raises(ValueError):
            corpus.add_documents("A", [Document("a-1", "new")])

    def test_add_documents_duplicate_in_batch_rejected(self):
        corpus = Corpus()
        d = Document("dup", "x")
        with pytest.raises(ValueError):
            corpus.add_documents("A", [d, d], replace=True)

    def test_rejected_batch_creates_no_table(self):
        corpus = Corpus({"A": docs("a", 1)})
        d = Document("dup", "x")
        with pytest.raises(ValueError):
            corpus.add_documents("B", [d, d])
        assert corpus.table_names() == ["A"]
        assert "B" not in corpus

    def test_rejected_batch_leaves_existing_table_unchanged(self):
        corpus = Corpus({"A": docs("a", 2)})
        with pytest.raises(ValueError):
            corpus.add_documents("A", [Document("new", "x"), Document("a-0", "y")])
        assert [d.doc_id for d in corpus.table("A")] == ["a-0", "a-1"]

    def test_replace_keeps_position(self):
        corpus = Corpus({"A": docs("a", 3)})
        replaced = corpus.add_documents(
            "A", [Document("a-1", "edited")], replace=True
        )
        assert replaced == ["a-1"]
        assert [d.doc_id for d in corpus.table("A")] == ["a-0", "a-1", "a-2"]
        assert corpus.table("A")[1].text == "edited"

    def test_remove_documents_across_tables(self):
        corpus = Corpus({"A": docs("a", 2), "B": docs("b", 2)})
        removed = corpus.remove_documents(["a-1", "b-0", "nope"])
        assert sorted(removed) == ["a-1", "b-0"]
        assert corpus.size_of("A") == 1
        assert corpus.size_of("B") == 1

    def test_remove_missing_returns_empty(self):
        corpus = Corpus({"A": docs("a", 1)})
        assert corpus.remove_documents(["zzz"]) == []


class TestContentDigestInvalidation:
    """Every mutation surface must reset the cached content digest —
    the persistent result cache keys partition fingerprints on it, so a
    stale digest silently serves pre-mutation results."""

    def test_add_table_resets(self):
        corpus = Corpus({"A": docs("a", 1)})
        before = corpus.content_digest
        corpus.add_table("B", docs("b", 1))
        assert corpus.content_digest != before

    def test_add_documents_resets(self):
        corpus = Corpus({"A": docs("a", 1)})
        before = corpus.content_digest
        corpus.add_documents("A", docs("b", 1))
        assert corpus.content_digest != before

    def test_replace_resets(self):
        corpus = Corpus({"A": docs("a", 2)})
        before = corpus.content_digest
        corpus.add_documents("A", [Document("a-0", "edited text")], replace=True)
        assert corpus.content_digest != before

    def test_remove_resets(self):
        corpus = Corpus({"A": docs("a", 2)})
        before = corpus.content_digest
        corpus.remove_documents(["a-0"])
        assert corpus.content_digest != before

    def test_noop_remove_keeps_digest(self):
        corpus = Corpus({"A": docs("a", 2)})
        before = corpus.content_digest
        corpus.remove_documents(["zzz"])
        assert corpus.content_digest == before

    def test_any_mutation_sequence_changes_digest(self):
        """Property: whatever mutation fires, the digest moves (and the
        executor's partition fingerprints with it)."""
        from hypothesis import given, strategies as st

        @given(
            st.lists(
                st.sampled_from(["append", "replace", "remove", "table"]),
                min_size=1,
                max_size=6,
            )
        )
        def check(ops):
            corpus = Corpus({"A": docs("a", 3)})
            counter = [0]
            for op in ops:
                before = corpus.content_digest
                counter[0] += 1
                fresh = "new-%d" % counter[0]
                if op == "append":
                    corpus.add_documents("A", [Document(fresh, fresh)])
                elif op == "replace":
                    target = corpus.table("A")[0].doc_id
                    corpus.add_documents(
                        "A", [Document(target, fresh)], replace=True
                    )
                elif op == "remove" and corpus.size_of("A") > 1:
                    corpus.remove_documents([corpus.table("A")[-1].doc_id])
                elif op == "remove":
                    continue  # keep one document so replace stays legal
                else:
                    corpus.add_table(fresh, [Document(fresh, fresh)])
                assert corpus.content_digest != before

        check()


class TestChunk:
    def test_chunks_are_contiguous_slices(self):
        corpus = Corpus({"A": docs("a", 5)})
        parts = corpus.chunk(2)
        assert [p.size_of("A") for p in parts] == [2, 2, 1]
        flat = [d.doc_id for p in parts for d in p.table("A")]
        assert flat == [d.doc_id for d in corpus.table("A")]

    def test_chunk_boundaries_stable_under_append(self):
        """Growing the corpus leaves every existing full chunk
        byte-identical, so the delta path re-executes only the tail."""
        corpus = Corpus({"A": docs("a", 5)})
        before = [p.content_digest for p in corpus.chunk(2)]
        corpus.add_documents("A", docs("z", 3))
        after = [p.content_digest for p in corpus.chunk(2)]
        assert after[:2] == before[:2]           # full chunks untouched
        assert len(after) == 4

    def test_chunk_covers_every_table(self):
        corpus = Corpus({"A": docs("a", 3), "B": docs("b", 1)})
        parts = corpus.chunk(1)
        assert len(parts) == 3
        assert parts[0].size_of("B") == 1
        assert parts[1].size_of("B") == 0

    def test_empty_corpus_chunks_to_self(self):
        corpus = Corpus()
        assert corpus.chunk(4) == [corpus]

    def test_chunk_size_floored_to_one(self):
        corpus = Corpus({"A": docs("a", 2)})
        assert len(corpus.chunk(0)) == 2
