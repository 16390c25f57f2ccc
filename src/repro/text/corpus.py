"""Corpora: named extensional tables of documents.

An Xlog/Alog program's extensional predicates (``housePages(x)``,
``IMDB(x)``, ...) are backed by tables of documents.  Following the
paper's experimental setup (section 6), each page is divided into
*records* and each record is stored as one document in a table, so
"number of tuples per table" equals the number of record documents.
"""

import hashlib
import operator
import random

__all__ = ["Corpus", "corpus_digest"]


def _doc_content(doc):
    """The bytes a document contributes to :func:`corpus_digest`.

    Memoized on the document: re-chunking a resident corpus builds new
    partition corpora on every ingest, but their documents (and so
    these bytes) are the same objects.
    """
    content = doc._content
    if content is None:
        parts = [repr(doc.doc_id), repr(doc.text)]
        for kind in sorted(doc.regions):
            if doc.regions[kind]:
                parts.append("%s=%r" % (kind, doc.regions[kind]))
        content = doc._content = "\x1f".join(parts).encode("utf-8")
    return content


def corpus_digest(docs):
    """Content digest of a document collection (order-sensitive).

    A SHA-256 over each document's id, text, and region intervals.  The
    ``columnar-v1`` prefix is frozen: persisted result-cache keys fold
    this digest in, so changing any hashed byte would orphan them.
    """
    h = hashlib.sha256()
    h.update(b"columnar-v1")
    for doc in docs:
        h.update(b"\x1e")
        h.update(_doc_content(doc))
    return h.hexdigest()[:24]


class Corpus:
    """A set of named document tables.

    >>> corpus = Corpus()
    >>> corpus.add_table("housePages", [doc1, doc2])   # doctest: +SKIP
    """

    def __init__(self, tables=None):
        self._tables = {}
        self._content_digest = None
        for name, docs in (tables or {}).items():
            self.add_table(name, docs)

    @property
    def content_digest(self):
        """A short hex digest of the full corpus *content*.

        It hashes every document's id, text, and regions (via
        :func:`corpus_digest`) per table — so editing a document in place
        changes the digest.  The executor's reuse cache and the
        persistent result cache key their fingerprints on it.  Cached
        after first use; every mutation invalidates.
        """
        if self._content_digest is None:
            hasher = hashlib.sha256()
            for name in self.table_names():
                hasher.update(name.encode("utf-8"))
                hasher.update(b"\x1e")
                hasher.update(corpus_digest(self._tables[name]).encode("ascii"))
                hasher.update(b"\x1e")
            self._content_digest = hasher.hexdigest()[:24]
        return self._content_digest

    def add_table(self, name, documents):
        documents = list(documents)
        seen = set()
        for doc in documents:
            if doc.doc_id in seen:
                raise ValueError("duplicate doc_id %r in table %r" % (doc.doc_id, name))
            seen.add(doc.doc_id)
        self._tables[name] = documents
        self._content_digest = None
        return self

    def add_documents(self, name, documents, replace=False):
        """Append documents to table ``name`` (created when absent).

        The resident service's ingestion path.  A ``doc_id`` already in
        the table raises unless ``replace=True``, in which case the new
        document takes the old one's position (an in-place edit —
        callers holding content-keyed caches must invalidate them, see
        :meth:`~repro.processor.executor.IFlexEngine.rebind_corpus`).
        Returns the ids that replaced existing documents.
        """
        documents = list(documents)
        # validate before creating the table: a rejected batch must not
        # leave an empty new table behind
        table = self._tables.get(name, [])
        positions = {doc.doc_id: i for i, doc in enumerate(table)}
        seen = set()
        replaced = []
        for doc in documents:
            if doc.doc_id in seen:
                raise ValueError(
                    "duplicate doc_id %r in table %r" % (doc.doc_id, name)
                )
            seen.add(doc.doc_id)
            at = positions.get(doc.doc_id)
            if at is None:
                continue
            if not replace:
                raise ValueError(
                    "doc_id %r already in table %r" % (doc.doc_id, name)
                )
            replaced.append(doc.doc_id)
        table = self._tables.setdefault(name, table)
        for doc in documents:
            at = positions.get(doc.doc_id)
            if at is None:
                table.append(doc)
            else:
                table[at] = doc
        self._content_digest = None
        return replaced

    def remove_documents(self, doc_ids):
        """Remove the given documents *in place* from every table.

        Unlike :meth:`without` (which builds a new corpus for the
        quarantine path), this mutates the resident corpus the service
        serves.  Returns the ids actually removed.
        """
        doc_ids = set(doc_ids)
        removed = []
        for name in self.table_names():
            docs = self._tables[name]
            kept = [d for d in docs if d.doc_id not in doc_ids]
            if len(kept) != len(docs):
                removed.extend(
                    d.doc_id for d in docs if d.doc_id in doc_ids
                )
                self._tables[name] = kept
        if removed:
            self._content_digest = None
        return removed

    def table(self, name):
        if name not in self._tables:
            raise KeyError("no extensional table named %r" % (name,))
        return self._tables[name]

    def table_names(self):
        return sorted(self._tables)

    def __contains__(self, name):
        return name in self._tables

    def __len__(self):
        return len(self._tables)

    def size_of(self, name):
        return len(self.table(name))

    def sample(self, fraction, seed=0):
        """A new corpus with each table randomly down-sampled.

        Used by *subset evaluation* (section 5.2): the assistant
        simulates candidate refinements over 5-30% of the input.  At
        least one document per non-empty table is retained, and the
        sample is deterministic in ``seed``.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1], got %r" % (fraction,))
        sampled = Corpus()
        for name in self.table_names():
            docs = self._tables[name]
            if not docs:
                sampled.add_table(name, [])
                continue
            count = max(1, round(len(docs) * fraction))
            # a str seed is hashed with SHA-512, not hash(): no PYTHONHASHSEED
            rng = random.Random("%r:%s" % (seed, name))
            picked = sorted(rng.sample(range(len(docs)), min(count, len(docs))))
            sampled.add_table(name, [docs[i] for i in picked])
        return sampled

    def without(self, doc_ids):
        """A new corpus with the given documents removed from every table.

        The error policy's quarantine step: skipping a poisoned document
        means re-running over ``corpus.without({doc_id})``, which keeps
        the best-effort invariant — the result is *exactly* a clean run
        over the remaining documents, because it literally is one.
        Table order and the relative order of surviving documents are
        preserved (partitioning stays deterministic).
        """
        doc_ids = set(doc_ids)
        out = Corpus()
        for name in self.table_names():
            out.add_table(
                name, [d for d in self._tables[name] if d.doc_id not in doc_ids]
            )
        return out

    def chunk(self, size, reuse=()):
        """Split into contiguous chunks of at most ``size`` documents.

        Chunk ``j`` holds ``docs[j*size:(j+1)*size]`` of every table —
        contiguous slices in document order, so concatenating the
        chunks' results in chunk order reproduces a serial scan exactly.
        Chunk boundaries are *positionally stable*: appending documents
        leaves every existing full chunk byte-identical and only extends
        (or adds) the tail chunks.  That stability is what lets a delta
        recompute exactly the partitions the ingested documents landed
        in.

        ``reuse`` is an earlier chunking (same ``size``) of this corpus:
        a chunk holding the very same document objects comes back as
        the earlier corpus object, its :attr:`content_digest` already
        computed, so re-chunking after an ingest re-hashes only the
        chunks that changed.
        """
        size = max(1, int(size))
        largest = max(
            (len(self._tables[name]) for name in self._tables), default=0
        )
        count = max(1, -(-largest // size))
        names = self.table_names()
        parts = []
        for j in range(count):
            lo, hi = j * size, (j + 1) * size
            slices = [(name, self._tables[name][lo:hi]) for name in names]
            if not any(docs for _, docs in slices):
                continue
            prior = reuse[j] if j < len(reuse) else None
            if prior is not None and prior._holds(slices):
                parts.append(prior)
                continue
            part = Corpus()
            for name, docs in slices:
                part.add_table(name, docs)
            parts.append(part)
        return parts or [self]

    def _holds(self, slices):
        """Are these exactly ``slices`` — same tables, same objects?"""
        if len(self._tables) != len(slices):
            return False
        for name, docs in slices:
            mine = self._tables.get(name)
            if (
                mine is None
                or len(mine) != len(docs)
                # identity, not ==: an in-place edit keeps the doc_id
                or not all(map(operator.is_, mine, docs))
            ):
                return False
        return True
