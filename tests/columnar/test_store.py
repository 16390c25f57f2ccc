"""In-memory columns, the corpus digest, and inert old column bundles.

Columns are built lazily, once per document, by
:class:`~repro.features.index.IndexStore` and are never persisted.
Older versions also wrote a content-addressed corpus bundle
(``<digest>.cols.npy`` + ``<digest>.meta.json``), often into the same
directory as ``--result-cache`` entries.  Those files are inert now:
whatever state they are in, a run over that directory neither reads nor
rewrites them and returns exactly what a cacheless run returns.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.columnar import build_doc_columns
from repro.columnar.arrays import SCALAR_COLUMNS, DocColumns
from repro.features.index import IndexStore
from repro.features.registry import default_registry
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text import parse_html
from repro.text.corpus import Corpus, corpus_digest
from repro.xlog.program import Program

#: ``corpus_digest`` of the ``docs`` fixture.  Result-cache keys fold
#: this digest in, so it must never change.
PINNED_DIGEST = "f92699226c275bc42a7cfc8d"

#: columns of the ``d1`` fixture, checked by hand against its text
#: ``"Widget Alpha Price: $120.00 in 1999\n"``
D1_COLUMNS = [
    ("token_starts", [0, 7, 13, 18, 20, 21, 28, 31]),
    ("token_ends", [6, 12, 18, 19, 21, 27, 30, 35]),
    ("word_starts", [0, 7, 13, 28]),
    ("word_ends", [6, 12, 18, 30]),
    ("cap_starts", [0, 7, 13]),
    ("cap_ends", [6, 12, 18]),
    ("cap_run", [0, 0, 0]),
    ("num_starts", [21, 31]),
    ("num_ends", [27, 35]),
    ("region:bold:starts", [0]),
    ("region:bold:ends", [12]),
    ("region:bold:maxend", [12]),
    ("region:italic:starts", [20]),
    ("region:italic:ends", [27]),
    ("region:italic:maxend", [27]),
]

PROGRAM = """
vals(x, <p>) :- base(x), ie(@x, p).
q(p) :- vals(x, p), p > 50.
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


@pytest.fixture
def docs():
    return [
        parse_html(
            "d1",
            "<p><b>Widget Alpha</b> Price: <i>$120.00</i> in 1999</p>",
        ),
        parse_html("d2", "<title>Plain</title><p>no markup here 42</p>"),
        parse_html("d3", ""),  # empty document: all columns empty
    ]


def write_old_bundle(cache_dir, docs):
    """Write the column bundle older versions persisted for ``docs``.

    Same bytes as those versions wrote: every document's columns in one
    flat ``int64`` buffer (``np.save`` format) plus a JSON layout
    sidecar, both named by the corpus digest.  Returns the two paths.
    """
    digest = corpus_digest(docs)
    layout, pieces, offset = {}, [], 0
    for doc in docs:
        entry = []
        for name, array in build_doc_columns(doc).columns():
            entry.append([name, offset, len(array)])
            pieces.append(array)
            offset += len(array)
        layout[doc.doc_id] = entry
    data = np.concatenate(pieces).astype(np.int64, copy=False)
    data_path = os.path.join(str(cache_dir), "%s.cols.npy" % digest)
    meta_path = os.path.join(str(cache_dir), "%s.meta.json" % digest)
    with open(data_path, "wb") as handle:
        np.save(handle, np.ascontiguousarray(data))
    meta = {
        "digest": digest,
        "layout_version": 1,
        "total": int(len(data)),
        "layout": layout,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return data_path, meta_path


def _column_image(columns):
    return [(name, array.tolist()) for name, array in columns.columns()]


def _table_image(table):
    return (table.attrs, [repr(t) for t in table.tuples])


def _run(docs, cache_dir=None):
    program = Program.parse(PROGRAM, extensional=["base"], query="q")
    config = ExecConfig(workers=2, result_cache=cache_dir)
    engine = IFlexEngine(program, Corpus({"base": docs}), config=config, validate=False)
    return engine.execute()


def _assert_inert(docs, tmp_path, mutate=None):
    """A run over a directory holding an old bundle runs cold, unchanged.

    ``mutate(data_path, meta_path)`` damages the bundle first.  The run
    must equal a cacheless run, miss the result cache, and leave the
    bundle's bytes exactly as it found them.
    """
    paths = write_old_bundle(tmp_path, docs)
    if mutate is not None:
        mutate(*paths)
    before = [pathlib.Path(path).read_bytes() for path in paths]
    plain = _run(docs)
    cached = _run(docs, str(tmp_path))
    assert _table_image(cached.query_table) == _table_image(plain.query_table)
    assert cached.stats.result_cache_hits == 0
    assert cached.stats.result_cache_misses >= 1
    assert [pathlib.Path(path).read_bytes() for path in paths] == before


def _edit_meta(meta_path, change):
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    change(meta)
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


class TestRoundTrip:
    def test_save_load_mmap_byte_identical(self, docs, tmp_path):
        """IndexStore builds the pinned d1 columns, as old bundles held them."""
        assert _column_image(IndexStore().arrays(docs[0]).columns) == D1_COLUMNS
        data_path, meta_path = write_old_bundle(tmp_path, docs)
        data = np.load(data_path, mmap_mode="r", allow_pickle=False)
        with open(meta_path, encoding="utf-8") as handle:
            layout = json.load(handle)["layout"]
        mapped = [
            (name, data[offset:offset + length].tolist())
            for name, offset, length in layout["d1"]
        ]
        assert mapped == D1_COLUMNS

    def test_doc_columns_named_round_trip(self, docs):
        """DocColumns rebuilt from its own accessors lists the same columns."""
        for doc in docs:
            columns = build_doc_columns(doc)
            rebuilt = DocColumns(
                doc.doc_id,
                regions={kind: columns.region(kind) for kind in columns.region_kinds()},
                **{name: getattr(columns, name) for name in SCALAR_COLUMNS}
            )
            assert _column_image(rebuilt) == _column_image(columns)

    def test_digest_is_content_addressed(self, docs):
        same = [
            parse_html(
                "d1",
                "<p><b>Widget Alpha</b> Price: <i>$120.00</i> in 1999</p>",
            ),
            parse_html("d2", "<title>Plain</title><p>no markup here 42</p>"),
            parse_html("d3", ""),
        ]
        # reparsing identical content gives the identical digest ...
        assert corpus_digest(docs) == corpus_digest(same)
        # ... and any content change gives a different one
        changed = docs[:-1] + [parse_html("d3", "now nonempty")]
        assert corpus_digest(changed) != corpus_digest(docs)

    def test_digest_bytes_are_stable(self, docs):
        """Persisted result-cache keys stay valid across versions."""
        assert corpus_digest(docs) == PINNED_DIGEST

    def test_missing_bundle_loads_none(self, docs, tmp_path):
        """No run writes a column bundle, only result entries."""
        _run(docs, str(tmp_path))
        names = os.listdir(str(tmp_path))
        assert names
        assert all(name.endswith((".res.npy", ".res.meta.json")) for name in names)


class TestCorruptionAndStaleness:
    def test_truncated_data_file_rebuilds(self, docs, tmp_path):
        """A truncated old bundle is inert: the run is cold and unchanged."""

        def truncate(data_path, meta_path):
            with open(data_path, "rb") as handle:
                head = handle.read(32)
            with open(data_path, "wb") as handle:
                handle.write(head)

        _assert_inert(docs, tmp_path, truncate)

    def test_garbage_data_file_rebuilds(self, docs, tmp_path):
        """An old bundle holding garbage is inert: the run is cold and unchanged."""

        def garbage(data_path, meta_path):
            with open(data_path, "wb") as handle:
                handle.write(b"not numpy")

        _assert_inert(docs, tmp_path, garbage)

    def test_digest_mismatch_is_stale(self, docs, tmp_path):
        """An old bundle with a foreign digest is inert."""
        _assert_inert(
            docs,
            tmp_path,
            lambda _, meta: _edit_meta(meta, lambda m: m.update(digest="f" * 24)),
        )

    def test_layout_version_mismatch_is_stale(self, docs, tmp_path):
        """An old bundle with another layout version is inert."""
        _assert_inert(
            docs,
            tmp_path,
            lambda _, meta: _edit_meta(
                meta, lambda m: m.update(layout_version=m["layout_version"] + 1)
            ),
        )

    def test_layout_exceeding_buffer_rejected(self, docs, tmp_path):
        """An old bundle whose layout overruns its buffer is inert."""

        def overflow(meta):
            name, offset, _ = meta["layout"]["d1"][0]
            meta["layout"]["d1"][0] = [name, offset, meta["total"] + 1]

        _assert_inert(docs, tmp_path, lambda _, meta: _edit_meta(meta, overflow))

    def test_store_rebuilds_over_corrupt_cache(self, docs, tmp_path):
        """Over a corrupt old bundle, IndexStore builds columns from the documents."""
        data_path, _ = write_old_bundle(tmp_path, docs)
        pathlib.Path(data_path).write_bytes(b"garbage")
        store = IndexStore()
        program = Program.parse(PROGRAM, extensional=["base"], query="q")
        IFlexEngine(
            program,
            Corpus({"base": docs}),
            config=ExecConfig(workers=2, result_cache=str(tmp_path)),
            index_store=store,
            validate=False,
        ).execute()
        assert store.built > 0
        for doc in docs:
            assert _column_image(store.arrays(doc).columns) == _column_image(
                build_doc_columns(doc)
            )
        assert pathlib.Path(data_path).read_bytes() == b"garbage"


class TestStoreLifecycle:
    def test_cold_build_then_warm_map(self, docs):
        """A second engine on one IndexStore reuses the first's columns, rebuilding none."""
        program = Program.parse(PROGRAM, extensional=["base"], query="q")
        corpus = Corpus({"base": docs})
        store = IndexStore()
        cold = IFlexEngine(program, corpus, index_store=store, validate=False)
        cold_result = cold.execute()
        built = store.built
        arrays = {doc.doc_id: store.arrays(doc) for doc in docs}
        assert built > 0
        warm = IFlexEngine(program, corpus, index_store=store, validate=False)
        warm_result = warm.execute()
        assert store.built == built  # nothing rebuilt
        assert all(store.arrays(doc) is arrays[doc.doc_id] for doc in docs)
        assert _table_image(warm_result.query_table) == _table_image(
            cold_result.query_table
        )
        assert vars(warm_result.stats) == vars(cold_result.stats)

    def test_cacheless_store_builds_lazily(self, docs):
        """IndexStore builds a document's columns only when an index asks."""
        store = IndexStore()
        assert store.built == 0 and len(store) == 0
        store.index_for(default_registry().get("numeric"), docs[0])
        assert store.built == 1 and len(store) == 1

    def test_bundle_views_are_views_not_copies(self, docs):
        """TokenArrays reads the document's columns without copying."""
        arrays = IndexStore().arrays(docs[0])
        assert isinstance(arrays.starts, np.ndarray)
        assert arrays.starts is arrays.columns.token_starts
        assert arrays.ends is arrays.columns.token_ends
