"""Result-store persistence: round trips, corruption, pruning.

Whatever is on disk, :func:`load_result` either returns a table
repr-identical to the one saved, or ``None`` so the executor recomputes
— never an exception, never a wrong table — including after a writer
crashed mid-save, any single byte of an entry changed, the entry was
truncated or replaced by arbitrary bytes.  :func:`prune_cache_dir`
keeps shared cache directories bounded without ever touching unknown
files, and evicts what older versions wrote into the same directories
and nothing reads any more: two-file result entries
(``<key>.res.npy`` + ``<key>.res.meta.json``) and column bundles
(``<digest>.cols.npy`` + ``<digest>.meta.json``).
"""

import functools
import hashlib
import json
import os
import pathlib
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import (
    ResultStore,
    load_result,
    prune_cache_dir,
    save_result,
)
from repro.columnar.results import _checksum, _disk_bytes, _from_disk
from repro.ctables import Cell, CompactTable, CompactTuple, Contain, Exact
from repro.experiments.tasks import build_task
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text import parse_html
from repro.text.corpus import Corpus, corpus_digest
from repro.text.span import Span
from repro.xlog.program import Program
from tests.ctables.test_codec import huge_span

KEY = "a" * 24

#: ``corpus_digest`` of :func:`_digest_docs`.  Result-cache keys fold
#: this digest in, so it must never change.
PINNED_DIGEST = "f92699226c275bc42a7cfc8d"

#: SHA-256 of the entry :func:`save_result` writes under ``KEY`` for the
#: query table of task T1 (size 10, seed 0): the bytes the numpy-based
#: store of earlier versions wrote, so their entries stay readable.
PINNED_T1_ENTRY = "7d48d356b9f2d1fec28a41ea931d2cc06a44f93050692e4d475d45586ecdb071"

PROGRAM = """
vals(x, <p>) :- base(x), ie(@x, p).
q(p) :- vals(x, p), p > 50.
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _subprocess_env():
    """The environment a ``python -c`` child needs to import the repo."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _docs():
    return {
        d.doc_id: d
        for d in (
            parse_html("d1", "<p><b>Widget Alpha</b> $120.00</p>"),
            parse_html("d2", "<p>plain 42</p>"),
        )
    }


def _table(docs):
    d1, d2 = docs["d1"], docs["d2"]
    out = CompactTable(("x", "price"))
    out.add(
        CompactTuple(
            [Cell([Exact(Span(d1, 0, 10))]), Cell([Contain(Span(d1, 3, 9))])]
        )
    )
    out.add(
        CompactTuple(
            [Cell([Exact(Span(d2, 0, 5))]), Cell([Exact(42)])], maybe=True
        )
    )
    return out


@pytest.fixture
def docs():
    return _docs()


@pytest.fixture
def table(docs):
    return _table(docs)


def _image(table):
    return (table.attrs, [repr(t) for t in table.tuples])


def _digest_docs():
    return [
        parse_html(
            "d1",
            "<p><b>Widget Alpha</b> Price: <i>$120.00</i> in 1999</p>",
        ),
        parse_html("d2", "<title>Plain</title><p>no markup here 42</p>"),
        parse_html("d3", ""),
    ]


def _npy_bytes(data):
    """An ``array('q')`` as the NPY v1 file older versions wrote for an
    int64 vector: magic, version, header length, a header padded to a
    multiple of 64 bytes, then the little-endian words."""
    header = "{'descr': '<i8', 'fortran_order': False, 'shape': (%d,), }" % len(data)
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return (
        b"\x93NUMPY\x01\x00"
        + len(header).to_bytes(2, "little")
        + header.encode("latin-1")
        + _disk_bytes(data)
    )


def write_old_bundle(cache_dir, docs):
    """Write a column bundle shaped like the ones older versions left.

    An ``int64`` buffer (NPY format) plus a JSON layout sidecar, both
    named by the corpus digest.  Returns the two paths.
    """
    digest = corpus_digest(docs)
    data = array("q", range(8 * len(docs)))
    layout = {
        doc.doc_id: [["token_starts", 8 * i, 8]] for i, doc in enumerate(docs)
    }
    data_path = os.path.join(str(cache_dir), "%s.cols.npy" % digest)
    meta_path = os.path.join(str(cache_dir), "%s.meta.json" % digest)
    with open(data_path, "wb") as handle:
        handle.write(_npy_bytes(data))
    meta = {
        "digest": digest,
        "layout_version": 1,
        "total": len(data),
        "layout": layout,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return data_path, meta_path


def _entry(cache_dir, key=KEY):
    return pathlib.Path(cache_dir) / ("%s.res" % key)


def _split_entry(path):
    """``(meta, data)`` of a one-file entry: its header and its buffer."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), _from_disk(body)


def _write_entry(path, meta, data):
    path.write_bytes(
        json.dumps(meta).encode("utf-8") + b"\n" + _disk_bytes(data)
    )


@functools.lru_cache(maxsize=None)
def _saved_bytes():
    """The bytes of the entry :func:`save_result` writes for ``_table``."""
    with tempfile.TemporaryDirectory() as directory:
        save_result(_table(_docs()), directory, KEY)
        return _entry(directory).read_bytes()


def write_old_entries(cache_dir):
    """Rewrite every entry in ``cache_dir`` as the two files older
    versions wrote: the buffer (NPY) and the sidecar (JSON)."""
    for path in pathlib.Path(cache_dir).glob("*.res"):
        meta, data = _split_entry(path)
        key = path.name[: -len(".res")]
        with open(os.path.join(str(cache_dir), "%s.res.npy" % key), "wb") as handle:
            handle.write(_npy_bytes(data))
        with open(os.path.join(str(cache_dir), "%s.res.meta.json" % key), "w") as handle:
            json.dump(meta, handle)
        path.unlink()


def _write_old_stranger(cache_dir):
    """Write ``_table`` under ``KEY`` as an older version's two-file
    entry; returns the two file names."""
    stranger = pathlib.Path(cache_dir) / "stranger"
    stranger.mkdir()
    save_result(_table(_docs()), str(stranger), KEY)
    write_old_entries(stranger)
    names = sorted(os.listdir(str(stranger)))
    for name in names:
        (stranger / name).rename(pathlib.Path(cache_dir) / name)
    stranger.rmdir()
    return names


def _run(docs, cache_dir=None):
    program = Program.parse(PROGRAM, extensional=["base"], query="q")
    config = ExecConfig(partition_docs=1, result_cache=cache_dir)
    engine = IFlexEngine(program, Corpus({"base": docs}), config=config, validate=False)
    return engine.execute()


class TestCorpusDigest:
    def test_digest_is_content_addressed(self):
        docs, same = _digest_docs(), _digest_docs()
        # reparsing identical content gives the identical digest ...
        assert corpus_digest(docs) == corpus_digest(same)
        # ... and any content change gives a different one
        changed = docs[:-1] + [parse_html("d3", "now nonempty")]
        assert corpus_digest(changed) != corpus_digest(docs)

    def test_digest_bytes_are_stable(self):
        """Persisted result-cache keys stay valid across versions."""
        assert corpus_digest(_digest_docs()) == PINNED_DIGEST

    def test_runs_write_only_result_entries(self, tmp_path):
        """No run writes a column bundle, only result entries."""
        _run(_digest_docs(), str(tmp_path))
        names = os.listdir(str(tmp_path))
        assert names
        assert all(name.endswith(".res") for name in names)


class TestRoundTrip:
    def test_save_load_identical(self, table, docs, tmp_path):
        save_result(table, str(tmp_path), KEY)
        loaded = load_result(str(tmp_path), KEY, docs)
        assert loaded is not None
        assert _image(loaded) == _image(table)

    def test_missing_entry_loads_none(self, docs, tmp_path):
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_no_tmp_litter_after_save(self, table, tmp_path):
        save_result(table, str(tmp_path), KEY)
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


class TestEntryBytes:
    def test_t1_entry_bytes_are_pinned(self, tmp_path):
        """Entries are byte-identical to what earlier versions wrote, and
        load back to the identical table."""
        task = build_task("T1", size=10, seed=0)
        table = IFlexEngine(task.program, task.corpus, validate=False).execute().query_table
        path = save_result(table, str(tmp_path), KEY)
        assert hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() == PINNED_T1_ENTRY
        docs = {
            doc.doc_id: doc
            for name in task.corpus.table_names()
            for doc in task.corpus.table(name)
        }
        assert _image(load_result(str(tmp_path), KEY, docs)) == _image(table)


class TestCorruptionAndStaleness:
    def _persist(self, table, tmp_path):
        save_result(table, str(tmp_path), KEY)
        return _entry(tmp_path)

    def test_truncated_data_recomputes(self, table, docs, tmp_path):
        path = self._persist(table, tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_garbage_data_recomputes(self, table, docs, tmp_path):
        path = self._persist(table, tmp_path)
        header = path.read_bytes().partition(b"\n")[0]
        path.write_bytes(header + b"\nnot an int64 buffer")
        assert load_result(str(tmp_path), KEY, docs) is None

    def _edit_meta(self, table, tmp_path, change):
        """Persist, apply ``change`` to the header, and re-sign it, so
        the check under test (not the checksum) rejects the entry."""
        path = self._persist(table, tmp_path)
        meta, data = _split_entry(path)
        change(meta)
        meta["sha256"] = _checksum(_disk_bytes(data), meta)
        _write_entry(path, meta, data)

    def test_key_mismatch_is_stale(self, table, docs, tmp_path):
        self._edit_meta(table, tmp_path, lambda m: m.update(key="f" * 24))
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_codec_version_mismatch_is_stale(self, table, docs, tmp_path):
        self._edit_meta(
            table, tmp_path, lambda m: m.update(codec_version=m["codec_version"] + 1)
        )
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_total_mismatch_is_stale(self, table, docs, tmp_path):
        self._edit_meta(table, tmp_path, lambda m: m.update(total=m["total"] + 1))
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_checksum_mismatch_is_stale(self, table, docs, tmp_path):
        """A span offset changed by one still decodes; the checksum
        rejects it instead of serving a different table."""
        path = self._persist(table, tmp_path)
        meta, data = _split_entry(path)
        data[-1] -= 1  # the end offset of the last span
        _write_entry(path, meta, data)
        assert load_result(str(tmp_path), KEY, docs) is None

    def _load_written(self, tmp_path_factory, contents):
        """Load ``KEY`` from a fresh directory whose entry holds ``contents``."""
        docs = _docs()
        tmp_path = tmp_path_factory.mktemp("fuzz")
        _entry(tmp_path).write_bytes(contents)
        return load_result(str(tmp_path), KEY, docs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        position=st.integers(min_value=0),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_any_byte_mutation_is_none_or_identical(
        self, tmp_path_factory, position, byte
    ):
        """Changing any one byte of the entry, header or buffer, never
        yields an exception or a different table."""
        raw = bytearray(_saved_bytes())
        position %= len(raw)
        if raw[position] == byte:
            byte ^= 0xFF
        raw[position] = byte
        loaded = self._load_written(tmp_path_factory, bytes(raw))
        assert loaded is None or _image(loaded) == _image(_table(_docs()))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(length=st.integers(min_value=0))
    def test_any_truncation_is_none(self, tmp_path_factory, length):
        """An entry cut short anywhere loads as ``None``."""
        raw = _saved_bytes()
        assert self._load_written(tmp_path_factory, raw[: length % len(raw)]) is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(with_header=st.booleans(), contents=st.binary(max_size=512))
    def test_arbitrary_contents_are_none_or_identical(
        self, tmp_path_factory, with_header, contents
    ):
        """Whatever bytes the entry holds — arbitrary ones, or the saved
        header over an arbitrary buffer — it loads as ``None`` or as the
        identical table."""
        if with_header:
            contents = _saved_bytes().partition(b"\n")[0] + b"\n" + contents
        loaded = self._load_written(tmp_path_factory, contents)
        assert loaded is None or _image(loaded) == _image(_table(_docs()))

    def test_changed_document_recomputes(self, table, tmp_path):
        """Documents the decode target no longer knows yield None."""
        self._persist(table, tmp_path)
        shrunk = {"d1": parse_html("d1", "x"), "d2": parse_html("d2", "y")}
        # spans in the saved table exceed the shrunken documents
        assert load_result(str(tmp_path), KEY, shrunk) is None

    def test_store_overwrites_corrupt_entry(self, table, docs, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save(KEY, table)
        _entry(tmp_path).write_bytes(b"garbage")
        assert store.load(KEY, docs) is None
        assert store.load_failures == 1
        # the failed load marks the key for rewrite: save() replaces the
        # corrupt entry instead of skipping because it exists
        store.save(KEY, table)
        loaded = store.load(KEY, docs)
        assert loaded is not None and _image(loaded) == _image(table)


class TestStoreLifecycle:
    def test_save_is_idempotent(self, table, docs, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save(KEY, table)
        store.save(KEY, table)
        assert store.saved == 1 and store.skipped == 1
        assert _image(store.load(KEY, docs)) == _image(table)

    def test_unencodable_table_is_skipped_not_fatal(self, tmp_path):
        bad = CompactTable(("v",))
        bad.add(CompactTuple([Cell([Exact(object())])]))
        store = ResultStore(str(tmp_path))
        store.save(KEY, bad)  # logs and moves on
        assert store.saved == 0
        assert os.listdir(str(tmp_path)) == []

    def test_out_of_range_offset_is_skipped_not_fatal(self, tmp_path):
        """A span offset beyond int64 cannot be encoded: no entry, no crash."""
        bad = CompactTable(("v",))
        bad.add(CompactTuple([Cell([Exact(huge_span(parse_html("d", "<p>x</p>")))])]))
        store = ResultStore(str(tmp_path))
        store.save(KEY, bad)
        assert store.saved == 0
        assert os.listdir(str(tmp_path)) == []

    def test_from_config(self, tmp_path):
        from repro.processor.context import ExecConfig

        assert ResultStore.from_config(None) is None
        assert ResultStore.from_config(ExecConfig()) is None
        store = ResultStore.from_config(ExecConfig(result_cache=str(tmp_path)))
        assert isinstance(store, ResultStore)
        assert store.cache_dir == str(tmp_path)
        # an existing store instance passes through (session sharing)
        assert ResultStore.from_config(ExecConfig(result_cache=store)) is store


class TestPruning:
    def _fill(self, tmp_path, table, count):
        for i in range(count):
            key = "%024x" % i
            save_result(table, str(tmp_path), key)
            stamp = 1_000_000 + i  # deterministic LRU order
            os.utime(_entry(tmp_path, key), (stamp, stamp))

    def test_count_cap_evicts_oldest(self, table, docs, tmp_path):
        self._fill(tmp_path, table, 5)
        assert prune_cache_dir(str(tmp_path), max_entries=2) == 3
        survivors = {
            name.split(".")[0]
            for name in os.listdir(str(tmp_path))
        }
        assert survivors == {"%024x" % 3, "%024x" % 4}  # the newest two
        for key in survivors:
            assert load_result(str(tmp_path), key, docs) is not None

    def test_byte_cap_evicts(self, table, tmp_path):
        self._fill(tmp_path, table, 4)
        assert prune_cache_dir(str(tmp_path), max_bytes=1) == 4
        assert os.listdir(str(tmp_path)) == []

    def test_no_caps_is_a_noop(self, table, tmp_path):
        self._fill(tmp_path, table, 3)
        assert prune_cache_dir(str(tmp_path)) == 0
        assert len(os.listdir(str(tmp_path))) == 3

    def test_keep_set_is_never_evicted(self, table, tmp_path):
        self._fill(tmp_path, table, 4)
        oldest = "%024x" % 0
        prune_cache_dir(str(tmp_path), max_entries=1, keep={oldest})
        assert _entry(tmp_path, oldest).exists()

    def test_unknown_files_untouched(self, table, tmp_path):
        self._fill(tmp_path, table, 3)
        stray = tmp_path / "notes.txt"
        stray.write_text("keep me")
        partial = tmp_path / "half.json.tmp"
        partial.write_text("{}")
        prune_cache_dir(str(tmp_path), max_entries=0)
        assert stray.exists() and partial.exists()

    def test_columnar_bundles_prune_as_entries(self, tmp_path):
        write_old_bundle(tmp_path, [parse_html("c1", "<p>columnar</p>")])
        assert prune_cache_dir(str(tmp_path), max_entries=0) == 1
        assert os.listdir(str(tmp_path)) == []

    def test_old_bundle_in_result_cache_runs_cold_then_prunes(self, tmp_path):
        """A shared directory's truncated old bundle: cold run, then evicted."""
        docs = [
            parse_html("d%d" % i, "<p>item %d costs <b>%d</b></p>" % (i, 40 * i))
            for i in range(4)
        ]
        data_path, meta_path = write_old_bundle(tmp_path, docs)
        with open(data_path, "r+b") as handle:
            handle.truncate(32)
        for path in (data_path, meta_path):
            os.utime(path, (1_000_000, 1_000_000))  # the oldest entry
        cached = _run(docs, str(tmp_path))
        assert _image(cached.query_table) == _image(
            _run(docs).query_table
        )
        assert cached.stats.result_cache_hits == 0
        entries = {name.split(".")[0] for name in os.listdir(str(tmp_path))}
        assert prune_cache_dir(str(tmp_path), max_entries=len(entries) - 1) == 1
        assert not os.path.exists(data_path) and not os.path.exists(meta_path)
        warm = _run(docs, str(tmp_path))
        assert warm.stats.result_cache_misses == 0
        assert _image(warm.query_table) == _image(cached.query_table)

    def test_old_result_entries_read_as_misses_then_prune(self, tmp_path):
        """A directory of two-file entries older versions wrote: the run
        recomputes cold with the same bytes and its store's first save
        removes every old pair; prune evicts an old pair written after
        that sweep as one entry."""
        docs = _crash_docs()
        cold = _run(docs, str(tmp_path))
        cold_bytes = {path.name: path.read_bytes() for path in tmp_path.glob("*.res")}
        write_old_entries(tmp_path)
        old = sorted(os.listdir(str(tmp_path)))
        assert old and all(n.endswith((".res.npy", ".res.meta.json")) for n in old)
        rerun = _run(docs, str(tmp_path))
        assert _image(rerun.query_table) == _image(cold.query_table)
        assert rerun.stats.result_cache_hits == 0
        assert rerun.stats.partitions_recomputed == cold.stats.partitions_recomputed
        new = {path.name: path.read_bytes() for path in tmp_path.glob("*.res")}
        assert new == cold_bytes
        assert set(os.listdir(str(tmp_path))) == set(new)
        for name in _write_old_stranger(tmp_path):
            os.utime(os.path.join(str(tmp_path), name), (1_000_000, 1_000_000))
        assert prune_cache_dir(str(tmp_path), max_entries=len(new)) == 1
        assert set(os.listdir(str(tmp_path))) == set(new)

    def test_first_save_sweeps_old_pairs_once(self, table, tmp_path, monkeypatch):
        """One save clears a directory of old pairs and keeps its one-file
        entries; later saves of the same store call no ``unlink``."""
        save_result(table, str(tmp_path), "b" * 24)
        _write_old_stranger(tmp_path)
        store = ResultStore(str(tmp_path))
        store.save("c" * 24, table)
        assert sorted(os.listdir(str(tmp_path))) == ["b" * 24 + ".res", "c" * 24 + ".res"]
        _write_old_stranger(tmp_path)
        unlinked = []
        monkeypatch.setattr(os, "unlink", unlinked.append)
        store.save("d" * 24, table)
        store.save("e" * 24, table)
        assert unlinked == [] and store.saved == 3
        assert {KEY + ".res.npy", KEY + ".res.meta.json"} <= set(os.listdir(str(tmp_path)))

    def test_store_counts_evictions(self, table, docs, tmp_path):
        store = ResultStore(str(tmp_path), max_entries=2)
        # keys the store saved itself are live and protected, so feed it
        # pre-existing strangers to evict
        self._fill(tmp_path, table, 3)
        store.save(KEY, table)
        assert store.evicted >= 2
        assert store.load(KEY, docs) is not None


class TestPruneTieBreak:
    """Eviction determinism when mtimes tie (coarse filesystem stamps)."""

    KEYS = ["cccc", "aaaa", "dddd", "bbbb"]  # creation order != sort order

    def _fill_equal_mtimes(self, tmp_path, table, keys):
        stamp = 1_000_000  # one shared stamp: every entry "equally old"
        for key in keys:
            save_result(table, str(tmp_path), key)
            os.utime(_entry(tmp_path, key), (stamp, stamp))

    def _survivors(self, tmp_path):
        return {name.split(".")[0] for name in os.listdir(str(tmp_path))}

    def test_ties_break_by_key_name(self, table, tmp_path):
        self._fill_equal_mtimes(tmp_path, table, self.KEYS)
        assert prune_cache_dir(str(tmp_path), max_entries=2) == 2
        # equal mtimes: the lexicographically smallest keys evict first
        assert self._survivors(tmp_path) == {"cccc", "dddd"}

    def test_tie_break_independent_of_creation_order(self, table, tmp_path):
        for i, order in enumerate(
            (self.KEYS, sorted(self.KEYS), sorted(self.KEYS, reverse=True))
        ):
            subdir = tmp_path / ("run%d" % i)
            subdir.mkdir()
            self._fill_equal_mtimes(subdir, table, order)
            prune_cache_dir(str(subdir), max_entries=2)
            assert self._survivors(subdir) == {"cccc", "dddd"}

    def test_mtime_still_dominates_key_name(self, table, tmp_path):
        self._fill_equal_mtimes(tmp_path, table, ["aaaa", "bbbb"])
        newer = _entry(tmp_path, "aaaa")
        os.utime(newer, (2_000_000, 2_000_000))  # aaaa now strictly newer
        prune_cache_dir(str(tmp_path), max_entries=1)
        assert self._survivors(tmp_path) == {"aaaa"}


def _hammer(cache_dir, offset):
    """Worker for the concurrency test: save/load/prune in a tight loop.

    Both workers write *identical* content under each key (the store is
    content-addressed, so that is the real-world invariant) while
    pruning aggressively, which races unlinks against reads.
    """
    from repro.columnar.results import ResultStore
    from repro.ctables import Cell, CompactTable, CompactTuple, Exact
    from repro.text import parse_html
    from repro.text.span import Span

    def entry(i):
        doc = parse_html("h%d" % i, "<p>hammer doc %d payload</p>" % i)
        out = CompactTable(("x",))
        out.add(CompactTuple([Cell([Exact(Span(doc, 0, 6))])]))
        return {doc.doc_id: doc}, out

    store = ResultStore(cache_dir, max_entries=4)
    for step in range(60):
        i = (step + offset) % 10
        docs, out = entry(i)
        key = "conc%02d" % i
        store.save(key, out)
        loaded = store.load(key, docs)
        assert loaded is None or _image(loaded) == _image(out)
        store._live.clear()  # let this worker's own keys be evicted too
        store.prune()


class TestConcurrentStores:
    @pytest.mark.timeout(120)
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two processes saving and pruning the same --result-cache dir
        never crash and never load a corrupt entry (loads return None
        and the next save rewrites)."""
        import subprocess
        import sys

        env = _subprocess_env()
        code = (
            "from tests.columnar.test_results import _hammer; "
            "_hammer(%r, %d)"
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", code % (str(tmp_path), offset)],
                env=env,
                cwd=str(ROOT),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for offset in (0, 5)
        ]
        for proc in workers:
            _, err = proc.communicate(timeout=90)
            assert proc.returncode == 0, err.decode()
        # whatever survived the crossfire must load cleanly or miss
        count = 0
        for i in range(10):
            docs_i = {
                "h%d"
                % i: parse_html("h%d" % i, "<p>hammer doc %d payload</p>" % i)
            }
            loaded = load_result(str(tmp_path), "conc%02d" % i, docs_i)
            if loaded is not None:
                count += 1
                assert [t.maybe for t in loaded.tuples] == [False]
        assert count >= 1  # the directory is not simply empty


#: exit status of the crash child; an ordinary failure exits 1
CRASH_STATUS = 87


def _crash_run(cache_dir):
    """Child for the crash test: die just before the first entry's rename.

    The entry sits whole in its ``.res.tmp`` file, exactly as a writer
    killed at that instant would leave it.
    """
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".res"):
            os._exit(CRASH_STATUS)
        return real_replace(src, dst)

    os.replace = replace
    _run(_crash_docs(), cache_dir)


def _crash_docs():
    return [
        parse_html("c%d" % i, "<p>lot %d sold for <b>%d</b></p>" % (i, 60 + i))
        for i in range(4)
    ]


class TestCrashMidSave:
    @pytest.mark.timeout(120)
    def test_restart_after_crash_recomputes_byte_identical(self, tmp_path):
        import subprocess
        import sys

        from repro.columnar.results import _entry_groups

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from tests.columnar.test_results import _crash_run; "
                "_crash_run(%r)" % str(tmp_path),
            ],
            env=_subprocess_env(),
            cwd=str(ROOT),
            capture_output=True,
            timeout=90,
        )
        assert proc.returncode == CRASH_STATUS, proc.stderr.decode()
        leftovers = os.listdir(str(tmp_path))
        assert leftovers and all(n.endswith(".res.tmp") for n in leftovers)
        # the crash left its unrenamed file behind, and no entry
        assert _entry_groups(str(tmp_path)) == {}
        docs = _crash_docs()
        restarted = _run(docs, str(tmp_path))
        assert _image(restarted.query_table) == _image(
            _run(docs).query_table
        )
        assert restarted.stats.result_cache_misses >= 1
        warm = _run(docs, str(tmp_path))
        assert warm.stats.result_cache_misses == 0
        assert _image(warm.query_table) == _image(restarted.query_table)
