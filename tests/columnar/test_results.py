"""Result-store persistence: round trips, corruption, foreign files.

Whatever is on disk, :func:`load_result` either returns a table
repr-identical to the one saved, or ``None`` so the executor recomputes
— never an exception, never a wrong table — including after a writer
crashed mid-save, any single byte of an entry changed, the entry was
truncated or replaced by arbitrary bytes.  The store reads and writes
only ``<key>.res`` files: what older versions wrote into the same
directories — two-file result entries (``<key>.res.npy`` +
``<key>.res.meta.json``) and column bundles (``<digest>.cols.npy`` +
``<digest>.meta.json``) — and any other file stay byte-identical.
"""

import functools
import hashlib
import json
import os
import pathlib
import re
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import ResultStore, load_result, save_result
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


def _snapshot(cache_dir):
    """``{name: bytes}`` of every file in ``cache_dir``."""
    return {path.name: path.read_bytes() for path in pathlib.Path(cache_dir).iterdir()}


#: the name of every file the store writes
ENTRY_NAME = re.compile(r"^[0-9a-f]{24}\.res$")


class TestForeignFiles:
    """Nothing evicts, and files not named ``<key>.res`` are neither
    read nor removed."""

    def test_unknown_files_untouched(self, tmp_path):
        """A stray file and a leftover temporary file: the cold run writes
        the same entries as in an empty directory, the warm run is all
        hits, and both files are still there, byte for byte."""
        docs = _crash_docs()
        _run(docs, str(tmp_path / "scratch"))
        entries = _snapshot(tmp_path / "scratch")
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "notes.txt").write_text("keep me")
        (cache / "half.json.tmp").write_text("{}")
        foreign = _snapshot(cache)

        cold = _run(docs, str(cache))
        assert _image(cold.query_table) == _image(_run(docs).query_table)
        assert cold.stats.result_cache_hits == 0
        written = {n: data for n, data in _snapshot(cache).items() if n not in foreign}
        assert written == entries
        store = ResultStore(str(cache))
        warm = _run(docs, store)
        assert warm.stats.result_cache_misses == 0
        assert store.saved == 0 and store.loaded > 0

        after = _snapshot(cache)
        assert {name: after.get(name) for name in foreign} == foreign
        assert all(ENTRY_NAME.match(name) for name in set(after) - set(foreign))

    def test_old_bundle_in_result_cache_runs_cold_and_stays(self, tmp_path):
        """A truncated column bundle an older version left: the cold run
        never reads it, the warm run is all hits, and the bundle's files
        are still there, byte for byte."""
        docs = _crash_docs()
        data_path, _ = write_old_bundle(tmp_path, docs)
        with open(data_path, "r+b") as handle:
            handle.truncate(32)
        foreign = _snapshot(tmp_path)
        assert any(n.endswith(".cols.npy") for n in foreign)

        cold = _run(docs, str(tmp_path))
        assert _image(cold.query_table) == _image(_run(docs).query_table)
        assert cold.stats.result_cache_hits == 0
        store = ResultStore(str(tmp_path))
        warm = _run(docs, store)
        assert warm.stats.result_cache_misses == 0
        assert store.saved == 0 and store.loaded > 0
        assert _image(warm.query_table) == _image(cold.query_table)

        after = _snapshot(tmp_path)
        assert {name: after.get(name) for name in foreign} == foreign
        assert all(ENTRY_NAME.match(name) for name in set(after) - set(foreign))

    def test_old_result_entries_read_as_misses_and_stay(self, tmp_path):
        """A directory of two-file entries older versions wrote: the run
        recomputes cold with the same bytes, and the old pairs stay."""
        docs = _crash_docs()
        cold = _run(docs, str(tmp_path))
        cold_bytes = {path.name: path.read_bytes() for path in tmp_path.glob("*.res")}
        write_old_entries(tmp_path)
        old = _snapshot(tmp_path)
        assert old and all(n.endswith((".res.npy", ".res.meta.json")) for n in old)
        rerun = _run(docs, str(tmp_path))
        assert _image(rerun.query_table) == _image(cold.query_table)
        assert rerun.stats.result_cache_hits == 0
        assert rerun.stats.partitions_recomputed == cold.stats.partitions_recomputed
        new = {path.name: path.read_bytes() for path in tmp_path.glob("*.res")}
        assert new == cold_bytes
        assert _snapshot(tmp_path) == dict(old, **new)


def _hammer(cache_dir, offset):
    """Worker for the concurrency test: save/load in a tight loop.

    Both workers write *identical* content under each key (the store is
    content-addressed, so that is the real-world invariant), racing
    each other's atomic replaces against reads.
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

    store = ResultStore(cache_dir)
    for step in range(60):
        i = (step + offset) % 10
        docs, out = entry(i)
        key = "conc%02d" % i
        store.save(key, out)
        loaded = store.load(key, docs)
        assert loaded is None or _image(loaded) == _image(out)


class TestConcurrentStores:
    @pytest.mark.timeout(120)
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two processes saving and loading the same --result-cache dir
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
        # nothing evicts: every key the workers saved loads cleanly
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
        assert count == 10


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
        assert not list(tmp_path.glob("*.res"))
        docs = _crash_docs()
        restarted = _run(docs, str(tmp_path))
        assert _image(restarted.query_table) == _image(
            _run(docs).query_table
        )
        assert restarted.stats.result_cache_misses >= 1
        warm = _run(docs, str(tmp_path))
        assert warm.stats.result_cache_misses == 0
        assert _image(warm.query_table) == _image(restarted.query_table)
