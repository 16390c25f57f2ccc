"""Result-store persistence: round trips, corruption, pruning.

Whatever is on disk, :func:`load_result` either returns a table
repr-identical to the one saved, or ``None`` so the executor recomputes
— never an exception, never a wrong table — including after a writer
crashed mid-save or any single byte of an entry changed.
:func:`prune_cache_dir` keeps shared cache directories bounded without
ever touching unknown files, and evicts the column bundles
(``<digest>.cols.npy`` + ``<digest>.meta.json``) older versions wrote
into the same directories, which nothing reads any more.
"""

import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import (
    ResultStore,
    load_result,
    prune_cache_dir,
    save_result,
)
from repro.columnar.results import _checksum
from repro.ctables import Cell, CompactTable, CompactTuple, Contain, Exact
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text import parse_html
from repro.text.corpus import Corpus, corpus_digest
from repro.text.span import Span
from repro.xlog.program import Program

KEY = "a" * 24

#: ``corpus_digest`` of :func:`_digest_docs`.  Result-cache keys fold
#: this digest in, so it must never change.
PINNED_DIGEST = "f92699226c275bc42a7cfc8d"

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


def write_old_bundle(cache_dir, docs):
    """Write a column bundle shaped like the ones older versions left.

    An ``int64`` buffer (``np.save`` format) plus a JSON layout sidecar,
    both named by the corpus digest.  Returns the two paths.
    """
    digest = corpus_digest(docs)
    data = np.arange(8 * len(docs), dtype=np.int64)
    layout = {
        doc.doc_id: [["token_starts", 8 * i, 8]] for i, doc in enumerate(docs)
    }
    data_path = os.path.join(str(cache_dir), "%s.cols.npy" % digest)
    meta_path = os.path.join(str(cache_dir), "%s.meta.json" % digest)
    with open(data_path, "wb") as handle:
        np.save(handle, data)
    meta = {
        "digest": digest,
        "layout_version": 1,
        "total": int(len(data)),
        "layout": layout,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return data_path, meta_path


def _run(docs, cache_dir=None):
    program = Program.parse(PROGRAM, extensional=["base"], query="q")
    config = ExecConfig(workers=2, result_cache=cache_dir)
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
        assert all(name.endswith((".res.npy", ".res.meta.json")) for name in names)


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


class TestCorruptionAndStaleness:
    def _persist(self, table, tmp_path):
        save_result(table, str(tmp_path), KEY)
        return (
            tmp_path / ("%s.res.npy" % KEY),
            tmp_path / ("%s.res.meta.json" % KEY),
        )

    def test_truncated_data_recomputes(self, table, docs, tmp_path):
        data_path, _ = self._persist(table, tmp_path)
        data_path.write_bytes(data_path.read_bytes()[:16])
        assert load_result(str(tmp_path), KEY, docs) is None

    def test_garbage_data_recomputes(self, table, docs, tmp_path):
        data_path, _ = self._persist(table, tmp_path)
        data_path.write_bytes(b"not numpy")
        assert load_result(str(tmp_path), KEY, docs) is None

    def _edit_meta(self, table, tmp_path, change):
        """Persist, apply ``change`` to the sidecar, and re-sign it, so
        the check under test (not the checksum) rejects the entry."""
        data_path, meta_path = self._persist(table, tmp_path)
        meta = json.loads(meta_path.read_text())
        change(meta)
        meta["sha256"] = _checksum(np.load(str(data_path)), meta)
        meta_path.write_text(json.dumps(meta))

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
        data_path, _ = self._persist(table, tmp_path)
        data = np.load(str(data_path))
        data[-1] -= 1  # the end offset of the last span
        with open(str(data_path), "wb") as handle:
            np.save(handle, data)
        assert load_result(str(tmp_path), KEY, docs) is None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        which=st.sampled_from(("data", "meta")),
        position=st.integers(min_value=0),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_any_byte_mutation_is_none_or_identical(
        self, tmp_path_factory, which, position, byte
    ):
        """Changing any one byte of either file never yields an
        exception or a different table."""
        docs = _docs()
        table = _table(docs)
        tmp_path = tmp_path_factory.mktemp("fuzz")
        data_path, meta_path = self._persist(table, tmp_path)
        path = data_path if which == "data" else meta_path
        raw = bytearray(path.read_bytes())
        position %= len(raw)
        if raw[position] == byte:
            byte ^= 0xFF
        raw[position] = byte
        path.write_bytes(bytes(raw))
        loaded = load_result(str(tmp_path), KEY, docs)
        assert loaded is None or _image(loaded) == _image(table)

    def test_changed_document_recomputes(self, table, tmp_path):
        """Documents the decode target no longer knows yield None."""
        self._persist(table, tmp_path)
        shrunk = {"d1": parse_html("d1", "x"), "d2": parse_html("d2", "y")}
        # spans in the saved table exceed the shrunken documents
        assert load_result(str(tmp_path), KEY, shrunk) is None

    def test_store_overwrites_corrupt_entry(self, table, docs, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save(KEY, table)
        data_path = tmp_path / ("%s.res.npy" % KEY)
        data_path.write_bytes(b"garbage")
        assert store.load(KEY, docs) is None
        assert store.load_failures == 1
        # the failed load marks the key for rewrite: save() replaces the
        # corrupt files instead of skipping because they exist
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
            entry = tmp_path / ("%s.res.npy" % key)
            stamp = 1_000_000 + i  # deterministic LRU order
            os.utime(entry, (stamp, stamp))
            os.utime(tmp_path / ("%s.res.meta.json" % key), (stamp, stamp))

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
        assert len(os.listdir(str(tmp_path))) == 6

    def test_keep_set_is_never_evicted(self, table, tmp_path):
        self._fill(tmp_path, table, 4)
        oldest = "%024x" % 0
        prune_cache_dir(str(tmp_path), max_entries=1, keep={oldest})
        assert os.path.exists(str(tmp_path / ("%s.res.npy" % oldest)))

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
            os.utime(tmp_path / ("%s.res.npy" % key), (stamp, stamp))
            os.utime(tmp_path / ("%s.res.meta.json" % key), (stamp, stamp))

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
        newer = tmp_path / "aaaa.res.npy"
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
    """Child for the crash test: die on the first result sidecar rename.

    The entry's ``.res.npy`` is already in place and its sidecar sits in
    a ``.json.tmp`` file, exactly as a writer killed at that instant
    would leave them.
    """
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".res.meta.json"):
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
        leftovers = [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]
        assert leftovers  # the crash left its half-written sidecar behind
        groups = _entry_groups(str(tmp_path))
        assert not any(
            path.endswith(".tmp") for files in groups.values() for path, _, _ in files
        )
        docs = _crash_docs()
        restarted = _run(docs, str(tmp_path))
        assert _image(restarted.query_table) == _image(
            _run(docs).query_table
        )
        assert restarted.stats.result_cache_misses >= 1
        warm = _run(docs, str(tmp_path))
        assert warm.stats.result_cache_misses == 0
        assert _image(warm.query_table) == _image(restarted.query_table)
