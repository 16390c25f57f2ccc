"""Persistent, content-addressed partition-result cache.

This module caches evaluated
:class:`~repro.ctables.ctable.CompactTable` partition results, keyed by
the executor's rule fingerprint token — a SHA-256 over the rule split,
its upstream tokens, and the partition's
:attr:`~repro.text.corpus.Corpus.content_digest`.  A key therefore
changes whenever the plan *or* any document content in the partition
changes, which is what makes delta execution safe: after an edit, only
the partitions whose digests moved miss the cache.

Two files per entry::

    <key>.res.npy        flat int64 buffer (repro.ctables.codec)
    <key>.res.meta.json  codec sidecar + store envelope (key, sha256)

The envelope's ``sha256`` covers the buffer bytes and the canonical
sidecar, so a flipped bit that would still decode — a maybe flag, a
span offset — cannot load as a different table.  Writes go through
``mkstemp`` + ``os.replace`` (a crashed writer leaves no half-entry),
and *any* load-side defect — missing file, garbage buffer, checksum,
version or key mismatch, a span that no longer fits its document —
yields ``None`` so the executor recomputes.  The cache is an
accelerator, never a source of truth.

:func:`prune_cache_dir` keeps a cache directory bounded: when
entry-count or byte caps are exceeded it evicts whole entries
oldest-first by mtime.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from repro.ctables.codec import CodecError, decode_table, encode_table
from repro.observability.logs import get_logger

__all__ = [
    "ResultStore",
    "load_result",
    "prune_cache_dir",
    "save_result",
]

logger = get_logger("columnar")

_I64 = np.int64

#: suffixes that group a cache entry's files; longest first so
#: ``.res.meta.json`` is never mistaken for a ``.meta.json``.  The
#: ``.cols.npy``/``.meta.json`` pair is the corpus column bundle older
#: versions persisted, often into the same directory: nothing reads it
#: any more, but prune still evicts it.
_ENTRY_SUFFIXES = (".res.meta.json", ".res.npy", ".meta.json", ".cols.npy")


def _checksum(data, meta):
    """SHA-256 over the buffer bytes and the sidecar minus ``sha256``."""
    digest = hashlib.sha256(np.ascontiguousarray(data).tobytes())
    sidecar = {name: value for name, value in meta.items() if name != "sha256"}
    canonical = json.dumps(sidecar, sort_keys=True, separators=(",", ":"))
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def _result_paths(cache_dir, key):
    return (
        os.path.join(cache_dir, "%s.res.npy" % key),
        os.path.join(cache_dir, "%s.res.meta.json" % key),
    )


def _atomic_write(cache_dir, path, suffix, writer):
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=suffix)
    try:
        writer(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_result(table, cache_dir, key):
    """Persist one evaluated table under ``key``; returns the ``.npy`` path.

    Raises :class:`~repro.ctables.codec.CodecError` when the table
    holds values the codec cannot represent exactly — callers skip
    persisting such results rather than storing an approximation.
    """
    data, meta = encode_table(table)
    meta["key"] = key
    meta["sha256"] = _checksum(data, meta)
    os.makedirs(cache_dir, exist_ok=True)
    data_path, meta_path = _result_paths(cache_dir, key)

    def write_data(fd):
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, np.ascontiguousarray(data))

    def write_meta(fd):
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

    _atomic_write(cache_dir, data_path, ".npy.tmp", write_data)
    _atomic_write(cache_dir, meta_path, ".json.tmp", write_meta)
    return data_path


def load_result(cache_dir, key, docs_by_id):
    """Decode a persisted result, or ``None`` when absent/corrupt/stale.

    ``docs_by_id`` supplies the live documents spans rehydrate against.
    Every failure mode — missing files, malformed JSON, a key, checksum
    or codec version mismatch, any structural defect the codec rejects
    — yields ``None`` so the caller recomputes.
    """
    data_path, meta_path = _result_paths(cache_dir, key)
    if not (os.path.exists(data_path) and os.path.exists(meta_path)):
        return None
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("key") != key:
            raise ValueError("key mismatch")
        data = np.load(data_path, allow_pickle=False)
        if data.ndim != 1 or data.dtype != _I64:
            raise ValueError("unexpected buffer shape/dtype")
        if len(data) != int(meta.get("total", -1)):
            raise ValueError("buffer length mismatch")
        if meta.get("sha256") != _checksum(data, meta):
            raise ValueError("checksum mismatch")
        return decode_table(data, meta, docs_by_id)
    except Exception as exc:
        logger.warning("result artifact %s unusable (%s); recomputing", key, exc)
        return None


def _entry_groups(cache_dir):
    """``{entry_key: [(path, size, mtime), ...]}`` for known cache files."""
    groups = {}
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return groups
    for name in names:
        for suffix in _ENTRY_SUFFIXES:
            if name.endswith(suffix):
                path = os.path.join(cache_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    break
                key = name[: -len(suffix)]
                groups.setdefault(key, []).append(
                    (path, stat.st_size, stat.st_mtime)
                )
                break  # .tmp files and unknown names are never touched
    return groups


def prune_cache_dir(cache_dir, max_entries=None, max_bytes=None, keep=()):
    """Evict cache entries beyond the caps; returns the entries removed.

    An *entry* is the file group sharing one ``<key>`` stem — a persisted
    result or an old column bundle.  Eviction is whole-entry, oldest
    mtime first, with mtime *ties broken by key name*: filesystem
    timestamps are coarse (whole seconds on some mounts), so entries
    written in one burst routinely share an mtime and "oldest first"
    alone would leave the victim to dict/listdir order.  Keys in
    ``keep`` (the live working set) are never evicted even when over
    cap.  Unknown files are left alone.
    """
    if max_entries is None and max_bytes is None:
        return 0
    groups = _entry_groups(cache_dir)
    keep = set(keep)
    entries = sorted(
        (
            (max(mtime for _, _, mtime in files), key, files)
            for key, files in groups.items()
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    total_bytes = sum(size for _, _, files in entries for _, size, _ in files)
    count = len(entries)
    evicted = 0
    for _, key, files in entries:
        over_count = max_entries is not None and count > max_entries
        over_bytes = max_bytes is not None and total_bytes > max_bytes
        if not (over_count or over_bytes):
            break
        if key in keep:
            continue
        for path, size, _ in files:
            try:
                os.unlink(path)
            except OSError:
                continue
            total_bytes -= size
        count -= 1
        evicted += 1
    return evicted


class ResultStore:
    """The executor-facing handle on one result-cache directory.

    Wraps :func:`save_result` / :func:`load_result` with the policy the
    engine needs: idempotent saves (an existing entry is only touched,
    not rewritten — unless its last load failed, in which case the
    corrupt entry is overwritten), silent misses, optional size caps
    enforced by :func:`prune_cache_dir` after each save, and counters
    for the observability layer.  Safe to share across engines and
    sessions; concurrent writers are harmless because writes are
    atomic and content-addressed.
    """

    __slots__ = (
        "cache_dir",
        "max_entries",
        "max_bytes",
        "saved",
        "loaded",
        "load_failures",
        "skipped",
        "evicted",
        "_live",
        "_rewrite",
    )

    def __init__(self, cache_dir, max_entries=None, max_bytes=None):
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.saved = 0
        self.loaded = 0
        self.load_failures = 0
        self.skipped = 0
        self.evicted = 0
        #: keys served or saved this process — prune never evicts these
        self._live = set()
        #: keys whose last load failed; the next save overwrites them
        self._rewrite = set()

    @classmethod
    def from_config(cls, config):
        """The store an :class:`ExecConfig` asks for, or ``None``.

        ``None`` when no cache directory is configured — callers treat
        a missing store as "no persistence", never as an error.
        """
        target = getattr(config, "result_cache", None)
        if target is None:
            return None
        if isinstance(target, ResultStore):
            return target
        return cls(str(target))

    def load(self, key, docs_by_id):
        """The persisted table for ``key``, or ``None`` (silent miss)."""
        data_path, meta_path = _result_paths(self.cache_dir, key)
        if not (os.path.exists(data_path) and os.path.exists(meta_path)):
            return None
        table = load_result(self.cache_dir, key, docs_by_id)
        if table is None:
            self.load_failures += 1
            self._rewrite.add(key)
            return None
        self.loaded += 1
        self._live.add(key)
        return table

    def save(self, key, table):
        """Persist ``table`` under ``key`` unless already present."""
        self._live.add(key)
        data_path, meta_path = _result_paths(self.cache_dir, key)
        if (
            key not in self._rewrite
            and os.path.exists(data_path)
            and os.path.exists(meta_path)
        ):
            self.skipped += 1
            for path in (data_path, meta_path):
                try:
                    os.utime(path)  # refresh LRU standing
                except OSError:
                    pass
            return
        try:
            save_result(table, self.cache_dir, key)
        except CodecError as exc:
            logger.warning("result %s not persisted (%s)", key, exc)
            return
        self._rewrite.discard(key)
        self.saved += 1
        self.prune()

    def prune(self):
        """Apply the configured caps; returns entries evicted this call."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        evicted = prune_cache_dir(
            self.cache_dir,
            max_entries=self.max_entries,
            max_bytes=self.max_bytes,
            keep=self._live,
        )
        self.evicted += evicted
        return evicted

    def __repr__(self):
        return "ResultStore(%r, saved=%d, loaded=%d, evicted=%d)" % (
            self.cache_dir,
            self.saved,
            self.loaded,
            self.evicted,
        )
