"""Persistent, content-addressed partition-result cache.

This module caches evaluated
:class:`~repro.ctables.ctable.CompactTable` partition results, keyed by
the executor's rule fingerprint token — a SHA-256 over the rule split,
its upstream tokens, and the partition's
:attr:`~repro.text.corpus.Corpus.content_digest`.  A key therefore
changes whenever the plan *or* any document content in the partition
changes, which is what makes delta execution safe: after an edit, only
the partitions whose digests moved miss the cache.

One file per entry, ``<key>.res``: a JSON header line (the codec
sidecar plus the store envelope: key and sha256), then the flat
``array('q')`` buffer of :mod:`repro.ctables.codec` as little-endian
int64 words.

The envelope's ``sha256`` covers the buffer bytes and the canonical
sidecar, so a flipped bit that would still decode — a maybe flag, a
span offset — cannot load as a different table.  Writes go through one
``mkstemp`` + ``os.replace`` (a crashed writer leaves no half-entry),
and *any* load-side defect — missing file, garbage header, buffer
length, checksum, version or key mismatch, a span that no longer fits
its document — yields ``None`` so the executor recomputes.  The cache
is an accelerator, never a source of truth.

Nothing evicts: every new key adds a file, and the directory grows
until someone deletes it (any time no run is using it; the next run
is simply cold).  Files not named ``<key>.res`` are neither read nor
removed, so the two-file entries and column bundles older versions
left in a shared directory stay exactly as they were.
"""

import hashlib
import json
import os
import sys
import tempfile
from array import array

from repro.ctables.codec import CodecError, decode_table, encode_table
from repro.observability.logs import get_logger

__all__ = [
    "ResultStore",
    "load_result",
    "save_result",
]

logger = get_logger("columnar")

#: entries hold little-endian words, so an entry reads the same anywhere
_SWAP = sys.byteorder != "little"


def _disk_bytes(data):
    """The little-endian bytes of an ``array('q')`` buffer."""
    if _SWAP:
        data = array("q", data)
        data.byteswap()
    return data.tobytes()


def _from_disk(body):
    """The ``array('q')`` buffer of little-endian ``body`` bytes."""
    data = array("q")
    data.frombytes(body)
    if _SWAP:
        data.byteswap()
    return data


def _checksum(body, meta):
    """SHA-256 over the buffer bytes and the sidecar minus ``sha256``."""
    digest = hashlib.sha256(body)
    sidecar = {name: value for name, value in meta.items() if name != "sha256"}
    canonical = json.dumps(sidecar, sort_keys=True, separators=(",", ":"))
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def _entry_path(cache_dir, key):
    return os.path.join(cache_dir, "%s.res" % key)


def save_result(table, cache_dir, key):
    """Persist one evaluated table under ``key``; returns the entry's path.

    Raises :class:`~repro.ctables.codec.CodecError` when the table
    holds values the codec cannot represent exactly — callers skip
    persisting such results rather than storing an approximation.
    """
    data, meta = encode_table(table)
    body = _disk_bytes(data)
    meta["key"] = key
    meta["sha256"] = _checksum(body, meta)
    os.makedirs(cache_dir, exist_ok=True)
    path = _entry_path(cache_dir, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".res.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(meta).encode("utf-8") + b"\n")
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _read_entry(cache_dir, key):
    """The raw bytes of ``key``'s entry, or ``None`` when there is none."""
    try:
        with open(_entry_path(cache_dir, key), "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _decode_entry(raw, key, docs_by_id):
    """The table an entry's ``raw`` bytes hold, or ``None`` if unusable."""
    try:
        header, newline, body = raw.partition(b"\n")
        if not newline:
            raise ValueError("no header line")
        meta = json.loads(header)
        if meta.get("key") != key:
            raise ValueError("key mismatch")
        if len(body) != 8 * int(meta.get("total", -1)):
            raise ValueError("buffer length mismatch")
        if meta.get("sha256") != _checksum(body, meta):
            raise ValueError("checksum mismatch")
        return decode_table(_from_disk(body), meta, docs_by_id)
    except Exception as exc:
        logger.warning("result artifact %s unusable (%s); recomputing", key, exc)
        return None


def load_result(cache_dir, key, docs_by_id):
    """Decode a persisted result, or ``None`` when absent/corrupt/stale.

    ``docs_by_id`` supplies the live documents spans rehydrate against.
    Every failure mode — a missing file, a malformed header, a key,
    length, checksum or codec version mismatch, any structural defect
    the codec rejects — yields ``None`` so the caller recomputes.
    """
    raw = _read_entry(cache_dir, key)
    return None if raw is None else _decode_entry(raw, key, docs_by_id)


class ResultStore:
    """The executor-facing handle on one result-cache directory.

    Wraps :func:`save_result` / :func:`load_result` with the policy the
    engine needs: idempotent saves (an existing entry is left as it is
    — unless its last load failed, in which case the corrupt entry is
    overwritten), silent misses, and counters for the observability
    layer.  Safe to share across engines and sessions; concurrent
    writers are harmless because writes are atomic and
    content-addressed.
    """

    __slots__ = (
        "cache_dir",
        "saved",
        "loaded",
        "load_failures",
        "skipped",
        "_rewrite",
    )

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.saved = 0
        self.loaded = 0
        self.load_failures = 0
        self.skipped = 0
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
        raw = _read_entry(self.cache_dir, key)
        if raw is None:
            return None
        table = _decode_entry(raw, key, docs_by_id)
        if table is None:
            self.load_failures += 1
            self._rewrite.add(key)
            return None
        self.loaded += 1
        return table

    def save(self, key, table):
        """Persist ``table`` under ``key`` unless already present."""
        if key not in self._rewrite and os.path.exists(
            _entry_path(self.cache_dir, key)
        ):
            self.skipped += 1
            return
        try:
            save_result(table, self.cache_dir, key)
        except CodecError as exc:
            logger.warning("result %s not persisted (%s)", key, exc)
            return
        self._rewrite.discard(key)
        self.saved += 1

    def __repr__(self):
        return "ResultStore(%r, saved=%d, loaded=%d)" % (
            self.cache_dir,
            self.saved,
            self.loaded,
        )
