"""Persistent, content-addressed store for sweep results.

On-disk layout (versioned so a future format bump cannot misread old
entries)::

    <root>/v1/
        index.json              # advisory metadata + cumulative stats
        objects/<kk>/<key>.bin  # one entry per content address

Each entry file is ``MAGIC + blake2b(body) + body`` where ``body`` is
the pickled ``{"meta": ..., "value": ...}`` payload. Reads verify the
magic and digest before unpickling, so a truncated, corrupted or
foreign file degrades to a *miss* — never a crash, never a wrong value.

Writes are atomic: the body goes to a unique temp file in the final
directory and is ``os.replace``d into place, so concurrent readers see
either the old complete entry or the new complete entry, and two
processes racing on the same key both leave a valid file behind (last
writer wins — harmless, both wrote the same deterministic result).

``index.json`` is advisory only: it accelerates ``cachectl ls/stats``
and records cumulative hit/miss/bypass counters across runs, but
correctness never depends on it — it is rebuilt from the object
directory on demand and replaced atomically (a lost update under a
write race costs a stat, not a result).

Eviction is LRU by file mtime (hits ``os.utime`` their entry), bounded
by ``max_bytes`` (env ``REPRO_CACHE_MAX_BYTES``); the newest entries
always survive, so a sweep that just ran stays warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import config
from repro.cache.keys import (
    UncacheableArgument,
    model_fingerprint,
    task_key,
)

__all__ = ["CacheEntryInfo", "CacheStats", "ResultCache", "cache_from_env",
           "default_cache_dir"]

_MAGIC = b"RPC1"
_DIGEST_SIZE = 32
_HEADER_SIZE = len(_MAGIC) + _DIGEST_SIZE

_STAT_KEYS = ("hits", "misses", "bypasses", "writes", "corrupt", "evicted")


#: Distinguishes "no context override" from an explicit ``context=None``
#: in :meth:`ResultCache.key_for` (``None`` is a meaningful context).
_UNSET_CONTEXT = object()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    writes: int = 0
    corrupt: int = 0
    evicted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in _STAT_KEYS}

    def add(self, other: Dict[str, int]) -> None:
        for key in _STAT_KEYS:
            setattr(self, key, getattr(self, key) + int(other.get(key, 0)))


@dataclass
class CacheEntryInfo:
    """What a directory scan knows about one stored entry."""

    key: str
    path: str
    size: int
    mtime: float
    meta: Dict[str, Any] = field(default_factory=dict)


class ResultCache:
    """A content-addressed result store rooted at ``root``.

    ``fingerprint=None`` uses :func:`model_fingerprint` (the hash of the
    installed ``repro`` source tree); tests pass explicit strings to
    model code changes. ``context`` folds run-environment knobs into
    every key (the executor passes its ``env_mode_context``).
    """

    VERSION = "v1"

    def __init__(self, root: str, fingerprint: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 context: Any = None) -> None:
        self.root = os.path.abspath(root)
        self.fingerprint = (model_fingerprint() if fingerprint is None
                            else fingerprint)
        self.max_bytes = config.get("REPRO_CACHE_MAX_BYTES", max_bytes,
                                    source="max_bytes")
        self.context = context
        self.stats = CacheStats()
        self._pending_index: Dict[str, Dict[str, Any]] = {}
        # Stats already merged into the on-disk totals by an earlier
        # flush(); only the delta past this snapshot is merged next time.
        self._flushed: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        # Concurrent-reader stats: the service reads hits/misses from its
        # event loop while pool callbacks record them from other threads,
        # so increments go through _record under one lock, and listeners
        # (metrics exporters) observe every change as it happens.
        self._stats_lock = threading.Lock()
        self._listeners: List[Callable[[str, int], None]] = []

    def add_stats_listener(self,
                           listener: Callable[[str, int], None]) -> None:
        """Call ``listener(stat_name, delta)`` on every stats change.

        Listeners fire synchronously under the stats lock, so they must
        be fast and must not call back into the cache; incrementing an
        external counter (the service's Prometheus registry) is the
        intended use.
        """
        self._listeners.append(listener)

    def _record(self, stat: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + n)
            for listener in self._listeners:
                listener(stat, n)

    def record_bypass(self, n: int = 1) -> None:
        """Count ``n`` tasks that skipped the cache (trace runs,
        uncacheable arguments) — callers must not poke ``stats``
        directly, or listeners would miss the change."""
        self._record("bypasses", n)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @property
    def store_dir(self) -> str:
        return os.path.join(self.root, self.VERSION)

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.store_dir, "objects")

    @property
    def index_path(self) -> str:
        return os.path.join(self.store_dir, "index.json")

    def entry_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], key + ".bin")

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def key_for(self, fn, args, kwargs,
                context: Any = _UNSET_CONTEXT) -> Optional[str]:
        """The task's content address, or ``None`` when uncacheable.

        ``context`` overrides the store's own ``self.context`` for this
        one key without mutating it — the executor passes the current
        run-mode context here on every sweep, so a long-lived store can
        serve runs whose environment modes changed since it was built.
        """
        if context is _UNSET_CONTEXT:
            context = self.context
        try:
            return task_key(fn, tuple(args), dict(kwargs),
                            self.fingerprint, context=context)
        except UncacheableArgument:
            return None

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a verified hit, else ``(False, None)``.

        Any failure mode — missing file, short read, bad magic, digest
        mismatch, unpicklable body — is a miss; corrupted files are
        additionally counted and removed so they cannot shadow a future
        write-back.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self._record("misses")
            return False, None
        payload = self._decode(blob)
        if payload is None:
            self._record("misses")
            self._record("corrupt")
            try:
                os.remove(path)
            except OSError:
                pass
            return False, None
        self._record("hits")
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return True, payload["value"]

    def put(self, key: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically persist ``value`` under ``key``."""
        entry_meta = dict(meta or {})
        entry_meta.setdefault("fingerprint", self.fingerprint)
        entry_meta.setdefault("created", time.time())
        body = pickle.dumps({"meta": entry_meta, "value": value},
                            protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()
        path = self.entry_path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(digest)
                fh.write(body)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self._record("writes")
        entry_meta["size"] = _HEADER_SIZE + len(body)
        self._pending_index[key] = entry_meta

    @staticmethod
    def _decode(blob: bytes) -> Optional[Dict[str, Any]]:
        if len(blob) <= _HEADER_SIZE or not blob.startswith(_MAGIC):
            return None
        digest = blob[len(_MAGIC):_HEADER_SIZE]
        body = blob[_HEADER_SIZE:]
        if hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest() != digest:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            return None
        if not isinstance(payload, dict) or "value" not in payload:
            return None
        return payload

    def read_meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified metadata of one entry, or ``None``."""
        try:
            with open(self.entry_path(key), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        payload = self._decode(blob)
        if payload is None:
            return None
        return dict(payload.get("meta") or {})

    # ------------------------------------------------------------------ #
    # the advisory index
    # ------------------------------------------------------------------ #
    def load_index(self) -> Dict[str, Any]:
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, ValueError):
            return {"version": 1, "entries": {}, "totals": {}}
        if not isinstance(index, dict):
            return {"version": 1, "entries": {}, "totals": {}}
        index.setdefault("entries", {})
        index.setdefault("totals", {})
        return index

    def flush(self) -> None:
        """Merge buffered entry metadata and run stats into the index.

        One read-modify-replace per sweep, not per entry. The replace is
        atomic; a concurrent flush may drop the other's counters, which
        is acceptable for an advisory file. Repeated flushes merge only
        the stats delta since the previous one, so calling flush after
        every sweep (and again after an eviction pass) never
        double-counts.
        """
        current = self.stats.as_dict()
        delta = {key: current[key] - self._flushed[key]
                 for key in _STAT_KEYS}
        if not self._pending_index and not any(delta.values()):
            return
        index = self.load_index()
        index["entries"].update(self._pending_index)
        totals = index["totals"]
        for stat_key, value in delta.items():
            totals[stat_key] = int(totals.get(stat_key, 0)) + value
        index["last_run"] = current
        self._pending_index = {}
        self._flushed = current
        self._write_index(index)

    def _write_index(self, index: Dict[str, Any]) -> None:
        os.makedirs(self.store_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.store_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(index, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp_path, self.index_path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def totals(self) -> Dict[str, int]:
        """Cumulative stats across all recorded runs (advisory)."""
        totals = self.load_index()["totals"]
        return {key: int(totals.get(key, 0)) for key in _STAT_KEYS}

    def last_run(self) -> Dict[str, int]:
        last = self.load_index().get("last_run") or {}
        return {key: int(last.get(key, 0)) for key in _STAT_KEYS}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[CacheEntryInfo]:
        """Scan the object directory (ground truth, index not trusted)."""
        index_entries = self.load_index()["entries"]
        try:
            shards = sorted(os.scandir(self.objects_dir),
                            key=lambda e: e.name)
        except OSError:
            return
        for shard in shards:
            if not shard.is_dir():
                continue
            try:
                files = sorted(os.scandir(shard.path), key=lambda e: e.name)
            except OSError:
                continue
            for entry in files:
                if not entry.name.endswith(".bin"):
                    continue
                key = entry.name[:-len(".bin")]
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                yield CacheEntryInfo(
                    key=key, path=entry.path, size=stat.st_size,
                    mtime=stat.st_mtime,
                    meta=dict(index_entries.get(key) or {}))

    def total_bytes(self) -> int:
        return sum(info.size for info in self.entries())

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Remove least-recently-used entries until under ``max_bytes``.

        Returns the number of entries removed. ``max_bytes=None`` uses
        the cache's configured bound.
        """
        limit = self.max_bytes if max_bytes is None else int(max_bytes)
        infos = sorted(self.entries(), key=lambda info: (info.mtime,
                                                         info.key))
        total = sum(info.size for info in infos)
        removed: List[str] = []
        for info in infos:
            if total <= limit:
                break
            try:
                os.remove(info.path)
            except OSError:
                continue
            total -= info.size
            removed.append(info.key)
        if removed:
            self._record("evicted", len(removed))
            index = self.load_index()
            for key in removed:
                index["entries"].pop(key, None)
            self._write_index(index)
        return len(removed)

    def prune_stale(self) -> int:
        """Remove entries whose recorded fingerprint is not current.

        Stale entries are already unreachable (the fingerprint is part
        of every key), so this only reclaims disk. Entries without a
        verifiable fingerprint are treated as stale.
        """
        removed = 0
        index = self.load_index()
        for info in self.entries():
            fingerprint = info.meta.get("fingerprint")
            if fingerprint is None:
                meta = self.read_meta(info.key)
                fingerprint = (meta or {}).get("fingerprint")
            if fingerprint == self.fingerprint:
                continue
            try:
                os.remove(info.path)
            except OSError:
                continue
            index["entries"].pop(info.key, None)
            removed += 1
        if removed:
            self._write_index(index)
            self._record("evicted", removed)
        return removed

    def verify(self) -> List[str]:
        """Recompute every entry's digest; return the corrupt keys."""
        bad: List[str] = []
        for info in self.entries():
            try:
                with open(info.path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                bad.append(info.key)
                continue
            if self._decode(blob) is None:
                bad.append(info.key)
        return bad

    def clear(self) -> int:
        """Remove every entry and reset the index; returns entries removed."""
        removed = 0
        for info in self.entries():
            try:
                os.remove(info.path)
                removed += 1
            except OSError:
                pass
        self._write_index({"version": 1, "entries": {}, "totals": {}})
        return removed


# ---------------------------------------------------------------------- #
# environment wiring
# ---------------------------------------------------------------------- #
def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/sweeps``."""
    return config.get("REPRO_CACHE_DIR")


def cache_enabled() -> bool:
    """True when ``REPRO_CACHE`` requests caching."""
    return config.get("REPRO_CACHE")


def cache_from_env(context: Any = None) -> Optional[ResultCache]:
    """A :class:`ResultCache` per the environment, or ``None`` if off."""
    if not cache_enabled():
        return None
    return ResultCache(default_cache_dir(), context=context)
