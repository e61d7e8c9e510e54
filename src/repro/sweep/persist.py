"""On-disk sweep cache: costs and graphs survive process restarts.

The in-memory :class:`~repro.sweep.cache.GraphCache` dies with the
process; this module gives it a disk tier keyed by the *same* content
hashes (:func:`repro.sweep.spec.graph_key` /
:func:`~repro.sweep.spec.scenario_key` / :func:`~repro.sweep.spec.cost_key`),
so a warm re-run of any figure grid after a restart loads every priced
cell instead of re-pricing it.

Design constraints, in order:

1. **Never wrong.** Entries are content-addressed, every file carries a
   format version and a payload checksum, and a pickle round-trip of the
   pure-float cost records is exact — a disk hit is bit-identical to the
   compute it replaces (pinned by ``tests/sweep/test_persist.py``).
2. **Never fatal.** A truncated, corrupted, foreign-format or
   version-mismatched file is treated as a miss (and quarantined out of
   the way), degrading to a cold compute — a half-written cache can slow
   a run down but can never crash it or skew its numbers. The same
   applies to the *write* side: a store that fails with an ``OSError``
   (disk full, permissions yanked, filesystem remounted read-only) puts
   the cache in a **compute-only window** for ``store_retry_s`` seconds
   — stores become no-ops (counted in ``stats.store_errors``, warned
   once per cache instance), reads keep being served, and writing is
   re-attempted after the window in case the disk recovered.
3. **Safe under concurrency — many readers, many writers, many
   processes.** The directory is **sharded by key prefix**
   (``costs/<shard>/<key>.pkl``, 16 shards per kind) and every
   publication or eviction runs under that shard's lock: an
   ``fcntl.flock`` on ``locks/<shard>.lock``, taken through a file
   descriptor opened for that one call. ``flock`` excludes separate open
   file descriptions even within one process, so this single lock
   serializes threads *and* separate processes sharing one cache
   directory — per shard, never globally. Writes still go to a temp
   file and publish with :func:`os.replace` (readers never observe a
   partial file, and reads need no lock at all), and GC re-checks an
   entry's mtime under the shard lock immediately before unlinking so a
   concurrently-touched (hot) entry is never evicted on a stale scan. A
   store that finds its entry already published re-touches the file's
   mtime — exactly like a load — so an entry hot across many writer
   processes cannot look LRU-stale to a concurrent GC. The disk tier
   therefore needs POSIX ``flock``.
4. **Bounded.** Content-keyed files accumulate across grids forever
   unless told otherwise: with ``max_bytes`` / ``max_entries`` set,
   :meth:`PersistentCache.gc` evicts least-recently-*used* entries (every
   load — and every skipped re-store — touches its file's mtime) until
   the caps hold, and quarantined ``*.rejected`` files (plus orphaned
   ``*.tmp``) older than the retention window are deleted rather than
   kept forever. GC runs opportunistically every ``gc_interval`` stores
   and on session close — including inside long-lived pool workers, so a
   server that never closes its session still keeps the directory under
   its caps. With no caps configured only the quarantine sweep runs.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import pickle
import string
import tempfile
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import faults
from repro.graph.graph import LayerGraph
from repro.perf.report import IterationCost

#: Bumped on any incompatible change to the entry layout or to the
#: pickled payload types; old files then read as misses, not errors.
#: v2: per-precision roofline costs — fp16/fp64 cells priced by a v1
#: build used fp32 capability tables, so every v1 entry must degrade to a
#: cold compute rather than serve a silently-wrong number.
#: v3: ``TensorSpec`` grew the ``precision`` metadata field (bf16 cells,
#: ``element_bytes``) — v2-era pickled graphs lack the attribute and would
#: crash the traffic model, so they too must read as misses.
#: (The v3→sharded directory layout change needs no bump: pre-shard flat
#: files simply stop being found — a cold re-price, never a wrong read —
#: and GC still scans them recursively, so they age out under the caps.)
CACHE_FORMAT_VERSION = 3

#: Entry kind -> subdirectory. Costs, graphs and node-count metadata live
#: apart so a cache directory can be inspected (and selectively cleared)
#: with plain ls/rm.
_KIND_DIRS = {"cost": "costs", "graph": "graphs", "nodes": "nodes"}

#: Shards per kind directory; one hex character of key prefix.
NUM_SHARDS = 16

#: Subdirectory holding the cross-process ``flock`` files, one per shard.
_LOCK_DIR = "locks"

#: Default number of stores between opportunistic
#: :meth:`PersistentCache.gc` passes (see ``gc_interval``).
_GC_STORE_INTERVAL = 64

def shard_for(key: str) -> str:
    """The shard (one hex character) a key's entry lives under.

    Content keys are hex digests, so the first character is a uniform
    prefix shard; anything else (tests, ad-hoc keys) hashes into the
    same 16 buckets.
    """
    c = key[:1].lower()
    if c and c in string.hexdigits:
        return c
    return format(zlib.crc32(key.encode("utf-8")) & (NUM_SHARDS - 1), "x")


@dataclass
class PersistStats:
    """Disk-tier traffic counters (loads that hit, loads that missed,
    writes, files rejected as corrupt/incompatible, entries evicted by
    the size/count caps, quarantine/temp files purged by age, and
    stores dropped because the disk errored — see ``store_retry_s``)."""

    loads: int = 0
    load_misses: int = 0
    stores: int = 0
    rejected: int = 0
    evicted: int = 0
    purged: int = 0
    store_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class PersistentCache:
    """Content-keyed pickle store under one cache directory.

    Every entry is a single file ``<kind-dir>/<shard>/<key>.pkl`` —
    sharded by key prefix so concurrent writers and GC contend on
    per-shard locks, never one global lock — holding a pickled
    envelope ``{format, kind, key, sha256, payload}`` where ``payload``
    is the pickled object and ``sha256`` its checksum. Loads validate
    the whole envelope and return ``None`` on any mismatch.

    ``max_bytes`` / ``max_entries`` cap the store (``None`` = unbounded);
    :meth:`gc` enforces them LRU-by-mtime, where "recently used" means
    recently *loaded or re-stored* — both touch the file — so hot
    entries survive even when many processes share the directory.
    Multiple :class:`PersistentCache` instances (and multiple processes)
    over one directory are safe: publication is atomic, eviction
    re-validates under the shard lock, and a concurrent removal is
    treated as the file already being gone.
    """

    root: str
    max_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    rejected_retention_s: float = 24 * 3600.0
    gc_interval: int = _GC_STORE_INTERVAL
    store_retry_s: float = 60.0
    stats: PersistStats = field(default_factory=PersistStats)
    _stores_since_gc: int = field(default=0, init=False, repr=False)
    _store_degraded_until: float = field(default=0.0, init=False, repr=False)
    _store_warned: bool = field(default=False, init=False, repr=False)
    _stats_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False
    )

    def __post_init__(self) -> None:
        self.root = os.path.abspath(os.path.expanduser(str(self.root)))
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {self.max_bytes}")
        if self.max_entries is not None and self.max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {self.max_entries}"
            )
        if self.gc_interval <= 0:
            raise ValueError(
                f"gc_interval must be positive, got {self.gc_interval}"
            )
        if self.store_retry_s < 0:
            raise ValueError(
                f"store_retry_s must be >= 0, got {self.store_retry_s}"
            )

    # -- paths ---------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> str:
        return os.path.join(self.root, _KIND_DIRS[kind], shard_for(key),
                            f"{key}.pkl")

    # -- shard locking -------------------------------------------------------
    @contextlib.contextmanager
    def _shard_lock(self, shard: str) -> Iterator[None]:
        """Exclusive per-shard critical section: ``flock`` on the shard's
        lock file, which excludes sibling threads and processes alike.
        The file is opened per call: each call then holds its own open
        file description, which is what makes ``flock`` exclude threads
        of one process (an fd shared between threads, or cached across a
        fork, would alias the lock instead)."""
        lock_dir = os.path.join(self.root, _LOCK_DIR)
        os.makedirs(lock_dir, exist_ok=True)
        fd = os.open(os.path.join(lock_dir, f"{shard}.lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd releases the flock

    def _count(self, counter: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)

    # -- generic load/store --------------------------------------------------
    def load(self, kind: str, key: str):
        """The stored object, or ``None`` on miss/corruption/version skew.

        Lock-free: publication is atomic (``os.replace``), so a read
        sees either the complete envelope or nothing. A concurrent
        eviction between our read and the mtime touch only makes the
        touch a no-op.
        """
        path = self.path_for(kind, key)
        self._count("loads")
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except FileNotFoundError:
            self._count("load_misses")
            return None
        except Exception:
            # Truncated or garbage pickle stream: quarantine and miss.
            self._reject(path)
            return None
        if not self._envelope_ok(envelope, kind, key):
            self._reject(path)
            return None
        try:
            obj = pickle.loads(envelope["payload"])
        except Exception:
            self._reject(path)
            return None
        # A hit marks the entry recently-used, so LRU eviction keeps the
        # entries warm runs actually read.
        try:
            os.utime(path)
        except OSError:
            pass
        return obj

    def store(self, kind: str, key: str, obj) -> None:
        """Atomically publish *obj* under (kind, key); last writer wins.

        Entries are content-addressed, so an existing file already holds
        this exact content — skip the write, but **re-touch the mtime**
        (exactly like a load) so that an entry being written by many
        concurrent processes counts as hot, not stale: without the
        touch, a concurrent GC could LRU-evict an entry between one
        process's existence check and another's read.

        A failing disk never propagates: any ``OSError`` out of the
        write path (ENOSPC, EROFS, EACCES...) drops this store, warns
        once, and opens a compute-only window of ``store_retry_s``
        seconds during which further stores are skipped outright.
        """
        if self._store_degraded():
            self._count("store_errors")
            return
        path = self.path_for(kind, key)
        shard = shard_for(key)
        try:
            faults.fire("cache.store", kind=kind, key=key)
            with self._shard_lock(shard):
                if os.path.exists(path):
                    try:
                        os.utime(path)
                    except OSError:
                        pass
                    return
                payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                envelope = pickle.dumps({
                    "format": CACHE_FORMAT_VERSION,
                    "kind": kind,
                    "key": key,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "payload": payload,
                }, protocol=pickle.HIGHEST_PROTOCOL)
                directory = os.path.dirname(path)
                os.makedirs(directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(envelope)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError as exc:
            self._degrade_store(exc)
            return
        self._count("stores")
        with self._stats_lock:
            self._stores_since_gc += 1
            due = (self._capped
                   and self._stores_since_gc >= self.gc_interval)
        if due:
            # Outside the shard lock: gc takes shard locks itself. A
            # failing disk degrades the write tier, same as the store.
            try:
                self.gc()
            except OSError as exc:
                self._degrade_store(exc)

    def _store_degraded(self) -> bool:
        """True while the write tier is inside a compute-only window."""
        with self._stats_lock:
            return time.monotonic() < self._store_degraded_until

    def _degrade_store(self, exc: OSError) -> None:
        """Open (or extend) the compute-only window after a disk error."""
        self._count("store_errors")
        with self._stats_lock:
            self._store_degraded_until = time.monotonic() + self.store_retry_s
            warned, self._store_warned = self._store_warned, True
        if not warned:
            warnings.warn(
                f"persistent cache store failed ({exc}); degrading to "
                f"compute-only for {self.store_retry_s:g}s "
                f"(reads are unaffected)",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- garbage collection --------------------------------------------------
    @property
    def _capped(self) -> bool:
        return self.max_bytes is not None or self.max_entries is not None

    def gc(self, now: Optional[float] = None) -> int:
        """Enforce the size/entry caps and age out quarantined files.

        Evicts ``*.pkl`` entries least-recently-used first (by mtime —
        loads and skipped re-stores touch their file) until both
        configured caps hold, and unconditionally deletes ``*.rejected``
        quarantine files and orphaned ``*.tmp`` writes older than
        ``rejected_retention_s``. Returns the number of files removed.

        Safe against concurrent sessions and processes: the scan runs
        lock-free, but each eviction re-stats its file under the shard
        lock and is **skipped** if the entry was touched (used)
        since the scan — so a stale scan can never evict an entry that
        went hot underneath it. Concurrent removal of a file by another
        process is treated as that file already being gone.
        """
        # repro-lint: allow REPRO-DET002 (LRU eviction compares file mtimes)
        now = time.time() if now is None else now
        removed = 0
        entries: List[Tuple[float, int, str]] = []  # (mtime, size, path)
        total_bytes = 0
        for sub in _KIND_DIRS.values():
            directory = os.path.join(self.root, sub)
            # Recursive walk: shard subdirectories, plus any pre-shard
            # flat files (unfindable by load, but still counted and
            # eventually evicted rather than leaked).
            for dirpath, _dirnames, names in os.walk(directory):
                for name in names:
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    if name.endswith(".pkl"):
                        entries.append((st.st_mtime, st.st_size, path))
                        total_bytes += st.st_size
                    elif now - st.st_mtime > self.rejected_retention_s:
                        if self._unlink(path):
                            self._count("purged")
                            removed += 1
        if self._capped:
            entries.sort()  # oldest mtime first = least recently used
            count = len(entries)
            for mtime, size, path in entries:
                over_entries = (self.max_entries is not None
                                and count > self.max_entries)
                over_bytes = (self.max_bytes is not None
                              and total_bytes > self.max_bytes)
                if not (over_entries or over_bytes):
                    break
                key = os.path.basename(path)[:-len(".pkl")]
                with self._shard_lock(shard_for(key)):
                    try:
                        st = os.stat(path)
                    except OSError:
                        # Another process already evicted it: the space
                        # is free either way.
                        count -= 1
                        total_bytes -= size
                        continue
                    if st.st_mtime > mtime:
                        # Touched since the scan — the entry went hot;
                        # leave it (and its footprint) alone.
                        continue
                    evicted = self._unlink(path)
                # Counted after the shard lock is released: no lock is
                # ever taken while another is held.
                if evicted:
                    self._count("evicted")
                    removed += 1
                count -= 1
                total_bytes -= size
        with self._stats_lock:
            self._stores_since_gc = 0
        return removed

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # -- typed helpers -------------------------------------------------------
    def load_cost(self, key: str) -> Optional[IterationCost]:
        return self.load("cost", key)

    def store_cost(self, key: str, cost: IterationCost) -> None:
        self.store("cost", key, cost)

    def load_graph(self, key: str) -> Optional[LayerGraph]:
        return self.load("graph", key)

    def store_graph(self, key: str, graph: LayerGraph) -> None:
        self.store("graph", key, graph)

    def load_node_count(self, key: str) -> Optional[int]:
        """Observed node count of the scenario graph under *key*."""
        count = self.load("nodes", key)
        return count if isinstance(count, int) else None

    def store_node_count(self, key: str, count: int) -> None:
        self.store("nodes", key, int(count))

    # -- internals -----------------------------------------------------------
    def _envelope_ok(self, envelope, kind: str, key: str) -> bool:
        if not isinstance(envelope, dict):
            return False
        if envelope.get("format") != CACHE_FORMAT_VERSION:
            return False
        if envelope.get("kind") != kind or envelope.get("key") != key:
            return False
        payload = envelope.get("payload")
        if not isinstance(payload, bytes):
            return False
        return hashlib.sha256(payload).hexdigest() == envelope.get("sha256")

    def _reject(self, path: str) -> None:
        """Move an unreadable entry aside so the next store can heal it."""
        self._count("load_misses")
        self._count("rejected")
        try:
            os.replace(path, path + ".rejected")
        except OSError:
            pass
