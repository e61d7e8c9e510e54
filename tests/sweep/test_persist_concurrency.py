"""PersistentCache under real concurrency: N processes sharing one
directory, hammering load/store/gc.

The cache-sharing contract (docs/serving.md): any number of sessions,
server processes and pool workers may read, write and GC one cache
directory concurrently. These tests pin the load-bearing pieces:

* **no lost entries** — every key each process stored is loadable
  afterwards (publication is atomic and GC never evicts a hot entry on
  a stale scan);
* **no torn reads** — a load returns either the checksum-valid object
  or ``None``, never garbage (and here, where nothing corrupts files,
  nothing is ever rejected or quarantined);
* **caps eventually enforced** — concurrent capped writers converge to
  a directory within the configured bounds.

Workers are real subprocesses (fresh interpreters — exactly like
independent server processes), following the ``test_determinism.py``
idiom.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.sweep import NUM_SHARDS, PersistentCache, shard_for

N_PROCS = 4
N_KEYS = 24
N_ROUNDS = 6

#: One worker process: interleaved store/load/gc rounds over the shared
#: keys, rotated per worker so writers collide on different keys at
#: different times. Prints a JSON report for the parent to assert on.
_WORKER_SCRIPT = """
import hashlib, json, sys
from repro.sweep import PersistentCache

root, caps, seed, n_keys, n_rounds = (
    sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]),
    int(sys.argv[4]), int(sys.argv[5]),
)
keys = [hashlib.sha256(f"entry-{i}".encode()).hexdigest()[:16]
        for i in range(n_keys)]
payload = lambda key: {"key": key, "blob": key * 50}
cache = PersistentCache(root, gc_interval=5, **caps)
bad = []
for _ in range(n_rounds):
    for key in keys[seed:] + keys[:seed]:
        cache.store("cost", key, payload(key))
        got = cache.load("cost", key)
        if got is not None and got != payload(key):
            bad.append(key)
    cache.gc()
print(json.dumps({"rejected": cache.stats.rejected, "bad": bad,
                  "stores": cache.stats.stores}))
"""


def _keys():
    return [hashlib.sha256(f"entry-{i}".encode()).hexdigest()[:16]
            for i in range(N_KEYS)]


def _payload(key):
    return {"key": key, "blob": key * 50}


def _hammer(cache_dir, caps):
    """Run N_PROCS workers concurrently; return their JSON reports."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER_SCRIPT, cache_dir,
             json.dumps(caps), str(seed), str(N_KEYS), str(N_ROUNDS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for seed in range(N_PROCS)
    ]
    reports = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        reports.append(json.loads(out))
    return reports


def _pkl_files(root):
    return [
        name for _, _, names in os.walk(root)
        for name in names if name.endswith(".pkl")
    ]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "shared-cache")


def test_uncapped_hammer_no_lost_entries_no_torn_reads(cache_dir):
    reports = _hammer(cache_dir, {})
    for res in reports:
        assert res["bad"] == []
        # Nothing corrupts files here, so nothing may be quarantined: a
        # rejection under concurrency would mean a torn publication.
        assert res["rejected"] == 0
    # No lost entries: every key loads back checksum-valid with exactly
    # the content-addressed payload.
    cache = PersistentCache(cache_dir)
    for key in _keys():
        assert cache.load("cost", key) == _payload(key)
    assert cache.stats.rejected == 0
    # Exactly one file per key: concurrent writers coalesced on the
    # published entry instead of duplicating or clobbering it.
    assert len(_pkl_files(cache.root)) == N_KEYS


def test_capped_hammer_converges_under_caps(cache_dir):
    caps = {"max_entries": 10}
    for res in _hammer(cache_dir, caps):
        assert res["bad"] == []
        assert res["rejected"] == 0
    PersistentCache(cache_dir, **caps).gc()
    files = _pkl_files(cache_dir)
    assert 0 < len(files) <= 10
    # Whatever survived still loads cleanly.
    cache = PersistentCache(cache_dir)
    for name in files:
        key = name[:-len(".pkl")]
        assert cache.load("cost", key) == _payload(key)


def test_gc_skips_entry_touched_between_scan_and_unlink(cache_dir):
    """The stale-scan guard, deterministically: the eviction victim is
    touched (another process's load) at the exact moment GC acquires
    its shard lock — the mtime re-check must spare it."""

    class RacingCache(PersistentCache):
        victim = None

        def _shard_lock(self, shard):
            if self.victim is not None:
                os.utime(self.victim)
            return super()._shard_lock(shard)

    cache = RacingCache(cache_dir, max_entries=2)
    hot, cold_a, cold_b = _keys()[:3]
    for key in (hot, cold_a, cold_b):
        cache.store("cost", key, _payload(key))
    # Back-date `hot` so the scan picks it as the LRU victim...
    os.utime(cache.path_for("cost", hot), (1, 1))
    # ...then arrange for it to be touched as GC locks its shard.
    cache.victim = cache.path_for("cost", hot)
    cache.gc()
    # The touched victim survived; a colder entry was evicted instead.
    assert cache.load("cost", hot) == _payload(hot)
    assert len(_pkl_files(cache.root)) == 2


def test_store_retouches_mtime_so_hot_entries_arent_lru_evicted(cache_dir):
    """Satellite regression: many processes re-storing one hot entry
    keep bumping its mtime, so a concurrent GC evicts colder entries
    first — before the fix, the exists-check skipped silently and the
    hot entry kept its stale mtime."""
    cache = PersistentCache(cache_dir, max_entries=2)
    hot, cold_a, cold_b = _keys()[:3]
    for key in (hot, cold_a, cold_b):
        cache.store("cost", key, _payload(key))
    # Age everything equally, then re-store only the hot entry (what a
    # sibling process computing the same content-keyed cell does).
    for key in (hot, cold_a, cold_b):
        os.utime(cache.path_for("cost", key), (1, 1))
    cache.store("cost", hot, _payload(hot))
    cache.gc()
    assert cache.load("cost", hot) == _payload(hot)
    remaining = _pkl_files(cache.root)
    assert len(remaining) == 2 and f"{hot}.pkl" in remaining


def test_shard_layout_and_stripe_sharing(tmp_path):
    """Entries land under their key-prefix shard (that two cache
    instances over one directory exclude each other per shard is
    pinned by behaviour in the next test)."""
    for key in ("00aa", "ffbb", "not-hex!"):
        shard = shard_for(key)
        assert len(shard) == 1 and int(shard, 16) < NUM_SHARDS
    assert shard_for("abcd") == "a"
    a = PersistentCache(str(tmp_path / "dir"))
    assert a.path_for("cost", "abcd").endswith(
        os.path.join("costs", "a", "abcd.pkl")
    )


class _LockProbe:
    """Pickles only if it can take its shard's lock, without blocking,
    from a descriptor of its own."""

    def __init__(self, lock_path):
        self.lock_path = lock_path

    def __reduce__(self):
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
        return (str, ("probe",))


def test_store_pickles_before_taking_the_shard_lock(tmp_path):
    """A store holds its shard's lock for the write and rename only, so
    the shard's other stores and evictions never wait on a pickling."""
    cache = PersistentCache(str(tmp_path / "dir"))
    lock_dir = os.path.join(cache.root, "locks")
    os.makedirs(lock_dir)
    probe = _LockProbe(os.path.join(lock_dir, f"{shard_for('abcd')}.lock"))
    cache.store("cost", "abcd", probe)
    assert cache.stats.store_errors == 0
    assert cache.load("cost", "abcd") == "probe"


def test_shard_lock_excludes_threads_across_instances(tmp_path):
    """More threads than cores alternate between two cache instances
    over one directory, all entering the same shard's lock: at most one
    is ever inside (the per-call flock alone excludes threads)."""
    caches = [PersistentCache(str(tmp_path / "dir")) for _ in range(2)]
    n_threads = 2 * (os.cpu_count() or 1) + 2
    rounds = 100
    guard = threading.Lock()
    inside = [0]
    peak = [0]
    errors = []

    def worker(i):
        try:
            for r in range(rounds):
                with caches[(i + r) % 2]._shard_lock("a"):
                    with guard:
                        inside[0] += 1
                        peak[0] = max(peak[0], inside[0])
                    time.sleep(0)  # let any other thread try to enter
                    with guard:
                        inside[0] -= 1
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    for t in threads:
        assert not t.is_alive()
    assert errors == []
    assert peak[0] == 1
