"""Persistent sweep cache: warm loads are bit-identical, bad files are
misses (never crashes), writes are atomic and versioned."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.sweep import (
    CACHE_FORMAT_VERSION,
    GraphCache,
    PersistentCache,
    SweepSession,
    SweepSpec,
    run_sweep,
)

GRID = SweepSpec(
    name="persist",
    models=("tiny_cnn", "tiny_densenet"),
    scenarios=("baseline", "rcf", "bnff"),
    batches=(4,),
)


def _totals(store):
    return [
        (r.cost.total_time_s, r.cost.fwd_time_s, r.cost.bwd_time_s,
         r.cost.dram_bytes)
        for r in store.rows
    ]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "sweep-cache")


def test_warm_disk_rerun_is_bit_identical_and_computes_nothing(cache_dir):
    cold_cache = GraphCache(persist=PersistentCache(cache_dir))
    cold = run_sweep(GRID, cache=cold_cache)
    assert cold_cache.stats.cost_misses == len(cold)

    # A fresh GraphCache over the same directory models a process restart:
    # the memory tier is empty, only the disk tier survives.
    warm_cache = GraphCache(persist=PersistentCache(cache_dir))
    warm = run_sweep(GRID, cache=warm_cache)
    assert _totals(warm) == _totals(cold)
    assert warm_cache.stats.computed_nothing
    assert warm_cache.stats.cost_disk_hits == len(cold)
    assert warm_cache.stats.graph_misses == 0
    assert warm_cache.stats.scenario_misses == 0
    # Per-node records round-trip exactly, not just the totals.
    for w, c in zip(warm.rows, cold.rows):
        assert w.cost == c.cost


def test_graphs_persist_too(cache_dir):
    run_sweep(GRID, cache=GraphCache(persist=PersistentCache(cache_dir)))
    # Pricing a *new* hardware axis over known graphs: costs are cold, but
    # every build and pass pipeline loads from disk.
    other = GRID.subset(hardware="knights_landing")
    cache = GraphCache(persist=PersistentCache(cache_dir))
    store = run_sweep(other, cache=cache)
    assert cache.stats.cost_misses == len(store)
    assert cache.stats.graph_misses == 0
    assert cache.stats.scenario_misses == 0
    assert cache.stats.scenario_disk_hits > 0


_CHILD_SCRIPT = """
import json, sys
from repro.sweep import GraphCache, PersistentCache, SweepSpec, run_sweep
spec = SweepSpec(**json.loads(sys.argv[2]))
cache = GraphCache(persist=PersistentCache(sys.argv[1]))
store = run_sweep(spec, cache=cache)
print(json.dumps({
    "totals": [[r.cost.total_time_s, r.cost.fwd_time_s, r.cost.bwd_time_s,
                r.cost.dram_bytes] for r in store.rows],
    "per_node": [[[n.name, n.fwd.time_s, n.bwd.time_s, n.dram_bytes]
                  for n in r.cost.nodes] for r in store.rows],
    "cost_misses": cache.stats.cost_misses,
    "cost_disk_hits": cache.stats.cost_disk_hits,
    "graph_misses": cache.stats.graph_misses,
}))
"""

_SPEC_JSON = json.dumps(dict(name="xproc", models=["tiny_resnet"],
                             scenarios=["baseline", "bnff"], batches=[4]))


def _run_in_fresh_process(cache_dir):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, cache_dir, _SPEC_JSON],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_cross_process_warm_load_bit_identity(cache_dir):
    cold = _run_in_fresh_process(cache_dir)
    warm = _run_in_fresh_process(cache_dir)
    # Second interpreter (fresh hash randomization, no shared memory)
    # loads everything from disk and reproduces every float exactly.
    assert cold["cost_misses"] == len(cold["totals"])
    assert warm["cost_misses"] == 0
    assert warm["graph_misses"] == 0
    assert warm["cost_disk_hits"] == len(cold["totals"])
    assert warm["totals"] == cold["totals"]
    assert warm["per_node"] == cold["per_node"]


def test_version_mismatch_reads_as_miss_and_recomputes(cache_dir):
    cold_cache = GraphCache(persist=PersistentCache(cache_dir))
    cold = run_sweep(GRID, cache=cold_cache)

    # Rewrite every entry under a future format version.
    persist = PersistentCache(cache_dir)
    for cell in GRID.cells():
        path = persist.path_for("cost", cell.key())
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["format"] = CACHE_FORMAT_VERSION + 1
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)

    cache = GraphCache(persist=PersistentCache(cache_dir))
    store = run_sweep(GRID, cache=cache)
    # Degrades to a cold run — recomputed, not crashed, same numbers.
    assert cache.stats.cost_misses == len(store)
    assert cache.stats.cost_disk_hits == 0
    assert cache.persist.stats.rejected >= len(store)
    assert _totals(store) == _totals(cold)


def test_corrupted_files_degrade_to_cold_run(cache_dir):
    cold_cache = GraphCache(persist=PersistentCache(cache_dir))
    cold = run_sweep(GRID, cache=cold_cache)

    persist = PersistentCache(cache_dir)
    cells = GRID.cells()
    # Truncate one entry, garbage another, flip the checksum on a third.
    with open(persist.path_for("cost", cells[0].key()), "r+b") as fh:
        fh.truncate(7)
    with open(persist.path_for("cost", cells[1].key()), "wb") as fh:
        fh.write(b"this is not a pickle")
    path = persist.path_for("cost", cells[2].key())
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    envelope["sha256"] = "0" * 64
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)

    cache = GraphCache(persist=PersistentCache(cache_dir))
    store = run_sweep(GRID, cache=cache)
    assert cache.stats.cost_misses == 3
    assert cache.stats.cost_disk_hits == len(store) - 3
    assert _totals(store) == _totals(cold)
    # The bad entries were quarantined and re-published: next run is warm.
    again_cache = GraphCache(persist=PersistentCache(cache_dir))
    again = run_sweep(GRID, cache=again_cache)
    assert again_cache.stats.computed_nothing
    assert _totals(again) == _totals(cold)


def test_wrong_kind_or_key_is_rejected(cache_dir):
    persist = PersistentCache(cache_dir)
    cache = GraphCache(persist=persist)
    run_sweep(GRID, cache=cache)
    [cell, other] = GRID.cells()[:2]
    # A valid envelope copied to the wrong key must not be served.
    wrong_path = persist.path_for("cost", "deadbeefdeadbeef")
    os.makedirs(os.path.dirname(wrong_path), exist_ok=True)
    os.replace(persist.path_for("cost", cell.key()), wrong_path)
    fresh = PersistentCache(cache_dir)
    assert fresh.load_cost("deadbeefdeadbeef") is None
    assert fresh.stats.rejected == 1
    assert fresh.load_cost(other.key()) is not None


def test_store_is_idempotent_and_atomic(cache_dir):
    persist = PersistentCache(cache_dir)
    cache = GraphCache(persist=persist)
    store = run_sweep(GRID, cache=cache)
    [cell] = GRID.cells()[:1]
    path = persist.path_for("cost", cell.key())
    with open(path, "rb") as fh:
        published = fh.read()
    os.utime(path, (1, 1))  # back-date so the re-store's touch is visible
    # Re-storing an existing content-keyed entry skips the write but
    # re-touches the mtime (like a load): an entry hot across many
    # writer processes must not look LRU-stale to a concurrent GC.
    persist.store_cost(cell.key(), store.rows[0].cost)
    assert os.path.getmtime(path) > 1
    with open(path, "rb") as fh:
        assert fh.read() == published  # the bytes were never rewritten
    # ...and no temp files are left behind anywhere in the cache
    # (per-shard flock files live apart, under locks/).
    leftovers = [
        name
        for _, _, files in os.walk(persist.root)
        for name in files
        if not (name.endswith(".pkl") or name.endswith(".lock"))
    ]
    assert leftovers == []


def test_pre_v2_entry_degrades_to_cold_compute(cache_dir):
    """Regression for the v1 -> v2 format bump: v1 costs were priced
    without per-precision capability tables, so a v1-era entry must read
    as a miss and recompute — never serve as a hit."""
    cold_cache = GraphCache(persist=PersistentCache(cache_dir))
    cold = run_sweep(GRID, cache=cold_cache)
    assert CACHE_FORMAT_VERSION >= 2

    # Rewrite every cost entry as the fp32-era v1 format would have
    # written it: same envelope layout, format tag 1.
    persist = PersistentCache(cache_dir)
    for cell in GRID.cells():
        path = persist.path_for("cost", cell.key())
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["format"] = 1
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)

    cache = GraphCache(persist=PersistentCache(cache_dir))
    store = run_sweep(GRID, cache=cache)
    assert cache.stats.cost_misses == len(store)
    assert cache.stats.cost_disk_hits == 0
    assert _totals(store) == _totals(cold)


def test_node_counts_persist_and_feed_the_scheduler(cache_dir):
    """Observed node counts land on disk next to the costs and replace
    the static estimate on warm runs."""
    cache = GraphCache(persist=PersistentCache(cache_dir))
    run_sweep(GRID, cache=cache)
    cells = GRID.cells()

    # A fresh cache over the same directory knows every graph's size.
    warm = GraphCache(persist=PersistentCache(cache_dir))
    for cell in cells:
        count = warm.node_count(cell.scenario_key())
        graph = cache.scenario_graph(cell.model, cell.batch, cell.scenario)
        assert count == len(graph.nodes)

    # And the session turns them into scheduler weights.
    session = SweepSession(cache=GraphCache(persist=PersistentCache(cache_dir)))
    estimate = session.estimator_for(cells)
    assert estimate is not None
    for cell in cells:
        graph = cache.scenario_graph(cell.model, cell.batch, cell.scenario)
        assert estimate(cell) == float(len(graph.nodes))
    session.close()


def test_unknown_graphs_keep_static_estimate(cache_dir):
    session = SweepSession(cache_dir=cache_dir)
    cells = GRID.cells()
    # Nothing has been built: no observed counts, static default applies.
    assert session.estimator_for(cells) is None
    session.close()
