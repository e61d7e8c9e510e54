"""Content-keyed memoization for sweep execution.

Grid cells share expensive prefixes: every scenario of one model reuses
the same built :class:`LayerGraph`, and every hardware / bandwidth /
infinite-bw variant of one (model, scenario) pair reuses the same
restructured graph. The :class:`GraphCache` memoizes all three stages —

1. **built graphs**, keyed by (model, batch, precision);
2. **scenario graphs**, keyed by the built graph's key plus the
   scenario's expanded pass pipeline;
3. **priced cells** (:class:`IterationCost`), keyed by the scenario
   graph's key plus the hardware-side axes —

so a warm cache re-prices a whole figure grid without rebuilding or
re-restructuring anything. Keys are content hashes (see
:func:`repro.sweep.spec.graph_key` and friends), never object
identities, which makes the cache safe to share across sweeps and
across :class:`SweepSpec` objects.

An optional :class:`~repro.sweep.persist.PersistentCache` adds a disk
tier below the in-memory one: misses consult the disk before computing,
and computes write through, so warm re-runs survive process restarts.
Disk hits are counted separately from memory hits (``*_disk_hits``) and
never as misses — ``graph_misses``/``scenario_misses``/``cost_misses``
count *actual* builds, pass pipelines and pricings, which is what lets
tests assert "this run computed nothing".

Cached graphs are treated as immutable: ``apply_scenario`` already
clones before mutating, and the simulator never writes to the graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Mapping, Optional, Union

from repro.graph.graph import LayerGraph
from repro.models.registry import build_model
from repro.passes.scenarios import apply_scenario
from repro.perf.report import IterationCost
from repro.sweep.persist import PersistentCache
from repro.sweep.spec import PRECISION_DTYPES, graph_key, scenario_key
from repro.tensors.tensor_spec import TensorSpec


def retype_graph(graph: LayerGraph, precision: str) -> LayerGraph:
    """Clone *graph* with every tensor re-typed to *precision*.

    Sweep ledgers reference tensors by name, so swapping the specs is all
    the *graph* needs: the traffic model reads the new byte sizes (and
    residency) directly, and the simulator picks the machine's matching
    capability table from the tensors' ``precision`` metadata (``simulate``
    infers it when not passed explicitly). The precision *name* is stored
    on every spec rather than inferred from the dtype, because bf16's
    container dtype is fp32 and fp16/bf16 share a byte width — neither the
    dtype nor its itemsize can identify the precision.
    """
    dtype = PRECISION_DTYPES[precision]
    g = graph.clone()
    g.tensors = {
        name: TensorSpec(name=t.name, shape=t.shape, kind=t.kind,
                         dtype=dtype, precision=precision)
        for name, t in g.tensors.items()
    }
    return g


@dataclass
class CacheStats:
    """Hit/miss counters per memoization stage.

    ``*_hits`` are in-memory hits, ``*_disk_hits`` are loads served by the
    persistent tier, ``*_misses`` are actual computations. Counters from
    worker processes merge in via :meth:`merge`, so after a parallel run
    the caller's stats describe everything that happened, not just the
    caller-side bookkeeping.
    """

    graph_hits: int = 0
    graph_misses: int = 0
    graph_disk_hits: int = 0
    scenario_hits: int = 0
    scenario_misses: int = 0
    scenario_disk_hits: int = 0
    cost_hits: int = 0
    cost_misses: int = 0
    cost_disk_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: Union["CacheStats", Mapping[str, int]]) -> None:
        """Add another stats record (e.g. a worker's delta) into this one."""
        data = other.as_dict() if isinstance(other, CacheStats) else other
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + int(data.get(f.name, 0)))

    def delta_since(self, snapshot: Mapping[str, int]) -> Dict[str, int]:
        """Counter increments since an earlier :meth:`as_dict` snapshot."""
        return {
            name: value - int(snapshot.get(name, 0))
            for name, value in self.as_dict().items()
        }

    @property
    def computed_nothing(self) -> bool:
        """True iff no graph build, pass pipeline or pricing ran."""
        return not (self.graph_misses or self.scenario_misses
                    or self.cost_misses)


@dataclass
class GraphCache:
    """Three-stage content-keyed memo: build -> restructure -> price.

    With a ``persist`` backend attached, each stage checks memory, then
    disk, then computes (writing the result through to both tiers).

    **Thread safety:** bookkeeping (stat counters, memo-table inserts)
    is guarded by an internal lock, so concurrent readers and a pricing
    thread (the serving layer's executor) never tear the counters or
    observe a half-inserted entry. Computes themselves run *outside*
    the lock: two threads missing the same key may both compute, but
    the results are content-identical, so the race costs time, never
    correctness. The lock guards in-memory bookkeeping only and is never
    held across a compute or a call into the disk tier, so it never
    nests with the persist-tier shard locks.
    """

    persist: Optional[PersistentCache] = None
    _graphs: Dict[str, LayerGraph] = field(default_factory=dict)
    _scenario_graphs: Dict[str, LayerGraph] = field(default_factory=dict)
    _costs: Dict[str, IterationCost] = field(default_factory=dict)
    _node_counts: Dict[str, int] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def _load_verified_graph(self, key: str) -> Optional[LayerGraph]:
        """Disk-tier graph load, gated by the static verifier.

        With ``REPRO_VERIFY_GRAPHS`` set, a cached graph that fails
        :func:`~repro.analysis.static.check_graph` is treated as a miss —
        the caller rebuilds from source instead of pricing a corrupt
        restructuring (a malformed entry on disk should degrade to a
        rebuild, never to a deep kernel traceback).
        """
        if self.persist is None:
            return None
        graph = self.persist.load_graph(key)
        if graph is None:
            return None
        from repro.config import verify_graphs_enabled

        if verify_graphs_enabled():
            from repro.analysis.static.verifier import check_graph

            if check_graph(graph):
                return None
        return graph

    # -- stage 1: built model graphs -----------------------------------------
    def base_graph(self, model: str, batch: int,
                   precision: str = "fp32") -> LayerGraph:
        key = graph_key(model, batch, precision)
        with self._lock:
            if key in self._graphs:
                self.stats.graph_hits += 1
                return self._graphs[key]
        graph = self._load_verified_graph(key)
        if graph is not None:
            with self._lock:
                self.stats.graph_disk_hits += 1
        else:
            graph = build_model(model, batch=batch)
            if precision != "fp32":
                graph = retype_graph(graph, precision)
            with self._lock:
                self.stats.graph_misses += 1
            if self.persist:
                self.persist.store_graph(key, graph)
        with self._lock:
            self._graphs[key] = graph
        return graph

    # -- stage 2: restructured graphs ----------------------------------------
    def scenario_graph(self, model: str, batch: int, scenario: str,
                       precision: str = "fp32") -> LayerGraph:
        key = scenario_key(model, batch, scenario, precision)
        with self._lock:
            if key in self._scenario_graphs:
                self.stats.scenario_hits += 1
                return self._scenario_graphs[key]
        graph = self._load_verified_graph(key)
        if graph is not None:
            with self._lock:
                self.stats.scenario_disk_hits += 1
        else:
            base = self.base_graph(model, batch, precision)
            graph, _ = apply_scenario(base, scenario)
            # The pass hook verified each pass application; the baseline
            # scenario runs no passes, so cover the built graph here too.
            from repro.analysis.static.verifier import maybe_verify_graph

            maybe_verify_graph(
                graph, context=f"scenario {scenario!r} of {model!r}")
            with self._lock:
                self.stats.scenario_misses += 1
            if self.persist:
                self.persist.store_graph(key, graph)
        with self._lock:
            self._scenario_graphs[key] = graph
        self._record_node_count(key, len(graph.nodes))
        return graph

    def cached_scenario_graph(self, key: str) -> Optional[LayerGraph]:
        """In-memory scenario-graph lookup only (no disk probe, no stats)."""
        with self._lock:
            return self._scenario_graphs.get(key)

    # -- observed node counts (scheduler feedback) -----------------------------
    def _record_node_count(self, scenario_key: str, count: int) -> None:
        """Persist the graph's node count for future scheduling estimates."""
        with self._lock:
            if scenario_key in self._node_counts:
                return
            self._node_counts[scenario_key] = count
        if self.persist:
            self.persist.store_node_count(scenario_key, count)

    def node_count(self, scenario_key: str,
                   probe_disk: bool = True) -> int | None:
        """Observed node count for a scenario graph, or ``None`` if never
        built under this cache (memory first, then the disk tier)."""
        count = self._node_counts.get(scenario_key)
        if count is None and probe_disk and self.persist is not None:
            count = self.persist.load_node_count(scenario_key)
            if count is not None:
                self._node_counts[scenario_key] = count
        return count

    # -- stage 3: priced cells -------------------------------------------------
    def cost(self, key: str, compute: Callable[[], IterationCost],
             probe_disk: bool = True) -> IterationCost:
        """Memoized cell pricing: memory, then disk, then compute.

        ``probe_disk=False`` skips the disk probe on a memory miss — for
        callers (the session runner, pool workers) that just established
        the key is not on disk and would only pay a wasted ``open``.
        """
        with self._lock:
            if key in self._costs:
                self.stats.cost_hits += 1
                return self._costs[key]
        cost = self.load_persisted_cost(key) if probe_disk else None
        if cost is None:
            cost = compute()
            with self._lock:
                self.stats.cost_misses += 1
                self._costs[key] = cost
            if self.persist:
                self.persist.store_cost(key, cost)
        return cost

    def cached_cost(self, key: str) -> IterationCost | None:
        """In-memory lookup only (no disk probe, no stats)."""
        return self._costs.get(key)

    def load_persisted_cost(self, key: str) -> IterationCost | None:
        """Probe the disk tier, promoting a hit into memory (counted)."""
        if self.persist is None:
            return None
        cost = self.persist.load_cost(key)
        if cost is not None:
            with self._lock:
                self.stats.cost_disk_hits += 1
                self._costs[key] = cost
        return cost

    def store_cost(self, key: str, cost: IterationCost) -> None:
        with self._lock:
            self._costs[key] = cost
        if self.persist:
            self.persist.store_cost(key, cost)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._graphs.clear()
            self._scenario_graphs.clear()
            self._costs.clear()
            self._node_counts.clear()
            self.stats = CacheStats()
