"""Measured-vs-predicted roofline: time the kernels the simulator prices.

Everything else in :mod:`repro.perf` is analytical — ledgers, rooflines,
cache decisions. This module closes the loop: it runs the *functional*
kernels on the host, times them, and lines the measured speedups up against
what the same cache model and sweep ledgers predict, so the simulator's
claims are checkable numbers rather than assertions. Shared by the
``ext_measured_roofline`` experiment and ``benchmarks/test_kernel_wall.py``
(one record shape, two consumers).

Two predictions are made, both from existing machinery:

* **blocked vs naive** — the naive kernels' full-tensor temporaries are
  priced through :class:`~repro.hw.cache.CacheModel` exactly like the
  simulator prices any sweep (resident temporaries cost nothing, spilled
  ones pay a write + a read), against the blocked kernels' scratch,
  which :mod:`repro.kernels.tune` sizes to stay resident. The
  ratio is a *perfect-streaming* bound: hardware prefetchers and partial
  cache reuse land the measured number below it, and the gap between the
  two columns is the point of the report.
* **fused vs unfused** — a one-BN-layer graph is simulated under the
  baseline and MVF scenarios on a spec describing this host, giving the
  BN node's predicted forward speedup from merging the two statistics
  sweeps; the measured twin times two-pass-plus-normalize against
  one-pass-plus-normalize on a real tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.config import stat_dtype
from repro.graph.builder import GraphBuilder
from repro.graph.node import OpKind
from repro.hw.cache import CacheModel
from repro.hw.spec import HardwareSpec
from repro.kernels.tune import (
    choose_block_batch,
    choose_block_width,
    local_hardware_spec,
)
from repro.passes.scenarios import apply_scenario
from repro.perf.simulator import simulate
from repro.tensors.tensor_spec import TensorKind, TensorSpec

__all__ = [
    "best_of",
    "PredictedTraffic",
    "predicted_stats_traffic",
    "predicted_normalize_traffic",
    "predicted_bn_forward_ratio",
    "kernel_wall_record",
]


def best_of(fn: Callable[[], object], repeats: int = 3,
            warmup: int = 1) -> float:
    """Best wall time of *fn* over *repeats* timed runs (after warmups).

    Best-of, not mean-of: scheduling noise only ever adds time, so the
    minimum is the closest observable to the kernel's actual cost.
    """
    for _ in range(max(0, warmup)):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(frozen=True)
class PredictedTraffic:
    """Cache-model-priced DRAM bytes for a naive/blocked kernel pair."""

    naive_bytes: int
    blocked_bytes: int

    @property
    def ratio(self) -> float:
        """Predicted speedup of blocked over naive (memory-bound limit)."""
        return self.naive_bytes / max(self.blocked_bytes, 1)


def _temporary_sweeps(nelems: int, itemsize: int, cache: CacheModel,
                      sweeps: int, name: str) -> int:
    """DRAM bytes for *sweeps* passes over one full-tensor temporary.

    Priced with the same residency rule the simulator applies to feature
    maps — a temporary that fits the single-tensor cache share never
    reaches DRAM, which is what makes the prediction shape-dependent.
    """
    words = max(1, (nelems * itemsize + 3) // 4)
    spec = TensorSpec(name, (1, words), kind=TensorKind.FEATURE,
                      dtype=np.float32)
    return sweeps * cache.dram_bytes(spec)


def predicted_stats_traffic(
    shape: Tuple[int, int, int, int],
    storage_dtype,
    accumulate_dtype,
    hw: Optional[HardwareSpec] = None,
) -> PredictedTraffic:
    """Cache-model traffic of naive vs blocked one-pass statistics.

    Naive ``onepass_stats`` makes one upcast copy of the input: written,
    summed, squared in place (read and written) and summed again. Blocked
    streams the input one batch row at a time through accumulator-width
    row scratch (two running sums and the squared row), cut into runs
    that :func:`choose_block_width` keeps resident, so its only compulsory
    traffic is the input itself.
    """
    hw = hw or local_hardware_spec()
    cache = CacheModel(hw)
    nelems = int(np.prod(shape))
    s_bytes = nelems * np.dtype(storage_dtype).itemsize
    a_item = np.dtype(accumulate_dtype).itemsize
    naive = s_bytes + _temporary_sweeps(nelems, a_item, cache, 5, "naive.xa")
    n, c, h, w = shape
    bw = choose_block_width(shape, storage_dtype, accumulate_dtype, hw=hw)
    blocked = s_bytes
    # The row scratch spills only if even the chosen (floor-of-1) run
    # exceeds the budget; then every batch row writes and re-reads it.
    runs = -(-(c * h * w) // bw)
    blocked += _temporary_sweeps(3 * bw, a_item, cache, 2,
                                 "blocked.rows") * runs * n
    return PredictedTraffic(naive_bytes=naive, blocked_bytes=blocked)


def predicted_normalize_traffic(
    shape: Tuple[int, int, int, int],
    storage_dtype,
    math_dtype,
    hw: Optional[HardwareSpec] = None,
    relu: bool = False,
) -> PredictedTraffic:
    """Cache-model traffic of naive vs blocked affine normalization.

    The naive expression materializes ``x_hat`` and the pre-downcast
    ``y`` at the math dtype (each written + read); ReLU adds one more
    read + write of the output. Blocked reads the input and writes the
    output, with the slab scratch resident by construction.
    """
    hw = hw or local_hardware_spec()
    cache = CacheModel(hw)
    nelems = int(np.prod(shape))
    s_bytes = nelems * np.dtype(storage_dtype).itemsize
    m_item = np.dtype(math_dtype).itemsize
    naive = 2 * s_bytes  # read x, write y
    naive += _temporary_sweeps(nelems, m_item, cache, 2, "naive.x_hat")
    naive += _temporary_sweeps(nelems, m_item, cache, 2, "naive.y_wide")
    if relu:
        naive += _temporary_sweeps(nelems, np.dtype(storage_dtype).itemsize,
                                   cache, 2, "naive.relu")
    n, c, h, w = shape
    bn = choose_block_batch(shape, storage_dtype, math_dtype, hw=hw)
    blocked = 2 * s_bytes
    slabs = -(-n // bn)
    blocked += _temporary_sweeps(bn * c * h * w, m_item, cache, 2,
                                 "blocked.slab") * slabs
    return PredictedTraffic(naive_bytes=naive, blocked_bytes=blocked)


def predicted_bn_forward_ratio(
    shape: Tuple[int, int, int, int],
    hw: Optional[HardwareSpec] = None,
) -> float:
    """Simulated BN forward speedup of MVF over the three-sweep baseline.

    Builds a minimal ``data -> BN`` graph at the given NCHW shape, prices
    it under the ``baseline`` and ``rcf_mvf`` scenarios on *hw* (default:
    this host's cache budget), and returns the ratio of the BN node's
    forward times — the fused-vs-unfused number the measured side of
    :func:`kernel_wall_record` is compared against.
    """
    hw = hw or local_hardware_spec()
    n, c, h, w = shape
    builder = GraphBuilder("bn_probe", batch=n, image=(c, h, w),
                           dtype=np.float32)
    x = builder.input()
    builder.bn(x)
    graph = builder.finalize()

    def bn_fwd_time(scenario: str) -> float:
        scenario_graph, _ = apply_scenario(graph, scenario)
        cost = simulate(scenario_graph, hw, scenario=scenario,
                        include_overhead=False)
        bn_kinds = (OpKind.BN, OpKind.BN_STATS, OpKind.BN_NORM)
        times = [nc.fwd.time_s for nc in cost.nodes
                 if nc.kind in bn_kinds and not nc.is_ghost]
        return sum(times)

    baseline = bn_fwd_time("baseline")
    fused = bn_fwd_time("rcf_mvf")
    return baseline / fused if fused > 0 else float("inf")


def kernel_wall_record(
    kernel: str,
    shape: Tuple[int, int, int, int],
    storage_dtype,
    naive_fn: Callable[[], object],
    blocked_fn: Callable[[], object],
    predicted: float,
    repeats: int = 3,
) -> dict:
    """Time a naive/blocked pair and bundle measured + predicted ratios.

    The one record shape both the experiment and the wall-clock benchmark
    emit: measured seconds for each side, the measured speedup, and the
    prediction it is judged against.
    """
    naive_s = best_of(naive_fn, repeats=repeats)
    blocked_s = best_of(blocked_fn, repeats=repeats)
    return {
        "kernel": kernel,
        "shape": list(shape),
        "dtype": np.dtype(storage_dtype).name,
        "stat_dtype": stat_dtype(storage_dtype).name,
        "naive_s": naive_s,
        "blocked_s": blocked_s,
        "measured_ratio": naive_s / blocked_s if blocked_s > 0 else float("inf"),
        "predicted_ratio": predicted,
    }
