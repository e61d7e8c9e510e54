"""Residency-driven block-size selection for the blocked streaming kernels.

The repo already *prices* LLC residency — :class:`repro.hw.cache.CacheModel`
decides which sweeps reach DRAM for the roofline simulator. This module
turns that same rule around and uses it to *execute* well: a blocked kernel
tile should be the largest one whose working set (the accumulate-width
scratch buffer plus the storage-width slab streaming through it) the cache
model still calls resident. Feed it a :class:`~repro.hw.spec.HardwareSpec`
to tune for a modeled machine, or nothing to tune for the machine the
process is running on (LLC size detected from sysfs / ``os.sysconf``, with
a conservative fallback).

Choices are memoized per (shape, dtype, kernel, cache budget) — the
chooser runs once per distinct workload, not once per kernel call.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Tuple

import numpy as np

from repro.hw.cache import CacheModel
from repro.hw.spec import HardwareSpec
from repro.tensors.tensor_spec import TensorKind, TensorSpec

__all__ = [
    "detect_local_llc_bytes",
    "local_hardware_spec",
    "choose_block_width",
    "choose_block_batch",
    "clear_tuning_cache",
]

#: LLC size assumed when neither sysfs nor sysconf can tell us (a modest
#: desktop part — under-estimating only costs smaller tiles, never a
#: working set that thrashes).
FALLBACK_LLC_BYTES = 16 << 20

_SYSFS_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


def _parse_sysfs_size(text: str) -> Optional[int]:
    text = text.strip()
    try:
        if text.endswith("K"):
            return int(text[:-1]) << 10
        if text.endswith("M"):
            return int(text[:-1]) << 20
        return int(text)
    except ValueError:
        return None


@functools.lru_cache(maxsize=1)
def detect_local_llc_bytes() -> int:
    """Best-effort LLC capacity of the host, in bytes.

    Largest Data/Unified level from sysfs, then the ``SC_LEVEL*_CACHE_SIZE``
    sysconf names, then :data:`FALLBACK_LLC_BYTES`. Never raises.
    """
    best = 0
    try:
        for entry in os.listdir(_SYSFS_CACHE_DIR):
            if not entry.startswith("index"):
                continue
            base = os.path.join(_SYSFS_CACHE_DIR, entry)
            try:
                with open(os.path.join(base, "type")) as fh:
                    kind = fh.read().strip()
                if kind not in ("Data", "Unified"):
                    continue
                with open(os.path.join(base, "size")) as fh:
                    size = _parse_sysfs_size(fh.read())
            except OSError:
                continue
            if size:
                best = max(best, size)
    except OSError:
        pass
    if best:
        return best
    for name in ("SC_LEVEL4_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE",
                 "SC_LEVEL2_CACHE_SIZE"):
        try:
            size = os.sysconf(name)
        except (ValueError, OSError, AttributeError):
            continue
        if size and size > 0:
            return int(size)
    return FALLBACK_LLC_BYTES


@functools.lru_cache(maxsize=8)
def _budget_spec(llc_bytes: int, fit_fraction: float) -> HardwareSpec:
    """A minimal spec carrying just the cache budget the tuner consults.

    The throughput numbers are placeholders — block-size choice reads only
    ``llc_bytes * cache_fit_fraction`` through :class:`CacheModel`.
    """
    return HardwareSpec(
        name=f"tuner-llc-{llc_bytes >> 20}mb",
        peak_flops=1e12,
        elementwise_ops=5e11,
        dram_bandwidth=5e10,
        llc_bytes=llc_bytes,
        cache_fit_fraction=fit_fraction,
    )


def local_hardware_spec() -> HardwareSpec:
    """A :class:`HardwareSpec` describing this host's cache budget."""
    return _budget_spec(detect_local_llc_bytes(), 0.5)


def _budget_key(hw: Optional[HardwareSpec]) -> Tuple[int, float]:
    if hw is None:
        hw = local_hardware_spec()
    return (hw.llc_bytes, hw.cache_fit_fraction)


def _largest_resident(per_unit_bytes: int, limit: int,
                      budget: Tuple[int, float]) -> int:
    """Largest ``k`` in [1, limit] with ``k * per_unit_bytes`` resident.

    Asks the same :meth:`CacheModel.is_resident` predicate the simulator
    prices sweeps with, via binary search; floors at 1 when even a single
    unit exceeds the budget (the kernel still streams, just without the
    residency guarantee).
    """
    cache = CacheModel(_budget_spec(*budget))
    # The cache model sizes tensors from shape x dtype; express the byte
    # working set as fp32 words (rounded up, so never optimistic).
    words_per_unit = max(1, -(-per_unit_bytes // 4))

    def resident(k: int) -> bool:
        spec = TensorSpec("tuner.tile", (k, words_per_unit),
                          kind=TensorKind.FEATURE, dtype=np.float32)
        return cache.is_resident(spec)

    if resident(limit):
        return limit
    lo, hi = 1, limit  # resident(lo) may be False; we floor at 1 anyway
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if resident(mid):
            lo = mid
        else:
            hi = mid
    return lo


@functools.lru_cache(maxsize=1024)
def _choose_block_width(width: int, storage_itemsize: int, acc_itemsize: int,
                        budget: Tuple[int, float]) -> int:
    # Per element of the run: the two running sums and the squared-row
    # scratch at the accumulator width, plus the storage-width row
    # streaming through the cache alongside them.
    return _largest_resident(3 * acc_itemsize + storage_itemsize, width,
                             budget)


def choose_block_width(shape, storage_dtype, accumulate_dtype,
                       hw: Optional[HardwareSpec] = None) -> int:
    """Run length for the blocked statistics kernel's row stream.

    ``shape`` is the NCHW input; the chosen run is the longest stretch of
    one batch row (at most C*H*W elements) whose two running sums and
    squared-row scratch at the accumulator width, plus the storage-width
    row they are filled from, stay LLC-resident under *hw* (default: this
    host).
    """
    n, c, h, w = (int(d) for d in shape)
    return _choose_block_width(c * h * w, np.dtype(storage_dtype).itemsize,
                               np.dtype(accumulate_dtype).itemsize,
                               _budget_key(hw))


@functools.lru_cache(maxsize=1024)
def _choose_block_batch(shape: Tuple[int, int, int, int],
                        storage_itemsize: int, math_itemsize: int,
                        scratch_tensors: int, stream_tensors: int,
                        kernel: str, budget: Tuple[int, float]) -> int:
    n, c, h, w = shape
    per_row = c * h * w * (scratch_tensors * math_itemsize
                           + stream_tensors * storage_itemsize)
    return _largest_resident(per_row, n, budget)


def choose_block_batch(shape, storage_dtype, math_dtype,
                       kernel: str = "normalize",
                       hw: Optional[HardwareSpec] = None,
                       scratch_tensors: int = 1,
                       stream_tensors: int = 2) -> int:
    """Batch-slab height for the blocked elementwise transforms.

    The working set of one ``(bn, C, H, W)`` slab is ``scratch_tensors``
    math-dtype scratch buffers plus ``stream_tensors`` storage-dtype
    tensors (inputs + output) streaming through the cache with it.
    """
    n, c, h, w = (int(d) for d in shape)
    return _choose_block_batch(
        (n, c, h, w), np.dtype(storage_dtype).itemsize,
        np.dtype(math_dtype).itemsize, int(scratch_tensors),
        int(stream_tensors), kernel, _budget_key(hw),
    )


def clear_tuning_cache() -> None:
    """Drop memoized block choices (tests re-tune under synthetic specs)."""
    _choose_block_width.cache_clear()
    _choose_block_batch.cache_clear()
