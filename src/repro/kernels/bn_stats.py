"""Mini-batch statistics kernels: two-pass reference vs one-pass MVF.

The paper's Mean/Variance Fusion (MVF) removes one of the two statistics
sweeps by using ``Var(X) = E(X^2) - E(X)^2``: sums of ``x`` and ``x^2`` are
accumulated together in a single pass over the mini-batch. Section 3.2 notes
this formulation is more exposed to floating-point cancellation but that
fp32 accumulation proved sufficient in practice.

Input precision is a first-class dimension of every kernel here, via an
explicit **accumulate-dtype contract**:

* inputs arrive at their *storage* precision — native fp16/fp32/fp64
  ndarrays, or bf16 emulated as fp32 ndarrays quantized through
  :func:`repro.kernels.bf16.bf16_round`;
* partial sums are held at ``accumulate_dtype``, which must be fp32 or
  wider (:class:`~repro.errors.PrecisionError` otherwise) — narrower
  accumulators are exactly the failure mode this layer exists to prevent —
  and never narrower than the storage dtype itself (fp64 data with a
  requested fp32 accumulator accumulates at fp64: wide storage is
  upcast-only, never truncated).
  Squares are formed **in the accumulator dtype**, never the input dtype:
  an fp16 value of 300 squares to 9e4, past fp16's 65504 max, so squaring
  before the upcast silently corrupts E(X^2) (a real bug this module
  shipped with; pinned by a regression test);
* returned statistics are never narrower than fp32 (``max(input, fp32)``),
  matching :class:`~repro.nn.batchnorm.BatchNorm2d`, which keeps stats and
  affine parameters wide and downcasts only final outputs.

Defaults: :func:`onepass_stats` and :func:`chunked_onepass_stats`
accumulate in fp64 (free on CPU SIMD units, and what a careful fp32 kernel
approximates with Kahan-style tricks), :func:`twopass_stats` in the input
dtype lifted to at least fp32, and :func:`onepass_stats_fp32` strictly in
fp32 — the paper's measured variant, kept so tests and
:mod:`repro.kernels.drift` can quantify the Section 3.2 precision claim
directly.

**Summation order.** Every per-channel sum of the training step —
these statistics, ``BatchNorm2d``'s two passes and its dgamma/dbeta, and
the fused kernels' and the executor's dgamma/dbeta — goes through
:func:`channel_sum`: the N batch rows are added in order into one C*H*W
vector, then each channel's contiguous H*W run is summed pairwise. numpy's
``x.sum(axis=(0, 2, 3))`` computes the same sums as N*C separate pairwise
reductions of H*W elements, which at the 4x4 and 8x8 maps of a DenseNet
block costs several elementwise passes. Both graphs of a comparison sum in
the same order. :func:`chunked_onepass_stats` keeps its per-chunk tree,
because it models the GPU kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import stat_dtype
from repro.errors import PrecisionError, ShapeError

__all__ = [
    "channel_sum", "twopass_stats", "onepass_stats", "onepass_stats_fp32",
    "chunked_onepass_stats", "resolve_accumulate_dtype", "stat_dtype",
]

#: Dtypes a statistics accumulator may use (fp32 or wider).
_DTypeLike = Optional[object]


def _check_nchw(x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"stats kernels expect NCHW, got {x.shape}")


def resolve_accumulate_dtype(
    accumulate_dtype: _DTypeLike,
    default: _DTypeLike = None,
    storage: _DTypeLike = None,
) -> Optional[np.dtype]:
    """Validate an ``accumulate_dtype`` argument (``None`` -> *default*).

    The contract: partial sums live at fp32 or wider. Anything narrower
    (or non-float) raises :class:`~repro.errors.PrecisionError` instead of
    silently reproducing the overflow/cancellation bugs the contract
    guards against. With *storage* given, the effective accumulator is
    additionally promoted to at least the storage dtype: an accumulator
    exists to hold partial sums of the data *without losing it*, so
    ``accumulate_dtype=fp32`` on fp64 data accumulates at fp64 — wide
    storage is upcast-only, never truncated through a narrow accumulator.
    Returns ``None`` only when both the argument and *default* are
    ``None`` (callers that keep a legacy native-dtype path).
    """
    if accumulate_dtype is None:
        if default is None:
            return None
        accumulate_dtype = default
    acc = np.dtype(accumulate_dtype)
    if acc.kind != "f" or acc.itemsize < 4:
        raise PrecisionError(
            f"accumulate_dtype must be a float dtype at least as wide as "
            f"fp32, got {acc.name}"
        )
    if storage is not None:
        acc = np.promote_types(acc, np.dtype(storage))
    return acc


def channel_sum(
    x: np.ndarray, accumulate_dtype: _DTypeLike = None
) -> np.ndarray:
    """Per-channel sum of an NCHW array over (N, H, W), batch rows first.

    ``x.sum(axis=0, dtype=acc)`` adds the N batch rows in order into one
    C*H*W vector, one long inner loop per row; ``reshape(C, -1).sum(axis=1)``
    then sums each channel's contiguous H*W run pairwise. (When a batch row
    holds a single element, numpy sums the N of them as one contiguous
    pairwise run instead.) ``accumulate_dtype`` follows the module contract:
    fp32 or wider, lifted to the storage dtype; ``None`` keeps numpy's
    default accumulator, the input dtype.
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    return _sum_channel_runs(x.sum(axis=0, dtype=acc), x.shape[1])


def _sum_channel_runs(rowsum: np.ndarray, channels: int) -> np.ndarray:
    """Second half of :func:`channel_sum`'s order: each channel's H*W run
    of the batch-summed C*H*W vector, summed pairwise. The blocked MVF
    kernel finishes through it too, which is what keeps it bitwise equal
    to :func:`onepass_stats`."""
    return rowsum.reshape(channels, -1).sum(axis=1)


def twopass_stats(
    x: np.ndarray, accumulate_dtype: _DTypeLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference statistics: one sweep for the mean, a second for variance.

    This is the baseline BN dataflow (Figure 5's I2 and I3 sweeps).
    Variance is the biased ``E((X-mean)^2)`` over (N, H, W) per channel.
    Accumulates in the input dtype lifted to at least fp32 by default, so
    fp16/bf16 inputs centre and square in fp32.
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype,
                                   default=stat_dtype(x.dtype),
                                   storage=x.dtype)
    out = stat_dtype(x.dtype)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = channel_sum(x, acc) / m
    centered = x.astype(acc, copy=False) - mean[None, :, None, None]
    np.multiply(centered, centered, out=centered)
    var = channel_sum(centered, acc) / m
    return mean.astype(out), var.astype(out)


def onepass_stats(
    x: np.ndarray, accumulate_dtype: _DTypeLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """MVF statistics: accumulate sum(x) and sum(x^2) in one sweep.

    ``Var(X) = E(X^2) - E(X)^2``, clamped at zero to absorb the tiny
    negative values cancellation can produce when a channel is
    near-constant. Accumulates in fp64 by default; pass
    ``accumulate_dtype=np.float32`` for the paper's measured variant
    (tensor-core semantics: narrow storage, fp32 partial sums).
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype, default=np.float64,
                                   storage=x.dtype)
    out = stat_dtype(x.dtype)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    # One copy at the accumulator width, squared in place once its sum is
    # taken. It is a copy even when x is already that wide, so the
    # caller's array is never squared.
    xa = x.astype(acc)
    s1 = channel_sum(xa, acc)
    s2 = channel_sum(np.multiply(xa, xa, out=xa), acc)
    mean = s1 / m
    var = np.maximum(s2 / m - mean * mean, acc.type(0.0))
    return mean.astype(out), var.astype(out)


# repro-lint: allow REPRO-K001 (strict-fp32 measured variant; width is fixed)
def onepass_stats_fp32(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """MVF with strict fp32 accumulation — the paper's measured variant.

    Used by precision tests and :mod:`repro.kernels.drift` to check the
    claim that single precision is "good enough for calculating E(X^2)" on
    realistic activations. Equivalent to
    ``onepass_stats(x, accumulate_dtype=np.float32)``: in particular the
    square is formed in fp32, *after* the upcast — squaring fp16 inputs at
    fp16 overflows at |x| > 255 and corrupted exactly the measurement this
    function exists to make. Storage wider than fp32 lifts the accumulator
    to the storage width (there is nothing "strictly fp32" to measure when
    the data itself is wider).
    """
    return onepass_stats(x, accumulate_dtype=np.float32)


def chunked_onepass_stats(
    x: np.ndarray, chunk: int = 8, accumulate_dtype: _DTypeLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """One-pass stats via per-chunk partial sums then a final reduction.

    Models the GPU implementation in Section 5: each thread block reduces
    its tile of the convolution output into partial ``(sum, sum_sq)`` pairs
    in shared memory, then an inter-block reduction produces mean/variance.
    Chunking over the batch dimension gives the same partial-reduction
    tree. Tiles are upcast to ``accumulate_dtype`` (default fp64) before
    squaring, mirroring :func:`onepass_stats`.
    """
    _check_nchw(x)
    if chunk <= 0:
        raise ShapeError(f"chunk must be positive, got {chunk}")
    acc = resolve_accumulate_dtype(accumulate_dtype, default=np.float64,
                                   storage=x.dtype)
    out = stat_dtype(x.dtype)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    s1 = np.zeros(x.shape[1], dtype=acc)
    s2 = np.zeros(x.shape[1], dtype=acc)
    for start in range(0, x.shape[0], chunk):
        tile = x[start : start + chunk].astype(acc, copy=False)
        s1 += tile.sum(axis=(0, 2, 3))
        s2 += (tile * tile).sum(axis=(0, 2, 3))
    mean = s1 / m
    var = np.maximum(s2 / m - mean * mean, acc.type(0.0))
    return mean.astype(out), var.astype(out)
