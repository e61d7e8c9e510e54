"""Blocked streaming kernels: the functional hot path at cache speed.

The naive statistics and fused-transform kernels are numerically exact but
materialize full-tensor temporaries on every call (``x.astype(acc)``,
``xa * xa``, ``x_hat``, the ``(g/m)*(m*d - ...)`` chain) — precisely the
DRAM sweeps the paper's restructuring argument says a good kernel avoids.
The variants here traverse NCHW input in LLC-sized tiles chosen by
:mod:`repro.kernels.tune`, accumulate per-channel ``(sum, sum_sq)``
partials into preallocated accumulators, and run the elementwise chains
through reused scratch buffers with ``out=`` kwargs, so the only
full-tensor allocation is the caller-visible result.

**Bit-identity contract.** At any block size, block count or thread count,
every kernel here returns results *bit-identical* to its naive counterpart
on C-contiguous inputs (pinned by ``tests/properties/test_prop_blocked.py``).
That is not luck — it is engineered around how numpy associates multi-axis
reductions:

* ``x.sum(axis=(0, 2, 3))`` on a contiguous NCHW array with ``C > 1``
  reduces each ``(n, c)`` row with a pairwise tree over the contiguous
  ``H*W`` run, then accumulates those row sums *sequentially* over ``n``.
  The blocked kernels replicate exactly that: per channel tile, an upcast
  copy into contiguous scratch, ``tile.sum(axis=(2, 3))``, then an explicit
  sequential loop over the batch rows. Channel tiles are independent, so
  any partition over channels — and any thread assignment of tiles —
  yields the same bits.
* With ``C == 1`` the whole reduction is one contiguous run and numpy
  flattens it into a single pairwise tree; no row-then-batch schedule can
  match it, so single-tile calls simply delegate to the naive kernel
  (which is also the right call for speed: one tile spanning the tensor
  has no streaming win to offer).
* Elementwise chains are partition-invariant by construction; the tiled
  versions apply each ufunc in the naive op order at the naive
  intermediate dtype, so slab boundaries cannot change a single bit.

Thread parallelism (over channel tiles / batch slabs, each worker with its
own scratch from a small pool) is gated by the ``REPRO_KERNEL_THREADS``
environment knob, default 1 — and because the reduction order is
partition-invariant, turning it up changes wall time only.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import kernel_threads, stat_dtype
from repro.errors import ShapeError
from repro.kernels.bn_stats import (
    chunked_onepass_stats,
    onepass_stats,
    resolve_accumulate_dtype,
    twopass_stats,
)
from repro.kernels.tune import choose_block_batch, choose_block_channels

__all__ = [
    "blocked_onepass_stats",
    "blocked_twopass_stats",
    "blocked_chunked_onepass_stats",
    "blocked_affine_normalize",
    "blocked_normalize_apply",
    "blocked_bn_input_grad_transform",
]


def _check_nchw(x: np.ndarray, what: str = "blocked kernels") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{what} expect NCHW, got {x.shape}")


def _resolve_threads(threads: Optional[int]) -> int:
    return kernel_threads() if threads is None else max(1, int(threads))


def _resolve_block(block: Optional[int], chosen: int, limit: int) -> int:
    """Explicit block override (clamped to [1, limit]) or the tuned choice."""
    if block is None:
        return min(chosen, limit)
    if block < 1:
        raise ShapeError(f"block size must be positive, got {block}")
    return min(int(block), limit)


class _ScratchPool:
    """A fixed set of preallocated scratch buffers workers borrow from.

    Serial callers see one buffer reused across every tile; threaded
    callers see one per worker — either way no per-tile allocation. The
    pool holds one buffer per worker, so :meth:`get` always finds one, and
    ``list.pop``/``list.append`` are atomic under the GIL.
    """

    def __init__(self, count: int, alloc: Callable[[], object]):
        self._bufs = [alloc() for _ in range(max(1, count))]

    def get(self):
        return self._bufs.pop()

    def put(self, buf) -> None:
        self._bufs.append(buf)


def _run_tiles(tiles: Sequence, work: Callable[[object], None],
               threads: int) -> None:
    if threads <= 1 or len(tiles) <= 1:
        for tile in tiles:
            work(tile)
        return
    with ThreadPoolExecutor(max_workers=min(threads, len(tiles))) as ex:
        # list() drains the iterator so worker exceptions propagate here.
        list(ex.map(work, tiles))


def _channel_tiles(c: int, bc: int) -> List[Tuple[int, int]]:
    return [(c0, min(c0 + bc, c)) for c0 in range(0, c, bc)]


def _row_slabs(n: int, bn: int) -> List[Tuple[int, int]]:
    return [(n0, min(n0 + bn, n)) for n0 in range(0, n, bn)]


def _accumulate_rows(dst: np.ndarray, rows: np.ndarray, fresh: bool) -> None:
    """Sequential batch-row accumulation, matching numpy's axis-0 order.

    ``fresh`` assigns the first row instead of adding it to a zero init —
    numpy's direct reduce starts *from* the first row, and ``0.0 + (-0.0)``
    is ``+0.0``, so the distinction is a real (if one-bit) one.
    """
    start = 0
    if fresh:
        dst[...] = rows[0]
        start = 1
    for i in range(start, rows.shape[0]):
        dst += rows[i]


def _stats_partials(x: np.ndarray, acc: np.dtype, bc: int, threads: int,
                    s1: np.ndarray, s2: np.ndarray) -> None:
    """Accumulate per-channel sum / sum-of-squares through channel tiles."""
    n, c, h, w = x.shape
    tiles = _channel_tiles(c, bc)
    pool = _ScratchPool(min(threads, len(tiles)),
                        lambda: np.empty((n, bc, h, w), dtype=acc))

    def work(tile: Tuple[int, int]) -> None:
        c0, c1 = tile
        buf = pool.get()
        try:
            t = buf[:, : c1 - c0]
            t[...] = x[:, c0:c1]  # the one streaming read (exact upcast)
            _accumulate_rows(s1[c0:c1], t.sum(axis=(2, 3)), fresh=True)
            np.multiply(t, t, out=t)  # square in the accumulator dtype
            _accumulate_rows(s2[c0:c1], t.sum(axis=(2, 3)), fresh=True)
        finally:
            pool.put(buf)

    _run_tiles(tiles, work, threads)


def blocked_onepass_stats(
    x: np.ndarray,
    accumulate_dtype=None,
    block_channels: Optional[int] = None,
    threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """MVF statistics, streamed through LLC-resident channel tiles.

    Bit-identical to :func:`~repro.kernels.bn_stats.onepass_stats` for any
    ``block_channels``/``threads`` on C-contiguous input; ~the naive wall
    time divided by the number of full-tensor temporaries it no longer
    writes. Defaults: tuned block size, ``REPRO_KERNEL_THREADS`` workers.
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype, default=np.float64,
                                   storage=x.dtype)
    threads = _resolve_threads(threads)
    n, c, h, w = x.shape
    bc = _resolve_block(
        block_channels,
        choose_block_channels(x.shape, x.dtype, acc, kernel="onepass",
                              threads=threads),
        c,
    )
    if bc >= c:
        # Single tile: no streaming win, and for C == 1 numpy flattens the
        # whole reduce into one pairwise run no tiling can reproduce.
        return onepass_stats(x, accumulate_dtype=acc)
    out = stat_dtype(x.dtype)
    m = n * h * w
    s1 = np.empty(c, dtype=acc)
    s2 = np.empty(c, dtype=acc)
    _stats_partials(x, acc, bc, threads, s1, s2)
    mean = s1 / m
    # repro-lint: allow REPRO-ALLOC001 (per-channel vector, kilobytes)
    var = np.maximum(s2 / m - mean * mean, acc.type(0.0))
    return mean.astype(out), var.astype(out)


def blocked_twopass_stats(
    x: np.ndarray,
    accumulate_dtype=None,
    block_channels: Optional[int] = None,
    threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-pass statistics with a blocked, temporary-free variance pass.

    Pass 1 (the mean) is already temporary-free — ``x.mean`` allocates
    nothing tensor-sized — so it is shared verbatim with the naive kernel.
    Pass 2 streams ``(x - mean)^2`` through channel-tile scratch instead of
    materializing the full centered tensor and its square.
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype,
                                   default=stat_dtype(x.dtype),
                                   storage=x.dtype)
    threads = _resolve_threads(threads)
    n, c, h, w = x.shape
    out = stat_dtype(x.dtype)
    mean = x.mean(axis=(0, 2, 3), dtype=acc)
    bc = _resolve_block(
        block_channels,
        choose_block_channels(x.shape, x.dtype, acc, kernel="twopass",
                              threads=threads),
        c,
    )
    if bc >= c:
        centered = x.astype(acc, copy=False) - mean[None, :, None, None]
        var = (centered * centered).mean(axis=(0, 2, 3), dtype=acc)
        return mean.astype(out), var.astype(out)
    m = n * h * w
    s = np.empty(c, dtype=acc)
    tiles = _channel_tiles(c, bc)
    pool = _ScratchPool(min(threads, len(tiles)),
                        lambda: np.empty((n, bc, h, w), dtype=acc))
    mean4 = mean[None, :, None, None]

    def work(tile: Tuple[int, int]) -> None:
        c0, c1 = tile
        buf = pool.get()
        try:
            t = buf[:, : c1 - c0]
            t[...] = x[:, c0:c1]
            np.subtract(t, mean4[:, c0:c1], out=t)
            np.multiply(t, t, out=t)
            _accumulate_rows(s[c0:c1], t.sum(axis=(2, 3)), fresh=True)
        finally:
            pool.put(buf)

    _run_tiles(tiles, work, threads)
    var = s / m
    return mean.astype(out), var.astype(out)


def blocked_chunked_onepass_stats(
    x: np.ndarray,
    chunk: int = 8,
    accumulate_dtype=None,
    block_channels: Optional[int] = None,
    threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chunked one-pass statistics with channel-tiled, scratch-reusing tiles.

    Preserves :func:`~repro.kernels.bn_stats.chunked_onepass_stats`'s
    partial-reduction tree exactly (zero-initialized accumulators, one
    partial per batch chunk) while never allocating the per-chunk upcast
    temporaries — each (chunk x channel-tile) slab reuses pooled scratch.
    """
    _check_nchw(x)
    if chunk <= 0:
        raise ShapeError(f"chunk must be positive, got {chunk}")
    acc = resolve_accumulate_dtype(accumulate_dtype, default=np.float64,
                                   storage=x.dtype)
    threads = _resolve_threads(threads)
    n, c, h, w = x.shape
    rows = min(chunk, n)
    bc = _resolve_block(
        block_channels,
        choose_block_channels((rows, c, h, w), x.dtype, acc,
                              kernel="chunked", threads=threads),
        c,
    )
    if bc >= c:
        return chunked_onepass_stats(x, chunk=chunk, accumulate_dtype=acc)
    out = stat_dtype(x.dtype)
    m = n * h * w
    s1 = np.zeros(c, dtype=acc)
    s2 = np.zeros(c, dtype=acc)
    tiles = _channel_tiles(c, bc)
    pool = _ScratchPool(
        min(threads, len(tiles)),
        lambda: (np.empty((rows, bc, h, w), dtype=acc),
                 np.empty(bc, dtype=acc)),
    )

    def work(tile: Tuple[int, int]) -> None:
        c0, c1 = tile
        bufs = pool.get()
        try:
            buf, part = bufs
            width = c1 - c0
            for b0 in range(0, n, chunk):
                b1 = min(b0 + chunk, n)
                t = buf[: b1 - b0, :width]
                t[...] = x[b0:b1, c0:c1]
                # One partial per chunk, added to the running sum exactly
                # like the naive kernel's ``s += tile.sum(axis=(0, 2, 3))``.
                _accumulate_rows(part[:width], t.sum(axis=(2, 3)),
                                 fresh=True)
                s1[c0:c1] += part[:width]
                np.multiply(t, t, out=t)
                _accumulate_rows(part[:width], t.sum(axis=(2, 3)),
                                 fresh=True)
                s2[c0:c1] += part[:width]
        finally:
            pool.put(bufs)

    _run_tiles(tiles, work, threads)
    mean = s1 / m
    # repro-lint: allow REPRO-ALLOC001 (per-channel vector, kilobytes)
    var = np.maximum(s2 / m - mean * mean, acc.type(0.0))
    return mean.astype(out), var.astype(out)


# -- elementwise transforms ---------------------------------------------------

def _lift_vectors(*vectors: np.ndarray) -> List[np.ndarray]:
    """Lift per-channel vectors to their common dtype (exact upcasts)."""
    common = np.result_type(*(v.dtype for v in vectors))
    return [v.astype(common, copy=False) for v in vectors]


def _planes(shape: Tuple[int, ...], *vectors: np.ndarray) -> List[np.ndarray]:
    """Each per-channel vector expanded once to a contiguous (1, C, H, W)
    plane.

    A broadcast op between an (n, C, H, W) slab and a plane runs one
    C*H*W-long inner loop per row, where a (1, C, 1, 1) view makes it run
    n*C loops of H*W elements (16 or 64 at the DenseNet-BC miniature's
    maps). Every element sees the same operands either way, so the bits
    do not change.
    """
    plane = (1,) + tuple(shape[1:])
    return [np.ascontiguousarray(np.broadcast_to(v[None, :, None, None], plane))
            for v in vectors]


def _fill_op(src: np.ndarray, vec4: np.ndarray, t: np.ndarray,
             op: Callable) -> None:
    """``t = op(src, vec4)`` at ``t``'s dtype, matching the naive promotion.

    When the ufunc's natural result dtype already equals the scratch dtype
    the op streams straight from the source; otherwise the tile is upcast
    first (exact), reproducing the naive kernel's lift-then-operate order.
    """
    if np.result_type(src.dtype, vec4.dtype) == t.dtype:
        op(src, vec4, out=t)
    else:
        t[...] = src
        op(t, vec4, out=t)


def _check_out(out: Optional[np.ndarray], like: np.ndarray,
               what: str, dtype=None) -> np.ndarray:
    """*out*, checked against *like*'s shape and *dtype* (default
    ``like.dtype``), or a fresh buffer of that shape and dtype."""
    dtype = like.dtype if dtype is None else np.dtype(dtype)
    if out is None:
        # repro-lint: allow REPRO-ALLOC001 (caller-visible result buffer)
        return np.empty(like.shape, dtype=dtype)
    if out.shape != like.shape or out.dtype != dtype:
        raise ShapeError(
            f"{what}: out must be {dtype} {like.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


# repro-lint: allow REPRO-K001 (consumes precomputed inv_std; no reduction)
def blocked_normalize_apply(
    x: np.ndarray,
    mean: np.ndarray,
    inv_std: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    relu: bool = False,
    out: Optional[np.ndarray] = None,
    return_x_hat: bool = False,
    block_batch: Optional[int] = None,
    threads: Optional[int] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """``gamma * (x - mean) * inv_std + beta`` streamed through batch slabs.

    The sub-BN2 affine with precomputed ``inv_std`` (what
    :class:`~repro.nn.batchnorm.BatchNorm2d` caches for backward); the
    result is downcast to ``x``'s storage dtype slab by slab, with the
    optional ReLU applied *after* the downcast — the exact op order of the
    naive normalize, so outputs are bit-identical at every block size.
    When the storage dtype is the math dtype the affine runs in ``out``
    itself, with no scratch and no copy.

    With ``return_x_hat`` the result is ``(out, x_hat)``: the normalized
    input ``(x - mean) * inv_std`` at the math dtype, in a caller-visible
    buffer instead of slab scratch (the fused backward reduces dgamma over
    it).
    """
    _check_nchw(x)
    threads = _resolve_threads(threads)
    mean, inv_std, gamma, beta = _lift_vectors(mean, inv_std, gamma, beta)
    math_dt = np.result_type(x.dtype, mean.dtype)
    n, c, h, w = x.shape
    out_arr = _check_out(out, x, "blocked_normalize_apply")
    x_hat = (_check_out(None, x, "blocked_normalize_apply", dtype=math_dt)
             if return_x_hat else None)
    narrow = out_arr.dtype != math_dt
    bn = _resolve_block(
        block_batch,
        choose_block_batch(x.shape, x.dtype, math_dt, kernel="normalize",
                           threads=threads, scratch_tensors=1,
                           stream_tensors=2),
        n,
    )
    slabs = _row_slabs(n, bn)
    pool = _ScratchPool(min(threads, len(slabs)),
                        lambda: np.empty((bn, c, h, w), dtype=math_dt)
                        if narrow else None)
    m4, i4, g4, b4 = _planes(x.shape, mean, inv_std, gamma, beta)

    def work(slab: Tuple[int, int]) -> None:
        n0, n1 = slab
        buf = pool.get()
        try:
            o = out_arr[n0:n1]
            t = buf[: n1 - n0] if narrow else o
            xh = t if x_hat is None else x_hat[n0:n1]
            _fill_op(x[n0:n1], m4, xh, np.subtract)
            np.multiply(xh, i4, out=xh)
            np.multiply(xh, g4, out=t)
            np.add(t, b4, out=t)
            if narrow:
                o[...] = t  # downcast to storage, same rounding as astype
            if relu:
                np.maximum(o, 0, out=o)
        finally:
            pool.put(buf)

    _run_tiles(slabs, work, threads)
    return out_arr if x_hat is None else (out_arr, x_hat)


def blocked_affine_normalize(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    relu: bool = False,
    accumulate_dtype=None,
    out: Optional[np.ndarray] = None,
    return_x_hat: bool = False,
    block_batch: Optional[int] = None,
    threads: Optional[int] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Streaming sub-BN2(+ReLU) forward from saved (mean, var).

    With ``accumulate_dtype`` set (fp32+), the per-channel vectors are
    lifted to the accumulator so sub-fp32 inputs normalize at fp32; the
    result is downcast to ``x``'s storage dtype either way. No full-width
    ``x_hat``/``bn_out`` temporaries are made unless ``return_x_hat``
    asks for ``x_hat`` back (see :func:`blocked_normalize_apply`).
    """
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    if acc is not None:
        mean = mean.astype(acc, copy=False)
        var = var.astype(acc, copy=False)
        gamma = gamma.astype(acc, copy=False)
        beta = beta.astype(acc, copy=False)
    # repro-lint: allow REPRO-ALLOC001 (per-channel vector, kilobytes)
    inv_std = 1.0 / np.sqrt(var + eps)
    return blocked_normalize_apply(
        x, mean, inv_std, gamma, beta, relu=relu, out=out,
        return_x_hat=return_x_hat, block_batch=block_batch, threads=threads,
    )


def blocked_bn_input_grad_transform(
    d_bn_out: np.ndarray,
    bn_x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    dgamma: np.ndarray,
    dbeta: np.ndarray,
    eps: float,
    accumulate_dtype=None,
    out: Optional[np.ndarray] = None,
    block_batch: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """The sub-BN1' transform, streamed: no ``x_hat``/``m*dY`` temporaries.

    ``dX = (gamma * inv_std / M) * (M*dY - dbeta - x_hat * dgamma)`` with
    the same dtype semantics as
    :func:`~repro.kernels.conv_bn_fused.bn_input_grad_transform` (vectors
    lifted to the accumulator when set; output downcast to the gradient's
    storage dtype), applied slab-by-slab through two pooled scratch
    buffers, or one when the gradient's storage dtype is the math dtype:
    the chain then runs in the result itself.
    """
    _check_nchw(d_bn_out, "blocked_bn_input_grad_transform")
    if bn_x.shape != d_bn_out.shape:
        raise ShapeError(
            f"blocked_bn_input_grad_transform: bn_x shape {bn_x.shape} != "
            f"gradient shape {d_bn_out.shape}"
        )
    acc = resolve_accumulate_dtype(accumulate_dtype,
                                   storage=d_bn_out.dtype)
    threads = _resolve_threads(threads)
    if acc is not None:
        mean = mean.astype(acc, copy=False)
        var = var.astype(acc, copy=False)
        gamma = gamma.astype(acc, copy=False)
        dgamma = dgamma.astype(acc, copy=False)
        dbeta = dbeta.astype(acc, copy=False)
    mean, var, gamma, dgamma, dbeta = _lift_vectors(
        mean, var, gamma, dgamma, dbeta
    )
    # repro-lint: allow REPRO-ALLOC001 (per-channel vector, kilobytes)
    inv_std = 1.0 / np.sqrt(var + eps)
    n, c, h, w = d_bn_out.shape
    m = n * h * w
    # (g / m) as one resident vector; multiplication by the elementwise
    # chain is bitwise-commutative, so folding it keeps naive values.
    g_over_m = (gamma * inv_std) / m
    # The gradient is lifted to the accumulator before the m-scaling in the
    # naive kernel; with acc unset both operands keep their native dtype —
    # ``m`` is a python int, so ``m * d`` runs at the gradient's own width
    # and only the *product* is promoted by the subtract chain.
    d_dt = np.dtype(acc) if acc is not None else d_bn_out.dtype
    x_dt = np.dtype(acc) if acc is not None else bn_x.dtype
    math_dt = np.result_type(d_dt, x_dt, mean.dtype)
    narrow_scale = d_dt != math_dt
    out_arr = _check_out(out, d_bn_out, "blocked_bn_input_grad_transform")
    # Storage at the math width takes the whole chain in ``out`` itself.
    narrow = out_arr.dtype != math_dt
    bn = _resolve_block(
        block_batch,
        choose_block_batch(d_bn_out.shape, d_bn_out.dtype, math_dt,
                           kernel="input_grad", threads=threads,
                           scratch_tensors=2, stream_tensors=3),
        n,
    )
    slabs = _row_slabs(n, bn)
    pool = _ScratchPool(
        min(threads, len(slabs)),
        lambda: (np.empty((bn, c, h, w), dtype=math_dt),
                 np.empty((bn, c, h, w), dtype=math_dt) if narrow else None,
                 np.empty((bn, c, h, w), dtype=d_dt)
                 if narrow_scale else None),
    )
    m4, i4, dg4, db4, gm4 = _planes(d_bn_out.shape, mean, inv_std, dgamma,
                                    dbeta, g_over_m)

    def work(slab: Tuple[int, int]) -> None:
        n0, n1 = slab
        bufs = pool.get()
        try:
            rows = slice(n0, n1)
            o = out_arr[rows]
            t1 = bufs[0][: n1 - n0]
            t2 = bufs[1][: n1 - n0] if narrow else o
            _fill_op(bn_x[rows], m4, t1, np.subtract)
            np.multiply(t1, i4, out=t1)  # x_hat
            np.multiply(t1, dg4, out=t1)  # x_hat * dgamma
            if narrow_scale:
                # acc unset and dY narrower than the vector chain: the
                # naive kernel's ``m * dY`` runs at the gradient's own
                # width (python-int m does not promote) — reproduce the
                # narrow product, then let the chain lift it.
                tn = bufs[2][: n1 - n0]
                np.multiply(d_bn_out[rows], m, out=tn)
                t2[...] = tn
            elif d_bn_out.dtype == t2.dtype:
                np.multiply(d_bn_out[rows], m, out=t2)
            else:
                # acc set and storage narrower: lift first (exact), then
                # scale at the accumulator width like the naive kernel —
                # a python-int m would otherwise keep numpy on the narrow
                # loop even with a wide ``out=``.
                t2[...] = d_bn_out[rows]
                np.multiply(t2, m, out=t2)
            np.subtract(t2, db4, out=t2)
            np.subtract(t2, t1, out=t2)
            np.multiply(t2, gm4, out=t2)
            if narrow:
                o[...] = t2  # downcast to the gradient storage dtype
        finally:
            pool.put(bufs)

    _run_tiles(slabs, work, threads)
    return out_arr
