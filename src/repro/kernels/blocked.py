"""Blocked streaming kernels: the functional hot path at cache speed.

The naive statistics and fused-transform kernels are numerically exact but
materialize full-tensor temporaries on every call (``x.astype(acc)``,
``x_hat``, the ``(g/m)*(m*d - ...)`` chain) — precisely the DRAM sweeps
the paper's restructuring argument says a good kernel avoids. The variants
here stream NCHW input through scratch sized by :mod:`repro.kernels.tune`
— one batch row at a time for the statistics, slabs of batch rows for the
elementwise transforms — and run each chain with ``out=`` kwargs into
buffers allocated once per call, so the only full-tensor allocation is the
caller-visible result.

**Bit-identity contract.** At any block size, every kernel here returns
results *bit-identical* to its naive counterpart (pinned by
``tests/properties/test_prop_blocked.py``), by construction:

* :func:`~repro.kernels.bn_stats.channel_sum`, which the naive statistics
  sum through, first adds the N batch rows in order into one C*H*W vector,
  then sums each channel's H*W run. :func:`blocked_onepass_stats` adds the
  same upcast rows in the same order into running C*H*W sums of x and
  x^2, and finishes through the same per-channel reduction
  (``bn_stats._sum_channel_runs``, one function for both). Cutting a row
  into chunks changes nothing: every element still meets the batch in
  order. The first row is assigned rather than added to a zero init
  (``0.0 + -0.0`` is ``+0.0``), so an all-(-0.0) channel's sign is left
  to that final reduction, the same call in both kernels.
* Elementwise chains are partition-invariant by construction; the slab
  versions apply each ufunc in the naive op order at the naive
  intermediate dtype, so slab boundaries cannot change a single bit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.config import stat_dtype
from repro.errors import ShapeError
from repro.kernels.bn_stats import (
    _sum_channel_runs,
    onepass_stats,
    resolve_accumulate_dtype,
)
from repro.kernels.tune import choose_block_batch, choose_block_width

__all__ = [
    "blocked_onepass_stats",
    "blocked_affine_normalize",
    "blocked_normalize_apply",
    "blocked_bn_input_grad_transform",
]


def _check_nchw(x: np.ndarray, what: str = "blocked kernels") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{what} expect NCHW, got {x.shape}")


def _resolve_block(block: Optional[int], chosen: int, limit: int) -> int:
    """Explicit block override (clamped to [1, limit]) or the tuned choice."""
    if block is None:
        return min(chosen, limit)
    if block < 1:
        raise ShapeError(f"block size must be positive, got {block}")
    return min(int(block), limit)


def _row_slabs(n: int, bn: int) -> List[Tuple[int, int]]:
    return [(n0, min(n0 + bn, n)) for n0 in range(0, n, bn)]


def blocked_onepass_stats(
    x: np.ndarray,
    accumulate_dtype=None,
    block_width: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """MVF statistics, streamed one batch row at a time.

    Bit-identical to :func:`~repro.kernels.bn_stats.onepass_stats`, which
    sums a full upcast copy of ``x`` and then its square. Here each row is
    upcast into one scratch vector, added to the running sum of x, squared
    in place and added to the running sum of x^2. ``block_width`` cuts each
    row into runs of that many elements (default: the longest run whose
    three accumulator-width vectors the tuner keeps cache-resident).
    """
    _check_nchw(x)
    acc = resolve_accumulate_dtype(accumulate_dtype, default=np.float64,
                                   storage=x.dtype)
    n, c, h, w = x.shape
    width = c * h * w
    if width == 1:
        # numpy sums one-element rows as one pairwise run over the batch,
        # which no row stream reproduces (and there is nothing to stream).
        return onepass_stats(x, accumulate_dtype=acc)
    rows = x.reshape(n, width)
    bw = _resolve_block(block_width,
                        choose_block_width(x.shape, x.dtype, acc), width)
    s1 = np.empty(width, dtype=acc)
    s2 = np.empty(width, dtype=acc)
    buf = np.empty(bw, dtype=acc)
    for j0 in range(0, width, bw):
        j1 = min(j0 + bw, width)
        a1, a2, t = s1[j0:j1], s2[j0:j1], buf[: j1 - j0]
        a1[...] = rows[0, j0:j1]  # exact upcast
        np.multiply(a1, a1, out=a2)
        for i in range(1, n):
            # Upcast first: one same-dtype loop per op beats numpy's
            # mixed-dtype ones, and the values are the same.
            t[...] = rows[i, j0:j1]
            np.add(a1, t, out=a1)
            np.multiply(t, t, out=t)
            np.add(a2, t, out=a2)
    out = stat_dtype(x.dtype)
    m = n * h * w
    mean = _sum_channel_runs(s1, c) / m
    # repro-lint: allow REPRO-ALLOC001 (per-channel vector, kilobytes)
    var = np.maximum(_sum_channel_runs(s2, c) / m - mean * mean,
                     acc.type(0.0))
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
    do not change. Each plane is one allocation and one broadcast
    assignment.
    """
    plane = (1,) + tuple(shape[1:])
    planes = []
    for v in vectors:
        p = np.empty(plane, dtype=v.dtype)
        p[...] = v[None, :, None, None]
        planes.append(p)
    return planes


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
                           scratch_tensors=1, stream_tensors=2),
        n,
    )
    buf = np.empty((bn, c, h, w), dtype=math_dt) if narrow else None
    m4, i4, g4, b4 = _planes(x.shape, mean, inv_std, gamma, beta)
    for n0, n1 in _row_slabs(n, bn):
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
        return_x_hat=return_x_hat, block_batch=block_batch,
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
) -> np.ndarray:
    """The sub-BN1' transform, streamed: no ``x_hat``/``m*dY`` temporaries.

    ``dX = (gamma * inv_std / M) * (M*dY - dbeta - x_hat * dgamma)`` with
    the same dtype semantics as
    :func:`~repro.kernels.conv_bn_fused.bn_input_grad_transform` (vectors
    lifted to the accumulator when set; output downcast to the gradient's
    storage dtype), applied slab-by-slab through two scratch buffers, or
    one when the gradient's storage dtype is the math dtype:
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
                           kernel="input_grad", scratch_tensors=2,
                           stream_tensors=3),
        n,
    )
    t1_buf = np.empty((bn, c, h, w), dtype=math_dt)
    t2_buf = np.empty((bn, c, h, w), dtype=math_dt) if narrow else None
    tn_buf = np.empty((bn, c, h, w), dtype=d_dt) if narrow_scale else None
    m4, i4, dg4, db4, gm4 = _planes(d_bn_out.shape, mean, inv_std, dgamma,
                                    dbeta, g_over_m)
    for n0, n1 in _row_slabs(n, bn):
        rows = slice(n0, n1)
        o = out_arr[rows]
        t1 = t1_buf[: n1 - n0]
        t2 = t2_buf[: n1 - n0] if narrow else o
        _fill_op(bn_x[rows], m4, t1, np.subtract)
        np.multiply(t1, i4, out=t1)  # x_hat
        np.multiply(t1, dg4, out=t1)  # x_hat * dgamma
        if narrow_scale:
            # acc unset and dY narrower than the vector chain: the naive
            # kernel's ``m * dY`` runs at the gradient's own width
            # (python-int m does not promote) — reproduce the narrow
            # product, then let the chain lift it.
            tn = tn_buf[: n1 - n0]
            np.multiply(d_bn_out[rows], m, out=tn)
            t2[...] = tn
        elif d_bn_out.dtype == t2.dtype:
            np.multiply(d_bn_out[rows], m, out=t2)
        else:
            # acc set and storage narrower: lift first (exact), then scale
            # at the accumulator width like the naive kernel — a python-int
            # m would otherwise keep numpy on the narrow loop even with a
            # wide ``out=``.
            t2[...] = d_bn_out[rows]
            np.multiply(t2, m, out=t2)
        np.subtract(t2, db4, out=t2)
        np.subtract(t2, t1, out=t2)
        np.multiply(t2, gm4, out=t2)
        if narrow:
            o[...] = t2  # downcast to the gradient storage dtype
    return out_arr
