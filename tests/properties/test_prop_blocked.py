"""Property tests: blocked streaming kernels == naive kernels, bitwise.

The blocked kernels' entire value proposition is "same bits, less memory
traffic" — so the property under test is *bit* equality (``array_equal``,
not ``allclose``) against the naive kernels, across arbitrary shapes and
block sizes (1, mid, larger than the axis). fp16 storage goes through the
same bitwise check — the row stream adds the batch rows in the order
``channel_sum`` does at any width — and additionally gets an accuracy
bound against an fp64 reference, pinning that streaming never *adds*
drift.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels.blocked import (
    blocked_bn_input_grad_transform,
    blocked_normalize_apply,
    blocked_onepass_stats,
)
from repro.kernels.bf16 import bf16_round
from repro.kernels.bn_stats import onepass_stats, twopass_stats

STORAGE_DTYPES = (np.float32, np.float64, np.float16)


def nchw_arrays(max_n=5, max_c=7, max_hw=6):
    """Strategy: NCHW fp32 arrays, bounded values (no NaN/inf)."""
    elements = st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False, width=32
    )
    shapes = st.tuples(
        st.integers(2, max_n), st.integers(1, max_c),
        st.integers(2, max_hw), st.integers(2, max_hw),
    )
    return shapes.flatmap(
        lambda s: st.builds(
            lambda flat: np.array(flat, dtype=np.float32).reshape(s),
            st.lists(elements, min_size=int(np.prod(s)),
                     max_size=int(np.prod(s))),
        )
    )


blocks = st.integers(1, 10)  # deliberately exceeds max_n: block > N legal
#: Row-run lengths: 1, mid-row, and past the longest row (7*6*6 elements).
widths = st.integers(1, 300)
storage = st.sampled_from(STORAGE_DTYPES)
accumulators = st.sampled_from([None, np.float64, np.float32])


def _cast(x, dtype):
    return x.astype(dtype, copy=False)


class TestBlockedStatsBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(x=nchw_arrays(), bw=widths, sdt=storage, acc=accumulators)
    def test_onepass(self, x, bw, sdt, acc):
        x = _cast(x, sdt)
        if acc is not None and np.dtype(acc).itemsize < x.dtype.itemsize:
            acc = None  # accumulator narrower than storage is rejected
        m_ref, v_ref = onepass_stats(x, accumulate_dtype=acc)
        m, v = blocked_onepass_stats(x, accumulate_dtype=acc, block_width=bw)
        assert np.array_equal(m_ref, m) and m_ref.dtype == m.dtype
        assert np.array_equal(v_ref, v) and v_ref.dtype == v.dtype

    @settings(max_examples=15, deadline=None)
    @given(x=nchw_arrays(), bw=widths)
    def test_negative_zero_channels(self, x, bw):
        """All-(-0.0) channels must keep their sign through the stream."""
        x[:, 0] = -0.0
        m_ref, _ = onepass_stats(x)
        m, _ = blocked_onepass_stats(x, block_width=bw)
        assert np.array_equal(np.signbit(m_ref), np.signbit(m))
        assert np.array_equal(m_ref, m)


class TestBlockedElementwiseBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(x=nchw_arrays(), bb=blocks, sdt=storage, relu=st.booleans())
    def test_normalize_apply(self, x, bb, sdt, relu):
        x = _cast(x, sdt)
        c = x.shape[1]
        mean, var = twopass_stats(x)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        gamma = np.linspace(0.5, 1.5, c).astype(np.float32)
        beta = np.linspace(-0.5, 0.5, c).astype(np.float32)
        # Reference: the historical BatchNorm2d.normalize expression.
        x_hat = (x - mean[None, :, None, None]) \
            * inv_std[None, :, None, None]
        y_ref = (gamma[None, :, None, None] * x_hat
                 + beta[None, :, None, None]).astype(x.dtype)
        if relu:
            y_ref = np.maximum(y_ref, 0)
        y = blocked_normalize_apply(x, mean, inv_std, gamma, beta,
                                    relu=relu, block_batch=bb)
        assert y.dtype == x.dtype
        assert np.array_equal(y_ref, y)

    @settings(max_examples=40, deadline=None)
    @given(x=nchw_arrays(), bb=blocks, sdt=storage, acc=accumulators)
    def test_input_grad_transform(self, x, bb, sdt, acc):
        x = _cast(x, sdt)
        if acc is not None and np.dtype(acc).itemsize < x.dtype.itemsize:
            acc = None
        c = x.shape[1]
        d = (0.1 * x + 0.01).astype(sdt)
        mean, var = twopass_stats(x)
        gamma = np.linspace(0.5, 1.5, c).astype(np.float32)
        dgamma = np.linspace(-1.0, 1.0, c).astype(np.float32)
        dbeta = np.linspace(1.0, -1.0, c).astype(np.float32)
        # Reference: the naive sub-BN1' expression (the production kernel
        # now delegates to the blocked one, so the foil lives here).
        mr, vr, gr, dgr, dbr, dr, xr = mean, var, gamma, dgamma, dbeta, d, x
        if acc is not None:
            a = np.dtype(acc)
            mr, vr, gr, dgr, dbr = (t.astype(a) for t in
                                    (mean, var, gamma, dgamma, dbeta))
            dr = d.astype(a)
            xr = x.astype(a)
        inv_std = 1.0 / np.sqrt(vr + 1e-5)
        m = x.shape[0] * x.shape[2] * x.shape[3]
        x_hat = (xr - mr[None, :, None, None]) \
            * inv_std[None, :, None, None]
        g = (gr * inv_std)[None, :, None, None]
        ref = ((g / m) * (m * dr - dbr[None, :, None, None]
                          - x_hat * dgr[None, :, None, None])) \
            .astype(d.dtype)
        got = blocked_bn_input_grad_transform(
            d, x, mean, var, gamma, dgamma, dbeta, 1e-5,
            accumulate_dtype=acc, block_batch=bb,
        )
        assert got.dtype == d.dtype
        assert np.array_equal(ref, got)


class TestBlockedNarrowStorageAccuracy:
    """Streaming must not add drift: blocked narrow-storage stats stay as
    close to the fp64 truth as the naive kernels do (they are bitwise
    equal to them, so the bound is inherited — asserted directly here so
    a future divergence fails loudly with an accuracy number)."""

    @settings(max_examples=20, deadline=None)
    @given(x=nchw_arrays(), bw=widths, emu_bf16=st.booleans())
    def test_narrow_stats_track_fp64_reference(self, x, bw, emu_bf16):
        stored = bf16_round(x) if emu_bf16 else x.astype(np.float16)
        m64, v64 = twopass_stats(stored.astype(np.float64),
                                 accumulate_dtype=np.float64)
        m, v = blocked_onepass_stats(stored,
                                     accumulate_dtype=np.float32,
                                     block_width=bw)
        np.testing.assert_allclose(m, m64, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(v, v64, rtol=5e-3,
                                   atol=max(1e-3, 1e-3 * float(v64.max())))
