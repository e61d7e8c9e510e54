"""Property tests: the window backwards == an ``np.add.at`` scatter, bitwise.

``col2im``, ``AvgPool2d.backward`` and ``DepthwiseConv2d.backward_data``
add window patches back into a padded gradient with K*K strided-slice
passes (:func:`repro.nn.im2col.accumulate_windows`). Floating-point
addition is not associative, so those passes reproduce the index-grid
``np.add.at`` scatter they replaced only if every destination element
receives its contributions in the scatter's order. The property is
therefore bit equality of the results (compared as unsigned integers, so
``-0.0`` and ``0.0`` differ) against that scatter, kept here as the
reference, over kernels 1-7, strides 1-3 (including stride > kernel),
padding, ``ceil_mode`` and fp16/fp32/fp64 storage.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import rng
from repro.nn import AvgPool2d, DepthwiseConv2d
from repro.nn.im2col import col2im
from repro.tensors.shapes import conv2d_output_hw

from tests.conftest import assert_same_bits

DTYPES = (np.float16, np.float32, np.float64)


def add_at_windows(dst, patches, stride):
    """The reference: ``np.add.at`` over the full window index grid."""
    n, c, oh, ow, k, _ = patches.shape
    ky, kx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    rows = oy[..., None, None] * stride + ky  # (OH, OW, K, K)
    cols = ox[..., None, None] * stride + kx
    np.add.at(
        dst,
        (
            np.arange(n)[:, None, None, None, None, None],
            np.arange(c)[None, :, None, None, None, None],
            rows[None, None],
            cols[None, None],
        ),
        patches,
    )
    return dst


def sample(shape, dtype, seed):
    """Seeded normals with about a quarter of the entries set to -0.0."""
    r = rng(seed)
    a = r.normal(scale=4.0, size=shape)
    a[r.random(shape) < 0.25] = -0.0
    return a.astype(dtype)


@st.composite
def windows(draw):
    """(n, c, h, w, kernel, stride, padding, dtype, seed) whose windows fit."""
    k = draw(st.integers(1, 7))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, (k - 1) // 2 + 1))
    lo = max(1, k - 2 * p)
    h = draw(st.integers(lo, lo + 8))
    w = draw(st.integers(lo, lo + 8))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, k, s, p,
            draw(st.sampled_from(DTYPES)), draw(st.integers(0, 2**16)))


class TestWindowBackwardBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(case=windows())
    # col2im accumulates into a channels-last buffer when C >= OW and into
    # an NCHW one otherwise; pin both, and the DenseNet-BC stem.
    @example(case=(2, 8, 6, 6, 3, 1, 1, np.float32, 1))    # C=8 >= OW=6
    @example(case=(1, 4, 4, 4, 3, 1, 1, np.float16, 2))    # C = OW = 4
    @example(case=(2, 3, 32, 32, 7, 2, 3, np.float32, 3))  # stem: C=3 < OW=16
    @example(case=(1, 2, 9, 9, 2, 3, 0, np.float64, 4))    # C=2 < OW=3, S > K
    def test_col2im(self, case):
        n, c, h, w, k, s, p, dtype, seed = case
        oh, ow = conv2d_output_hw((h, w), k, s, p)
        cols = sample((n * oh * ow, c * k * k), dtype, seed)
        got = col2im(cols, (n, c, h, w), k, s, p)

        padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype)
        patches = cols.reshape(n, oh, ow, k, k, c).transpose(0, 5, 1, 2, 3, 4)
        add_at_windows(padded, patches, s)
        assert_same_bits(got, padded[:, :, p : p + h, p : p + w])

    @settings(max_examples=60, deadline=None)
    @given(case=windows(), ceil_mode=st.booleans())
    def test_avgpool_backward(self, case, ceil_mode):
        n, c, h, w, k, s, p, dtype, seed = case
        pool = AvgPool2d(k, stride=s, padding=p, ceil_mode=ceil_mode)
        y = pool(sample((n, c, h, w), dtype, seed))
        dy = sample(y.shape, dtype, seed + 1)
        got = pool.backward(dy)

        oh, ow = y.shape[2:]
        share = dy / (k * k)
        dxp = np.zeros((n, c, max(h + 2 * p, (oh - 1) * s + k),
                        max(w + 2 * p, (ow - 1) * s + k)), dtype)
        add_at_windows(dxp, np.broadcast_to(share[..., None, None], dy.shape + (k, k)), s)
        assert_same_bits(got, dxp[:, :, p : p + h, p : p + w])

    @settings(max_examples=60, deadline=None)
    @given(case=windows(), weight_dtype=st.sampled_from(DTYPES))
    def test_depthwise_backward_data(self, case, weight_dtype):
        n, c, h, w, k, s, p, dtype, seed = case
        conv = DepthwiseConv2d(c, k, stride=s, padding=p, seed=seed)
        conv.weight.data = conv.weight.data.astype(weight_dtype)
        y = conv(sample((n, c, h, w), dtype, seed))
        dy = sample(y.shape, dtype, seed + 1)
        got = conv.backward_data(dy)

        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype)
        add_at_windows(dxp, dy[..., None, None] * conv.weight.data[None, :, None, None], s)
        assert_same_bits(got, dxp[:, :, p : p + h, p : p + w])
