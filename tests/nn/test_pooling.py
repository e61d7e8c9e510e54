"""Pooling layers: values, routing, gradients."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.nn import AvgPool2d, GlobalAvgPool2d, MaxPool2d

from tests.conftest import assert_same_bits, numerical_gradient, sample_indices
from tests.reference_kernels import maxpool_forward


class TestMaxPool:
    def test_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = MaxPool2d(2)(x)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_overlapping_stem_pool_shape(self):
        mp = MaxPool2d(3, stride=2, padding=1)
        x = rng(0).normal(size=(2, 4, 112, 112)).astype(np.float32)
        assert mp(x).shape == (2, 4, 56, 56)

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        mp = MaxPool2d(2)
        y = mp(x)
        dx = mp.backward(np.ones_like(y))
        expected = np.zeros((4, 4))
        for r, c in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[r, c] = 1.0
        np.testing.assert_array_equal(dx[0, 0], expected)

    def test_backward_accumulates_overlaps(self):
        # stride 1 windows overlap: a pixel can be argmax of several.
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        x[0, 0, 1, 1] = 10.0
        mp = MaxPool2d(2, stride=1)
        y = mp(x)
        dx = mp.backward(np.ones_like(y))
        assert dx[0, 0, 1, 1] == 4.0

    def test_numerical_gradient(self):
        mp = MaxPool2d(3, stride=2, padding=1)
        x = rng(1).normal(size=(2, 2, 7, 7))
        y = mp(x)
        dx = mp.backward(np.ones_like(y))
        idxs = sample_indices(x.shape, 10, seed=4)
        num = numerical_gradient(lambda: mp.forward(x).sum(), x, idxs, eps=1e-4)
        for idx, g in num.items():
            assert dx[idx] == pytest.approx(g, abs=1e-6)

    def test_backward_before_forward_raises(self):
        with pytest.raises(ExecutionError):
            MaxPool2d(2).backward(np.zeros((1, 1, 2, 2), dtype=np.float32))

    def test_non_nchw_raises(self):
        with pytest.raises(ShapeError):
            MaxPool2d(2)(np.zeros((4, 4), dtype=np.float32))

    @pytest.mark.parametrize("dy_shape", [(2, 4, 3, 3), (1, 4, 4, 4), (2, 4, 2, 8)])
    def test_misshaped_dy_raises(self, dy_shape):
        mp = MaxPool2d(2)
        mp(rng(7).normal(size=(2, 4, 8, 8)).astype(np.float32))
        with pytest.raises(ShapeError):
            mp.backward(np.zeros(dy_shape, dtype=np.float32))


def pool_input(kind, shape, dtype, seed):
    r = rng(seed)
    x = r.normal(size=shape)
    if kind == "relu":  # post-ReLU: ties at zero in most windows
        x = np.maximum(x, 0)
    elif kind == "nan":
        x[r.random(shape) < 0.05] = np.nan
    elif kind == "signed_zero":  # windows of +0/-0 ties, some negatives
        x = np.where(r.random(shape) < 0.5, 0.0, -0.0)
        neg = r.random(shape) < 0.2
        x[neg] = -np.abs(r.normal(size=shape))[neg]
    return x.astype(dtype)


class TestMaxPoolAgainstWindowAxis:
    """The offset-plane forward against max/argmax along the window axis.

    argmax, and so dX, match bit for bit. y matches bit for bit in fp16 and
    fp32; in fp64 the two forms can disagree on the sign of a zero maximum,
    so there y matches under == (NaN where the reference has NaN).
    """

    @pytest.mark.parametrize("kind", ["normal", "relu", "nan", "signed_zero"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("k,s,p,shape", [
        (3, 2, 1, (4, 5, 16, 16)),  # the miniature stem pool's geometry
        (2, 2, 0, (3, 4, 8, 8)),
        (3, 1, 1, (2, 3, 7, 7)),
        (3, 2, 0, (2, 3, 9, 9)),
    ])
    def test_matches_window_axis_reference(self, k, s, p, shape, dtype, kind):
        x = pool_input(kind, shape, dtype, seed=k + 10 * s + 100 * p)
        got, ref = MaxPool2d(k, s, p), MaxPool2d(k, s, p)
        y = got.forward(x)
        y_ref = maxpool_forward(ref, x)
        np.testing.assert_array_equal(got._argmax, ref._argmax)
        if dtype == np.float64:
            np.testing.assert_array_equal(y, y_ref)  # NaN matches NaN
        else:
            assert_same_bits(y, y_ref)
        dy = rng(5).normal(size=y.shape).astype(dtype)
        assert_same_bits(got.backward(dy), ref.backward(dy))

    def test_nan_routes_to_first_nan(self):
        x = np.array([1.0, np.nan, 5.0, np.nan], dtype=np.float32).reshape(1, 1, 2, 2)
        mp = MaxPool2d(2)
        assert np.isnan(mp(x)[0, 0, 0, 0])
        assert mp._argmax[0, 0, 0, 0] == 1


class TestAvgPool:
    def test_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = AvgPool2d(2)(x)
        np.testing.assert_allclose(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_backward_spreads_evenly(self):
        ap = AvgPool2d(2)
        x = rng(2).normal(size=(1, 1, 4, 4)).astype(np.float32)
        y = ap(x)
        dx = ap.backward(np.ones_like(y))
        np.testing.assert_allclose(dx, 0.25)

    def test_numerical_gradient(self):
        ap = AvgPool2d(2, stride=2)
        x = rng(3).normal(size=(2, 2, 6, 6))
        y = ap(x)
        dy = rng(4).normal(size=y.shape)
        dx = ap.backward(dy)
        idxs = sample_indices(x.shape, 8, seed=5)
        num = numerical_gradient(lambda: float((ap.forward(x) * dy).sum()), x, idxs,
                                 eps=1e-4)
        for idx, g in num.items():
            assert dx[idx] == pytest.approx(g, abs=1e-6)

    def test_ceil_mode_shape(self):
        ap = AvgPool2d(2, stride=2, ceil_mode=True)
        assert ap(np.zeros((1, 1, 7, 7), dtype=np.float32)).shape == (1, 1, 4, 4)

    @pytest.mark.parametrize("dy_shape", [(2, 4, 3, 3), (1, 4, 4, 4), (2, 4, 2, 8)])
    def test_misshaped_dy_raises(self, dy_shape):
        # (2, 4, 3, 3) windows fit inside the 8x8 gradient: only the shape
        # check can reject them.
        ap = AvgPool2d(2)
        ap(rng(7).normal(size=(2, 4, 8, 8)).astype(np.float32))
        with pytest.raises(ShapeError):
            ap.backward(np.zeros(dy_shape, dtype=np.float32))


class TestGlobalAvgPool:
    def test_values_and_shape(self):
        x = rng(5).normal(size=(2, 3, 5, 5)).astype(np.float32)
        y = GlobalAvgPool2d()(x)
        assert y.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(y[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-6)

    def test_backward(self):
        gap = GlobalAvgPool2d()
        x = rng(6).normal(size=(2, 3, 4, 4)).astype(np.float32)
        y = gap(x)
        dx = gap.backward(np.ones_like(y))
        np.testing.assert_allclose(dx, 1.0 / 16)

    @pytest.mark.parametrize("dy_shape", [(1, 3, 1, 1), (2, 3, 4, 4)])
    def test_misshaped_dy_raises(self, dy_shape):
        # Both shapes broadcast to the input's, so only the check stops them.
        gap = GlobalAvgPool2d()
        gap(rng(6).normal(size=(2, 3, 4, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            gap.backward(np.zeros(dy_shape, dtype=np.float32))
