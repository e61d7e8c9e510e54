"""DepthwiseConv2d: values against per-channel dense conv, gradients."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.nn import Conv2d, DepthwiseConv2d

from tests.conftest import numerical_gradient, sample_indices


def dense_equivalent(dw: DepthwiseConv2d) -> Conv2d:
    """A dense conv with a block-diagonal kernel equal to the depthwise one."""
    c, k = dw.channels, dw.kernel
    conv = Conv2d(c, c, k, dw.stride, dw.padding, seed=0)
    conv.weight.data = np.zeros((c, c, k, k), dtype=np.float32)
    for i in range(c):
        conv.weight.data[i, i] = dw.weight.data[i]
    return conv


class TestForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_blockdiagonal_dense_conv(self, stride, padding):
        dw = DepthwiseConv2d(4, 3, stride=stride, padding=padding, seed=1)
        conv = dense_equivalent(dw)
        x = rng(0).normal(size=(2, 4, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(dw(x), conv(x), rtol=1e-5, atol=1e-6)

    def test_channels_are_independent(self):
        dw = DepthwiseConv2d(2, 3, padding=1, seed=2)
        x = rng(1).normal(size=(1, 2, 6, 6)).astype(np.float32)
        y0 = dw(x)
        x2 = x.copy()
        x2[:, 1] = 0  # zeroing channel 1 must not affect channel 0
        y1 = dw(x2)
        np.testing.assert_array_equal(y0[:, 0], y1[:, 0])

    def test_wrong_channels_raises(self):
        with pytest.raises(ShapeError):
            DepthwiseConv2d(4, 3)(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_flops_per_element_has_no_channel_term(self):
        assert DepthwiseConv2d(64, 3).flops_per_output_element == 18


class TestBackward:
    def test_matches_blockdiagonal_dense_conv(self):
        dw = DepthwiseConv2d(3, 3, stride=2, padding=1, seed=3)
        conv = dense_equivalent(dw)
        x = rng(2).normal(size=(2, 3, 9, 9)).astype(np.float32)
        y = dw(x)
        conv(x)
        dy = rng(3).normal(size=y.shape).astype(np.float32)
        dx_dw = dw.backward(dy)
        dx_dense = conv.backward(dy)
        np.testing.assert_allclose(dx_dw, dx_dense, rtol=1e-4, atol=1e-5)
        # Depthwise dW equals the diagonal blocks of the dense dW.
        for i in range(3):
            np.testing.assert_allclose(
                dw.weight.grad[i], conv.weight.grad[i, i], rtol=1e-4, atol=1e-4
            )

    def test_input_gradient_numerical(self):
        dw = DepthwiseConv2d(2, 3, padding=1, seed=4)
        dw.weight.data = dw.weight.data.astype(np.float64)
        x = rng(4).normal(size=(2, 2, 5, 5))
        y = dw(x)
        dx = dw.backward(np.ones_like(y))
        idxs = sample_indices(x.shape, 10, seed=6)
        num = numerical_gradient(lambda: dw.forward(x).sum(), x, idxs)
        for idx, g in num.items():
            assert dx[idx] == pytest.approx(g, rel=1e-5, abs=1e-8)

    def test_weight_gradient_numerical(self):
        dw = DepthwiseConv2d(2, 3, padding=1, seed=5)
        dw.weight.data = dw.weight.data.astype(np.float64)
        x = rng(5).normal(size=(2, 2, 5, 5))
        dw(x)
        dw.backward(np.ones((2, 2, 5, 5)))
        w = dw.weight.data
        idxs = sample_indices(w.shape, 8, seed=7)
        num = numerical_gradient(lambda: dw.forward(x).sum(), w, idxs)
        for idx, g in num.items():
            assert dw.weight.grad[idx] == pytest.approx(g, rel=1e-5, abs=1e-8)

    def test_prepare_backward_matches_forward_cache(self):
        x = rng(6).normal(size=(2, 3, 6, 6)).astype(np.float32)
        dy = rng(7).normal(size=(2, 3, 6, 6)).astype(np.float32)
        a = DepthwiseConv2d(3, 3, padding=1, seed=8)
        a.forward(x)
        dxa = a.backward(dy)
        b = DepthwiseConv2d(3, 3, padding=1, seed=8)
        b.prepare_backward(x)
        dxb = b.backward(dy)
        np.testing.assert_array_equal(dxa, dxb)
        np.testing.assert_array_equal(a.weight.grad, b.weight.grad)

    def test_backward_before_forward_raises(self):
        with pytest.raises(ExecutionError):
            DepthwiseConv2d(2, 3).backward(np.zeros((1, 2, 4, 4), dtype=np.float32))

    @pytest.mark.parametrize("prepare", [False, True])
    @pytest.mark.parametrize("dy_shape", [(2, 4, 6, 6), (1, 4, 8, 8)])
    def test_misshaped_dy_raises(self, prepare, dy_shape):
        dw = DepthwiseConv2d(4, 3, padding=1, seed=9)
        x = rng(8).normal(size=(2, 4, 8, 8)).astype(np.float32)
        if prepare:
            dw.prepare_backward(x)
        else:
            dw.forward(x)
        dy = np.zeros(dy_shape, dtype=np.float32)
        with pytest.raises(ShapeError):
            dw.backward_data(dy)
        with pytest.raises(ShapeError):
            dw.backward_weights(dy)
