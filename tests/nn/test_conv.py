"""Conv2d: forward against scipy, backward against numerical gradients."""

import numpy as np
import pytest
from scipy import signal

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.nn import Conv2d

from tests.conftest import numerical_gradient, sample_indices


def scipy_conv2d(x, w, stride, padding):
    """Direct cross-correlation reference via scipy, for small cases."""
    n, cin, h, wdt = x.shape
    cout = w.shape[0]
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    y = np.zeros((n, cout, oh, ow))
    for i in range(n):
        for o in range(cout):
            acc = np.zeros((h + 2 * padding - k + 1, wdt + 2 * padding - k + 1))
            for c in range(cin):
                acc += signal.correlate2d(xp[i, c], w[o, c], mode="valid")
            y[i, o] = acc[::stride, ::stride]
    return y


class TestForward:
    @pytest.mark.parametrize("kernel,stride,padding", [
        (1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (7, 2, 3),
    ])
    def test_matches_scipy(self, kernel, stride, padding):
        r = rng(10 + kernel)
        conv = Conv2d(3, 4, kernel, stride, padding, seed=kernel)
        x = r.normal(size=(2, 3, 12, 12)).astype(np.float32)
        y = conv(x)
        ref = scipy_conv2d(x, conv.weight.data, stride, padding)
        np.testing.assert_allclose(y, ref, rtol=1e-4, atol=1e-5)

    def test_bias_added_per_channel(self):
        conv = Conv2d(1, 2, 1, bias=True, seed=0)
        conv.weight.data[:] = 0
        conv.bias.data[:] = [1.0, -2.0]
        y = conv(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert np.all(y[0, 0] == 1.0)
        assert np.all(y[0, 1] == -2.0)

    def test_wrong_channels_raises(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ShapeError):
            conv(np.zeros((1, 5, 8, 8), dtype=np.float32))

    def test_output_hw_helper(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1)
        assert conv.output_hw((56, 56)) == (28, 28)

    def test_flops_per_output_element(self):
        conv = Conv2d(16, 8, 3)
        assert conv.flops_per_output_element == 2 * 16 * 9


class TestBackward:
    def test_input_gradient_numerical(self):
        conv = Conv2d(2, 3, 3, stride=2, padding=1, seed=5)
        conv.weight.data = conv.weight.data.astype(np.float64)
        x = rng(3).normal(size=(2, 2, 7, 7))
        y = conv(x)
        dx = conv.backward(np.ones_like(y))
        idxs = sample_indices(x.shape, 12, seed=1)
        num = numerical_gradient(lambda: conv.forward(x).sum(), x, idxs)
        for idx, g in num.items():
            assert dx[idx] == pytest.approx(g, rel=1e-5, abs=1e-7)

    def test_weight_gradient_numerical(self):
        conv = Conv2d(2, 3, 3, padding=1, seed=6)
        conv.weight.data = conv.weight.data.astype(np.float64)
        x = rng(4).normal(size=(2, 2, 5, 5))
        conv(x)
        conv.backward(np.ones((2, 3, 5, 5)))
        w = conv.weight.data
        idxs = sample_indices(w.shape, 12, seed=2)
        num = numerical_gradient(lambda: conv.forward(x).sum(), w, idxs)
        for idx, g in num.items():
            assert conv.weight.grad[idx] == pytest.approx(g, rel=1e-5, abs=1e-7)

    def test_bias_gradient_is_dy_sum(self):
        conv = Conv2d(1, 2, 1, bias=True, seed=7)
        x = rng(5).normal(size=(2, 1, 4, 4)).astype(np.float32)
        y = conv(x)
        conv.backward(np.ones_like(y))
        np.testing.assert_allclose(conv.bias.grad, [32.0, 32.0])

    def test_gradients_accumulate_across_calls(self):
        conv = Conv2d(1, 1, 1, seed=8)
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        y = conv(x)
        conv.backward(np.ones_like(y))
        g1 = conv.weight.grad.copy()
        conv(x)
        conv.backward(np.ones_like(y))
        np.testing.assert_allclose(conv.weight.grad, 2 * g1)

    def test_backward_before_forward_raises(self):
        conv = Conv2d(1, 1, 1)
        with pytest.raises(ExecutionError):
            conv.backward(np.zeros((1, 1, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("prepare", [False, True])
    @pytest.mark.parametrize("dy_shape", [(2, 6, 4, 16), (1, 6, 8, 8), (2, 5, 8, 8)])
    def test_misshaped_dy_raises(self, prepare, dy_shape):
        # (2, 6, 4, 16) has the output's element count, which col2im alone
        # cannot tell apart from (2, 6, 8, 8).
        conv = Conv2d(4, 6, 3, padding=1, seed=1)
        x = rng(7).normal(size=(2, 4, 8, 8)).astype(np.float32)
        if prepare:
            conv.prepare_backward(x)
        else:
            conv.forward(x)
        dy = np.zeros(dy_shape, dtype=np.float32)
        with pytest.raises(ShapeError):
            conv.backward_data(dy)
        with pytest.raises(ShapeError):
            conv.backward_weights(dy)

    def test_prepare_backward_equals_forward_cache(self):
        """prepare_backward must leave the same caches forward would."""
        r = rng(6)
        x = r.normal(size=(2, 3, 6, 6)).astype(np.float32)
        dy = r.normal(size=(2, 4, 6, 6)).astype(np.float32)

        a = Conv2d(3, 4, 3, padding=1, seed=9)
        a.forward(x)
        dxa = a.backward(dy)

        b = Conv2d(3, 4, 3, padding=1, seed=9)
        b.prepare_backward(x)
        dxb = b.backward(dy)

        np.testing.assert_array_equal(dxa, dxb)
        np.testing.assert_array_equal(a.weight.grad, b.weight.grad)
