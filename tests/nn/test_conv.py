"""Conv2d: forward against scipy, backward against numerical gradients,
and against the (C, K, K)-ordered lowering it replaced."""

import numpy as np
import pytest
from scipy import signal

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.graph.node import OpKind
from repro.models import densenet_graph
from repro.nn import Conv2d
from repro.nn.im2col import accumulate_windows
from repro.tensors.shapes import conv2d_output_hw

from tests.conftest import assert_same_bits, numerical_gradient, sample_indices


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


def im2col_ckk(x, kernel, stride, padding):
    """The earlier lowering: ``(N*OH*OW, C*K*K)``, columns in (C, K, K) order."""
    n = x.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * windows.shape[2] * windows.shape[3], -1)


def col2im_ckk(cols, x_shape, kernel, stride, padding):
    """The adjoint of :func:`im2col_ckk`, added in the ``np.add.at`` order."""
    n, c, h, w = x_shape
    oh, ow = conv2d_output_hw((h, w), kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    accumulate_windows(padded, patches, stride)
    return padded[:, :, padding : padding + h, padding : padding + w]


def workload_convs():
    """(C, OC, K, S, P, H, W) of each distinct conv in the DenseNet-BC
    miniature that ``perfbench/run.py --workload train-densenet`` trains."""
    graph = densenet_graph(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                           num_classes=10)
    shapes = set()
    for node in graph.nodes:
        if node.kind is OpKind.CONV:
            a = node.attrs
            h, w = graph.tensors[node.inputs[0]].shape[2:]
            shapes.add((a["in_channels"], a["out_channels"], a["kernel"], a["stride"],
                        a["padding"], h, w))
    return sorted(shapes)


class TestAgainstCKKLowering:
    """The (K, K, C) column order against the (C, K, K) one it replaced.

    The backward GEMMs reduce over OC and over N*OH*OW, which the column
    order only permutes, so ``dX`` and ``dW`` keep their bits. The forward
    GEMM reduces over a window's C*K*K products, whose summation order the
    column order sets; at K = 1 the two orders coincide. Any order of a
    length-n dot product lands within ``gamma_n * sum|a_i * b_i|`` of the
    exact value, ``gamma_n = n*u / (1 - n*u)`` with ``u = eps / 2`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.1). Two orders
    therefore differ by at most ``2 * gamma_n * sum|a_i * b_i|``, and
    ``2 * gamma_n < 2 * n * eps`` while ``n*u < 1/2``.
    """

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("c,oc,k,s,p,h,w", workload_convs())
    def test_workload_conv(self, c, oc, k, s, p, h, w, dtype):
        n = 32
        r = rng(c + 1000 * k)
        conv = Conv2d(c, oc, k, s, p, seed=c)
        conv.weight.data = conv.weight.data.astype(dtype)
        x = r.normal(size=(n, c, h, w)).astype(dtype)
        y = conv.forward(x)
        dy = r.normal(size=y.shape).astype(dtype)
        dx = conv.backward(dy)

        w2d = conv.weight.data.reshape(oc, -1)
        cols = im2col_ckk(x, k, s, p)
        y2d = y.transpose(0, 2, 3, 1).reshape(-1, oc)
        y2d_ref = cols @ w2d.T
        dy2d = dy.transpose(0, 2, 3, 1).reshape(-1, oc)
        assert_same_bits(dx, col2im_ckk(dy2d @ w2d, x.shape, k, s, p))
        assert_same_bits(conv.weight.grad, (dy2d.T @ cols).reshape(conv.weight.data.shape))
        if k == 1:
            assert_same_bits(y2d, y2d_ref)
        else:
            f64 = np.float64
            bound = (2 * c * k * k * np.finfo(dtype).eps
                     * (np.abs(cols.astype(f64)) @ np.abs(w2d.astype(f64)).T))
            assert np.all(np.abs(y2d.astype(f64) - y2d_ref.astype(f64)) <= bound)
