"""Conv2d: forward against scipy, backward against numerical gradients,
against the (C, K, K)-ordered lowering it replaced, the direct 1x1 path
against the lowering, and the dY-lowering backward of stride-1 K > 1
convolutions against the lowering of X."""

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

from tests.conftest import (
    assert_same_bits,
    assert_within,
    gamma,
    numerical_gradient,
    sample_indices,
)
from tests.reference_kernels import lowered_convs, x_lowering_backward


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


def gemm_gamma(n, dtype):
    """``gamma_n`` for one numpy GEMM of inner length n in *dtype*.

    numpy multiplies float16 matrices without BLAS: it sums in float32 and
    rounds each result once, which stays within
    ``u16 + gamma_n(float32) * (1 + u16)`` where ``gamma_n(float16)`` would
    be unbounded for n >= 2048.
    """
    if np.dtype(dtype) == np.float16:
        u = np.finfo(np.float16).eps / 2
        return u + gamma(n, np.float32) * (1 + u)
    return gamma(n, dtype)


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

    The backward GEMMs of the lowering of X reduce over OC and over
    N*OH*OW, which the column order only permutes, so the 1x1 and strided
    (stem) ``dX`` and ``dW`` keep their bits. The forward GEMM reduces over
    a window's C*K*K products, whose summation order the column order sets;
    at K = 1 the two orders coincide. Any order of a length-n dot product
    lands within ``gamma_n * sum|a_i * b_i|`` of the exact value (see
    :func:`gamma`), so two orders differ by at most
    ``2 * gamma_n * sum|a_i * b_i|``, and ``2 * gamma_n < 2 * n * eps``
    while ``n*u < 1/2``. The stride-1 K = 3 convs lower dY instead of X
    (:class:`TestLoweredDy`), which sums dX's K*K*OC products and dW's
    products over N*H*W input pixels in other orders: those are held to the
    same bound with n = K*K*OC and n = N*max(H*W, OH*OW), the latter through
    :func:`gemm_gamma` because dW is one GEMM on both sides.
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
        dx_ref = col2im_ckk(dy2d @ w2d, x.shape, k, s, p)
        dw_ref = (dy2d.T @ cols).reshape(conv.weight.data.shape)
        if conv.lowers_dy:
            f64 = np.float64
            dy_abs, w_abs = np.abs(dy2d.astype(f64)), np.abs(w2d.astype(f64))
            dx_sum = col2im_ckk(dy_abs @ w_abs, x.shape, k, s, p)
            dw_sum = (dy_abs.T @ np.abs(cols.astype(f64))).reshape(dw_ref.shape)
            assert_within(dx, dx_ref, 2 * gamma(k * k * oc, dtype) * dx_sum)
            m = n * max(h * w, y.shape[2] * y.shape[3])
            assert_within(conv.weight.grad, dw_ref, 2 * gemm_gamma(m, dtype) * dw_sum)
        else:
            assert_same_bits(dx, dx_ref)
            assert_same_bits(conv.weight.grad, dw_ref)
        if k == 1:
            assert_same_bits(y2d, y2d_ref)
        else:
            f64 = np.float64
            bound = (2 * c * k * k * np.finfo(dtype).eps
                     * (np.abs(cols.astype(f64)) @ np.abs(w2d.astype(f64)).T))
            assert np.all(np.abs(y2d.astype(f64) - y2d_ref.astype(f64)) <= bound)


def workload_1x1():
    return [s for s in workload_convs() if s[2:5] == (1, 1, 0)]


class TestDirect1x1:
    """A 1x1, stride-1, unpadded conv multiplies its weight straight into
    NCHW instead of lowering: no im2col copy, no col2im, no transposes.

    Forward and dX then run GEMMs whose operands play other roles than in
    the lowered GEMMs (the pixel axis is the output's contiguous axis, not
    the channel axis), so their bits match the lowering only where the BLAS
    accumulates each dot product in the same order in both layouts. At the
    training miniature's shapes (batch 32) that holds, which keeps the
    training step bit-identical; elsewhere the difference stays within the
    dot-product rounding bound. dW is the same single GEMM as the lowered
    path, over the same channels-last copy of X, so it always matches.
    """

    def _pair(self, c, oc, dtype, bias, seed):
        a = Conv2d(c, oc, 1, bias=bias, seed=seed)
        b = Conv2d(c, oc, 1, bias=bias, seed=seed)
        for conv in (a, b):
            conv.weight.data = conv.weight.data.astype(dtype)
            if bias:
                conv.bias.data = rng(seed).normal(size=oc).astype(dtype)
        return a, b

    def _run(self, conv, x, dy):
        y = conv.forward(x)
        dx = conv.backward(dy)
        return y, dx

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("c,oc,k,s,p,h,w", workload_1x1())
    def test_workload_shapes_match_lowering_bitwise(self, c, oc, k, s, p, h, w, dtype, bias):
        r = rng(c + 7 * h)
        direct, lowered = self._pair(c, oc, dtype, bias, seed=c)
        x = r.normal(size=(32, c, h, w)).astype(dtype)
        dy = r.normal(size=(32, oc, h, w)).astype(dtype)
        assert direct.direct
        y, dx = self._run(direct, x, dy)
        with lowered_convs():
            y_ref, dx_ref = self._run(lowered, x, dy)
        assert_same_bits(y, y_ref)
        assert_same_bits(dx, dx_ref)
        assert_same_bits(direct.weight.grad, lowered.weight.grad)
        if bias:
            assert_same_bits(direct.bias.grad, lowered.bias.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,c,oc,h,w", [
        (1, 3, 5, 1, 1), (2, 24, 48, 4, 4), (8, 36, 40, 4, 4), (3, 300, 12, 4, 4),
        (4, 7, 9, 5, 3),
    ])
    def test_other_shapes_within_dot_product_bound(self, n, c, oc, h, w, dtype):
        r = rng(n + c)
        direct, lowered = self._pair(c, oc, dtype, False, seed=c)
        x = r.normal(size=(n, c, h, w)).astype(dtype)
        dy = r.normal(size=(n, oc, h, w)).astype(dtype)
        y, dx = self._run(direct, x, dy)
        with lowered_convs():
            y_ref, dx_ref = self._run(lowered, x, dy)
        assert_same_bits(direct.weight.grad, lowered.weight.grad)
        # Two summation orders of a length-k dot product differ by at most
        # 2*k*eps times the sum of |products| (see TestAgainstCKKLowering).
        f64, eps = np.float64, np.finfo(dtype).eps
        wa = np.abs(direct.weight.data.reshape(oc, c).astype(f64))
        y_bound = 2 * c * eps * np.einsum("oc,nchw->nohw", wa, np.abs(x.astype(f64)))
        dx_bound = 2 * oc * eps * np.einsum("oc,nohw->nchw", wa, np.abs(dy.astype(f64)))
        assert np.all(np.abs(y.astype(f64) - y_ref.astype(f64)) <= y_bound)
        assert np.all(np.abs(dx.astype(f64) - dx_ref.astype(f64)) <= dx_bound)

    def test_direct_path_never_lowers(self, monkeypatch):
        import repro.nn.conv as conv_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the direct 1x1 path must not lower")

        monkeypatch.setattr(conv_mod, "im2col", refuse)
        monkeypatch.setattr(conv_mod, "col2im", refuse)
        r = rng(11)
        conv = Conv2d(6, 4, 1, bias=True, seed=2)
        x = r.normal(size=(2, 6, 5, 5)).astype(np.float32)
        dy = r.normal(size=(2, 4, 5, 5)).astype(np.float32)
        conv.forward(x)
        conv.prepare_backward(x)
        conv.backward_weights(dy)
        assert conv.backward_data(dy).shape == x.shape

    @pytest.mark.parametrize("stride,padding", [(2, 0), (1, 1)])
    def test_strided_or_padded_1x1_still_lowers(self, monkeypatch, stride, padding):
        import repro.nn.conv as conv_mod

        calls = []

        def counted(name):
            real = getattr(conv_mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("im2col", "col2im"):
            monkeypatch.setattr(conv_mod, name, counted(name))
        conv = Conv2d(3, 4, 1, stride=stride, padding=padding, seed=3)
        assert not conv.direct
        x = rng(12).normal(size=(2, 3, 6, 6)).astype(np.float32)
        conv.prepare_backward(x)
        y = conv.forward(x)
        conv.backward_data(np.ones_like(y))
        assert calls == ["im2col", "im2col", "col2im"]

    def test_prepare_backward_keeps_a_reference(self):
        conv = Conv2d(3, 4, 1, seed=4)
        x = rng(13).normal(size=(2, 3, 4, 4)).astype(np.float32)
        conv.prepare_backward(x)
        assert conv._saved is x

    @pytest.mark.parametrize("dy_shape", [(2, 6, 4, 16), (1, 6, 8, 8), (2, 5, 8, 8)])
    def test_misshaped_dy_raises(self, dy_shape):
        conv = Conv2d(4, 6, 1, seed=1)
        conv.forward(rng(7).normal(size=(2, 4, 8, 8)).astype(np.float32))
        dy = np.zeros(dy_shape, dtype=np.float32)
        with pytest.raises(ShapeError):
            conv.backward_data(dy)
        with pytest.raises(ShapeError):
            conv.backward_weights(dy)


@pytest.fixture
def lowering_calls(monkeypatch):
    """``(name, first argument)`` of every ``im2col``/``col2im`` call
    ``repro.nn.conv`` makes, in order."""
    import repro.nn.conv as conv_mod

    calls = []

    def counted(name):
        real = getattr(conv_mod, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)
        return wrapper

    for name in ("im2col", "col2im"):
        monkeypatch.setattr(conv_mod, name, counted(name))
    return calls


class TestLoweredDy:
    """A stride-1 conv with K > 1 and padding p <= K - 1 backpropagates
    through ``D = im2col(dY, K, 1, K - 1 - p)``: ``dX = D @ W_flip`` and
    ``dW = D.T @ X``, with no ``col2im`` and no lowering of X.

    Both sum the products of the lowering of X
    (``tests/reference_kernels.py::x_lowering_backward``) in another order:
    each ``dX`` element sums K*K*OC products, and each ``dW`` element runs
    over N*H*W input pixels where the lowering of X runs over N*OH*OW
    output pixels (the extra terms are zeros). So each stays within
    ``2 * gamma_n * sum|a_i * b_i|`` of the reference (see
    :class:`TestAgainstCKKLowering`), with n = K*K*OC for ``dX`` and
    n = N*max(H*W, OH*OW) for ``dW``. ``db`` is the same sum as before and
    keeps its bits.
    """

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("k,p", [(k, p) for k in (2, 3, 5) for p in range(k)])
    def test_within_dot_product_bound_of_x_lowering(self, k, p, dtype, bias):
        n, c, oc, h, w = 3, 5, 4, 6, 9
        r = rng(10 * k + p)
        conv = Conv2d(c, oc, k, padding=p, bias=bias, seed=k)
        conv.weight.data = conv.weight.data.astype(dtype)
        assert conv.lowers_dy
        x = r.normal(size=(n, c, h, w)).astype(dtype)
        y = conv.forward(x)
        dy = r.normal(size=y.shape).astype(dtype)
        dx = conv.backward(dy)

        wt = conv.weight.data
        dx_ref, dw_ref, db_ref = x_lowering_backward(x, wt, dy, 1, p)
        dx_sum, dw_sum, _ = x_lowering_backward(
            *(np.abs(t.astype(np.float64)) for t in (x, wt, dy)), 1, p)
        assert dx.shape == x.shape and dx.dtype == dx_ref.dtype
        assert dx.flags.c_contiguous
        assert_within(dx, dx_ref, 2 * gamma(k * k * oc, dtype) * dx_sum)
        m = n * max(h * w, y.shape[2] * y.shape[3])
        assert_within(conv.weight.grad, dw_ref, 2 * gemm_gamma(m, dtype) * dw_sum)
        if bias:
            assert_same_bits(conv.bias.grad, db_ref.astype(conv.bias.data.dtype))

    def test_backward_lowers_dy_once_and_never_scatters(self, lowering_calls):
        r = rng(21)
        conv = Conv2d(4, 6, 3, padding=1, seed=5)
        x = r.normal(size=(2, 4, 5, 7)).astype(np.float32)
        dy = r.normal(size=(2, 6, 5, 7)).astype(np.float32)
        conv.prepare_backward(x)
        assert lowering_calls == []
        assert conv._saved is x
        conv.backward(dy)
        assert [(name, arg is dy) for name, arg in lowering_calls] == [("im2col", True)]

    def test_forward_keeps_the_input_not_its_columns(self, lowering_calls):
        conv = Conv2d(4, 6, 3, padding=1, seed=5)
        x = rng(22).normal(size=(2, 4, 5, 7)).astype(np.float32)
        conv.forward(x)
        assert conv._saved is x
        assert [(name, arg is x) for name, arg in lowering_calls] == [("im2col", True)]

    @pytest.mark.parametrize("stride,padding", [(2, 1), (1, 3)])
    def test_strided_or_wider_padded_conv_still_lowers_x(self, lowering_calls,
                                                         stride, padding):
        r = rng(23)
        conv = Conv2d(3, 4, 3, stride=stride, padding=padding, seed=3)
        assert not conv.lowers_dy
        x = r.normal(size=(2, 3, 6, 7)).astype(np.float32)
        conv.prepare_backward(x)
        y = conv.forward(x)
        dy = r.normal(size=y.shape).astype(np.float32)
        dx = conv.backward(dy)
        assert [name for name, _ in lowering_calls] == ["im2col", "im2col", "col2im"]
        dx_ref, dw_ref, _ = x_lowering_backward(x, conv.weight.data, dy, stride, padding)
        assert_same_bits(dx, dx_ref)
        assert_same_bits(conv.weight.grad, dw_ref.astype(conv.weight.data.dtype))

    def test_backward_data_reuses_the_lowering_of_the_same_dy_only(self, lowering_calls):
        r = rng(24)
        conv = Conv2d(4, 6, 3, padding=1, seed=5)
        x = r.normal(size=(2, 4, 5, 7)).astype(np.float32)
        dy, other = r.normal(size=(2, 2, 6, 5, 7)).astype(np.float32)
        conv.forward(x)
        dx_alone = conv.backward_data(dy)
        conv.backward_weights(other)
        assert_same_bits(conv.backward_data(dy), dx_alone)
        conv.backward_weights(dy)
        assert_same_bits(conv.backward_data(dy), dx_alone)
        lowered = [arg for name, arg in lowering_calls if name == "im2col"][1:]
        assert [a is dy for a in lowered] == [True, False, True, True]
