"""BatchNorm2d: statistics, normalization, gradients, staged sub-passes."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.kernels.bn_stats import channel_sum
from repro.nn import BatchNorm2d

from tests import reference_kernels
from tests.conftest import (
    assert_same_bits,
    assert_within,
    gamma,
    numerical_gradient,
    sample_indices,
)


class TestForward:
    def test_output_is_normalized(self):
        bn = BatchNorm2d(4)
        x = rng(0).normal(loc=3.0, scale=2.0, size=(16, 4, 8, 8)).astype(np.float32)
        y = bn(x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self):
        bn = BatchNorm2d(2)
        bn.gamma.data[:] = [2.0, 3.0]
        bn.beta.data[:] = [-1.0, 5.0]
        x = rng(1).normal(size=(8, 2, 4, 4)).astype(np.float32)
        y = bn(x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), [-1.0, 5.0], atol=1e-5)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), [2.0, 3.0], rtol=1e-2)

    def test_staged_passes_match_forward(self):
        """mean/var/normalize stages compose to the same output as forward."""
        bn1, bn2 = BatchNorm2d(3), BatchNorm2d(3)
        x = rng(2).normal(size=(4, 3, 5, 5)).astype(np.float32)
        y1 = bn1(x)
        mean = bn2.compute_mean(x)
        var = bn2.compute_var(x, mean)
        y2 = bn2.normalize(x, mean, var)
        np.testing.assert_allclose(y1, y2, rtol=1e-6, atol=1e-7)

    def test_running_stats_updated(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = rng(3).normal(loc=10.0, size=(8, 2, 4, 4)).astype(np.float32)
        bn(x)
        assert np.all(bn.running_mean > 4.0)  # pulled half-way toward ~10

    def test_inference_uses_running_stats(self):
        bn = BatchNorm2d(2, momentum=1.0)
        x = rng(4).normal(loc=5.0, size=(8, 2, 4, 4)).astype(np.float32)
        bn(x)  # running stats now equal batch stats
        bn.eval()
        y = bn(x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-2)

    def test_wrong_channels_raises(self):
        with pytest.raises(ShapeError):
            BatchNorm2d(3)(np.zeros((2, 4, 4, 4), dtype=np.float32))


class TestBackward:
    def test_input_gradient_numerical(self):
        bn = BatchNorm2d(2)
        bn.gamma.data = bn.gamma.data.astype(np.float64)
        bn.beta.data = bn.beta.data.astype(np.float64)
        x = rng(5).normal(size=(4, 2, 3, 3))
        dy = rng(6).normal(size=x.shape)

        bn(x)
        dx = bn.backward(dy)

        idxs = sample_indices(x.shape, 10, seed=3)
        num = numerical_gradient(lambda: float((bn.forward(x) * dy).sum()), x, idxs,
                                 eps=1e-5)
        for idx, g in num.items():
            assert dx[idx] == pytest.approx(g, rel=1e-3, abs=1e-6)

    def test_param_gradients(self):
        bn = BatchNorm2d(2)
        x = rng(7).normal(size=(4, 2, 3, 3)).astype(np.float32)
        dy = rng(8).normal(size=x.shape).astype(np.float32)
        y = bn(x)
        bn.backward(dy)
        # dbeta is the plain sum of dy per channel.
        np.testing.assert_allclose(bn.beta.grad, dy.sum(axis=(0, 2, 3)), rtol=1e-5)
        # dgamma is sum(dy * x_hat); with gamma=1, beta=0, x_hat == y.
        np.testing.assert_allclose(
            bn.gamma.grad, (dy * y).sum(axis=(0, 2, 3)), rtol=1e-3, atol=1e-3
        )

    def test_fp16_backward_no_overflow(self):
        """m * dY must not be formed at fp16: |dY| >= 65504/m overflows
        long before any realistic gradient magnitude, and dbeta must not
        accumulate thousands of fp16 terms in an fp16 accumulator."""
        bn = BatchNorm2d(2)
        x = rng(30).normal(size=(8, 2, 16, 16)).astype(np.float16)
        dy = np.full(x.shape, 40.0, dtype=np.float16)  # m*dy = 81920
        bn(x)
        dx = bn.backward(dy)
        assert dx.dtype == np.float16
        assert np.all(np.isfinite(dx))
        assert np.all(np.isfinite(bn.beta.grad))

    def test_staged_backward_matches(self):
        """param_grads + input_grad == backward."""
        bn1, bn2 = BatchNorm2d(3), BatchNorm2d(3)
        x = rng(9).normal(size=(4, 3, 4, 4)).astype(np.float32)
        dy = rng(10).normal(size=x.shape).astype(np.float32)
        bn1(x)
        dx1 = bn1.backward(dy)
        bn2(x)
        dgamma, dbeta = bn2.param_grads(dy)
        dx2 = bn2.input_grad(dy, dgamma, dbeta)
        np.testing.assert_allclose(dx1, dx2, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(bn1.gamma.grad, dgamma, rtol=1e-6)

    def test_gradient_sums_to_zero_per_channel(self):
        """BN input gradients sum to ~0 per channel (mean-subtraction)."""
        bn = BatchNorm2d(3)
        x = rng(11).normal(size=(6, 3, 4, 4)).astype(np.float32)
        dy = rng(12).normal(size=x.shape).astype(np.float32)
        bn(x)
        dx = bn.backward(dy)
        np.testing.assert_allclose(dx.sum(axis=(0, 2, 3)), 0.0, atol=1e-3)

    def test_backward_before_forward_raises(self):
        with pytest.raises(ExecutionError):
            BatchNorm2d(2).backward(np.zeros((1, 2, 2, 2), dtype=np.float32))

    def test_saved_stats_available_after_forward(self):
        bn = BatchNorm2d(2)
        x = rng(13).normal(size=(4, 2, 3, 3)).astype(np.float32)
        bn(x)
        mean, var = bn.saved_stats()
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), rtol=1e-5)


class TestBackwardBits:
    """``backward`` forms x_hat once, writes the dgamma product into it, and
    runs sub-BN1' on the blocked transform the restructured graph uses,
    with the accumulator at dY's statistics dtype. When dY has x's storage
    dtype both halves keep the bits of the expressions they replaced:
    dgamma/dbeta as ``channel_sum`` of ``dy * x_hat`` and ``dy``, dX as the
    unblocked chain (``tests/reference_kernels.py::batchnorm_input_grad``).
    A dY wider than x's statistics moves dX off those bits (see
    :meth:`test_gradient_wider_than_x_hat`)."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("native_gamma", [False, True])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_matches_unblocked_chain(self, dtype, native_gamma, seed):
        r = np.random.default_rng(seed)
        n, c, h, w = (int(v) for v in r.integers(1, 7, size=4))
        n += 1  # at least two batch rows
        bn = BatchNorm2d(c)
        gamma = r.normal(1.0, 0.5, c)
        bn.gamma.data = gamma.astype(dtype if native_gamma else np.float32)
        bn.beta.data = r.normal(0.0, 0.5, c).astype(bn.gamma.data.dtype)
        x = (r.normal(0.5, 2.0, (n, c, h, w))).astype(dtype)
        dy = r.normal(0.0, 1.0, x.shape).astype(dtype)
        bn(x)
        x_hat = (bn._x - bn._mean[None, :, None, None]) \
            * bn._inv_std[None, :, None, None]
        stat = bn._stat_dtype(dy)
        dgamma, dbeta = bn.param_grads(dy)
        assert_same_bits(dgamma, channel_sum(dy * x_hat, stat))
        assert_same_bits(dbeta, channel_sum(dy, stat))
        dx = bn.input_grad(dy, dgamma, dbeta)
        assert_same_bits(
            dx, reference_kernels.batchnorm_input_grad(bn, dy, dgamma, dbeta))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_gradient_wider_than_x_hat(self, dtype):
        """An fp64 dY on fp16 or fp32 data takes its dgamma product at fp64,
        not rounded into the fp32 x_hat, and runs sub-BN1' at fp64.

        The transform recomputes inv_std, x_hat and g/m = gamma*inv_std/m
        at fp64 from the saved fp32 mean and var, where the unblocked chain
        used the fp32 ``_inv_std`` the forward cached. That chain's inv_std
        carries three fp32 roundings (eps and ``var + eps``, sqrt,
        reciprocal), so its x_hat and g/m carry five each, and its
        ``x_hat * dgamma`` term ten; its fp64 steps add four more at fp64.
        The fp64 transform carries at most thirteen fp64 roundings on any
        term. With S = m|dY| + |dbeta| + |x_hat * dgamma|, the two dX differ
        by at most ``(gamma_10(fp32) + gamma_20(fp64)) * |g/m| * S``, and dX
        lies within ``gamma_30(fp64) * |g/m| * S`` of the same chain
        evaluated at fp64 here, which an fp32 step would break.
        """
        r = np.random.default_rng(3)
        bn = BatchNorm2d(4)
        bn.gamma.data = r.normal(1.0, 0.5, 4).astype(np.float32)
        x = r.normal(0.5, 2.0, (3, 4, 5, 5)).astype(dtype)
        dy = r.normal(0.0, 1.0, x.shape)
        bn(x)
        x_hat = (bn._x - bn._mean[None, :, None, None]) \
            * bn._inv_std[None, :, None, None]
        dgamma, dbeta = bn.param_grads(dy)
        assert_same_bits(dgamma, channel_sum(dy * x_hat, np.float64))
        assert_same_bits(dbeta, channel_sum(dy, np.float64))

        dx = bn.input_grad(dy, dgamma, dbeta)
        ref = reference_kernels.batchnorm_input_grad(bn, dy, dgamma, dbeta)
        assert dx.dtype == ref.dtype == np.float64
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        inv_std = 1.0 / np.sqrt(bn._var.astype(np.float64) + bn.eps)
        exact_x_hat = (bn._x.astype(np.float64) - bn._mean[None, :, None, None]) \
            * inv_std[None, :, None, None]
        g_over_m = (bn.gamma.data * inv_std / m)[None, :, None, None]
        terms = (m * dy, dbeta[None, :, None, None],
                 exact_x_hat * dgamma[None, :, None, None])
        scale = np.abs(g_over_m) * sum(np.abs(t) for t in terms)
        assert_within(dx, ref,
                      (gamma(10, np.float32) + gamma(20, np.float64)) * scale)
        wide = g_over_m * (terms[0] - terms[1] - terms[2])
        assert_within(dx, wide, gamma(30, np.float64) * scale)
