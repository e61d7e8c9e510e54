"""Fused kernels vs reference layer chains — the core correctness claim."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ExecutionError
from repro.graph.node import OpKind
from repro.kernels import (
    FusedChain,
    assert_fused_equal,
    bn_input_grad_transform,
    bn_relu_conv_backward,
    bn_relu_conv_forward,
    channel_sum,
    conv_bn_stats_forward,
    max_abs_diff,
    onepass_stats,
    relu_conv_backward,
    relu_conv_forward,
)
from repro.models import densenet_graph
from repro.nn import BatchNorm2d, Conv2d, ReLU
from repro.passes import apply_scenario

from tests import reference_kernels
from tests.conftest import assert_same_bits, assert_within, gamma


def make_chain(seed=0, cin=3, mid=6, cout=4, k2=3):
    """Reference CONV-BN-ReLU-CONV chain plus an identically-weighted clone."""
    c1 = Conv2d(cin, mid, 1, name="c1", seed=seed)
    bn = BatchNorm2d(mid)
    relu = ReLU()
    c2 = Conv2d(mid, cout, k2, padding=k2 // 2, name="c2", seed=seed + 1)

    c1f = Conv2d(cin, mid, 1, name="c1", seed=seed)
    bnf = BatchNorm2d(mid)
    c2f = Conv2d(mid, cout, k2, padding=k2 // 2, name="c2", seed=seed + 1)
    return (c1, bn, relu, c2), (c1f, bnf, c2f)


class TestRCFKernels:
    def test_forward_matches_relu_then_conv(self):
        r = rng(0)
        conv_a = Conv2d(3, 5, 3, padding=1, seed=3)
        conv_b = Conv2d(3, 5, 3, padding=1, seed=3)
        x = r.normal(size=(4, 3, 8, 8)).astype(np.float32)
        y_ref = conv_a(np.maximum(x, 0))
        y_fused = relu_conv_forward(x, conv_b)
        assert_fused_equal(y_fused, y_ref, "rcf forward")

    def test_backward_matches(self):
        r = rng(1)
        relu = ReLU()
        conv_a = Conv2d(3, 5, 3, padding=1, seed=4)
        conv_b = Conv2d(3, 5, 3, padding=1, seed=4)
        x = r.normal(size=(4, 3, 8, 8)).astype(np.float32)
        y = conv_a(relu(x))
        dy = r.normal(size=y.shape).astype(np.float32)
        dx_ref = relu.backward(conv_a.backward(dy))

        relu_conv_forward(x, conv_b)
        dx_fused, _ = relu_conv_backward(x, dy, conv_b)
        assert_fused_equal(dx_fused, dx_ref, "rcf dx")
        assert_fused_equal(conv_b.weight.grad, conv_a.weight.grad, "rcf dW")


class TestConvBnStats:
    def test_stats_match_bn_over_conv_output(self):
        r = rng(2)
        conv = Conv2d(3, 6, 3, padding=1, seed=5)
        x = r.normal(size=(4, 3, 8, 8)).astype(np.float32)
        y, mean, var = conv_bn_stats_forward(x, conv)
        np.testing.assert_allclose(mean, y.mean(axis=(0, 2, 3)), rtol=1e-5)
        np.testing.assert_allclose(var, y.var(axis=(0, 2, 3)), rtol=1e-3, atol=1e-5)


class TestBnInputGradTransform:
    def test_matches_reference_bn_input_grad(self):
        r = rng(3)
        bn = BatchNorm2d(4)
        x = r.normal(size=(6, 4, 5, 5)).astype(np.float32)
        dy = r.normal(size=x.shape).astype(np.float32)
        bn(x)
        dx_ref = bn.backward(dy)
        mean, var = bn.saved_stats()
        dx = bn_input_grad_transform(
            dy, x, mean, var, bn.gamma.data, bn.gamma.grad, bn.beta.grad, bn.eps
        )
        assert_fused_equal(dx, dx_ref, "input-grad transform")


class TestBnReluConv:
    def test_forward_matches_chain(self):
        (c1, bn, relu, c2), (c1f, bnf, c2f) = make_chain(seed=10)
        x = rng(4).normal(size=(4, 3, 8, 8)).astype(np.float32)
        y_ref = c2(relu(bn(c1(x))))
        bn_x, mean, var = conv_bn_stats_forward(x, c1f)
        y_fused = bn_relu_conv_forward(bn_x, mean, var, bnf.gamma.data,
                                       bnf.beta.data, c2f)
        assert_fused_equal(y_fused, y_ref, "bn-relu-conv forward")

    def test_backward_matches_chain(self):
        (c1, bn, relu, c2), (c1f, bnf, c2f) = make_chain(seed=11)
        r = rng(5)
        x = r.normal(size=(4, 3, 8, 8)).astype(np.float32)
        y_ref = c2(relu(bn(c1(x))))
        dy = r.normal(size=y_ref.shape).astype(np.float32)
        d_bn_out_ref = relu.backward(c2.backward(dy))

        bn_x, mean, var = conv_bn_stats_forward(x, c1f)
        bn_relu_conv_forward(bn_x, mean, var, bnf.gamma.data, bnf.beta.data, c2f)
        d_bn_out, dgamma, dbeta = bn_relu_conv_backward(
            dy, c2f, bn_x, mean, var, bnf.gamma.data, bnf.beta.data
        )
        assert_fused_equal(d_bn_out, d_bn_out_ref, "d_bn_out")
        # Reference dgamma/dbeta via the BN layer.
        dg_ref, db_ref = bn.param_grads(d_bn_out_ref)
        assert_fused_equal(dgamma, dg_ref.astype(np.float32), "dgamma")
        assert_fused_equal(dbeta, db_ref.astype(np.float32), "dbeta")
        assert_fused_equal(c2f.weight.grad, c2.weight.grad, "dW2")


def miniature_fused_sites():
    """(C, OC, K, S, P, H, W, relu) of each distinct fused BN-ReLU-CONV site
    in the bnff_icf DenseNet-BC miniature that perfbench trains."""
    graph = densenet_graph(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                           num_classes=10)
    graph = apply_scenario(graph, "bnff_icf")[0]
    sites = set()
    for node in graph.nodes:
        if node.kind is OpKind.CONV and node.attrs.get("fused_bn_norm"):
            a = node.attrs
            h, w = graph.tensors[node.inputs[0]].shape[2:]
            sites.add((a["in_channels"], a["out_channels"], a["kernel"], a["stride"],
                       a["padding"], h, w, bool(a.get("fused_relu"))))
    return sorted(sites)


def channel_order_bound(terms, accumulate_dtype, out_dtype):
    """Largest difference between two summation orders of the per-channel
    sums of *terms*, rounded to *out_dtype*.

    Both orders add the same n = N*H*W terms per channel at the unit
    roundoff of ``channel_sum``'s accumulator (fp16 storage sums at fp32:
    the accumulator, or fp32 weights lifting the gradient), so each lands
    within ``gamma_{n-1} * sum|t_i|`` of the exact sum and the two within
    twice that. Rounding both to a narrower output dtype moves each by at
    most ``u_out * (1 + gamma_{n-1}) * sum|t_i|`` more.
    """
    acc = np.promote_types(accumulate_dtype or terms.dtype, terms.dtype)
    n = terms.size // terms.shape[1]
    size = np.abs(terms.astype(np.float64)).sum(axis=(0, 2, 3))
    g = gamma(n - 1, acc)
    bound = 2 * g * size
    if np.dtype(out_dtype).itemsize < acc.itemsize:
        bound += 2 * (np.finfo(out_dtype).eps / 2) * (1 + g) * size
    return bound


class TestBnReluConvBackwardAgainstReference:
    """The fused backward on the blocked kernels against the
    naive-``_affine_normalize`` version it replaced (kept in
    ``tests/reference_kernels.py``): ``d_bn_out`` and dW keep their bits.
    dgamma and dbeta sum the same terms batch rows first where the
    reference sums ``axis=(0, 2, 3)``, so they stay within
    :func:`channel_order_bound` of it. Handed the library's
    ``channel_sum`` as *sum_channels*, the reference sums in the same order
    and all four results keep their bits."""

    def _compare(self, n, c, oc, k, s, p, h, w, dtype, acc, relu, seed,
                 weight_dtype=np.float32, sum_channels=None):
        r = rng(seed)
        bn_x = (2.0 * r.normal(size=(n, c, h, w)) + 0.5).astype(dtype)
        mean, var = onepass_stats(bn_x, accumulate_dtype=acc)
        gamma = r.normal(size=c).astype(np.float32)
        beta = r.normal(size=c).astype(np.float32)
        got_conv = Conv2d(c, oc, k, s, p, seed=seed)
        ref_conv = Conv2d(c, oc, k, s, p, seed=seed)
        for conv in (got_conv, ref_conv):
            conv.weight.data = conv.weight.data.astype(weight_dtype)
        dy = r.normal(size=(n, oc) + got_conv.output_hw((h, w))).astype(dtype)
        got = bn_relu_conv_backward(dy, got_conv, bn_x, mean, var, gamma, beta,
                                    apply_relu=relu, accumulate_dtype=acc)
        if sum_channels is not None:
            ref = reference_kernels.bn_relu_conv_backward(
                dy, ref_conv, bn_x, mean, var, gamma, beta, apply_relu=relu,
                accumulate_dtype=acc, sum_channels=sum_channels)
            for a, b in zip(got, ref):
                assert_same_bits(a, b)
            assert_same_bits(got_conv.weight.grad, ref_conv.weight.grad)
            return
        summed = []

        def recorded_sum(terms, accumulate_dtype):
            summed.append((terms.copy(), accumulate_dtype))
            return reference_kernels.channel_sum(terms, accumulate_dtype)

        ref = reference_kernels.bn_relu_conv_backward(
            dy, ref_conv, bn_x, mean, var, gamma, beta,
            apply_relu=relu, accumulate_dtype=acc, sum_channels=recorded_sum)
        assert_same_bits(got[0], ref[0])
        assert_same_bits(got_conv.weight.grad, ref_conv.weight.grad)
        for a, b, (terms, sum_acc) in zip(got[1:], ref[1:], summed):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert_within(a, b, channel_order_bound(terms, sum_acc, b.dtype))

    @pytest.mark.parametrize("n,c,oc,h,w", [(4, 6, 5, 8, 8), (3, 12, 7, 5, 6),
                                            (1, 5, 3, 4, 4)])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("acc", [None, np.float32, np.float64])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_dtype_grid(self, dtype, acc, k, relu, n, c, oc, h, w):
        self._compare(n, c, oc, k, 1, k // 2, h, w, dtype, acc, relu,
                      seed=n + c + k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_wider_than_x_hat(self, k):
        """fp64 weights on fp32 data give an fp64 d_bn_out, so the dgamma
        product runs at fp64 as the reference's does, not inside x_hat."""
        self._compare(4, 6, 5, k, 1, k // 2, 8, 8, np.float32, None, True,
                      seed=k, weight_dtype=np.float64, sum_channels=channel_sum)

    @pytest.mark.parametrize("c,oc,k,s,p,h,w,relu", miniature_fused_sites())
    def test_miniature_sites(self, c, oc, k, s, p, h, w, relu):
        self._compare(32, c, oc, k, s, p, h, w, np.float32, None, relu, seed=c)


class TestFusedChain:
    def test_end_to_end_equivalence(self):
        (c1, bn, relu, c2), (c1f, bnf, c2f) = make_chain(seed=12)
        r = rng(6)
        x = r.normal(size=(6, 3, 10, 10)).astype(np.float32)
        y_ref = c2(relu(bn(c1(x))))
        dy = r.normal(size=y_ref.shape).astype(np.float32)
        dx_ref = c1.backward(bn.backward(relu.backward(c2.backward(dy))))

        chain = FusedChain(c1f, bnf, c2f)
        y = chain(x)
        dx = chain.backward(dy)
        assert_fused_equal(y, y_ref, "chain forward")
        assert_fused_equal(dx, dx_ref, "chain dx")
        assert_fused_equal(c1f.weight.grad, c1.weight.grad, "chain dW1")
        assert_fused_equal(bnf.gamma.grad, bn.gamma.grad, "chain dgamma")
        assert_fused_equal(bnf.beta.grad, bn.beta.grad, "chain dbeta")

    def test_only_bn_x_is_retained(self):
        """The restructured chain must not keep normalized/rectified maps."""
        _, (c1f, bnf, c2f) = make_chain(seed=13)
        chain = FusedChain(c1f, bnf, c2f)
        x = rng(7).normal(size=(2, 3, 6, 6)).astype(np.float32)
        chain(x)
        # The chain's saved state is exactly the pre-BN conv output + stats.
        assert chain._bn_x is not None
        assert chain._bn_x.shape == (2, 6, 6, 6)

    def test_mismatched_channels_rejected(self):
        c1 = Conv2d(3, 6, 1, seed=0)
        bn = BatchNorm2d(8)
        c2 = Conv2d(8, 4, 3, padding=1, seed=1)
        with pytest.raises(ExecutionError):
            FusedChain(c1, bn, c2)

    def test_backward_before_forward_raises(self):
        _, (c1f, bnf, c2f) = make_chain(seed=14)
        chain = FusedChain(c1f, bnf, c2f)
        with pytest.raises(ExecutionError):
            chain.backward(np.zeros((1, 4, 6, 6), dtype=np.float32))


class TestAccumulateDtypeContract:
    """The fused kernels' sub-fp32 contract: storage dtype in, storage
    dtype out, fp32 math in between — no silent widening to the weight
    dtype, no silent truncation of the per-channel vectors."""

    def test_fused_chain_fp16_storage_round_trip(self):
        _, (c1f, bnf, c2f) = make_chain(seed=21)
        chain = FusedChain(c1f, bnf, c2f, accumulate_dtype=np.float32)
        x = rng(21).normal(size=(4, 3, 6, 6)).astype(np.float16)
        y = chain.forward(x)
        assert y.dtype == np.float16
        # Stats live at fp32 even though the storage is fp16.
        assert chain._mean.dtype == np.float32
        assert chain._var.dtype == np.float32
        assert chain._bn_x.dtype == np.float16
        dy = rng(22).normal(size=y.shape).astype(np.float16)
        dx = chain.backward(dy)
        assert dx.dtype == np.float16
        assert np.all(np.isfinite(dx))

    def test_fused_chain_fp16_close_to_fp32_reference(self):
        """Same weights, fp16 storage + fp32 accumulation vs pure fp32:
        the quantization noise is bounded, not structural."""
        _, (c1a, bna, c2a) = make_chain(seed=23)
        _, (c1b, bnb, c2b) = make_chain(seed=23)
        ref = FusedChain(c1a, bna, c2a)
        mixed = FusedChain(c1b, bnb, c2b, accumulate_dtype=np.float32)
        x = rng(23).normal(size=(4, 3, 6, 6)).astype(np.float32)
        y_ref = ref.forward(x)
        y_mixed = mixed.forward(x.astype(np.float16))
        assert max_abs_diff(y_ref, y_mixed.astype(np.float32)) < 0.05

    def test_relu_conv_fp16_storage_round_trip(self):
        conv = Conv2d(3, 5, 3, padding=1, seed=24)
        x = rng(24).normal(size=(4, 3, 8, 8)).astype(np.float16)
        y = relu_conv_forward(x, conv, accumulate_dtype=np.float32)
        assert y.dtype == np.float16
        dy = rng(25).normal(size=y.shape).astype(np.float16)
        dx, _ = relu_conv_backward(x, dy, conv, accumulate_dtype=np.float32)
        assert dx.dtype == np.float16

    def test_conv_bn_stats_forward_fp16(self):
        conv = Conv2d(3, 5, 1, seed=26)
        x = rng(26).normal(size=(4, 3, 6, 6)).astype(np.float16)
        y, mean, var = conv_bn_stats_forward(
            x, conv, accumulate_dtype=np.float32)
        assert y.dtype == np.float16
        assert mean.dtype == np.float32 and var.dtype == np.float32
        assert np.all(var >= 0)

    def test_wide_storage_never_downcast(self):
        """fp64 storage with an fp32 accumulator must stay fp64 — in
        values, not just dtype: the effective accumulator promotes to the
        storage width, so an offset that would destroy an fp32-accumulated
        variance (E(X^2) ~ 1e10, unit variance) survives."""
        conv = Conv2d(3, 5, 1, seed=30)
        x64 = 1e5 + rng(30).normal(size=(4, 3, 6, 6))
        y, mean, var = conv_bn_stats_forward(
            x64, conv, accumulate_dtype=np.float32)
        assert y.dtype == np.float64
        assert mean.dtype == np.float64 and var.dtype == np.float64
        from repro.kernels import twopass_stats

        _, ref_var = twopass_stats(conv.forward(x64))
        # One-pass at fp64 drifts ~1e-6 relative at this offset (the
        # formulation); fp32 truncation would be off by ~1e2 relative —
        # the tolerance separates the two regimes by orders of magnitude.
        np.testing.assert_allclose(var, ref_var, rtol=1e-4)

    def test_bn_input_grad_transform_fp16(self):
        r = rng(27)
        c = 5
        d_bn_out = r.normal(size=(4, c, 6, 6)).astype(np.float16)
        bn_x = r.normal(size=(4, c, 6, 6)).astype(np.float16)
        mean = bn_x.astype(np.float32).mean(axis=(0, 2, 3))
        var = bn_x.astype(np.float32).var(axis=(0, 2, 3))
        gamma = np.ones(c, dtype=np.float32)
        dgamma = r.normal(size=c).astype(np.float32)
        dbeta = r.normal(size=c).astype(np.float32)
        dx = bn_input_grad_transform(
            d_bn_out, bn_x, mean, var, gamma, dgamma, dbeta, eps=1e-5,
            accumulate_dtype=np.float32,
        )
        assert dx.dtype == np.float16
        assert np.all(np.isfinite(dx))

    def test_bn_input_grad_transform_fp16_no_overflow(self):
        """m * dY is formed at the accumulator width: an fp16 gradient
        with |dY| >= 65504/m must transform to finite values."""
        r = rng(31)
        c = 2
        d_bn_out = np.full((8, c, 16, 16), 40.0, dtype=np.float16)
        bn_x = r.normal(size=(8, c, 16, 16)).astype(np.float16)
        mean = bn_x.astype(np.float32).mean(axis=(0, 2, 3))
        var = bn_x.astype(np.float32).var(axis=(0, 2, 3))
        gamma = np.ones(c, dtype=np.float32)
        dx = bn_input_grad_transform(
            d_bn_out, bn_x, mean, var, gamma,
            dgamma=np.zeros(c, dtype=np.float32),
            dbeta=np.zeros(c, dtype=np.float32),
            eps=1e-5, accumulate_dtype=np.float32,
        )
        assert dx.dtype == np.float16
        assert np.all(np.isfinite(dx))

    def test_fp32_chain_with_fp32_accumulate_stays_close(self):
        """For fp32 storage, accumulate_dtype=fp32 changes only the
        *width of the statistics partial sums* (strict fp32 instead of
        the default fp64): dtypes are unchanged and values agree to
        accumulation noise."""
        _, (c1a, bna, c2a) = make_chain(seed=28)
        _, (c1b, bnb, c2b) = make_chain(seed=28)
        plain = FusedChain(c1a, bna, c2a)
        acc = FusedChain(c1b, bnb, c2b, accumulate_dtype=np.float32)
        x = rng(28).normal(size=(4, 3, 6, 6)).astype(np.float32)
        y_plain, y_acc = plain.forward(x), acc.forward(x)
        assert y_acc.dtype == y_plain.dtype == np.float32
        np.testing.assert_allclose(y_acc, y_plain, rtol=1e-4, atol=1e-5)
        dy = rng(29).normal(size=(4, 4, 6, 6)).astype(np.float32)
        dx_plain, dx_acc = plain.backward(dy), acc.backward(dy)
        assert dx_acc.dtype == np.float32
        np.testing.assert_allclose(dx_acc, dx_plain, rtol=1e-3, atol=1e-4)


class TestVerifyHelpers:
    def test_max_abs_diff(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.5])
        assert max_abs_diff(a, b) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            max_abs_diff(np.zeros(2), np.zeros(3))

    def test_assert_fused_equal_failure_message(self):
        with pytest.raises(AssertionError, match="max|diff"):
            assert_fused_equal(np.zeros(3), np.ones(3), "demo")
