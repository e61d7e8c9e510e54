"""Unit tests: blocked kernels' edges and the tuner."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.hw.spec import HardwareSpec
from repro.kernels.blocked import (
    blocked_affine_normalize,
    blocked_bn_input_grad_transform,
    blocked_normalize_apply,
    blocked_onepass_stats,
)
from repro.kernels.bf16 import bf16_round
from repro.kernels.bn_stats import onepass_stats
from repro.kernels.tune import (
    choose_block_batch,
    choose_block_width,
    clear_tuning_cache,
    detect_local_llc_bytes,
    local_hardware_spec,
)
from repro.nn.batchnorm import BatchNorm2d

from tests.conftest import assert_same_bits
from tests.reference_kernels import affine_normalize


def _spec(llc_bytes):
    return HardwareSpec(
        name=f"test-{llc_bytes}", peak_flops=1e12, elementwise_ops=5e11,
        dram_bandwidth=5e10, llc_bytes=llc_bytes, cache_fit_fraction=0.5,
    )


SHAPE = (4, 16, 8, 8)


def _x(shape=SHAPE, dtype=np.float32, seed=3):
    return np.random.default_rng(seed).normal(0, 1.5, shape).astype(dtype)


class TestTuner:
    def test_local_llc_detected_positive(self):
        assert detect_local_llc_bytes() > 0
        assert local_hardware_spec().llc_bytes == detect_local_llc_bytes()

    def test_tiny_cache_floors_at_one_element(self):
        clear_tuning_cache()
        bw = choose_block_width(SHAPE, np.float32, np.float64,
                                hw=_spec(16))
        assert bw == 1

    def test_huge_cache_takes_the_whole_row(self):
        clear_tuning_cache()
        bw = choose_block_width(SHAPE, np.float32, np.float64,
                                hw=_spec(1 << 32))
        assert bw == SHAPE[1] * SHAPE[2] * SHAPE[3]

    def test_block_monotone_in_cache_size(self):
        clear_tuning_cache()
        shape = (32, 256, 28, 28)
        width = shape[1] * shape[2] * shape[3]
        sizes = [1 << 20, 8 << 20, 64 << 20, 1 << 30]
        choices = [
            choose_block_width(shape, np.float32, np.float64, hw=_spec(s))
            for s in sizes
        ]
        assert choices == sorted(choices)
        assert all(1 <= c <= width for c in choices)
        assert choices[0] < width == choices[-1]

    def test_batch_chooser_floors_and_caps(self):
        clear_tuning_cache()
        assert choose_block_batch(SHAPE, np.float32, np.float32,
                                  hw=_spec(1 << 10)) == 1
        assert choose_block_batch(SHAPE, np.float32, np.float32,
                                  hw=_spec(1 << 32)) == SHAPE[0]


class TestBlockedEdges:
    def test_non_nchw_raises(self):
        with pytest.raises(ShapeError):
            blocked_onepass_stats(np.zeros((3, 4)))

    def test_nonpositive_block_raises(self):
        with pytest.raises(ShapeError):
            blocked_onepass_stats(_x(), block_width=0)

    @pytest.mark.parametrize("block", [1, 7, 10_000])
    def test_any_run_length_keeps_the_bits(self, block):
        x = _x()
        m_ref, v_ref = onepass_stats(x)
        m, v = blocked_onepass_stats(x, block_width=block)
        assert_same_bits(m, m_ref)
        assert_same_bits(v, v_ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_element_rows_sum_like_the_naive_kernel(self, dtype):
        """A batch of one-element rows is one contiguous run, which numpy
        sums pairwise, not row by row: that case delegates."""
        x = _x((64, 1, 1, 1), dtype=dtype)
        m_ref, v_ref = onepass_stats(x)
        m, v = blocked_onepass_stats(x)
        assert_same_bits(m, m_ref)
        assert_same_bits(v, v_ref)

    def test_out_reused_and_returned(self):
        x = _x()
        c = x.shape[1]
        mean, var = onepass_stats(x)
        inv_std = (1.0 / np.sqrt(var + 1e-5)).astype(np.float32)
        gamma, beta = np.ones(c, np.float32), np.zeros(c, np.float32)
        out = np.empty_like(x)
        got = blocked_normalize_apply(x, mean.astype(np.float32), inv_std,
                                      gamma, beta, out=out)
        assert got is out

    def test_out_shape_dtype_validated(self):
        x = _x()
        c = x.shape[1]
        mean, var = onepass_stats(x)
        inv_std = (1.0 / np.sqrt(var + 1e-5)).astype(np.float32)
        gamma, beta = np.ones(c, np.float32), np.zeros(c, np.float32)
        with pytest.raises(ShapeError):
            blocked_normalize_apply(x, mean.astype(np.float32), inv_std,
                                    gamma, beta,
                                    out=np.empty_like(x)[:, :2])
        with pytest.raises(ShapeError):
            blocked_normalize_apply(x, mean.astype(np.float32), inv_std,
                                    gamma, beta,
                                    out=np.empty(x.shape, np.float64))

    def test_grad_transform_shape_mismatch_raises(self):
        x = _x()
        c = x.shape[1]
        vec = np.ones(c, np.float32)
        with pytest.raises(ShapeError):
            blocked_bn_input_grad_transform(
                _x((2, 16, 8, 8)), x, vec, vec, vec, vec, vec, 1e-5
            )

    def test_affine_normalize_matches_batchnorm_module(self):
        """The wired path: BatchNorm2d.normalize rides the blocked apply."""
        x = _x()
        bn = BatchNorm2d(x.shape[1])
        mean = bn.compute_mean(x)
        var = bn.compute_var(x, mean)
        y = bn.normalize(x, mean, var)
        y2 = blocked_affine_normalize(
            x, mean, var, bn.gamma.data, bn.beta.data, bn.eps
        )
        assert np.array_equal(y, y2)
        assert bn._inv_std is not None  # backward caches intact


class TestReturnXHat:
    """``return_x_hat`` hands back the normalized input at the math dtype,
    which the fused backward reduces dgamma over, without changing a bit
    of the normalized output (written straight into the result when the
    storage dtype is the math dtype, through scratch when it is narrower).
    """

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("acc", [None, np.float32, np.float64])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_matches_naive_x_hat_and_output(self, dtype, acc, block):
        x = _x(dtype=dtype)
        c = x.shape[1]
        mean, var = onepass_stats(x, accumulate_dtype=acc)
        gamma = np.linspace(0.5, 1.5, c).astype(np.float32)
        beta = np.linspace(-0.5, 0.5, c).astype(np.float32)
        kw = dict(relu=True, accumulate_dtype=acc, block_batch=block)
        plain = blocked_affine_normalize(x, mean, var, gamma, beta, 1e-5, **kw)
        y, x_hat = blocked_affine_normalize(x, mean, var, gamma, beta, 1e-5,
                                            return_x_hat=True, **kw)
        x_hat_ref, bn_out_ref = affine_normalize(x, mean, var, gamma, beta,
                                                 1e-5, accumulate_dtype=acc)
        assert_same_bits(x_hat, x_hat_ref)
        assert_same_bits(y, np.maximum(bn_out_ref, 0))
        assert_same_bits(plain, y)


class TestBf16RoundOut:
    def test_out_matches_fresh_allocation(self):
        x = _x((2, 3, 4, 4)) * 100
        out = np.empty(x.shape, np.float32)
        got = bf16_round(x, out=out)
        assert got is out
        assert np.array_equal(bf16_round(x), out)

    def test_bad_out_rejected(self):
        x = _x((2, 3, 4, 4))
        with pytest.raises(ShapeError):
            bf16_round(x, out=np.empty((2, 3), np.float32))
        with pytest.raises(ShapeError):
            bf16_round(x, out=np.empty(x.shape, np.float64))
        with pytest.raises(ShapeError):  # non-C-contiguous
            bf16_round(x, out=np.asfortranarray(
                np.empty(x.shape, np.float32)))

    def test_aliasing_out_rejected(self):
        x = _x((2, 3, 4, 4))
        with pytest.raises(ShapeError):
            bf16_round(x, out=x)

    def test_nan_restored_through_out(self):
        x = np.array([1.0, np.nan, -2.5], dtype=np.float32)
        out = np.empty(3, np.float32)
        got = bf16_round(x, out=out)
        assert np.isnan(got[1]) and not np.isnan(got[0])
