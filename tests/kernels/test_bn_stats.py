"""Statistics kernels: one-pass (MVF) vs two-pass equivalence & precision."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ShapeError
from repro.kernels import chunked_onepass_stats, onepass_stats, twopass_stats
from repro.kernels.bn_stats import onepass_stats_fp32


class TestEquivalence:
    def test_onepass_matches_twopass(self):
        x = rng(0).normal(loc=2.0, scale=3.0, size=(16, 8, 14, 14)).astype(np.float32)
        m1, v1 = onepass_stats(x)
        m2, v2 = twopass_stats(x)
        np.testing.assert_allclose(m1, m2, rtol=1e-6)
        np.testing.assert_allclose(v1, v2, rtol=1e-4)

    def test_chunked_matches_onepass(self):
        x = rng(1).normal(size=(13, 4, 7, 7)).astype(np.float32)
        m1, v1 = onepass_stats(x)
        m2, v2 = chunked_onepass_stats(x, chunk=4)
        np.testing.assert_allclose(m1, m2, rtol=1e-6)
        np.testing.assert_allclose(v1, v2, rtol=1e-5)

    def test_against_numpy_reference(self):
        x = rng(2).normal(size=(8, 3, 5, 5)).astype(np.float32)
        m, v = onepass_stats(x)
        np.testing.assert_allclose(m, x.mean(axis=(0, 2, 3)), rtol=1e-6)
        np.testing.assert_allclose(v, x.var(axis=(0, 2, 3)), rtol=1e-4)


class TestPrecision:
    """Quantify the paper's Section 3.2 claim: fp32 E(X^2) is good enough."""

    def test_fp32_accumulation_on_activations(self):
        # Post-conv activations at paper scale: zero-ish mean, unit-ish std.
        x = rng(3).normal(loc=0.5, scale=1.5, size=(32, 16, 28, 28)).astype(np.float32)
        m64, v64 = twopass_stats(x.astype(np.float64))
        m32, v32 = onepass_stats_fp32(x)
        np.testing.assert_allclose(m32, m64, rtol=1e-4)
        np.testing.assert_allclose(v32, v64, rtol=1e-2)

    def test_catastrophic_cancellation_clamped(self):
        # Large mean, tiny variance: worst case for E(X^2)-E(X)^2 in fp32.
        # The kernel must never return negative variance.
        x = np.full((8, 2, 16, 16), 1000.0, dtype=np.float32)
        x += rng(4).normal(scale=1e-3, size=x.shape).astype(np.float32)
        _, v = onepass_stats_fp32(x)
        assert np.all(v >= 0.0)

    def test_constant_channel_zero_variance(self):
        x = np.full((4, 3, 8, 8), 7.0, dtype=np.float32)
        m, v = onepass_stats(x)
        np.testing.assert_allclose(m, 7.0, rtol=1e-7)
        np.testing.assert_allclose(v, 0.0, atol=1e-7)


class TestAccumulateContract:
    """The explicit accumulate-dtype contract: storage in, fp32+ sums."""

    def test_fp16_stats_returned_at_fp32(self):
        x = rng(6).normal(size=(4, 3, 6, 6)).astype(np.float16)
        for kernel in (onepass_stats, twopass_stats, chunked_onepass_stats):
            m, v = kernel(x)
            assert m.dtype == np.float32 and v.dtype == np.float32

    def test_fp16_square_overflow_fixed(self):
        # 300^2 = 9e4 > fp16 max (65504): squaring at fp16 made E(X^2)
        # infinite. The accumulator-dtype square keeps it finite and right.
        x = np.full((4, 2, 8, 8), 300.0, dtype=np.float16)
        x += rng(7).normal(scale=1.0, size=x.shape).astype(np.float16)
        m64, v64 = twopass_stats(x.astype(np.float64))
        m32, v32 = onepass_stats_fp32(x)
        assert np.all(np.isfinite(v32))
        np.testing.assert_allclose(m32, m64, rtol=1e-3)

    def test_bf16_emulated_inputs_accepted(self):
        from repro.kernels import bf16_round

        x = bf16_round(rng(8).normal(2.0, 1.0, (4, 3, 6, 6))
                       .astype(np.float32))
        m64, v64 = twopass_stats(x.astype(np.float64))
        m, v = onepass_stats(x, accumulate_dtype=np.float32)
        np.testing.assert_allclose(m, m64, rtol=1e-5)
        np.testing.assert_allclose(v, v64, rtol=1e-3)

    def test_explicit_fp64_accumulate_matches_default(self):
        x = rng(9).normal(size=(3, 2, 5, 5)).astype(np.float32)
        m1, v1 = onepass_stats(x)
        m2, v2 = onepass_stats(x, accumulate_dtype=np.float64)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_narrow_accumulator_rejected(self):
        from repro.errors import PrecisionError

        x = np.zeros((2, 2, 2, 2), dtype=np.float16)
        with pytest.raises(PrecisionError):
            onepass_stats(x, accumulate_dtype=np.float16)
        with pytest.raises(PrecisionError):
            twopass_stats(x, accumulate_dtype=np.int32)


class TestValidation:
    def test_non_nchw_raises(self):
        with pytest.raises(ShapeError):
            onepass_stats(np.zeros((4, 4), dtype=np.float32))

    def test_bad_chunk_raises(self):
        with pytest.raises(ShapeError):
            chunked_onepass_stats(np.zeros((2, 2, 2, 2), dtype=np.float32), chunk=0)

    def test_dtype_preserved(self):
        x = rng(5).normal(size=(2, 2, 3, 3)).astype(np.float32)
        m, v = onepass_stats(x)
        assert m.dtype == np.float32 and v.dtype == np.float32


class TestSingleUpcastSweep:
    """Pin satellite behaviour: onepass reuses one upcast array for both
    reductions, and that is bit-identical to summing the narrow input
    with a wide dtype= in ``channel_sum``'s order (numpy upcasts exactly;
    the batch rows are added in the same order either way)."""

    @pytest.mark.parametrize("storage", [np.float32, np.float16])
    @pytest.mark.parametrize("acc", [np.float32, np.float64])
    def test_reused_upcast_is_bit_identical_to_direct_reduce(
        self, storage, acc
    ):
        if np.dtype(acc).itemsize < np.dtype(storage).itemsize:
            pytest.skip("accumulator narrower than storage is rejected")
        x = rng(21).normal(0.0, 2.0, size=(4, 6, 9, 9)).astype(storage)
        m, v = onepass_stats(x, accumulate_dtype=acc)
        a = np.dtype(acc)
        c = x.shape[1]
        s1 = x.sum(axis=0, dtype=a).reshape(c, -1).sum(axis=1)
        xa = x.astype(a)
        s2 = (xa * xa).sum(axis=0).reshape(c, -1).sum(axis=1)
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mean = s1 / n
        var = np.maximum(s2 / n - mean * mean, a.type(0.0))
        from repro.config import stat_dtype
        out = stat_dtype(x.dtype)
        np.testing.assert_array_equal(m, mean.astype(out))
        np.testing.assert_array_equal(v, var.astype(out))

    @pytest.mark.parametrize("storage,acc", [(np.float64, None),
                                             (np.float32, np.float32)])
    def test_squares_its_own_copy_never_the_callers_array(self, storage, acc):
        """The copy is squared in place, so it must be a copy even when
        the input is already at the accumulator width."""
        x = rng(22).normal(0.0, 2.0, size=(3, 4, 5, 5)).astype(storage)
        before = x.copy()
        onepass_stats(x, accumulate_dtype=acc)
        np.testing.assert_array_equal(x, before)
