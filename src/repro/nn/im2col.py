"""im2col / col2im lowering used by the numpy convolution.

The convolution is expressed as one big GEMM over an im2col matrix — the
classic Caffe lowering. That keeps the Python layer free of pixel loops
(everything is stride tricks + one matmul) and mirrors how the reference
framework in the paper actually executes convolutions.

The columns are ordered (K, K, C), channels innermost, as in a
channels-last lowering: the copy :func:`im2col` makes then moves runs of
C contiguous channels instead of K-element kernel rows, and :func:`col2im`
can add along C. :class:`~repro.nn.conv.Conv2d` views its (OC, C, K, K)
weight in the same order for the GEMM.

The adjoint direction — :func:`col2im`, and the average-pooling and
depthwise backwards — adds window patches back into a padded gradient
with :func:`accumulate_windows`: one strided-slice ``+=`` per kernel
offset, bit-identical to an ``np.add.at`` scatter over the index grid.
:class:`~repro.nn.conv.Conv2d` calls :func:`col2im` only for strided
convolutions (and padding beyond K - 1): a stride-1 convolution takes its
input gradient from :func:`im2col` of its output gradient instead.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensors.shapes import conv2d_output_hw


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower NCHW input to a ``(N*OH*OW, K*K*C)`` patch matrix.

    Row ``(n, oy, ox)`` holds window ``(oy, ox)`` of image ``n``, element
    ``(ky, kx, c)`` at column ``(ky * K + kx) * C + c``. Returns the patch
    matrix and the output spatial size. The input is copied once to
    channels-last (padded when ``padding > 0``); the window view over it is
    zero-copy, and the reshape copy after it, the one the GEMM needs,
    moves runs of C contiguous elements.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h, out_w = conv2d_output_hw((h, w), kernel, stride, padding)

    if padding > 0:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + w, :] = x.transpose(0, 2, 3, 1)
    else:
        xp = np.ascontiguousarray(x.transpose(0, 2, 3, 1))

    # windows: (N, OH', OW', C, K, K) view, then stride over OH'/OW'.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    # -> (N, OH, OW, K, K, C) -> (N*OH*OW, K*K*C). For K > 1 the reshape
    # of the transposed (non-contiguous) view cannot be expressed as a
    # stride change, so it materializes a fresh C-contiguous array — the
    # one copy the GEMM needs (pinned by tests/nn/test_im2col.py). For an
    # unstrided 1x1 kernel it is a view of the channels-last copy.
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * out_h * out_w, kernel * kernel * c)
    return cols, (out_h, out_w)


def accumulate_windows(dst: np.ndarray, patches: np.ndarray, stride: int) -> None:
    """Add a ``(N, C, OH, OW, K, K)`` patch tensor into the NCHW buffer *dst*.

    Element ``(ky, kx)`` of window ``(oy, ox)`` lands on
    ``dst[:, :, oy * stride + ky, ox * stride + kx]``, so *dst* must already
    hold the padding the windows reach into. Each kernel offset is one
    strided-slice ``+=`` whose destinations never overlap. Offsets run in
    descending ``(ky, kx)`` order: ``np.add.at`` over the same index grid
    walks ``(oy, ox, ky, kx)`` in C order, which reaches the contributions
    to any one element with ``ky``, then ``kx``, falling, so every sum
    rounds exactly as that scatter's does (ascending order changes the low
    bits).
    """
    oh, ow, k = patches.shape[2], patches.shape[3], patches.shape[4]
    for ky in reversed(range(k)):
        for kx in reversed(range(k)):
            dst[:, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride] += (
                patches[:, :, :, :, ky, kx]
            )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add a ``(N*OH*OW, K*K*C)`` patch matrix back to NCHW.

    The adjoint of :func:`im2col`: overlapping patches accumulate, which is
    exactly the gradient of the patch extraction.
    """
    n, c, h, w = input_shape
    out_h, out_w = conv2d_output_hw((h, w), kernel, stride, padding)
    if cols.shape != (n * out_h * out_w, kernel * kernel * c):
        raise ShapeError(
            f"col2im: cols shape {cols.shape} does not match "
            f"{(n * out_h * out_w, kernel * kernel * c)}"
        )

    # Each slice add runs along the buffer's innermost axis: C in a
    # channels-last buffer (seen through an NCHW view), a strided output
    # row of OW elements in an NCHW one. Take the longer of the two. The
    # DenseNet-BC miniature's stem (C=3, OW=16) adds 3.6x faster into
    # NCHW, and 3x3 windows over 48 channels at OW 8 or 4 add 1.6-3x
    # faster into channels-last. One copy at the end hands back
    # contiguous NCHW.
    hp, wp = h + 2 * padding, w + 2 * padding
    if c >= out_w:
        padded = np.zeros((n, hp, wp, c), dtype=cols.dtype).transpose(0, 3, 1, 2)
    else:
        padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # (N*OH*OW, K*K*C) -> (N, OH, OW, K, K, C) -> (N, C, OH, OW, K, K), a view.
    patches = cols.reshape(n, out_h, out_w, kernel, kernel, c).transpose(0, 5, 1, 2, 3, 4)
    accumulate_windows(padded, patches, stride)
    return np.ascontiguousarray(padded[:, :, padding : padding + h, padding : padding + w])
