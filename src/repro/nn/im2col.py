"""im2col / col2im lowering used by the numpy convolution.

The convolution is expressed as one big GEMM over an im2col matrix — the
classic Caffe lowering. That keeps the Python layer free of pixel loops
(everything is stride tricks + one matmul) and mirrors how the reference
framework in the paper actually executes convolutions.

The adjoint direction — :func:`col2im`, and the average-pooling and
depthwise backwards — adds window patches back into a padded gradient
with :func:`accumulate_windows`: one strided-slice ``+=`` per kernel
offset, bit-identical to an ``np.add.at`` scatter over the index grid.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensors.shapes import conv2d_output_hw


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower NCHW input to a ``(N*OH*OW, C*K*K)`` patch matrix.

    Returns the patch matrix and the output spatial size. Uses
    ``sliding_window_view`` (zero-copy) followed by a single reshape-copy,
    so the only data movement is the one the GEMM needs anyway.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h, out_w = conv2d_output_hw((h, w), kernel, stride, padding)

    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )

    # windows: (N, C, OH', OW', K, K) view, then stride over OH'/OW'.
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # -> (N, OH, OW, C, K, K) -> (N*OH*OW, C*K*K). The reshape of the
    # transposed (non-contiguous) view cannot be expressed as a stride
    # change, so it already materializes a fresh C-contiguous array — the
    # one copy the GEMM needs (pinned by tests/nn/test_im2col.py).
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)
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
    """Scatter-add a patch matrix back to NCHW (adjoint of :func:`im2col`).

    Overlapping patches accumulate, which is exactly the gradient of the
    patch extraction.
    """
    n, c, h, w = input_shape
    out_h, out_w = conv2d_output_hw((h, w), kernel, stride, padding)
    if cols.shape != (n * out_h * out_w, c * kernel * kernel):
        raise ShapeError(
            f"col2im: cols shape {cols.shape} does not match "
            f"{(n * out_h * out_w, c * kernel * kernel)}"
        )

    # An NCHW view of channels-last memory, the patch matrix's own order:
    # each slice add then runs along C instead of along one short output
    # row, which took a tenth off a DenseNet-BC training step on 8x8 and
    # 4x4 maps. One copy at the end hands back contiguous NCHW.
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    padded = padded.transpose(0, 3, 1, 2)
    # (N*OH*OW, C*K*K) -> (N, C, OH, OW, K, K), a view.
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    accumulate_windows(padded, patches, stride)
    return np.ascontiguousarray(padded[:, :, padding : padding + h, padding : padding + w])
