"""Shape-inference helpers shared by the nn substrate and graph builders.

Keeping the arithmetic in one place guarantees the functional executor and
the analytical simulator agree on every intermediate shape — a disagreement
would silently corrupt both traffic accounting and numerics.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ShapeError


def _check_pos(name: str, value: int) -> None:
    if value <= 0:
        raise ShapeError(f"{name} must be positive, got {value}")


def conv2d_output_hw(
    in_hw: Tuple[int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[int, int]:
    """Output (H, W) of a square-kernel 2-D convolution.

    Uses the standard floor formula ``(in + 2p - k) // s + 1`` and raises
    :class:`~repro.errors.ShapeError` when the kernel does not fit, instead
    of returning a non-positive dimension.
    """
    _check_pos("kernel", kernel)
    _check_pos("stride", stride)
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    h, w = in_hw
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"conv kernel {kernel} stride {stride} pad {padding} does not fit "
            f"input {h}x{w}"
        )
    return out_h, out_w


def pool2d_output_hw(
    in_hw: Tuple[int, int],
    kernel: int,
    stride: int | None = None,
    padding: int = 0,
    ceil_mode: bool = False,
) -> Tuple[int, int]:
    """Output (H, W) of a square 2-D pooling window.

    ``stride`` defaults to ``kernel`` (non-overlapping pooling). Caffe-style
    ``ceil_mode`` is supported because the reference DenseNet prototxt uses
    it for its transition pools.
    """
    _check_pos("kernel", kernel)
    if stride is None:
        stride = kernel
    _check_pos("stride", stride)
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    h, w = in_hw

    def one(dim: int) -> int:
        span = dim + 2 * padding - kernel
        if ceil_mode:
            out = -(-span // stride) + 1
        else:
            out = span // stride + 1
        if out <= 0:
            raise ShapeError(
                f"pool kernel {kernel} stride {stride} pad {padding} does not "
                f"fit input dimension {dim}"
            )
        return out

    return one(h), one(w)
