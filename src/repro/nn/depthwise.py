"""Depthwise 2-D convolution (MobileNet's workhorse).

Each channel is convolved with its own single 2-D filter — the extreme of
the paper's observation that modern CNNs shrink per-CONV arithmetic while
keeping BN/ReLU costs: a depthwise 3x3 does K^2 = 9 FLOPs per output
element versus hundreds for a dense convolution, so the surrounding BN and
ReLU sweeps dominate even harder.

The class exposes the same ``forward`` / ``prepare_backward`` /
``backward_weights`` / ``backward_data`` interface as
:class:`~repro.nn.conv.Conv2d`, so every fused BNFF kernel works on it
unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.im2col import accumulate_windows
from repro.nn.init import he_normal
from repro.nn.module import Module, Parameter
from repro.tensors.shapes import conv2d_output_hw


class DepthwiseConv2d(Module):
    """Per-channel square-kernel convolution (groups == channels)."""

    def __init__(
        self,
        channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        name: str = "dwconv",
        seed: Optional[int] = None,
    ):
        super().__init__(name)
        if channels <= 0:
            raise ShapeError("channels must be positive")
        self.channels = channels
        self.in_channels = channels   # Conv2d-compatible aliases
        self.out_channels = channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight = self.register_parameter(
            Parameter(
                he_normal((channels, kernel, kernel), fan_in=kernel * kernel,
                          seed=seed),
                name="weight",
            )
        )
        self.bias = None
        self._windows: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    # -- shared lowering -------------------------------------------------------
    def _window_view(self, x: np.ndarray) -> np.ndarray:
        if self.padding > 0:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (self.padding, self.padding),
                 (self.padding, self.padding)),
                mode="constant",
            )
        win = np.lib.stride_tricks.sliding_window_view(
            x, (self.kernel, self.kernel), axis=(2, 3)
        )
        return win[:, :, :: self.stride, :: self.stride]

    # -- forward ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.channels},H,W), got {x.shape}"
            )
        self._x_shape = x.shape
        win = self._window_view(x)  # (N, C, OH, OW, K, K)
        self._windows = win
        return np.einsum("nchwij,cij->nchw", win, self.weight.data,
                         optimize=True).astype(x.dtype)

    def prepare_backward(self, x: np.ndarray) -> None:
        """Rebuild backward caches from a recomputed input (fusion path)."""
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.channels},H,W), got {x.shape}"
            )
        self._x_shape = x.shape
        self._windows = self._window_view(x)

    def release(self) -> None:
        """Drop the window view, and with it the (padded) input it reads."""
        self._windows = None

    # -- backward -------------------------------------------------------------------
    def _check_dy(self, dy: np.ndarray) -> None:
        if self._windows is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        y_shape = self._windows.shape[:4]
        if dy.shape != y_shape:
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {y_shape}")

    def backward_weights(self, dy: np.ndarray) -> None:
        self._check_dy(dy)
        dw = np.einsum("nchwij,nchw->cij", self._windows, dy, optimize=True)
        self.weight.accumulate_grad(dw.astype(self.weight.data.dtype))

    def backward_data(self, dy: np.ndarray) -> np.ndarray:
        self._check_dy(dy)
        n, c, h, w = self._x_shape
        p = self.padding
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dy.dtype)
        # Each window's dy * w patch adds back into the padded gradient,
        # exactly as col2im adds a dense conv's patches.
        contrib = dy[..., None, None] * self.weight.data[None, :, None, None]
        accumulate_windows(dxp, contrib, self.stride)
        return dxp[:, :, p : p + h, p : p + w]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.backward_weights(dy)
        return self.backward_data(dy)

    def output_hw(self, in_hw):
        return conv2d_output_hw(in_hw, self.kernel, self.stride, self.padding)

    @property
    def flops_per_output_element(self) -> int:
        """K^2 multiply-accumulates (x2) — no channel-mixing term."""
        return 2 * self.kernel * self.kernel
