"""2-D convolution with full forward and backward passes.

The backward pass is organized exactly like the MKL-DNN primitives the paper
instruments: a *backward-data* computation (``dX``) and a *backward-weights*
computation (``dW``), each of which sweeps the relevant mini-batch tensors
once. That one-to-one mapping is what lets the graph IR attach a faithful
memory-sweep ledger to each half (see ``repro.graph.sweeps``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.im2col import col2im, im2col
from repro.nn.init import he_normal, zeros
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """Square-kernel 2-D convolution (optionally biased).

    Parameters mirror the usual framework signature. Bias is off by default
    because every conv in the paper's models is followed by BN, which
    subsumes it — matching DenseNet/ResNet reference prototxts.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        name: str = "conv",
        seed: Optional[int] = None,
    ):
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ShapeError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

        self.weight = self.register_parameter(
            Parameter(
                he_normal((out_channels, in_channels, kernel, kernel), seed=seed),
                name="weight",
            )
        )
        self.bias = (
            self.register_parameter(Parameter(zeros((out_channels,)), name="bias"))
            if bias
            else None
        )

        # Backward caches.
        self._x_shape = None
        self._y_shape = None
        self._cols: Optional[np.ndarray] = None

    # -- forward -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_channels},H,W), got {x.shape}"
            )
        n = x.shape[0]
        cols, (out_h, out_w) = im2col(x, self.kernel, self.stride, self.padding)
        out = cols @ self._w2d().T  # (N*OH*OW, OC)
        if self.bias is not None:
            out += self.bias.data
        y = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

        self._x_shape = x.shape
        self._y_shape = y.shape
        self._cols = cols
        return np.ascontiguousarray(y)

    def prepare_backward(self, x: np.ndarray) -> None:
        """Populate backward caches from *x* without running the forward GEMM.

        The restructured schedule never stores this convolution's input in
        DRAM (it is recomputed on the fly from the preceding CONV's output),
        so fused backward kernels rebuild the im2col buffer here instead of
        relying on a cache left behind by :meth:`forward`.
        """
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_channels},H,W), got {x.shape}"
            )
        self._cols, (out_h, out_w) = im2col(x, self.kernel, self.stride, self.padding)
        self._x_shape = x.shape
        self._y_shape = (x.shape[0], self.out_channels, out_h, out_w)

    # -- backward ------------------------------------------------------------
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Full backward: accumulates dW (and db) and returns dX."""
        self.backward_weights(dy)
        return self.backward_data(dy)

    def backward_weights(self, dy: np.ndarray) -> None:
        """MKL-DNN-style bwd-weights: reads X (as cached cols) and dY."""
        if self._cols is None or self._x_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        dy2d = self._dy_as_2d(dy)
        dw = dy2d.T @ self._cols  # (OC, K*K*C)
        k = self.kernel
        dw = dw.reshape(self.out_channels, k, k, self.in_channels).transpose(0, 3, 1, 2)
        self.weight.accumulate_grad(dw.astype(self.weight.data.dtype))
        if self.bias is not None:
            self.bias.accumulate_grad(dy2d.sum(axis=0).astype(self.bias.data.dtype))

    def backward_data(self, dy: np.ndarray) -> np.ndarray:
        """MKL-DNN-style bwd-data: reads dY and W, writes dX."""
        if self._x_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        dy2d = self._dy_as_2d(dy)
        dcols = dy2d @ self._w2d()  # (N*OH*OW, K*K*C)
        return col2im(dcols, self._x_shape, self.kernel, self.stride, self.padding)

    def _w2d(self) -> np.ndarray:
        """The (OC, C, K, K) weight as an (OC, K*K*C) matrix, im2col's column order."""
        return self.weight.data.transpose(0, 2, 3, 1).reshape(self.out_channels, -1)

    def _dy_as_2d(self, dy: np.ndarray) -> np.ndarray:
        if dy.shape != self._y_shape:
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {self._y_shape}")
        return dy.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

    def output_hw(self, in_hw):
        """Expose shape inference for graph builders."""
        from repro.tensors.shapes import conv2d_output_hw

        return conv2d_output_hw(in_hw, self.kernel, self.stride, self.padding)

    @property
    def flops_per_output_element(self) -> int:
        """Multiply-accumulate FLOPs (x2) per output element."""
        return 2 * self.in_channels * self.kernel * self.kernel
