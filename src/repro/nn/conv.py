"""2-D convolution with full forward and backward passes.

The backward pass is organized exactly like the MKL-DNN primitives the paper
instruments: a *backward-data* computation (``dX``) and a *backward-weights*
computation (``dW``), each of which sweeps the relevant mini-batch tensors
once. That one-to-one mapping is what lets the graph IR attach a faithful
memory-sweep ledger to each half (see ``repro.graph.sweeps``).

The forward lowers its input with :func:`~repro.nn.im2col.im2col` to one
GEMM, except where the shape makes that unnecessary. There are three paths:

* A 1x1, stride-1, unpadded convolution (:attr:`Conv2d.direct`) is already
  a GEMM over channels, so it skips the lowering: forward and ``dX``
  multiply the weight straight into NCHW, and only ``dW`` copies its input
  to channels-last, where it runs the lowered path's own GEMM. Forward and
  ``dX`` give the lowering's bits wherever the BLAS sums each dot product
  in the same order for both operand layouts, as OpenBLAS does at every
  1x1 shape of the DenseNet-BC training miniature.
* Any other stride-1 convolution with padding ``p <= K - 1``
  (:attr:`Conv2d.lowers_dy`) backpropagates through its lowered output
  gradient instead of its lowered input. ``dX`` is the correlation of dY,
  padded by ``K - 1 - p``, with the kernel flipped along both spatial axes
  and its channel axes swapped, so ``D = im2col(dY, K, 1, K - 1 - p)``, an
  ``(N*H*W, K*K*OC)`` matrix, gives ``dX = D @ W_flip`` and
  ``dW = D.T @ X`` (X channels-last) in one GEMM each, with no ``col2im``.
  The forward and :meth:`Conv2d.prepare_backward` keep a reference to X
  rather than its K*K times larger columns. ``dX`` and ``dW`` sum the same
  products as the lowering of X in another order, so they stay within the
  dot-product rounding bound of it rather than on its bits.
* Strided convolutions, and padding beyond ``K - 1``, keep the lowering of
  X for the backward too: ``dW = dY2d.T @ cols`` and
  ``dX = col2im(dY2d @ W2d)``.

``tests/nn/test_conv.py`` pins each path against the lowering of X.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ShapeError
from repro.nn.im2col import col2im, im2col
from repro.nn.init import he_normal, zeros
from repro.nn.module import Module, Parameter
from repro.tensors.shapes import conv2d_output_hw


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

        # Backward caches. ``_saved`` is what backward-weights contracts
        # dY against: the im2col matrix, or the input itself on the direct
        # and dY-lowering paths. ``_lowered_dy`` is ``(dY, D)`` from
        # backward-weights, for the backward-data call on the same dY.
        self._x_shape = None
        self._y_shape = None
        self._saved: Optional[np.ndarray] = None
        self._lowered_dy = None

    @property
    def direct(self) -> bool:
        """True for a 1x1, stride-1, unpadded conv, which runs without im2col."""
        return self.kernel == 1 and self.stride == 1 and self.padding == 0

    @property
    def lowers_dy(self) -> bool:
        """True for a stride-1 conv with K > 1 and padding <= K - 1, whose
        backward lowers dY instead of X (see the module docstring)."""
        return self.stride == 1 and 1 < self.kernel and self.padding < self.kernel

    # -- forward -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_x(x)
        n = x.shape[0]
        if self.direct:
            # (OC, C) @ (N, C, H*W) -> (N, OC, H*W): NCHW with no copy.
            out = np.matmul(self._w2d(), x.reshape(n, self.in_channels, -1))
            if self.bias is not None:
                out += self.bias.data[:, None]
            y = out.reshape((n, self.out_channels) + x.shape[2:])
            self._saved = x
        else:
            cols, (out_h, out_w) = im2col(x, self.kernel, self.stride, self.padding)
            out = cols @ self._w2d().T  # (N*OH*OW, OC)
            if self.bias is not None:
                out += self.bias.data
            y = np.ascontiguousarray(
                out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
            )
            self._saved = x if self.lowers_dy else cols
        self._x_shape = x.shape
        self._y_shape = y.shape
        self._lowered_dy = None
        return y

    def prepare_backward(self, x: np.ndarray) -> None:
        """Populate backward caches from *x* without running the forward GEMM.

        The restructured schedule never stores this convolution's input in
        DRAM (it is recomputed on the fly from the preceding CONV's output),
        so fused backward kernels hand the recomputed input over here instead
        of relying on a cache left behind by :meth:`forward`. A direct 1x1
        conv and a dY-lowering conv keep a reference, which must not change
        before :meth:`backward_weights`, and make no ``im2col`` call; a
        strided conv rebuilds its im2col buffer from it.
        """
        self._check_x(x)
        if self.direct or self.lowers_dy:
            self._saved = x
            out_hw = self.output_hw(x.shape[2:])
        else:
            self._saved, out_hw = im2col(x, self.kernel, self.stride, self.padding)
        self._x_shape = x.shape
        self._y_shape = (x.shape[0], self.out_channels) + out_hw
        self._lowered_dy = None

    def release(self) -> None:
        """Drop the saved input (or its columns) and any kept lowered dY."""
        self._saved = None
        self._lowered_dy = None

    # -- backward ------------------------------------------------------------
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Full backward: accumulates dW (and db) and returns dX."""
        self.backward_weights(dy)
        return self.backward_data(dy)

    def backward_weights(self, dy: np.ndarray) -> None:
        """MKL-DNN-style bwd-weights: reads X (or its cached cols) and dY.

        A dY-lowering conv keeps its lowered dY for :meth:`backward_data`,
        which every caller runs next on the same, unchanged dY array.
        """
        if self._saved is None or self._x_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        k, oc, c = self.kernel, self.out_channels, self.in_channels
        # dY channels-last: the lowering of X's GEMM operand, and the rows
        # db sums on every path.
        dy2d = None if self.lowers_dy and self.bias is None else self._dy_as_2d(dy)
        if self.lowers_dy:
            d = self._lower_dy(dy)
            self._lowered_dy = (dy, d)
            # Row (ky, kx, o) of D.T @ X holds dW[o, :, K-1-ky, K-1-kx].
            dw = (d.T @ self._x_channels_last()).reshape(k, k, oc, c)[::-1, ::-1]
            dw = dw.transpose(2, 3, 0, 1)
        else:
            # The direct path's one channels-last copy of X lets dW contract
            # over N*H*W in the same GEMM as the lowered path.
            cols = self._x_channels_last() if self.direct else self._saved
            dw = (dy2d.T @ cols).reshape(oc, k, k, c).transpose(0, 3, 1, 2)
        self.weight.accumulate_grad(dw.astype(self.weight.data.dtype))
        if self.bias is not None:
            self.bias.accumulate_grad(dy2d.sum(axis=0).astype(self.bias.data.dtype))

    def backward_data(self, dy: np.ndarray) -> np.ndarray:
        """MKL-DNN-style bwd-data: reads dY and W, writes dX."""
        if self._x_shape is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        if self.direct:
            self._check_dy(dy)
            # (C, OC) @ (N, OC, H*W) -> (N, C, H*W), NCHW like the forward.
            dx = np.matmul(self._w2d().T, dy.reshape(dy.shape[0], self.out_channels, -1))
            return dx.reshape(self._x_shape)
        if self.lowers_dy:
            kept, self._lowered_dy = self._lowered_dy, None
            d = kept[1] if kept is not None and kept[0] is dy else self._lower_dy(dy)
            n, c, h, w = self._x_shape
            dx = d @ self._w_flipped()  # (N*H*W, C)
            return np.ascontiguousarray(dx.reshape(n, h, w, c).transpose(0, 3, 1, 2))
        dy2d = self._dy_as_2d(dy)
        dcols = dy2d @ self._w2d()  # (N*OH*OW, K*K*C)
        return col2im(dcols, self._x_shape, self.kernel, self.stride, self.padding)

    def _w2d(self) -> np.ndarray:
        """The (OC, C, K, K) weight as an (OC, K*K*C) matrix, im2col's column order."""
        return self.weight.data.transpose(0, 2, 3, 1).reshape(self.out_channels, -1)

    def _w_flipped(self) -> np.ndarray:
        """The weight flipped along both kernel axes as a (K*K*OC, C) matrix,
        in the column order of :meth:`_lower_dy`'s D."""
        w = self.weight.data[:, :, ::-1, ::-1]
        return w.transpose(2, 3, 0, 1).reshape(-1, self.in_channels)

    def _lower_dy(self, dy: np.ndarray) -> np.ndarray:
        """D = im2col(dY, K, 1, K - 1 - p): row (n, h, w) holds the dY window
        that input pixel (h, w) reaches, an (N*H*W, K*K*OC) matrix."""
        self._check_dy(dy)
        return im2col(dy, self.kernel, 1, self.kernel - 1 - self.padding)[0]

    def _x_channels_last(self) -> np.ndarray:
        """The saved input as an (N*H*W, C) matrix (one copy)."""
        x = self._saved
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, self.in_channels)

    def _check_x(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_channels},H,W), got {x.shape}"
            )

    def _check_dy(self, dy: np.ndarray) -> None:
        if dy.shape != self._y_shape:
            raise ShapeError(f"{self.name}: dY shape {dy.shape} != Y shape {self._y_shape}")

    def _dy_as_2d(self, dy: np.ndarray) -> np.ndarray:
        self._check_dy(dy)
        return dy.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

    def output_hw(self, in_hw):
        """Expose shape inference for graph builders."""
        return conv2d_output_hw(in_hw, self.kernel, self.stride, self.padding)

    @property
    def flops_per_output_element(self) -> int:
        """Multiply-accumulate FLOPs (x2) per output element."""
        return 2 * self.in_channels * self.kernel * self.kernel
