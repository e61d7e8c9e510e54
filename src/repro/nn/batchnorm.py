"""Reference training-mode Batch Normalization (the paper's baseline).

The implementation is deliberately staged the way the paper's Figure 5
draws the baseline dataflow:

* forward: **pass 1** reads X to compute the per-channel mean, **pass 2**
  reads X again for the variance (two-pass, numerically canonical
  ``E((X - E X)^2)``), **pass 3** reads X a third time to normalize and
  writes Y. Three reads + one write of the mini-batch tensor.
* backward: **pass 1** reads dY and X to reduce dgamma/dbeta, **pass 2**
  reads dY and X again to form dX and writes it.

Each stage is a separate method so the restructuring passes in
:mod:`repro.passes` have a functional ground truth per sub-layer
(sub-BN1 = stages 1-2, sub-BN2 = stage 3, sub-BN2' = backward stage 1,
sub-BN1' = backward stage 2).

Precision contract (matching :mod:`repro.kernels.bn_stats`): statistics,
``inv_std`` and the inference-time scale/shift vectors are held at
``max(input, fp32)`` — per-channel vectors are cache-resident kilobytes,
so keeping them wide is free — and only the *final* output of each stage
is downcast to the input's storage dtype. Sub-fp32 inputs therefore
normalize through fp32 arithmetic instead of having the affine parameters
silently truncated to fp16 first; fp32/fp64 inputs are bit-identical to
the historical behaviour.

Every per-channel sum goes through
:func:`repro.kernels.bn_stats.channel_sum` (batch rows first, then each
channel's H*W run), the order the restructured graph's kernels sum in too.
It is imported lazily: the kernels package pulls in the fused kernels,
which import this module back at their top level.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import BN_EPSILON, stat_dtype
from repro.errors import ExecutionError, ShapeError
from repro.nn.init import ones, zeros
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W) for NCHW inputs."""

    def __init__(
        self,
        channels: int,
        eps: float = BN_EPSILON,
        momentum: float = 0.1,
        name: str = "bn",
    ):
        super().__init__(name)
        if channels <= 0:
            raise ShapeError("channels must be positive")
        self.channels = channels
        self.eps = float(eps)
        self.momentum = float(momentum)

        self.gamma = self.register_parameter(Parameter(ones((channels,)), name="gamma"))
        self.beta = self.register_parameter(Parameter(zeros((channels,)), name="beta"))

        # Inference-time running statistics (not used in training math but
        # updated by it, as in every mainstream framework).
        self.running_mean = zeros((channels,)).astype(np.float64)
        self.running_var = ones((channels,)).astype(np.float64)

        # Backward caches.
        self._x: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None
        self._inv_std: Optional[np.ndarray] = None

    # -- staged forward -------------------------------------------------------
    @staticmethod
    def _stat_dtype(x: np.ndarray) -> np.dtype:
        """Dtype the per-channel statistics live at: never below fp32."""
        return stat_dtype(x.dtype)

    def compute_mean(self, x: np.ndarray) -> np.ndarray:
        """Forward pass 1: sweep X once for the per-channel mean.

        Accumulated (and returned) at ``max(input, fp32)`` — a sub-fp32
        input never truncates its own statistics.
        """
        from repro.kernels.bn_stats import channel_sum

        self._check_input(x)
        m = x.shape[0] * x.shape[2] * x.shape[3]
        return channel_sum(x, self._stat_dtype(x)) / m

    def compute_var(self, x: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Forward pass 2: sweep X again for the two-pass (biased) variance.

        Centering and squaring happen at the statistics dtype (fp32+), so
        fp16 inputs cannot overflow in the square.
        """
        from repro.kernels.bn_stats import channel_sum

        self._check_input(x)
        stat = self._stat_dtype(x)
        centered = x.astype(stat, copy=False) - mean[None, :, None, None]
        np.multiply(centered, centered, out=centered)
        m = x.shape[0] * x.shape[2] * x.shape[3]
        return channel_sum(centered, stat) / m

    def normalize(
        self, x: np.ndarray, mean: np.ndarray, var: np.ndarray
    ) -> np.ndarray:
        """Forward pass 3: sweep X a third time, write Y.

        ``inv_std`` and the affine math stay at the statistics dtype; only
        the returned tensor is downcast to ``x``'s storage dtype. The sweep
        itself runs through :func:`repro.kernels.blocked.blocked_normalize_apply`
        — cache-resident batch slabs instead of full-tensor ``x_hat``/``y``
        temporaries — which is bit-identical to the historical expression
        at every block size (pinned by the blocked property suite).
        """
        from repro.kernels.blocked import blocked_normalize_apply

        stat = self._stat_dtype(x)
        mean = mean.astype(stat, copy=False)
        var = var.astype(stat, copy=False)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        y = blocked_normalize_apply(
            x, mean, inv_std, self.gamma.data, self.beta.data
        )
        self._x = x
        self._mean = mean
        self._var = var
        self._inv_std = inv_std
        return y

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return self._forward_inference(x)
        mean = self.compute_mean(x)
        var = self.compute_var(x, mean)
        self._update_running(mean, var, x)
        return self.normalize(x, mean, var)

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        # scale/shift are per-channel vectors: hold them at fp32+ and
        # downcast only the final output — truncating them to fp16 first
        # would inject a relative error of up to 2^-11 into *every*
        # element before the multiply.
        stat = self._stat_dtype(x)
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = (self.gamma.data * inv_std).astype(stat)
        shift = (self.beta.data - self.running_mean * scale).astype(stat)
        y = x * scale[None, :, None, None] + shift[None, :, None, None]
        return y.astype(x.dtype, copy=False)

    def release(self) -> None:
        """Drop the saved input; the per-channel statistics stay."""
        self._x = None

    def _update_running(self, mean: np.ndarray, var: np.ndarray, x: np.ndarray) -> None:
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbiased = var * (n / max(n - 1, 1))
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean.astype(np.float64)
        self.running_var = (1 - m) * self.running_var + m * unbiased.astype(np.float64)

    # -- staged backward ------------------------------------------------------
    def param_grads(self, dy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backward pass 1 (sub-BN2'): reduce dgamma/dbeta from dY and X.

        Reductions accumulate at the statistics dtype (fp32+): summing
        tens of thousands of fp16 terms in an fp16 accumulator loses —
        or overflows — the reduction.
        """
        from repro.kernels.bn_stats import channel_sum

        stat = self._stat_dtype(dy)
        x_hat = self._x_hat()
        # The dgamma product overwrites x_hat, which nothing reads after
        # it; a gradient wider than x_hat gets its own.
        if np.result_type(dy, x_hat) == x_hat.dtype:
            prod = np.multiply(x_hat, dy, out=x_hat)
        else:
            prod = dy * x_hat
        return channel_sum(prod, stat), channel_sum(dy, stat)

    def input_grad(
        self, dy: np.ndarray, dgamma: np.ndarray, dbeta: np.ndarray
    ) -> np.ndarray:
        """Backward pass 2 (sub-BN1'): form dX from dY, X and the reductions.

        Standard training-mode BN gradient:
        ``dX = (gamma * inv_std / M) * (M*dY - dbeta - x_hat * dgamma)``
        where M = N*H*W is the normalization population per channel. It
        runs on :func:`repro.kernels.blocked.blocked_bn_input_grad_transform`,
        the restructured graph's sub-BN1' kernel, with the accumulator at
        dY's statistics dtype: dY is lifted there before the m-scaling
        (m * dY at fp16 overflows at |dY| >= 65504/m), x_hat is recomputed
        slab by slab, and only dX is downcast back. When dY is wider than
        X's statistics (fp64 dY on fp32 data), inv_std and x_hat are
        recomputed at dY's width from the saved mean and var rather than
        taken from the forward's ``_inv_std``.
        """
        from repro.kernels.blocked import blocked_bn_input_grad_transform

        if self._x is None or self._mean is None or self._var is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        return blocked_bn_input_grad_transform(
            dy, self._x, self._mean, self._var, self.gamma.data, dgamma,
            dbeta, self.eps, accumulate_dtype=self._stat_dtype(dy),
        )

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        if dy.shape != self._x.shape:
            raise ShapeError(
                f"{self.name}: dY shape {dy.shape} != X shape {self._x.shape}"
            )
        dgamma, dbeta = self.param_grads(dy)
        self.gamma.accumulate_grad(dgamma.astype(self.gamma.data.dtype))
        self.beta.accumulate_grad(dbeta.astype(self.beta.data.dtype))
        return self.input_grad(dy, dgamma, dbeta)

    # -- helpers ---------------------------------------------------------------
    def _x_hat(self) -> np.ndarray:
        if self._x is None or self._mean is None or self._inv_std is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        x_hat = self._x - self._mean[None, :, None, None]
        return np.multiply(x_hat, self._inv_std[None, :, None, None],
                           out=x_hat)

    def saved_stats(self) -> Tuple[np.ndarray, np.ndarray]:
        """(mean, var) captured by the last training forward."""
        if self._mean is None or self._var is None:
            raise ExecutionError(f"{self.name}: no saved statistics")
        return self._mean, self._var

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected (N,{self.channels},H,W), got {x.shape}"
            )
