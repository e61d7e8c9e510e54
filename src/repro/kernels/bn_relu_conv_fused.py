"""(sub-BN2)-ReLU-CONV2 fusion and the full fused composite chain.

Forward: normalization, scale/shift and rectification all happen while the
following convolution reads its input feature map. The normalized and
rectified tensors are *transient* — only the pre-BN convolution output
(``bn_x``) and the final convolution output ever reach memory, collapsing
the baseline's five sweeps ``I4, I5, I6, O2, O3`` into ``I2'`` (plus the
``O2'`` write the next layer needs anyway).

Backward: the convolution's backward needs its forward input (the rectified
tensor) for the weight gradient; since that tensor was never stored, it is
recomputed inline from ``bn_x`` + the per-channel statistics — the same
memory sweep also yields the ReLU mask and the BN ``x_hat`` needed for the
dgamma/dbeta reductions (sub-BN2'). Nothing is read that the convolution's
backward would not have read anyway.

:class:`FusedChain` strings CONV1-(sub-BN1) and (sub-BN2)-ReLU-CONV2
together into the restructured composite-layer segment of Figure 5 with a
reference-identical parameter/gradient interface, which is what the
integration tests and the functional executor train with.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import BN_EPSILON
from repro.errors import ExecutionError
from repro.kernels.blocked import blocked_affine_normalize
from repro.kernels.bn_stats import channel_sum, resolve_accumulate_dtype
from repro.kernels.conv_bn_fused import (
    conv_bn_input_grad_backward,
    conv_bn_stats_forward,
)
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.conv import Conv2d
from repro.nn.module import Module


def bn_relu_conv_forward(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    conv: Conv2d,
    eps: float = BN_EPSILON,
    apply_relu: bool = True,
    accumulate_dtype=None,
) -> np.ndarray:
    """Fused forward: ``conv(relu(bn_affine(x)))`` in one logical sweep.

    ``x`` is the preceding convolution's output; ``mean``/``var`` were
    produced for free by :func:`~repro.kernels.conv_bn_fused.conv_bn_stats_forward`.
    The normalized/rectified tensors are local temporaries — the caller only
    ever keeps ``x``. ``apply_relu=False`` covers direct BN->CONV chains
    (no activation between them). With ``accumulate_dtype`` set, the BN
    affine runs at the accumulator width and the convolution GEMM
    accumulates there too (its input tiles are upcast, its output downcast
    to ``x``'s storage dtype — tensor-core semantics). The convolution
    keeps nothing for its backward: :func:`bn_relu_conv_backward`
    recomputes its input from ``x``.
    """
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    # Forward never needs x_hat, so the affine+ReLU streams through the
    # blocked kernel with no full-width x_hat temporary (the backward below
    # asks the same kernel to keep it for dgamma).
    conv_in = blocked_affine_normalize(x, mean, var, gamma, beta, eps,
                                       relu=apply_relu,
                                       accumulate_dtype=acc)
    if acc is not None and acc.itemsize > conv_in.dtype.itemsize:
        y = conv.forward(conv_in.astype(acc)).astype(x.dtype)
    else:
        y = conv.forward(conv_in)
    conv.release()
    return y


def bn_relu_conv_backward(
    dy: np.ndarray,
    conv: Conv2d,
    bn_x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = BN_EPSILON,
    apply_relu: bool = True,
    accumulate_dtype=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused backward of (sub-BN2)-ReLU-CONV2, including sub-BN2'.

    Recomputes the convolution's input from ``bn_x`` (never stored), runs
    both convolution backward halves, applies the ReLU mask to the returned
    gradient (when ``apply_relu``) and reduces dgamma/dbeta in the same
    sweep. With ``accumulate_dtype`` set, the recomputed input and the
    gradient GEMMs run at the accumulator width, the dgamma/dbeta
    reductions sum there, and ``d_bn_out`` is downcast back to ``dy``'s
    storage dtype before it travels to the preceding fused kernel.

    Returns ``(d_bn_out, dgamma, dbeta)`` where ``d_bn_out`` is the gradient
    at the BN output, ready for the preceding fused convolution's
    sub-BN1' transform.
    """
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=dy.dtype)
    # One recompute yields both tensors the backward reads: the rectified
    # convolution input at storage width and x_hat at the math width.
    conv_in, x_hat = blocked_affine_normalize(
        bn_x, mean, var, gamma, beta, eps, relu=apply_relu,
        accumulate_dtype=acc, return_x_hat=True,
    )
    if acc is not None and acc.itemsize > conv_in.dtype.itemsize:
        conv.prepare_backward(conv_in.astype(acc))
        dy_acc = dy.astype(acc)
    else:
        conv.prepare_backward(conv_in)
        dy_acc = dy
    conv.backward_weights(dy_acc)
    d_bn_out = conv.backward_data(dy_acc)

    if apply_relu:
        # relu(b) > 0 exactly where b > 0; the product keeps dX's signed
        # zeros the way an out-of-place mask multiply does.
        np.multiply(d_bn_out, conv_in > 0, out=d_bn_out)
    # The dgamma product overwrites x_hat, which nothing reads after it;
    # a gradient wider than x_hat (wider conv weights) gets its own.
    if np.result_type(d_bn_out, x_hat) == x_hat.dtype:
        prod = np.multiply(x_hat, d_bn_out, out=x_hat)
    else:
        prod = d_bn_out * x_hat
    # acc=None sums at numpy's default accumulator — one expression covers
    # both the contract (acc set) and the legacy path.
    dgamma = channel_sum(prod, acc).astype(gamma.dtype)
    dbeta = channel_sum(d_bn_out, acc).astype(beta.dtype)
    if acc is not None:
        d_bn_out = d_bn_out.astype(dy.dtype, copy=False)
    return d_bn_out, dgamma, dbeta


class FusedChain(Module):
    """Restructured CONV1 -> BN -> ReLU -> CONV2 segment (Figure 5).

    Owns a :class:`~repro.nn.conv.Conv2d` pair and a
    :class:`~repro.nn.batchnorm.BatchNorm2d` whose parameters it shares with
    the fused kernels, so optimizers see the exact same parameter set as the
    reference chain. Only ``bn_x`` (CONV1's output) is retained between
    forward and backward — the paper's restructured dataflow.
    """

    def __init__(self, conv1: Conv2d, bn: BatchNorm2d, conv2: Conv2d,
                 name: str = "fused_chain", accumulate_dtype=None):
        super().__init__(name)
        if conv1.out_channels != bn.channels or bn.channels != conv2.in_channels:
            raise ExecutionError(
                f"{name}: channel chain {conv1.out_channels} -> {bn.channels} "
                f"-> {conv2.in_channels} is inconsistent"
            )
        self.conv1 = self.register_module(conv1)
        self.bn = self.register_module(bn)
        self.conv2 = self.register_module(conv2)
        #: fp32+ accumulator threaded through every fused kernel; None
        #: keeps the historical native-dtype behaviour (fp32 chains).
        self.accumulate_dtype = resolve_accumulate_dtype(accumulate_dtype)

        self._bn_x: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bn_x, mean, var = conv_bn_stats_forward(
            x, self.conv1, accumulate_dtype=self.accumulate_dtype
        )
        self._bn_x, self._mean, self._var = bn_x, mean, var
        self.bn._update_running(mean, var, bn_x)
        return bn_relu_conv_forward(
            bn_x, mean, var, self.bn.gamma.data, self.bn.beta.data,
            self.conv2, self.bn.eps,
            accumulate_dtype=self.accumulate_dtype,
        )

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._bn_x is None:
            raise ExecutionError(f"{self.name}: backward before forward")
        d_bn_out, dgamma, dbeta = bn_relu_conv_backward(
            dy,
            self.conv2,
            self._bn_x,
            self._mean,
            self._var,
            self.bn.gamma.data,
            self.bn.beta.data,
            self.bn.eps,
            accumulate_dtype=self.accumulate_dtype,
        )
        self.bn.gamma.accumulate_grad(dgamma)
        self.bn.beta.accumulate_grad(dbeta)
        return conv_bn_input_grad_backward(
            d_bn_out,
            self.conv1,
            self._bn_x,
            self._mean,
            self._var,
            self.bn.gamma.data,
            dgamma,
            dbeta,
            self.bn.eps,
            accumulate_dtype=self.accumulate_dtype,
        )
