"""RCF — ReLU-CONV Fusion kernels.

DenseNet (and pre-activation ResNet) place ReLU *before* the convolution, so
the stock "conv then relu" fusion of the reference library does not apply.
RCF instead clips elements while the following convolution reads its input
feature map:

* forward: ``y = conv(max(x, 0))`` with the rectified tensor never written
  back to memory — it exists only inside the convolution's input tiles.
* backward: the convolution's backward-data pass produces the gradient at
  its input, i.e. at the ReLU *output*; the ReLU mask (``x > 0``) is applied
  in the same write sweep, so the ReLU layer's three backward sweeps vanish.
  The mask is recomputed from ``x``, which the convolution's
  backward-weights pass sweeps anyway, and so is the rectified input that
  pass contracts dY against: the forward's convolution keeps nothing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.bn_stats import resolve_accumulate_dtype
from repro.nn.conv import Conv2d


def relu_conv_forward(x: np.ndarray, conv: Conv2d,
                      accumulate_dtype=None) -> np.ndarray:
    """Forward RCF: rectify inline, convolve, never materialize relu(x).

    The rectified input lives only for the convolution GEMM, as the fused
    primitive's input tile would live on-chip: ``conv`` keeps nothing, and
    :func:`relu_conv_backward` recomputes the input from ``x``. With
    ``accumulate_dtype`` set (fp32+), sub-fp32 inputs are upcast into the
    convolution GEMM — the partial sums accumulate wide — and the output
    is downcast to ``x``'s storage dtype.
    """
    conv_in = np.maximum(x, 0)
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    if acc is not None and acc.itemsize > conv_in.dtype.itemsize:
        y = conv.forward(conv_in.astype(acc)).astype(x.dtype)
    else:
        y = conv.forward(conv_in)
    conv.release()
    return y


def relu_conv_backward(
    x: np.ndarray, dy: np.ndarray, conv: Conv2d, accumulate_dtype=None
) -> Tuple[np.ndarray, None]:
    """Backward RCF: conv backward + inline mask application.

    Returns ``dX`` at the ReLU *input*. ``conv``'s weight gradient is
    accumulated as a side effect (its backward-weights half), from its
    input ``max(x, 0)`` recomputed here, upcast like the forward's. The
    mask comes from ``x`` directly — no saved ReLU output needed. With
    ``accumulate_dtype`` set, the gradient GEMMs run at the accumulator
    width and ``dX`` is downcast back to ``dy``'s storage dtype.
    """
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=dy.dtype)
    wide = acc is not None and acc.itemsize > dy.dtype.itemsize
    conv_in = np.maximum(x, 0)
    conv.prepare_backward(conv_in.astype(acc) if wide else conv_in)
    dy_acc = dy.astype(acc) if wide else dy
    conv.backward_weights(dy_acc)
    dx = conv.backward_data(dy_acc) * (x > 0)
    return (dx.astype(dy.dtype) if wide else dx), None
