"""Test-only references: the code paths the training step used to run.

The library replaced each of these with a faster path that is meant to
give the same bits. The tests keep the old forms here, unchanged in their
arithmetic, and compare the new paths against them:

* :func:`channel_sum` — the per-channel sum as ``x.sum(axis=(0, 2, 3))``,
  N*C pairwise sums of H*W elements added over the batch, instead of the
  batch rows first;
* :func:`bn_relu_conv_backward` — the fused (sub-BN2)-ReLU-CONV2 backward
  on the naive ``_affine_normalize``, with its full-size ``x_hat``,
  ``bn_out``, rectified input, ReLU mask and ``d_bn_out * x_hat``
  temporaries, summing dgamma/dbeta through :func:`channel_sum` unless it
  is handed another sum;
* :func:`maxpool_forward` — max pooling as ``max``/``argmax`` along a
  K*K-long window axis;
* :func:`normalize_apply` and :func:`bn_input_grad_transform` — the naive
  sub-BN2 affine and sub-BN1' transform expressions the blocked kernels
  reproduce, and :func:`batchnorm_input_grad`, ``BatchNorm2d``'s own
  sub-BN1' before it ran on the blocked transform;
* :func:`executor_normalize` and :func:`executor_param_grads` — the
  sub-BN2 and sub-BN2' math ``GraphExecutor`` ran inline for alive and
  EWS-fused BN norms, full-size ``x_hat`` and products included, before
  it ran them on ``blocked_normalize_apply`` and one shared routine;
* :func:`lowered_convs` — 1x1 convolutions through ``im2col``/``col2im``
  instead of the direct channel GEMM;
* :func:`x_lowering_backward` and :func:`conv_backward` — the backward of a
  stride-1 K > 1 convolution through the lowering of its input X
  (``dW = dY2d.T @ im2col(X)``, ``dX = col2im(dY2d @ W2d)``) instead of
  the lowering of dY.

Two of them, :func:`channel_sum` and the lowering of X, do not give the
same bits, only the same sums in another order.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.kernels import bn_stats
from repro.kernels.bn_stats import resolve_accumulate_dtype, stat_dtype
from repro.nn import Conv2d
from repro.nn.im2col import col2im, im2col


def channel_sum(x, accumulate_dtype=None):
    """:func:`repro.kernels.bn_stats.channel_sum` in the old order."""
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    return x.sum(axis=(0, 2, 3), dtype=acc)


def affine_normalize(x, mean, var, gamma, beta, eps, accumulate_dtype=None):
    """Return ``(x_hat, bn_out)`` for the saved statistics, naively."""
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=x.dtype)
    if acc is not None:
        mean = mean.astype(acc, copy=False)
        var = var.astype(acc, copy=False)
        gamma = gamma.astype(acc, copy=False)
        beta = beta.astype(acc, copy=False)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    bn_out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    return x_hat, bn_out.astype(x.dtype)


def bn_relu_conv_backward(dy, conv, bn_x, mean, var, gamma, beta,
                          eps=1e-5, apply_relu=True, accumulate_dtype=None,
                          sum_channels=channel_sum):
    """The fused backward as it was before it ran on the blocked kernels.

    ``sum_channels(terms, accumulate_dtype)`` makes the dgamma and dbeta
    reductions, in that order.
    """
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=dy.dtype)
    x_hat, bn_out = affine_normalize(bn_x, mean, var, gamma, beta, eps,
                                     accumulate_dtype=acc)
    conv_in = np.maximum(bn_out, 0) if apply_relu else bn_out
    if acc is not None and acc.itemsize > conv_in.dtype.itemsize:
        conv_in = conv_in.astype(acc)
        dy_acc = dy.astype(acc)
    else:
        dy_acc = dy

    conv.prepare_backward(conv_in)
    conv.backward_weights(dy_acc)
    d_conv_in = conv.backward_data(dy_acc)

    d_bn_out = d_conv_in * (bn_out > 0) if apply_relu else d_conv_in
    dgamma = sum_channels(d_bn_out * x_hat, acc).astype(gamma.dtype)
    dbeta = sum_channels(d_bn_out, acc).astype(beta.dtype)
    if acc is not None:
        d_bn_out = d_bn_out.astype(dy.dtype, copy=False)
    return d_bn_out, dgamma, dbeta


def maxpool_forward(pool, x):
    """``MaxPool2d.forward`` as max/argmax along the flattened window axis."""
    win = pool._windows(x, fill=-np.inf)
    flat = win.reshape(*pool._y_shape, -1)
    pool._argmax = flat.argmax(axis=-1)
    return flat.max(axis=-1)


def normalize_apply(x, mean, inv_std, gamma, beta, relu=False, out=None,
                    return_x_hat=False, block_batch=None):
    """The historical ``BatchNorm2d.normalize`` expression, plus ReLU."""
    assert out is None and not return_x_hat
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = (gamma[None, :, None, None] * x_hat
         + beta[None, :, None, None]).astype(x.dtype)
    return np.maximum(y, 0) if relu else y


def bn_input_grad_transform(d_bn_out, bn_x, mean, var, gamma, dgamma, dbeta,
                            eps, accumulate_dtype=None):
    """The naive sub-BN1' expression the blocked transform reproduces."""
    acc = resolve_accumulate_dtype(accumulate_dtype, storage=d_bn_out.dtype)
    d, x = d_bn_out, bn_x
    if acc is not None:
        mean, var, gamma, dgamma, dbeta, d, x = (
            t.astype(acc) for t in (mean, var, gamma, dgamma, dbeta, d, x))
    inv_std = 1.0 / np.sqrt(var + eps)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    g = (gamma * inv_std)[None, :, None, None]
    return ((g / m) * (m * d - dbeta[None, :, None, None]
                       - x_hat * dgamma[None, :, None, None])) \
        .astype(d_bn_out.dtype)


def batchnorm_input_grad(bn, dy, dgamma, dbeta):
    """``BatchNorm2d.input_grad`` as the unblocked chain on its saved
    ``x``, ``mean`` and ``inv_std``."""
    x_hat = (bn._x - bn._mean[None, :, None, None]) \
        * bn._inv_std[None, :, None, None]
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dy_wide = dy.astype(stat_dtype(dy.dtype), copy=False)
    g = (bn.gamma.data * bn._inv_std)[None, :, None, None]
    dx = (g / m) * (m * dy_wide - dbeta[None, :, None, None]
                    - x_hat * dgamma[None, :, None, None])
    return dx.astype(dy.dtype)


def executor_normalize(ex, norm, x):
    """``GraphExecutor._normalize`` as the inline expression the executor's
    ``_forward_norm`` and ``_forward_ews`` used."""
    bn, ctx = ex._bn_of(norm)
    ctx["x"] = x
    ctx["inv_std"] = inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
    x_hat = (x - ctx["mean"][None, :, None, None]) * inv_std[None, :, None, None]
    y = (bn.gamma.data[None, :, None, None] * x_hat
         + bn.beta.data[None, :, None, None])
    return y.astype(x.dtype)


def executor_param_grads(ex, norm, dy):
    """``GraphExecutor._param_grads`` as the inline expression the
    executor's ``_backward_norm`` and ``_backward_ews`` used, summing
    through the library's ``channel_sum`` as they did."""
    bn, ctx = ex._bn_of(norm)
    inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
    x_hat = (ctx["x"] - ctx["mean"][None, :, None, None]) \
        * inv_std[None, :, None, None]
    dgamma = bn_stats.channel_sum(dy * x_hat).astype(bn.gamma.data.dtype)
    dbeta = bn_stats.channel_sum(dy).astype(bn.beta.data.dtype)
    ex._set_param_grads(bn, ctx, dgamma, dbeta)


@contextlib.contextmanager
def lowered_convs():
    """Run every :class:`~repro.nn.Conv2d` through ``im2col``/``col2im``."""
    direct = Conv2d.direct
    Conv2d.direct = property(lambda self: False)
    try:
        yield
    finally:
        Conv2d.direct = direct


def x_lowering_backward(x, weight, dy, stride, padding):
    """``(dX, dW, db)`` of a convolution through the lowering of X.

    The backward every K > 1 ``Conv2d`` ran before stride-1 convolutions
    lowered dY: ``cols = im2col(X)``, ``dW = dY2d.T @ cols`` and
    ``dX = col2im(dY2d @ W2d)``, with ``db`` summed over ``dY2d``'s rows.
    """
    oc, c, k, _ = weight.shape
    cols, _ = im2col(x, k, stride, padding)
    dy2d = dy.transpose(0, 2, 3, 1).reshape(-1, oc)
    w2d = weight.transpose(0, 2, 3, 1).reshape(oc, -1)
    dw = (dy2d.T @ cols).reshape(oc, k, k, c).transpose(0, 3, 1, 2)
    dx = col2im(dy2d @ w2d, x.shape, k, stride, padding)
    return dx, dw, dy2d.sum(axis=0)


def conv_backward(conv, dy):
    """``Conv2d.backward`` with :func:`x_lowering_backward` for every conv
    that lowers dY (the rest run their own backward)."""
    if not conv.lowers_dy:
        conv.backward_weights(dy)
        return conv.backward_data(dy)
    dx, dw, db = x_lowering_backward(conv._saved, conv.weight.data, dy,
                                     conv.stride, conv.padding)
    conv.weight.accumulate_grad(dw.astype(conv.weight.data.dtype))
    if conv.bias is not None:
        conv.bias.accumulate_grad(db.astype(conv.bias.data.dtype))
    return dx
