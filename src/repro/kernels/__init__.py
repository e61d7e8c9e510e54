"""Fused kernels: the functional form of BN Fission-n-Fusion.

Each kernel here computes the same mathematics as a chain of reference
layers from :mod:`repro.nn` while touching the mini-batch tensors the
minimal number of times prescribed by the paper's Figure 5:

* :mod:`repro.kernels.bn_stats` — MVF: mean and variance from one sweep via
  ``Var(X) = E(X^2) - E(X)^2``.
* :mod:`repro.kernels.bf16` — software bfloat16 (mantissa-truncated fp32),
  so kernels can run bf16 inputs without a native numpy dtype.
* :mod:`repro.kernels.drift` — the Section 3.2 measurement the paper
  asserts but never prints: variance drift per storage precision.
* :mod:`repro.kernels.relu_conv_fused` — RCF: ReLU folded into the following
  convolution's input read (forward) and its backward-data write (backward).
* :mod:`repro.kernels.conv_bn_fused` — CONV1-(sub-BN1): statistics
  accumulated while the convolution produces its output; and the backward
  twin CONV1'-(sub-BN1') that applies the BN input-gradient transform while
  reading the incoming gradient.
* :mod:`repro.kernels.bn_relu_conv_fused` — (sub-BN2)-ReLU-CONV2: normalize
  + clip while the following convolution reads its input; backward recovers
  the ReLU mask and BN x-hat from tensors the convolution reads anyway.
* :mod:`repro.kernels.blocked` — the one-pass statistics and the
  elementwise transforms streamed through cache-resident scratch
  (bit-identical to the naive kernels at every block size).
* :mod:`repro.kernels.tune` — residency-driven block-size selection,
  reusing the simulator's :class:`~repro.hw.cache.CacheModel` rule.

The kernels never *store* the normalized or rectified intermediate feature
maps — only the pre-BN convolution output survives, exactly the paper's
restructured dataflow — so numerical agreement of these functions with the
reference layer chain is the correctness claim of the whole reproduction.

Every kernel takes an explicit ``accumulate_dtype`` (fp32 or wider):
inputs arrive at their storage precision — fp16/fp32/fp64 natively, bf16
through the :func:`~repro.kernels.bf16.bf16_round` emulation — and all
partial sums are held at the accumulator width, the way the paper's
measured fp32-accumulation variant (and every tensor-core GEMM) works.
"""

from repro.kernels.bf16 import bf16_round
from repro.kernels.blocked import (
    blocked_onepass_stats,
    blocked_affine_normalize,
    blocked_normalize_apply,
    blocked_bn_input_grad_transform,
)
from repro.kernels.tune import (
    choose_block_width,
    choose_block_batch,
    clear_tuning_cache,
    detect_local_llc_bytes,
    local_hardware_spec,
)
from repro.kernels.bn_stats import (
    channel_sum,
    onepass_stats,
    onepass_stats_fp32,
    twopass_stats,
    chunked_onepass_stats,
    resolve_accumulate_dtype,
    stat_dtype,
)
from repro.kernels.drift import quantize_storage, variance_drift
from repro.kernels.relu_conv_fused import relu_conv_forward, relu_conv_backward
from repro.kernels.conv_bn_fused import (
    conv_bn_stats_forward,
    conv_bn_input_grad_backward,
    bn_input_grad_transform,
)
from repro.kernels.bn_relu_conv_fused import (
    bn_relu_conv_forward,
    bn_relu_conv_backward,
    FusedChain,
)
from repro.kernels.verify import max_abs_diff, assert_fused_equal

__all__ = [
    "channel_sum",
    "onepass_stats",
    "onepass_stats_fp32",
    "twopass_stats",
    "chunked_onepass_stats",
    "resolve_accumulate_dtype",
    "stat_dtype",
    "bf16_round",
    "quantize_storage",
    "variance_drift",
    "relu_conv_forward",
    "relu_conv_backward",
    "conv_bn_stats_forward",
    "conv_bn_input_grad_backward",
    "bn_input_grad_transform",
    "bn_relu_conv_forward",
    "bn_relu_conv_backward",
    "FusedChain",
    "blocked_onepass_stats",
    "blocked_affine_normalize",
    "blocked_normalize_apply",
    "blocked_bn_input_grad_transform",
    "choose_block_width",
    "choose_block_batch",
    "clear_tuning_cache",
    "detect_local_llc_bytes",
    "local_hardware_spec",
    "max_abs_diff",
    "assert_fused_equal",
]
