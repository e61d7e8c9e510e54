"""Global configuration constants shared across the library.

Values here are deliberately boring: dtype byte widths, default seeds, and
the numeric tolerances used by the fused-kernel equivalence checks. Anything
that models *hardware* lives in :mod:`repro.hw`, not here.
"""

from __future__ import annotations

import os

import numpy as np

#: Default floating point dtype for feature maps and parameters. The paper
#: trains in single precision and shows fp32 is sufficient for the E(X^2)
#: variance formulation (Section 3.2), so fp32 is our default too.
DEFAULT_DTYPE = np.float32

#: Bytes per element for the supported dtypes.
DTYPE_BYTES = {
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 8,
    np.dtype(np.float16): 2,
}

#: Bytes per element for the supported *precision names* (narrowest first).
#: This is the numpy-free byte-width path: bf16 has no native numpy dtype,
#: so it exists throughout the analytical layers as a name plus a byte
#: width, with fp32 ndarrays as the functional emulation container (values
#: mantissa-truncated by :func:`repro.kernels.bf16.bf16_round`).
PRECISION_BYTES = {"fp16": 2, "bf16": 2, "fp32": 4, "fp64": 8}

#: Default RNG seed so every experiment, test and example is reproducible.
DEFAULT_SEED = 20190402  # MLSys 2019 conference date.

#: BN epsilon used throughout (matches common framework defaults).
BN_EPSILON = 1e-5

#: Relative tolerance for "fused kernel == reference kernel" assertions in
#: fp32. The single-sweep variance E(X^2)-E(X)^2 loses a little precision
#: relative to the two-pass formulation; the paper found fp32 adequate and
#: our checks quantify that claim.
FUSED_EQUIV_RTOL = 1e-4
FUSED_EQUIV_ATOL = 1e-5


def stat_dtype(dtype) -> np.dtype:
    """The dtype BN statistics are kept at: never narrower than fp32.

    Per-channel mean/variance vectors are cache-resident kilobytes, so
    keeping them wide costs nothing while protecting every downstream
    ``1/sqrt(var + eps)`` from sub-fp32 rounding. The single source of
    the fp32-floor rule — :mod:`repro.kernels.bn_stats` re-exports it
    and :mod:`repro.nn.batchnorm` applies it (both sides must agree, and
    importing either from the other would be circular).
    """
    return np.promote_types(np.dtype(dtype), np.float32)


def stat_precision(precision: str | None) -> str | None:
    """The *precision name* BN statistics are kept at: never below fp32.

    Name-level twin of :func:`stat_dtype` for the analytical layers, where
    bf16 exists only as a precision name. ``None`` (no explicit precision
    tag) passes through unchanged.
    """
    if precision is None:
        return None
    if PRECISION_BYTES[precision] < PRECISION_BYTES["fp32"]:
        return "fp32"
    return precision


def dtype_bytes(dtype) -> int:
    """Return bytes-per-element for *dtype*.

    Raises ``KeyError`` for unsupported dtypes rather than guessing, because
    traffic accounting must never silently use a wrong element size.
    """
    return DTYPE_BYTES[np.dtype(dtype)]


#: Environment knob for thread-parallel channel reductions in the blocked
#: kernels (:mod:`repro.kernels.blocked`). Unset or 1 keeps every kernel
#: serial — and therefore bit-identical to the historical numbers; the
#: blocked reduction order is partition- and thread-invariant either way,
#: so raising it changes wall time only.
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"


def kernel_threads() -> int:
    """Worker-thread count for blocked-kernel reductions (default 1).

    Read per call (not cached at import) so tests and benchmarks can flip
    the environment variable without re-importing. Values below 1 clamp to
    1; a non-integer raises ``ValueError`` rather than silently running
    serial.
    """
    raw = os.environ.get(KERNEL_THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"{KERNEL_THREADS_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, n)


def _env_flag(name: str) -> bool:
    """Whether the environment switch *name* is on (default: off).

    Read per call (not cached at import) so tests can flip the environment
    variable without re-importing. Any value other than the usual falsy
    spellings (empty, ``0``, ``false``, ``no``, ``off``) turns it on.
    """
    raw = os.environ.get(name, "0").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


#: Environment switch for the static IR verifier
#: (:mod:`repro.analysis.static`). When truthy, every pass application
#: (:meth:`repro.passes.base.Pass.__call__`), every scenario-graph build,
#: and every disk-loaded cached graph is re-checked against the full
#: invariant catalog (docs/analysis.md). Tests turn it on; sweeps leave it
#: off by default so verification never shows up in measured wall times.
VERIFY_GRAPHS_ENV = "REPRO_VERIFY_GRAPHS"


def verify_graphs_enabled() -> bool:
    """Whether graph verification is switched on (see :func:`_env_flag`)."""
    return _env_flag(VERIFY_GRAPHS_ENV)


#: Environment hook for the deterministic fault-injection harness
#: (:mod:`repro.faults`). When set, it holds a JSON-serialized
#: ``FaultPlan``; the sweep runner's pool-worker initializer installs it,
#: so chaos tests can kill/raise/stall inside *real* forked workers. Unset
#: (the production state) every injection site is a single branch.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


def rng(seed: int | None = None) -> np.random.Generator:
    """Return a seeded :class:`numpy.random.Generator`.

    Central helper so that every module draws randomness the same way and a
    single seed reproduces a whole experiment end to end.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
