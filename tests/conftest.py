"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

# Static graph verification (docs/analysis.md) is on for the whole test
# suite — every pass application and scenario build re-checks the full
# invariant catalog — but stays off by default in production sweeps.
# setdefault so a test run can still opt out explicitly.
os.environ.setdefault("REPRO_VERIFY_GRAPHS", "1")

from repro.config import rng
from repro.hw.presets import SKYLAKE_2S
from repro.models.registry import build_model


@pytest.fixture
def r():
    """A fresh, seeded random generator per test."""
    return rng(1234)


@pytest.fixture(scope="session")
def densenet121_graph():
    """Paper-scale DenseNet-121 (expensive to build; share across tests)."""
    return build_model("densenet121", batch=120)


@pytest.fixture(scope="session")
def resnet50_graph():
    return build_model("resnet50", batch=120)


@pytest.fixture(scope="session")
def skylake():
    return SKYLAKE_2S


def numerical_gradient(f, x: np.ndarray, indices, eps: float = 1e-3) -> dict:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``x[idx]``.

    Only the requested indices are probed (full numerical gradients of conv
    stacks are too slow); returns ``{idx: d f / d x[idx]}``.
    """
    out = {}
    for idx in indices:
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        out[idx] = (fp - fm) / (2 * eps)
    return out


def sample_indices(shape, count: int, seed: int = 0):
    """Deterministic sample of multi-indices into an array of ``shape``."""
    gen = np.random.default_rng(seed)
    return [
        tuple(int(gen.integers(0, s)) for s in shape)
        for _ in range(count)
    ]


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    """Bit equality, compared as unsigned integers so ``-0.0 != 0.0``."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    uint = f"u{got.dtype.itemsize}"
    assert np.array_equal(got.view(uint), expected.view(uint))


def gamma(n, dtype):
    """Higham's ``gamma_n = n*u / (1 - n*u)``, ``u = eps / 2`` of *dtype*.

    A length-n dot product summed in any order, with every product and
    partial sum rounded to unit roundoff u or finer, lands within
    ``gamma_n * sum|a_i * b_i|`` of the exact value (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1); a plain sum of n terms,
    within ``gamma_{n-1} * sum|x_i|`` (4.2).
    """
    u = np.finfo(dtype).eps / 2
    assert n * u < 1, f"gamma_{n} is unbounded in {np.dtype(dtype)}"
    return n * u / (1 - n * u)


def assert_within(got, ref, bound):
    """``|got - ref| <= bound`` elementwise, evaluated in fp64."""
    diff = np.abs(got.astype(np.float64) - ref.astype(np.float64))
    assert np.all(diff <= bound), float(np.max(diff - bound))
