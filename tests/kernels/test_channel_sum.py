"""``channel_sum``: the per-channel sum every BN reduction goes through.

It adds the N batch rows in order into one C*H*W vector, then sums each
channel's H*W run pairwise. Any order of a length-n sum, with every
partial sum rounded to unit roundoff u, lands within
``gamma_{n-1} * sum|x_i|`` of the exact value (Higham 4.2), here with
n = N*H*W and u of the accumulation dtype. The exact sum comes from
``math.fsum``: the error is taken as one ``fsum`` over the result and the
negated terms, so only the tiny error itself is rounded.
"""

import math

import numpy as np
import pytest

from repro.errors import PrecisionError, ShapeError
from repro.kernels.bn_stats import channel_sum

from tests.conftest import assert_same_bits, gamma

SHAPES = [(6, 5, 7, 9), (32, 48, 8, 8), (8, 1, 6, 6), (1, 4, 5, 5)]
#: (storage, accumulate_dtype): fp16 with the fp32 accumulator the
#: contract requires of it, fp32 at its own width and lifted to fp64, fp64.
CASES = [(np.float16, np.float32), (np.float32, None),
         (np.float32, np.float64), (np.float64, None)]


def _x(shape, dtype, seed=5):
    r = np.random.default_rng(seed)
    return (r.normal(0.5, 2.0, shape) * r.uniform(0.1, 10.0, shape)).astype(dtype)


@pytest.mark.parametrize("storage,acc", CASES)
@pytest.mark.parametrize("shape", SHAPES)
def test_within_gamma_of_the_exact_sum(shape, storage, acc):
    x = _x(shape, storage)
    got = channel_sum(x, acc)
    acc_dtype = np.dtype(storage if acc is None else acc)
    assert got.dtype == acc_dtype and got.shape == (shape[1],)
    n = shape[0] * shape[2] * shape[3]
    g = gamma(n - 1, acc_dtype)
    for c in range(shape[1]):
        terms = [float(v) for v in x[:, c].ravel()]
        error = math.fsum([float(got[c])] + [-v for v in terms])
        size = math.fsum(abs(v) for v in terms)
        assert abs(error) <= g * size, (c, error, g * size)


@pytest.mark.parametrize("storage,acc", CASES)
@pytest.mark.parametrize("shape", SHAPES)
def test_summing_narrow_storage_equals_summing_its_upcast(shape, storage, acc):
    """numpy upcasts exactly and adds the batch rows in the same order
    either way, so the naive statistics may sum their one upcast copy.
    (A batch of one-element rows is the exception: numpy sums an uncast
    one pairwise as a single run.)"""
    x = _x(shape, storage)
    a = np.dtype(storage if acc is None else acc)
    assert_same_bits(channel_sum(x, acc), channel_sum(x.astype(a)))


def test_adds_batch_rows_first():
    """The order itself: the batch rows, then each channel's H*W run. On
    this input ``x.sum(axis=(0, 2, 3))`` rounds differently in 3 of the 4
    channels."""
    x = _x((16, 4, 8, 8), np.float32)
    rows = x[0].copy()
    for row in x[1:]:
        rows += row
    assert_same_bits(channel_sum(x), rows.reshape(4, -1).sum(axis=1))
    assert not np.array_equal(channel_sum(x), x.sum(axis=(0, 2, 3)))


def test_accumulator_contract():
    x = _x((2, 3, 4, 4), np.float64)
    assert channel_sum(x, np.float32).dtype == np.float64  # lifted to storage
    with pytest.raises(PrecisionError):
        channel_sum(x.astype(np.float16), np.float16)
    with pytest.raises(ShapeError):
        channel_sum(x[0])
