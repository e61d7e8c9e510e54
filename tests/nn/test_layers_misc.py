"""ReLU, Linear, Concat, Add, losses, Sequential, Module plumbing."""

import numpy as np
import pytest

from repro.config import rng
from repro.errors import ExecutionError, ShapeError
from repro.nn import (
    Add,
    Concat,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
)
from repro.nn.init import he_normal, ones, xavier_uniform, zeros


class TestReLU:
    def test_forward_clips_negatives(self):
        y = ReLU()(np.array([-1.0, 0.0, 2.0], dtype=np.float32))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_backward_masks(self):
        relu = ReLU()
        relu(np.array([-1.0, 3.0], dtype=np.float32))
        dx = relu.backward(np.array([5.0, 5.0], dtype=np.float32))
        np.testing.assert_array_equal(dx, [0.0, 5.0])

    def test_backward_before_forward_raises(self):
        with pytest.raises(ExecutionError):
            ReLU().backward(np.zeros(3))

    @pytest.mark.parametrize("dy_shape", [(1, 3, 1, 1), (2, 3, 16), (2, 3, 4, 5)])
    def test_misshaped_dy_raises(self, dy_shape):
        # (1, 3, 1, 1) used to broadcast to the input shape.
        relu = ReLU()
        relu(rng(5).normal(size=(2, 3, 4, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            relu.backward(np.ones(dy_shape, dtype=np.float32))


class TestLinear:
    def test_forward_shape_and_value(self):
        fc = Linear(4, 2, seed=0)
        fc.weight.data = np.eye(2, 4, dtype=np.float32)
        fc.bias.data[:] = [1.0, 2.0]
        y = fc(np.array([[1, 2, 3, 4]], dtype=np.float32))
        np.testing.assert_allclose(y, [[2.0, 4.0]])

    def test_accepts_nchw_and_restores_grad_shape(self):
        fc = Linear(12, 5, seed=1)
        x = rng(0).normal(size=(2, 3, 2, 2)).astype(np.float32)
        y = fc(x)
        assert y.shape == (2, 5)
        dx = fc.backward(np.ones_like(y))
        assert dx.shape == x.shape

    def test_gradients(self):
        fc = Linear(3, 2, seed=2)
        x = rng(1).normal(size=(4, 3)).astype(np.float32)
        dy = rng(2).normal(size=(4, 2)).astype(np.float32)
        fc(x)
        dx = fc.backward(dy)
        np.testing.assert_allclose(fc.weight.grad, dy.T @ x, rtol=1e-5)
        np.testing.assert_allclose(fc.bias.grad, dy.sum(axis=0), rtol=1e-5)
        np.testing.assert_allclose(dx, dy @ fc.weight.data, rtol=1e-5)

    def test_bad_input_raises(self):
        with pytest.raises(ShapeError):
            Linear(3, 2)(np.zeros((2, 5), dtype=np.float32))


class TestConcat:
    def test_forward_concatenates_channels(self):
        a = np.ones((2, 3, 4, 4), dtype=np.float32)
        b = 2 * np.ones((2, 5, 4, 4), dtype=np.float32)
        y = Concat()([a, b])
        assert y.shape == (2, 8, 4, 4)
        assert np.all(y[:, :3] == 1) and np.all(y[:, 3:] == 2)

    def test_backward_slices(self):
        cat = Concat()
        a = np.ones((1, 2, 2, 2), dtype=np.float32)
        b = np.ones((1, 3, 2, 2), dtype=np.float32)
        cat([a, b])
        dy = rng(3).normal(size=(1, 5, 2, 2)).astype(np.float32)
        da, db = cat.backward(dy)
        np.testing.assert_array_equal(da, dy[:, :2])
        np.testing.assert_array_equal(db, dy[:, 2:])

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeError):
            Concat()([np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 5, 5))])

    @pytest.mark.parametrize("dy_shape", [(1, 8, 2, 2), (2, 8, 4, 2), (2, 7, 4, 4)])
    def test_misshaped_dy_raises(self, dy_shape):
        # (1, 8, 2, 2) has the output's channels, which used to be enough
        # to get slices of it back.
        cat = Concat()
        cat([np.zeros((2, 3, 4, 4), np.float32), np.zeros((2, 5, 4, 4), np.float32)])
        with pytest.raises(ShapeError):
            cat.backward(np.ones(dy_shape, dtype=np.float32))


class TestAdd:
    def test_forward_sums(self):
        y = Add()([np.ones((2, 2)), 2 * np.ones((2, 2)), 3 * np.ones((2, 2))])
        np.testing.assert_array_equal(y, 6 * np.ones((2, 2)))

    def test_backward_copies_to_all(self):
        add = Add()
        add([np.zeros((2, 2)), np.zeros((2, 2))])
        dy = rng(4).normal(size=(2, 2))
        da, db = add.backward(dy)
        np.testing.assert_array_equal(da, dy)
        np.testing.assert_array_equal(db, dy)
        assert da is not db  # independent buffers

    def test_single_input_raises(self):
        with pytest.raises(ShapeError):
            Add()([np.zeros((2, 2))])

    @pytest.mark.parametrize("dy_shape", [(2, 3), (1, 2), (2, 2, 1)])
    def test_misshaped_dy_raises(self, dy_shape):
        # Any dY used to come back as copies.
        add = Add()
        add([np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ShapeError):
            add.backward(np.ones(dy_shape))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = SoftmaxCrossEntropy()
        value = loss(np.zeros((4, 10), dtype=np.float32), np.arange(4) % 10)
        assert value == pytest.approx(np.log(10), rel=1e-6)

    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -50.0, dtype=np.float32)
        logits[0, 1] = logits[1, 2] = 50.0
        assert loss(logits, np.array([1, 2])) < 1e-6

    def test_backward_is_probs_minus_onehot(self):
        loss = SoftmaxCrossEntropy()
        logits = rng(5).normal(size=(3, 4)).astype(np.float32)
        labels = np.array([0, 2, 3])
        loss(logits, labels)
        g = loss.backward()
        assert g.shape == logits.shape
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-6)

    def test_numerical_gradient(self):
        loss = SoftmaxCrossEntropy()
        logits = rng(6).normal(size=(2, 3)).astype(np.float64)
        labels = np.array([1, 0])
        loss(logits, labels)
        g = loss.backward()
        eps = 1e-6
        for idx in [(0, 0), (0, 1), (1, 2)]:
            old = logits[idx]
            logits[idx] = old + eps
            fp = loss(logits, labels)
            logits[idx] = old - eps
            fm = loss(logits, labels)
            logits[idx] = old
            assert g[idx] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4)

    def test_label_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.zeros((3,), dtype=int))


class TestSequentialAndModule:
    def test_roundtrip(self):
        seq = Sequential([Linear(4, 8, seed=0), ReLU(), Linear(8, 2, seed=1)])
        x = rng(7).normal(size=(3, 4)).astype(np.float32)
        y = seq(x)
        dx = seq.backward(np.ones_like(y))
        assert dx.shape == x.shape
        assert len(list(seq.parameters())) == 4  # two weights + two biases

    def test_state_dict_roundtrip(self):
        seq = Sequential([Linear(4, 2, seed=0)], name="s")
        state = seq.state_dict()
        seq[0].weight.data += 1.0
        seq.load_state_dict(state)
        np.testing.assert_array_equal(seq.state_dict()[list(state)[0]],
                                      state[list(state)[0]])

    def test_load_state_dict_strict(self):
        seq = Sequential([Linear(4, 2, seed=0)], name="s")
        with pytest.raises(ExecutionError):
            seq.load_state_dict({})

    def test_train_eval_propagates(self):
        seq = Sequential([ReLU(), ReLU()])
        seq.eval()
        assert all(not m.training for m in seq)

    def test_parameter_grad_shape_checked(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ExecutionError):
            p.accumulate_grad(np.zeros((3,)))

    def test_parameter_grad_is_c_contiguous(self):
        """A transposed gradient (as Conv2d's dW is) must not leave
        ``grad`` in its memory order: ``data`` is always C-contiguous."""
        p = Parameter(np.zeros((4, 3, 2, 2), dtype=np.float32))
        g = np.arange(48, dtype=np.float64).reshape(4, 2, 2, 3).transpose(0, 3, 1, 2)
        p.accumulate_grad(g)
        assert p.grad.flags.c_contiguous
        assert p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, g)


class TestInit:
    def test_he_normal_scale(self):
        w = he_normal((256, 64, 3, 3), seed=0)
        expected_std = np.sqrt(2.0 / (64 * 9))
        assert w.std() == pytest.approx(expected_std, rel=0.05)

    def test_xavier_uniform_bounds(self):
        w = xavier_uniform((100, 50), seed=1)
        bound = np.sqrt(6.0 / 150)
        assert w.min() >= -bound and w.max() <= bound

    def test_constant_fills(self):
        assert np.all(zeros((3,)) == 0)
        assert np.all(ones((3,)) == 1)

    def test_seeded_reproducibility(self):
        np.testing.assert_array_equal(he_normal((4, 4), seed=7),
                                      he_normal((4, 4), seed=7))
