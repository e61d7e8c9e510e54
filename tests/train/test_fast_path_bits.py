"""Multi-step training through the fast paths keeps the reference bits.

The numpy training step runs 1x1 convolutions without lowering, the fused
BN-ReLU-CONV backward on the blocked kernels, ``BatchNorm2d``'s sub-BN1'
on the blocked transform, the blocked kernels' direct writes into their
results, and max pooling over offset planes. Each is meant to give the
bits of the path it replaced. Here ``GraphExecutor``s train the
DenseNet-BC miniature that ``perfbench/run.py --workload
train-densenet`` times, and after several steps every parameter must equal
the one an executor running the reference paths
(``tests/reference_kernels.py``) reaches, bit for bit. The reference fused
backward sums its dgamma/dbeta through the library's ``channel_sum``, so
both executors sum in the same order
(``tests/train/test_reduction_order_drift.py`` covers the order).
"""

import functools

import numpy as np
import pytest

import repro.kernels.blocked as blocked
import repro.train.executor as executor
from repro.kernels.bn_stats import channel_sum
from repro.models import densenet_graph
from repro.nn import BatchNorm2d, MaxPool2d
from repro.passes import apply_scenario
from repro.train import GraphExecutor, SyntheticClassification, Trainer

from tests import reference_kernels
from tests.conftest import assert_same_bits

STEPS = 3
SEED = 7


@pytest.fixture(scope="module")
def graphs():
    graph = densenet_graph(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                           num_classes=10, name="densenet_bc_mini")
    return {"baseline": graph, "bnff_icf": apply_scenario(graph, "bnff_icf")[0]}


def train(graph):
    data = SyntheticClassification(image=(3, 32, 32), num_classes=10, seed=SEED)
    trainer = Trainer(GraphExecutor(graph, seed=SEED), data)
    losses = [trainer.step(32, seed=i).loss for i in range(STEPS)]
    return losses, trainer.executor.state_dict()


def install_references(monkeypatch):
    monkeypatch.setattr(executor, "bn_relu_conv_backward",
                        functools.partial(reference_kernels.bn_relu_conv_backward,
                                          sum_channels=channel_sum))
    monkeypatch.setattr(executor, "bn_input_grad_transform",
                        reference_kernels.bn_input_grad_transform)
    monkeypatch.setattr(blocked, "blocked_normalize_apply",
                        reference_kernels.normalize_apply)
    monkeypatch.setattr(BatchNorm2d, "input_grad",
                        reference_kernels.batchnorm_input_grad)
    monkeypatch.setattr(MaxPool2d, "forward", reference_kernels.maxpool_forward)


@pytest.mark.parametrize("scenario", ["baseline", "bnff_icf"])
def test_parameters_match_reference_executor(graphs, scenario, monkeypatch):
    losses, state = train(graphs[scenario])
    with monkeypatch.context() as m, reference_kernels.lowered_convs():
        install_references(m)
        ref_losses, ref_state = train(graphs[scenario])
    assert losses == ref_losses
    assert list(state) == list(ref_state)
    for name in state:
        assert_same_bits(state[name], ref_state[name])
    assert all(np.isfinite(losses))
