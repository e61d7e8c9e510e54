"""Training drift of the batch-first channel sums, against a bound the
repository already accepts.

Every per-channel sum of the numpy training step goes through
``repro.kernels.bn_stats.channel_sum``, which adds the batch rows first and
then each channel's H*W run; it used to be ``x.sum(axis=(0, 2, 3))``
(``tests/reference_kernels.py::channel_sum``). The two orders give the same
sums rounded differently (``tests/kernels/test_fused_kernels.py`` bounds one
call), and over training steps such differences feed each other. Here both
graphs of the DenseNet-BC miniature that ``perfbench/run.py --workload
train-densenet`` times train on identical batches twice: once as they are,
and once with the old order patched into every module that binds
``channel_sum``. After every step each graph's relative L2 parameter
distance between the two orders must stay below the one between the
``baseline`` and ``bnff_icf`` graphs after the same step, the difference
between a graph and its restructuring that the equivalence tests accept.
The batches must be identical because a BN layer's output depends on the
whole batch (arXiv:1802.07590).
"""

import sys

import numpy as np
import pytest

import repro.kernels.bn_relu_conv_fused as fused
import repro.kernels.bn_stats as bn_stats
import repro.train.executor as executor
from repro.models import densenet_graph
from repro.passes import apply_scenario
from repro.train import GraphExecutor, SyntheticClassification, Trainer

from tests import reference_kernels

STEPS = 3
SEED = 7


def trajectory(graph):
    """Every parameter after each of STEPS training steps, flattened in
    name order to one fp64 vector per step."""
    data = SyntheticClassification(image=(3, 32, 32), num_classes=10, seed=SEED)
    trainer = Trainer(GraphExecutor(graph, seed=SEED), data)
    states = []
    for i in range(STEPS):
        trainer.step(32, seed=i)
        state = trainer.executor.state_dict()
        states.append(np.concatenate([state[k].ravel() for k in sorted(state)])
                      .astype(np.float64))
    return states


def relative_distance(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def channel_sum_bindings():
    """Every loaded ``repro`` module whose namespace holds ``channel_sum``
    (``BatchNorm2d`` imports it from ``bn_stats`` at each call)."""
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("repro")
            and getattr(m, "channel_sum", None) is bn_stats.channel_sum]


@pytest.fixture(scope="module")
def graphs():
    graph = densenet_graph(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                           num_classes=10, name="densenet_bc_mini")
    return {"baseline": graph, "bnff_icf": apply_scenario(graph, "bnff_icf")[0]}


def test_drift_from_the_old_order_stays_below_the_restructuring_drift(
        graphs, monkeypatch):
    bindings = channel_sum_bindings()
    assert {bn_stats, fused, executor} <= set(bindings)
    new = {s: trajectory(g) for s, g in graphs.items()}
    with monkeypatch.context() as m:
        for module in bindings:
            m.setattr(module, "channel_sum", reference_kernels.channel_sum)
        old = {s: trajectory(g) for s, g in graphs.items()}
    # Seed 7 gives, per step, baseline 6.6e-9, 1.1e-8, 1.4e-8 and bnff_icf
    # 4.3e-9, 8.7e-9, 1.2e-8 against 2.9e-4, 7.1e-4, 1.3e-3. The two
    # orders round differently, so a zero drift would mean the old order
    # never ran.
    for step in range(STEPS):
        accepted = relative_distance(new["bnff_icf"][step],
                                     new["baseline"][step])
        for scenario in graphs:
            drift = relative_distance(new[scenario][step], old[scenario][step])
            assert 0 < drift < accepted, (scenario, step, drift, accepted)
