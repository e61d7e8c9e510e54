"""Training drift of the dY-lowering convolution backward, against a bound
the repository already accepts.

Stride-1 K > 1 convolutions backpropagate through their lowered dY, which
sums the products of the lowering of X in another order
(``tests/nn/test_conv.py::TestLoweredDy`` bounds one call). Over training
steps such rounding differences feed each other. Here the baseline
DenseNet-BC miniature that ``perfbench/run.py --workload train-densenet``
times trains on identical batches twice: once as it is, and once with every
convolution backward on the lowering of X
(``tests/reference_kernels.py::conv_backward``). After every step their
relative L2 parameter distance must stay below the one between the
``baseline`` and ``bnff_icf`` graphs after the same step, the difference
between a graph and its restructuring that the equivalence tests accept
(both of those run the new backward). The batches must be identical
because a BN layer's output depends on the whole batch (arXiv:1802.07590).
"""

import numpy as np
import pytest

from repro.models import densenet_graph
from repro.nn import Conv2d
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


@pytest.fixture(scope="module")
def graphs():
    graph = densenet_graph(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                           num_classes=10, name="densenet_bc_mini")
    return {"baseline": graph, "bnff_icf": apply_scenario(graph, "bnff_icf")[0]}


def test_drift_from_x_lowering_stays_below_the_restructuring_drift(graphs, monkeypatch):
    assert any(isinstance(m, Conv2d) and m.lowers_dy
               for m in GraphExecutor(graphs["baseline"], seed=SEED).modules.values())
    new = trajectory(graphs["baseline"])
    restructured = trajectory(graphs["bnff_icf"])
    with monkeypatch.context() as m:
        m.setattr(Conv2d, "backward", reference_kernels.conv_backward)
        old = trajectory(graphs["baseline"])
    # Seed 7 gives 4.3e-9, 8.1e-9 and 1.2e-8 against 2.9e-4, 7.1e-4 and
    # 1.3e-3. The two backwards round differently, so a zero drift would
    # mean the reference never ran.
    for step in range(STEPS):
        drift = relative_distance(new[step], old[step])
        accepted = relative_distance(restructured[step], new[step])
        assert 0 < drift < accepted, (step, drift, accepted)
