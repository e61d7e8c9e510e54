"""The compiled step plan against ground truth: what a training step holds.

``GraphExecutor`` compiles each graph into forward and backward entries
that drop every activation, gradient, BN context and layer cache at its
last use (``repro.train.executor``). Three checks:

* **The forward/backward boundary.** After ``forward``, the feature-sized
  buffers the executor holds (``env``, BN contexts and layer caches,
  deduplicated by base buffer) are the retained set
  :func:`repro.perf.footprint.retained_tensors` predicts, for the
  DenseNet-BC miniature ``perfbench/run.py --workload train-densenet``
  times and for every tiny registry model, under all five scenarios.
  Every held buffer is a retained tensor or one of :data:`SUBSTITUTES`,
  each named with its reason, and every retained tensor is held unless a
  substitute stands in for it.
* **Nothing survives a step.** After ``Trainer.step`` no feature-sized
  array is reachable from the executor or its layers.
* **Same bits on the blocked norm paths.** The executor's alive and
  EWS-fused BN norms run on ``blocked_normalize_apply`` and one shared
  x_hat/dgamma/dbeta routine; they keep the bits of the inline
  expressions they replaced (``tests/reference_kernels.py``) in fp32 and
  fp64, on the miniature's two alive norms and tiny_resnet's eleven
  EWS-fused ones (on its eight EWS nodes).
"""

import functools

import numpy as np
import pytest

from repro.graph.node import OpKind
from repro.models import build_model, densenet_graph
from repro.models.registry import MODEL_BUILDERS
from repro.nn import Conv2d, MaxPool2d, SoftmaxCrossEntropy
from repro.nn.depthwise import DepthwiseConv2d
from repro.nn.module import Parameter
from repro.passes import apply_scenario
from repro.passes.scenarios import SCENARIO_ORDER
from repro.perf.footprint import _alias_map, retained_tensors, training_footprint
from repro.train import GraphExecutor, SyntheticClassification, Trainer, synthetic_batch

from tests import reference_kernels
from tests.conftest import assert_same_bits

#: Layer caches that may hold a buffer no graph tensor owns, with why.
SUBSTITUTES = {
    (Conv2d, "_saved"): "a convolution that lowers X (strided, or padded "
    "beyond K - 1) keeps the im2col columns dW contracts against instead of "
    "X, K*K/stride^2 times X's bytes",
    (DepthwiseConv2d, "_windows"): "a padded depthwise convolution's window "
    "view reads a padded copy of X, not X",
    (MaxPool2d, "_argmax"): "max pooling keeps an int64 argmax where the "
    "ledger's read_argmax sweep reads Y",
    (SoftmaxCrossEntropy, "_probs"): "the loss keeps its (N, K) softmax "
    "probabilities for the p - onehot backward; the ledger's LOSS backward "
    "reads no activation",
}


def stands_in_for(layer, attr, node):
    """The tensor a :data:`SUBSTITUTES` buffer replaces (None for the
    loss's), or False if the buffer is not one of them."""
    if (type(layer), attr) not in SUBSTITUTES:
        return False
    if isinstance(layer, Conv2d) and (layer.direct or layer.lowers_dy):
        return False  # these keep X itself
    if isinstance(layer, DepthwiseConv2d) and layer.padding == 0:
        return False  # the window view reads X itself
    if isinstance(layer, MaxPool2d):
        return node.outputs[0]
    return node.inputs[0] if node is not None else None


MINIATURE = dict(blocks=(6, 12), growth=12, image=(3, 32, 32), batch=32,
                 num_classes=10, name="densenet_bc_mini")
TINY = sorted(name for name in MODEL_BUILDERS if name.startswith("tiny_"))


def model(name):
    return densenet_graph(**MINIATURE) if name == "miniature" else build_model(name)


@functools.lru_cache(maxsize=None)
def scenario_graph(name, scenario):
    g = model(name)
    return g if scenario == "baseline" else apply_scenario(g, scenario)[0]


def batch_of(graph, seed=0):
    spec = graph.tensor(graph.nodes_of_kind(OpKind.DATA)[0].outputs[0])
    return synthetic_batch(spec.shape[0], spec.shape[1:], 10, seed=seed)


def base(a):
    """The array that owns *a*'s memory (through views and window views)."""
    while True:
        b = a.base
        if b is not None and not isinstance(b, np.ndarray):
            b = getattr(b, "base", None)  # as_strided's interface holder
        if not isinstance(b, np.ndarray):
            return a
        a = b


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from arrays_in(v)


def held_after_forward(graph):
    """Run one forward through the real plan. Returns the feature-sized
    buffers the executor then holds, ``{id: (buffer, holders)}``, with a
    holder ``(layer, attribute, node name or None)``, and the
    tensor names every buffer bound in forward was bound to."""
    ex = GraphExecutor(graph, seed=0)
    bound = {}  # keeps every bound array alive, so no id is reused

    def tracking(run):
        def wrapped(self, e, env):
            for t in e.reads:
                bound.setdefault(t, env[t])
            run(self, e, env)
            for t in e.writes:
                bound[t] = env[t]
        return wrapped

    for e in ex.forward_plan:
        e.run = tracking(e.run)
    ex.forward(*batch_of(graph))
    holders = [(("env", t, None), a) for t, a in ex._env.items()]
    holders += [(("ctx", k, None), a) for ctx in ex._bn_ctx.values()
                for k, a in ctx.items()]
    layers = list(ex.modules.items()) + [(None, ex.loss_module)]
    layers += [(name, bn) for name, bn in ex.bn_params.items()
               if name not in ex.modules]
    for name, layer in layers:
        for attr, value in vars(layer).items():
            holders += [((layer, attr, name), a) for a in arrays_in(value)]
    held = {}
    for holder, a in holders:
        b = base(a)
        if b.ndim >= 2:  # per-channel vectors are not feature maps
            held.setdefault(id(b), (b, []))[1].append(holder)
    names = {}
    for t, a in bound.items():
        names.setdefault(id(base(a)), set()).add(t)
    return held, names


CASES = [(m, s) for m in ["miniature"] + TINY for s in SCENARIO_ORDER]


@pytest.mark.parametrize("name, scenario", CASES)
def test_boundary_bytes_are_the_predicted_retained_set(name, scenario):
    graph = scenario_graph(name, scenario)
    held, names = held_after_forward(graph)
    aliases = _alias_map(graph)
    retained = retained_tensors(graph)
    kept, substitutes, stands_in = set(), 0, set()
    for key, (buf, holders) in held.items():
        tensors = {aliases.get(t, t) for t in names.get(key, ())} & retained
        if tensors:
            kept |= tensors
            assert all(graph.tensor(t).size_bytes == buf.nbytes for t in tensors)
            continue
        for layer, attr, name in holders:
            t = stands_in_for(layer, attr, graph.node(name) if name else None)
            assert t is not False, (name, attr, buf.dtype, buf.shape)
            stands_in.add(aliases.get(t, t))
        substitutes += buf.nbytes
    assert retained - kept <= stands_in
    measured = sum(buf.nbytes for buf, _ in held.values())
    missing = sum(graph.tensor(t).size_bytes for t in retained - kept)
    assert measured == training_footprint(graph).retained_bytes - missing + substitutes


def test_miniature_boundary_bytes():
    """The figures docs/kernels.md quotes: the stem's columns (4.82 MB in
    place of a 0.39 MB image), the stem pool's argmax (0.39 MB) and the
    softmax probabilities (1.3 KB) over the predicted retained set."""
    for scenario, predicted, measured in (("baseline", 22_339_584, 27_157_760),
                                          ("bnff_icf", 12_558_336, 17_376_512)):
        graph = scenario_graph("miniature", scenario)
        held, _ = held_after_forward(graph)
        assert training_footprint(graph).retained_bytes == predicted
        assert sum(buf.nbytes for buf, _ in held.values()) == measured


def reachable_arrays(root):
    """Every ndarray reachable from *root* through attributes and
    containers, parameters excepted."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, Parameter)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("name, scenario", CASES)
def test_nothing_feature_sized_survives_a_step(name, scenario):
    graph = scenario_graph(name, scenario)
    spec = graph.tensor(graph.nodes_of_kind(OpKind.DATA)[0].outputs[0])
    data = SyntheticClassification(image=spec.shape[1:], num_classes=10, seed=0)
    trainer = Trainer(GraphExecutor(graph, seed=0), data)
    trainer.step(spec.shape[0], seed=0)
    left = [(a.shape, a.dtype) for a in reachable_arrays(trainer.executor)
            if a.ndim >= 2]
    assert not left
    assert not trainer.executor._env and not trainer.executor._bn_ctx


def train_steps(graph, dtype, steps=2):
    ex = GraphExecutor(graph, seed=7, dtype=dtype)
    x, y = batch_of(graph, seed=3)
    losses = []
    for _ in range(steps):
        ex.zero_grad()
        losses.append(ex.forward(x, y))
        din = ex.backward()
        for p in ex.parameters():
            p.data -= 0.05 * p.grad
    grads = {name: p.grad for name, p in ex.named_parameters()}
    return losses, din, ex.state_dict(), grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name, scenario, host, sites", [
    ("miniature", "bnff_icf", OpKind.BN_NORM, 2),  # alive norms
    ("tiny_resnet", "bnff", OpKind.EWS, 11)])  # on its 8 EWS nodes
def test_norm_paths_keep_the_inline_bits(name, scenario, host, sites, dtype,
                                         monkeypatch):
    graph = scenario_graph(name, scenario)
    norms = {n.name for n in graph.nodes_of_kind(OpKind.BN_NORM)
             if graph.node(n.attrs.get("fused_into") or n.name).kind == host}
    assert len(norms) == sites
    got = train_steps(graph, dtype)
    calls = []

    def counted(ref):
        def run(ex, norm, t):
            calls.append(norm.name)
            return ref(ex, norm, t)
        return run

    with monkeypatch.context() as m:
        m.setattr(GraphExecutor, "_normalize",
                  counted(reference_kernels.executor_normalize))
        m.setattr(GraphExecutor, "_param_grads",
                  counted(reference_kernels.executor_param_grads))
        want = train_steps(graph, dtype)
    assert norms <= set(calls)
    assert got[0] == want[0]
    assert_same_bits(got[1], want[1])
    for ours, theirs in zip(got[2:], want[2:]):
        assert list(ours) == list(theirs)
        for key in ours:
            assert_same_bits(ours[key], theirs[key])
