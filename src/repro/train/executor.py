"""GraphExecutor: run a (possibly restructured) layer graph numerically.

The constructor builds one layer per node and compiles the graph once into
a *step plan*: a flat list of forward entries in node order and one of
backward entries in reverse, one of each per alive node. An entry holds
its handler and module, the fusion partners its node attrs name, resolved
to nodes once, the tensors it reads and writes, and the names it is the
last to need. Ghosted nodes get no entry (their work happens inside their
hosts), nor do DATA and LOSS: ``forward`` binds the batch before the plan
and takes the loss after it, and ``backward`` starts from the loss
gradient and returns the input gradient.

Activations (``env``) and gradients (``grads``) are keyed by tensor name,
and each dies at its last use: an activation after its last reader (a
forward entry, since every layer saves what its own backward needs,
unless an RCF convolution reads its input again in backward), a gradient
after the entry that consumes it, a BN context (``self._bn_ctx``, keyed by
the original BN layer name) after its sub-BN1' transform, and a layer's
saved tensors (``Module.release``) after its backward entry. So what
crosses the forward/backward boundary is the retained set
:func:`repro.perf.footprint.retained_tensors` predicts, apart from what
``tests/train/test_step_plan.py`` names, and no feature map outlives the
step. Freeing during the step, not after it, lets the allocator hand the
pages to the next tensor instead of returning them to the system.

The reverse schedule runs sub-BN2' (which fills dgamma/dbeta) before any
sub-BN1' transform that needs it — the strict dependency the paper's
Fission respects. Parameter initialization is derived from node *names*,
so a baseline graph and any restructured clone start from bit-identical
weights — the precondition for the equivalence tests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.kernels import blocked
from repro.kernels.bn_relu_conv_fused import bn_relu_conv_backward, bn_relu_conv_forward
from repro.kernels.bn_stats import channel_sum, onepass_stats, twopass_stats
from repro.kernels.conv_bn_fused import bn_input_grad_transform
from repro.kernels.relu_conv_fused import relu_conv_backward, relu_conv_forward
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.conv import Conv2d
from repro.nn.depthwise import DepthwiseConv2d
from repro.nn.linear import Linear
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.merge import Add, Concat
from repro.nn.module import Module, Parameter
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.relu import ReLU


@dataclass(eq=False)
class PlanEntry:
    """One alive node's forward or backward half, resolved once."""

    node: Node
    run: Callable[["GraphExecutor", "PlanEntry", Dict[str, np.ndarray]], None]
    module: Optional[Module]
    #: Input tensor -> the ghosted BN_NORM this entry normalizes it with.
    norms: Dict[str, Node]
    #: Tensor -> the BN_STATS whose sub-BN1' this entry runs for its gradient.
    transforms: Dict[str, Node]
    relu: bool  # a CONV with its ReLU fused in
    #: Forward: BN_STATS whose statistics are taken on the output.
    out_stats: Tuple[Node, ...] = ()
    #: Tensors read and written: activations forward, gradients backward;
    #: ``frees`` are those it reads or writes last.
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    frees: List[str] = field(default_factory=list)
    #: Backward: activations it reads, those it reads last, and the BN
    #: contexts whose sub-BN1' it runs.
    reads_env: Tuple[str, ...] = ()
    frees_env: List[str] = field(default_factory=list)
    frees_ctx: Tuple[str, ...] = ()


class GraphExecutor:
    """Numerical interpreter for layer graphs (baseline or restructured).

    ``dtype`` selects the training precision. fp32 is the paper's setting;
    fp64 implements its Section 3.2 fallback ("use higher-precision
    representations") and is what the precision tests use to show the
    restructured arithmetic converges to the reference as rounding
    vanishes.
    """

    def __init__(self, graph: LayerGraph, seed: int = 0, dtype=np.float32):
        self.graph = graph
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.modules: Dict[str, object] = {}
        self.bn_params: Dict[str, BatchNorm2d] = {}
        self.loss_module = SoftmaxCrossEntropy()
        self._env: Dict[str, np.ndarray] = {}
        self._bn_ctx: Dict[str, dict] = {}
        self._build_modules()
        if self.dtype != np.dtype(np.float32):
            for p in self.parameters():
                p.data = p.data.astype(self.dtype)
        self._compile()
        # glibc maps a request above its mmap threshold afresh, and raises
        # that threshold to the largest such block freed (up to 32 MB) and
        # its heap-trim threshold to twice that. Left low, they let a free
        # at last use trim the heap top mid-step, and the next step faults
        # the pages in again: 2,100-2,700 per baseline step of the
        # DenseNet-BC miniature. One untouched 30 MB block, freed at once,
        # raises both; other allocators just map and unmap it.
        np.empty(30 << 20, dtype=np.uint8)

    # ------------------------------------------------------------------ setup --
    def _seed_for(self, name: str) -> int:
        return (zlib.crc32(name.encode()) ^ self.seed) & 0x7FFFFFFF

    def _build_modules(self) -> None:
        for node in self.graph.nodes:
            k, a, name = node.kind, node.attrs, node.name
            seeded = dict(name=name, seed=self._seed_for(name))
            if k == OpKind.CONV and a.get("depthwise"):
                module = DepthwiseConv2d(a["in_channels"], a["kernel"],
                                         a["stride"], a["padding"], **seeded)
            elif k == OpKind.CONV:
                module = Conv2d(a["in_channels"], a["out_channels"], a["kernel"],
                                a["stride"], a["padding"], **seeded)
            elif k == OpKind.FC:
                module = Linear(a["in_features"], a["out_features"], **seeded)
            elif k == OpKind.BN:
                module = self.bn_params[name] = BatchNorm2d(a["channels"], name=name)
            elif k in (OpKind.POOL_MAX, OpKind.POOL_AVG):
                pool = MaxPool2d if k == OpKind.POOL_MAX else AvgPool2d
                module = pool(a["kernel"], a["stride"], a["padding"],
                              a.get("ceil_mode", False), name=name)
            elif k in _BY_NAME:
                module = _BY_NAME[k](name=name)
            else:
                if k in (OpKind.BN_STATS, OpKind.BN_NORM) \
                        and a["bn_name"] not in self.bn_params:
                    self.bn_params[a["bn_name"]] = BatchNorm2d(
                        a["channels"], name=a["bn_name"])
                continue
            self.modules[name] = module

    def _compile(self) -> None:
        """Build the forward and backward plans and schedule every free."""
        self.forward_plan: List[PlanEntry] = []
        self.backward_plan: List[PlanEntry] = []
        self._data = self._logits = None
        bound = set()
        for node in self.graph.nodes:
            if node.attrs.get("fused_into"):
                continue  # ghosts execute inside their hosts
            if node.kind == OpKind.DATA:
                self._data = node.outputs[0]
                bound.add(self._data)
            elif node.kind == OpKind.LOSS:
                self._logits = node.inputs[0]
            else:
                fwd, bwd = self._entries(node, bound)
                bound.update(fwd.writes)
                self.forward_plan.append(fwd)
                self.backward_plan.append(bwd)
        if self._data is None or self._logits is None:
            raise ExecutionError("graph needs a DATA and a LOSS node")
        self.backward_plan.reverse()

        n = len(self.forward_plan)
        last_env: Dict[str, int] = {}
        for i, e in enumerate(self.forward_plan + self.backward_plan):
            for t in e.reads + e.writes if i < n else e.reads_env:
                last_env[t] = i
        last_env.pop(self._logits, None)  # forward hands the logits to the loss
        for t, i in last_env.items():
            if i < n:
                self.forward_plan[i].frees.append(t)
            else:
                self.backward_plan[i - n].frees_env.append(t)
        last_grad: Dict[str, int] = {}
        for i, e in enumerate(self.backward_plan):
            for t in e.reads + e.writes:
                last_grad[t] = i
        last_grad.pop(self._data, None)  # backward returns the input gradient
        for t, i in last_grad.items():
            self.backward_plan[i].frees.append(t)

    def _entries(self, node: Node, bound: set) -> Tuple[PlanEntry, PlanEntry]:
        """The forward and backward entries of one alive node."""
        k, a = node.kind, node.attrs
        try:
            fwd_run, bwd_run = _HANDLERS[k]
        except KeyError:
            raise ExecutionError(f"executor cannot run kind {k}") from None
        look = self.graph.node
        norms = [look(a["fused_bn_norm"])] if a.get("fused_bn_norm") else []
        norms += [look(name) for name in a.get("fused_bn_norms", [])]
        transforms = [look(name) for name in a.get("icf_input_grad", [])]
        out_stats = [look(name) for name in a.get("icf_stats", [])]
        if a.get("fused_bn_stats"):
            transforms.append(look(a["fused_bn_stats"]))
            out_stats.append(look(a["fused_bn_stats"]))
        if k == OpKind.BN_STATS:  # alive sub-BN1': d(BN out) -> d(BN in)
            transforms.append(node)
        common = dict(
            node=node, module=self.modules.get(node.name),
            norms={n.inputs[0]: n for n in norms},
            transforms={s.inputs[0]: s for s in transforms},
            relu=bool(a.get("fused_relu")),
        )
        fwd = PlanEntry(
            run=fwd_run, out_stats=tuple(out_stats),
            reads=tuple(t for t in node.inputs if t in bound),
            writes=() if k == OpKind.BN_STATS else tuple(node.outputs),
            **common,
        )
        by_out, by_in = common["transforms"], common["norms"]
        reads = tuple(by_out[t].attrs["y_grad_source"] if t in by_out else t
                      for t in (node.inputs if k == OpKind.BN_STATS else node.outputs))
        writes = () if k == OpKind.BN_NORM else tuple(
            by_in[t].outputs[0] if t in by_in else t for t in node.inputs)
        rcf = k == OpKind.CONV and common["relu"] and not norms
        bwd = PlanEntry(
            run=bwd_run, reads=reads, writes=writes,
            frees_ctx=tuple(s.attrs["bn_name"] for s in transforms),
            reads_env=(node.inputs[0],) if rcf else (), **common,
        )
        return fwd, bwd

    # ------------------------------------------------------------- parameters --
    def parameters(self) -> Iterator[Parameter]:
        for module in self.modules.values():
            if isinstance(module, (Conv2d, DepthwiseConv2d, Linear)):
                yield from module.parameters()
        for bn in self.bn_params.values():
            # Plain-BN graphs alias the same object in ``modules``; dedupe by
            # only yielding from ``bn_params`` for fission-created entries.
            if bn.name not in self.modules:
                yield from bn.parameters()

    def named_parameters(self) -> Iterator[tuple]:
        for name, module in self.modules.items():
            if isinstance(module, (Conv2d, DepthwiseConv2d, Linear, BatchNorm2d)):
                for p in module._params:
                    yield f"{name}.{p.name}", p
        for bn_name, bn in self.bn_params.items():
            if bn_name not in self.modules:
                for p in bn._params:
                    yield f"{bn_name}.{p.name}", p

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            raise ExecutionError(
                f"state mismatch: missing={sorted(set(own) - set(state))} "
                f"extra={sorted(set(state) - set(own))}"
            )
        for name, p in own.items():
            p.data = state[name].copy()

    # -------------------------------------------------------------- forward --
    def forward(self, images: np.ndarray, labels: np.ndarray) -> float:
        env = {self._data: np.ascontiguousarray(images, dtype=self.dtype)}
        self._env, self._bn_ctx = env, {}
        self._run_forward(env)
        return self.loss_module.forward(env.pop(self._logits), labels)

    def _run_forward(self, env: Dict[str, np.ndarray]) -> None:
        for e in self.forward_plan:
            e.run(self, e, env)
            for stats in e.out_stats:
                self._record_stats(stats, env[e.node.outputs[0]])
            for t in e.frees:
                del env[t]

    def _forward_layer(self, e: PlanEntry, env) -> None:
        env[e.node.outputs[0]] = e.module.forward(env[e.node.inputs[0]])

    def _forward_split(self, e: PlanEntry, env) -> None:
        for out in e.node.outputs:
            env[out] = env[e.node.inputs[0]]  # pointer passing

    def _forward_stats(self, e: PlanEntry, env) -> None:
        self._record_stats(e.node, env[e.node.inputs[0]])

    def _forward_conv(self, e: PlanEntry, env) -> None:
        conv, x = e.module, env[e.node.inputs[0]]
        norm = e.norms.get(e.node.inputs[0])
        if norm is not None:
            bn, ctx = self._bn_of(norm)
            ctx["x"] = x
            y = bn_relu_conv_forward(
                x, ctx["mean"], ctx["var"], bn.gamma.data, bn.beta.data, conv,
                bn.eps, apply_relu=e.relu,
            )
        elif e.relu:
            y = relu_conv_forward(x, conv)
        else:
            y = conv.forward(x)
        env[e.node.outputs[0]] = y

    def _forward_norm_entry(self, e: PlanEntry, env) -> None:
        env[e.node.outputs[0]] = self._forward_norm(e.node, env)

    def _forward_norm(self, node: Node, env: Dict[str, np.ndarray]) -> np.ndarray:
        return self._normalize(node, env[node.inputs[0]])

    def _forward_merge(self, e: PlanEntry, env) -> None:  # CONCAT and EWS
        operands = [self._normalize(e.norms[t], env[t]) if t in e.norms else env[t]
                    for t in e.node.inputs]
        env[e.node.outputs[0]] = e.module.forward(operands)

    def _normalize(self, norm: Node, x: np.ndarray) -> np.ndarray:
        """Sub-BN2 of an alive or EWS-fused norm, on the blocked kernel
        ``BatchNorm2d.normalize`` runs; saves x for sub-BN2' and sub-BN1'."""
        bn, ctx = self._bn_of(norm)
        ctx["x"] = x
        ctx["inv_std"] = 1.0 / np.sqrt(ctx["var"] + bn.eps)
        return blocked.blocked_normalize_apply(
            x, ctx["mean"], ctx["inv_std"], bn.gamma.data, bn.beta.data)

    def _record_stats(self, stats_node: Node, value: np.ndarray) -> None:
        bn_name = stats_node.attrs["bn_name"]
        if stats_node.attrs.get("mvf"):
            mean, var = onepass_stats(value)
        else:
            mean, var = twopass_stats(value)
        self._bn_ctx[bn_name] = {"mean": mean, "var": var}
        self.bn_params[bn_name]._update_running(mean, var, value)

    # ------------------------------------------------------------- inference --
    def predict(self, images: np.ndarray) -> np.ndarray:
        """Inference forward: BN uses running statistics; returns logits.

        Only defined for unrestructured graphs — the training-time
        restructuring is meaningless at inference, where BN is a frozen
        affine (see :mod:`repro.passes.inference_fold` for that fusion).
        """
        if self.graph.nodes_of_kind(OpKind.BN_STATS, OpKind.BN_NORM):
            raise ExecutionError(
                "predict() requires an unrestructured graph; inference-time "
                "BN fusion is weight folding, not scheduling"
            )
        modes = [(bn, bn.training) for bn in self.bn_params.values()]
        for bn, _ in modes:
            bn.eval()
        env = {self._data: np.ascontiguousarray(images, dtype=self.dtype)}
        self._run_forward(env)
        for bn, training in modes:
            bn.train(training)
        for e in self.forward_plan:
            if e.module is not None:
                e.module.release()
        return env.pop(self._logits)

    # -------------------------------------------------------------- backward --
    def backward(self) -> np.ndarray:
        """Backpropagate from the loss; returns the input-image gradient."""
        env, ctx = self._env, self._bn_ctx
        grads = {self._logits: self.loss_module.backward()}
        self.loss_module.release()
        for e in self.backward_plan:
            e.run(self, e, grads)
            for t in e.frees:
                del grads[t]
            for t in e.frees_env:
                del env[t]
            for bn_name in e.frees_ctx:
                del ctx[bn_name]
            if e.module is not None:
                e.module.release()
        try:
            return grads.pop(self._data)
        except KeyError:
            raise ExecutionError("backward never reached the DATA node") from None

    def _bn_of(self, norm_or_stats: Node):
        bn_name = norm_or_stats.attrs["bn_name"]
        return self.bn_params[bn_name], self._bn_ctx[bn_name]

    def _grad_at(self, e: PlanEntry, tensor: str, grads) -> np.ndarray:
        """Gradient at *tensor*: the sub-BN1' transform of the BN-output
        gradient when *tensor* feeds a BN whose sub-BN1' this entry runs
        (which needs dgamma/dbeta already recorded in its context)."""
        stats = e.transforms.get(tensor)
        if stats is None:
            return grads[tensor]
        bn, ctx = self._bn_of(stats)
        if "dgamma" not in ctx:
            raise ExecutionError(
                f"{stats.name}: input-grad transform before dgamma/dbeta "
                f"(sub-BN2' must run first)"
            )
        return bn_input_grad_transform(
            grads[stats.attrs["y_grad_source"]], ctx["x"], ctx["mean"],
            ctx["var"], bn.gamma.data, ctx["dgamma"], ctx["dbeta"], bn.eps,
        )

    def _backward_layer(self, e: PlanEntry, grads) -> None:
        grads[e.node.inputs[0]] = e.module.backward(grads[e.node.outputs[0]])

    def _backward_conv(self, e: PlanEntry, grads) -> None:
        conv, x = e.module, e.node.inputs[0]
        dy = self._grad_at(e, e.node.outputs[0], grads)
        norm = e.norms.get(x)
        if norm is not None:
            bn, ctx = self._bn_of(norm)
            d_bn_out, dgamma, dbeta = bn_relu_conv_backward(
                dy, conv, ctx["x"], ctx["mean"], ctx["var"],
                bn.gamma.data, bn.beta.data, bn.eps, apply_relu=e.relu,
            )
            self._set_param_grads(bn, ctx, dgamma, dbeta)
            grads[norm.outputs[0]] = d_bn_out
        elif e.relu:
            grads[x] = relu_conv_backward(self._env[x], dy, conv)[0]
        else:
            grads[x] = conv.backward(dy)

    def _backward_norm_entry(self, e: PlanEntry, grads) -> None:
        self._backward_norm(e.node, grads)

    def _backward_norm(self, node: Node, grads) -> None:
        """Alive sub-BN2': dgamma/dbeta only; the gradient at the BN output
        stays in place for the stats node (sub-BN1') to consume."""
        self._param_grads(node, grads[node.outputs[0]])

    def _param_grads(self, norm: Node, dy: np.ndarray) -> None:
        """Sub-BN2' of an alive or EWS-fused norm: x_hat formed once, the
        dgamma product written into it."""
        bn, ctx = self._bn_of(norm)
        x_hat = ctx["x"] - ctx["mean"][None, :, None, None]
        np.multiply(x_hat, ctx["inv_std"][None, :, None, None], out=x_hat)
        np.multiply(x_hat, dy, out=x_hat)
        self._set_param_grads(bn, ctx, channel_sum(x_hat).astype(bn.gamma.data.dtype),
                              channel_sum(dy).astype(bn.beta.data.dtype))

    @staticmethod
    def _set_param_grads(bn: BatchNorm2d, ctx: dict, dgamma, dbeta) -> None:
        bn.gamma.accumulate_grad(dgamma)
        bn.beta.accumulate_grad(dbeta)
        ctx["dgamma"], ctx["dbeta"] = dgamma, dbeta

    def _backward_stats(self, e: PlanEntry, grads) -> None:
        """Alive sub-BN1': the BN-output gradient into the input gradient."""
        x = e.node.inputs[0]
        self._add_grad(grads, x, self._grad_at(e, x, grads))

    def _backward_concat(self, e: PlanEntry, grads) -> None:
        slices = e.module.backward(self._grad_at(e, e.node.outputs[0], grads))
        for t, g in zip(e.node.inputs, slices):
            self._add_grad(grads, t, g)

    def _backward_split(self, e: PlanEntry, grads) -> None:
        branches = iter(e.node.outputs)
        total = self._grad_at(e, next(branches), grads)
        for i, branch in enumerate(branches):
            g = self._grad_at(e, branch, grads)
            if i == 0:
                total = total + g  # fresh: never add into a branch gradient
            else:
                np.add(total, g, out=total)
        self._add_grad(grads, e.node.inputs[0], total)

    def _backward_ews(self, e: PlanEntry, grads) -> None:
        dy = grads[e.node.outputs[0]]
        for t in e.node.inputs:
            norm = e.norms.get(t)
            if norm is not None:
                self._param_grads(norm, dy)
                grads[norm.outputs[0]] = dy.copy()
            else:
                self._add_grad(grads, t, dy.copy())

    @staticmethod
    def _add_grad(grads: Dict[str, np.ndarray], tensor: str, g: np.ndarray) -> None:
        if tensor in grads:
            grads[tensor] = grads[tensor] + g
        else:
            grads[tensor] = g


#: Layers built from a name alone.
_BY_NAME = {OpKind.RELU: ReLU, OpKind.POOL_GLOBAL: GlobalAvgPool2d,
            OpKind.CONCAT: Concat, OpKind.EWS: Add}
_LAYER = (GraphExecutor._forward_layer, GraphExecutor._backward_layer)
#: Op kind -> (forward, backward) handler of its plan entries.
_HANDLERS = {
    OpKind.CONV: (GraphExecutor._forward_conv, GraphExecutor._backward_conv),
    OpKind.FC: _LAYER, OpKind.BN: _LAYER, OpKind.RELU: _LAYER,
    OpKind.POOL_MAX: _LAYER, OpKind.POOL_AVG: _LAYER, OpKind.POOL_GLOBAL: _LAYER,
    OpKind.BN_STATS: (GraphExecutor._forward_stats, GraphExecutor._backward_stats),
    OpKind.BN_NORM: (GraphExecutor._forward_norm_entry,
                     GraphExecutor._backward_norm_entry),
    OpKind.CONCAT: (GraphExecutor._forward_merge, GraphExecutor._backward_concat),
    OpKind.SPLIT: (GraphExecutor._forward_split, GraphExecutor._backward_split),
    OpKind.EWS: (GraphExecutor._forward_merge, GraphExecutor._backward_ews),
}
