"""GraphExecutor: run a (possibly restructured) layer graph numerically.

The executor walks the node list forward and in reverse for backward,
binding tensors to numpy arrays. Reference nodes dispatch to
:mod:`repro.nn` layers; nodes carrying fusion attributes dispatch to the
fused kernels of :mod:`repro.kernels`; ghosted nodes are skipped (their
work happens inside their hosts). Parameter initialization is derived from
node *names*, so a baseline graph and any restructured clone start from
bit-identical weights — the precondition for the equivalence tests.

Per-BN context (saved statistics, saved input, dgamma/dbeta) lives in
``self._bn_ctx`` keyed by the original BN layer name; the reverse schedule
guarantees sub-BN2' work (which fills dgamma/dbeta) runs before any
sub-BN1' transform that needs it — the same strict dependency the paper's
Fission respects.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
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
from repro.nn.module import Parameter
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.relu import ReLU


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
        self._grads: Dict[str, np.ndarray] = {}
        self._bn_ctx: Dict[str, dict] = {}
        self._loss_node: Optional[Node] = None
        self._build_modules()
        if self.dtype != np.dtype(np.float32):
            for p in self.parameters():
                p.data = p.data.astype(self.dtype)

    # ------------------------------------------------------------------ setup --
    def _seed_for(self, name: str) -> int:
        return (zlib.crc32(name.encode()) ^ self.seed) & 0x7FFFFFFF

    def _build_modules(self) -> None:
        for node in self.graph.nodes:
            k = node.kind
            if k == OpKind.CONV:
                if node.attrs.get("depthwise"):
                    self.modules[node.name] = DepthwiseConv2d(
                        node.attrs["in_channels"], node.attrs["kernel"],
                        node.attrs["stride"], node.attrs["padding"],
                        name=node.name, seed=self._seed_for(node.name),
                    )
                else:
                    self.modules[node.name] = Conv2d(
                        node.attrs["in_channels"], node.attrs["out_channels"],
                        node.attrs["kernel"], node.attrs["stride"],
                        node.attrs["padding"], name=node.name,
                        seed=self._seed_for(node.name),
                    )
            elif k == OpKind.FC:
                self.modules[node.name] = Linear(
                    node.attrs["in_features"], node.attrs["out_features"],
                    name=node.name, seed=self._seed_for(node.name),
                )
            elif k == OpKind.BN:
                bn = BatchNorm2d(node.attrs["channels"], name=node.name)
                self.modules[node.name] = bn
                self.bn_params[node.name] = bn
            elif k in (OpKind.BN_STATS, OpKind.BN_NORM):
                bn_name = node.attrs["bn_name"]
                if bn_name not in self.bn_params:
                    self.bn_params[bn_name] = BatchNorm2d(
                        node.attrs["channels"], name=bn_name
                    )
            elif k == OpKind.RELU:
                self.modules[node.name] = ReLU(name=node.name)
            elif k == OpKind.POOL_MAX:
                self.modules[node.name] = MaxPool2d(
                    node.attrs["kernel"], node.attrs["stride"],
                    node.attrs["padding"], node.attrs.get("ceil_mode", False),
                    name=node.name,
                )
            elif k == OpKind.POOL_AVG:
                self.modules[node.name] = AvgPool2d(
                    node.attrs["kernel"], node.attrs["stride"],
                    node.attrs["padding"], node.attrs.get("ceil_mode", False),
                    name=node.name,
                )
            elif k == OpKind.POOL_GLOBAL:
                self.modules[node.name] = GlobalAvgPool2d(name=node.name)
            elif k == OpKind.CONCAT:
                self.modules[node.name] = Concat(name=node.name)
            elif k == OpKind.EWS:
                self.modules[node.name] = Add(name=node.name)
            elif k == OpKind.LOSS:
                self._loss_node = node

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
        env: Dict[str, np.ndarray] = {}
        self._bn_ctx = {}
        self._labels = labels
        loss_value = None
        images = np.ascontiguousarray(images, dtype=self.dtype)

        for node in self.graph.nodes:
            if node.attrs.get("fused_into"):
                continue  # ghosts execute inside their hosts
            k = node.kind
            if k == OpKind.DATA:
                env[node.outputs[0]] = images
            elif k == OpKind.CONV:
                env[node.outputs[0]] = self._forward_conv(node, env)
            elif k == OpKind.FC:
                env[node.outputs[0]] = self.modules[node.name].forward(env[node.inputs[0]])
            elif k == OpKind.BN:
                env[node.outputs[0]] = self.modules[node.name].forward(env[node.inputs[0]])
            elif k == OpKind.BN_STATS:
                self._record_stats(node, env[node.inputs[0]])
                env[node.outputs[0]] = self._stats_array(node)
            elif k == OpKind.BN_NORM:
                env[node.outputs[0]] = self._forward_norm(node, env)
            elif k in (OpKind.RELU, OpKind.POOL_MAX, OpKind.POOL_AVG, OpKind.POOL_GLOBAL):
                env[node.outputs[0]] = self.modules[node.name].forward(env[node.inputs[0]])
            elif k == OpKind.CONCAT:
                y = self.modules[node.name].forward([env[t] for t in node.inputs])
                env[node.outputs[0]] = y
                self._record_icf_stats(node, y)
            elif k == OpKind.SPLIT:
                for out in node.outputs:
                    env[out] = env[node.inputs[0]]  # pointer passing
            elif k == OpKind.EWS:
                env[node.outputs[0]] = self._forward_ews(node, env)
            elif k == OpKind.LOSS:
                loss_value = self.loss_module.forward(env[node.inputs[0]], labels)
            else:  # pragma: no cover - exhaustive
                raise ExecutionError(f"executor cannot run kind {k}")
            # ICF forward hosts other than CONCAT (stem/transition pools).
            if k not in (OpKind.CONCAT, OpKind.DATA) and node.attrs.get("icf_stats"):
                self._record_icf_stats(node, env[node.outputs[0]])

        if loss_value is None:
            raise ExecutionError("graph has no LOSS node")
        self._env = env
        return loss_value

    def _forward_conv(self, node: Node, env: Dict[str, np.ndarray]) -> np.ndarray:
        conv: Conv2d = self.modules[node.name]
        x = env[node.inputs[0]]
        norm_name = node.attrs.get("fused_bn_norm")
        if norm_name:
            bn_name = self.graph.node(norm_name).attrs["bn_name"]
            ctx = self._bn_ctx[bn_name]
            bn = self.bn_params[bn_name]
            ctx["x"] = x
            y = bn_relu_conv_forward(
                x, ctx["mean"], ctx["var"], bn.gamma.data, bn.beta.data, conv,
                bn.eps, apply_relu=bool(node.attrs.get("fused_relu")),
            )
        elif node.attrs.get("fused_relu"):
            y = relu_conv_forward(x, conv)
        else:
            y = conv.forward(x)
        stats_name = node.attrs.get("fused_bn_stats")
        if stats_name:
            self._record_stats(self.graph.node(stats_name), y)
        return y

    def _forward_norm(self, node: Node, env: Dict[str, np.ndarray]) -> np.ndarray:
        bn = self.bn_params[node.attrs["bn_name"]]
        ctx = self._bn_ctx[node.attrs["bn_name"]]
        x = env[node.inputs[0]]
        ctx["x"] = x
        inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
        x_hat = (x - ctx["mean"][None, :, None, None]) * inv_std[None, :, None, None]
        y = bn.gamma.data[None, :, None, None] * x_hat + bn.beta.data[None, :, None, None]
        return y.astype(x.dtype)

    def _forward_ews(self, node: Node, env: Dict[str, np.ndarray]) -> np.ndarray:
        fused_norms = node.attrs.get("fused_bn_norms", [])
        by_input = {}
        for norm_name in fused_norms:
            norm = self.graph.node(norm_name)
            by_input[norm.inputs[0]] = norm
        operands = []
        for t in node.inputs:
            x = env[t]
            if t in by_input:
                norm = by_input[t]
                bn = self.bn_params[norm.attrs["bn_name"]]
                ctx = self._bn_ctx[norm.attrs["bn_name"]]
                ctx["x"] = x
                # Same operation order as the reference BatchNorm2d so the
                # fp32 rounding matches bit for bit.
                inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
                x_hat = (x - ctx["mean"][None, :, None, None]) * inv_std[None, :, None, None]
                x = (bn.gamma.data[None, :, None, None] * x_hat
                     + bn.beta.data[None, :, None, None]).astype(env[t].dtype)
            operands.append(x)
        return self.modules[node.name].forward(operands)

    def _record_stats(self, stats_node: Node, value: np.ndarray) -> None:
        bn_name = stats_node.attrs["bn_name"]
        bn = self.bn_params[bn_name]
        if stats_node.attrs.get("mvf"):
            mean, var = onepass_stats(value)
        else:
            mean, var = twopass_stats(value)
        self._bn_ctx[bn_name] = {"mean": mean, "var": var}
        bn._update_running(mean, var, value)

    def _record_icf_stats(self, host: Node, value: np.ndarray) -> None:
        for stats_name in host.attrs.get("icf_stats", []):
            self._record_stats(self.graph.node(stats_name), value)

    def _stats_array(self, stats_node: Node) -> np.ndarray:
        ctx = self._bn_ctx[stats_node.attrs["bn_name"]]
        return np.stack([ctx["mean"], ctx["var"]])

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
        images = np.ascontiguousarray(images, dtype=self.dtype)
        env: Dict[str, np.ndarray] = {}
        logits = None
        for node in self.graph.nodes:
            k = node.kind
            if k == OpKind.DATA:
                env[node.outputs[0]] = images
            elif k == OpKind.BN:
                bn = self.modules[node.name]
                was_training = bn.training
                bn.eval()
                env[node.outputs[0]] = bn.forward(env[node.inputs[0]])
                bn.train(was_training)
            elif k in (OpKind.CONV, OpKind.FC, OpKind.RELU, OpKind.POOL_MAX,
                       OpKind.POOL_AVG, OpKind.POOL_GLOBAL):
                env[node.outputs[0]] = self.modules[node.name].forward(
                    env[node.inputs[0]]
                )
            elif k == OpKind.CONCAT:
                env[node.outputs[0]] = self.modules[node.name].forward(
                    [env[t] for t in node.inputs]
                )
            elif k == OpKind.SPLIT:
                for out in node.outputs:
                    env[out] = env[node.inputs[0]]
            elif k == OpKind.EWS:
                env[node.outputs[0]] = self.modules[node.name].forward(
                    [env[t] for t in node.inputs]
                )
            elif k == OpKind.LOSS:
                logits = env[node.inputs[0]]
        if logits is None:
            raise ExecutionError("graph has no LOSS node to locate logits")
        return logits

    # -------------------------------------------------------------- backward --
    def backward(self) -> np.ndarray:
        """Backpropagate from the loss; returns the input-image gradient."""
        env = self._env
        grads: Dict[str, np.ndarray] = {}
        input_grad = None

        for node in reversed(self.graph.nodes):
            if node.attrs.get("fused_into"):
                continue
            k = node.kind
            if k == OpKind.LOSS:
                grads[node.inputs[0]] = self.loss_module.backward()
            elif k == OpKind.FC:
                grads[node.inputs[0]] = self.modules[node.name].backward(
                    grads[node.outputs[0]]
                )
            elif k == OpKind.CONV:
                self._backward_conv(node, env, grads)
            elif k == OpKind.BN:
                grads[node.inputs[0]] = self.modules[node.name].backward(
                    grads[node.outputs[0]]
                )
            elif k == OpKind.BN_NORM:
                self._backward_norm(node, grads)
            elif k == OpKind.BN_STATS:
                self._backward_stats(node, grads)
            elif k in (OpKind.RELU, OpKind.POOL_MAX, OpKind.POOL_AVG, OpKind.POOL_GLOBAL):
                grads[node.inputs[0]] = self.modules[node.name].backward(
                    grads[node.outputs[0]]
                )
            elif k == OpKind.CONCAT:
                self._backward_concat(node, grads)
            elif k == OpKind.SPLIT:
                self._backward_split(node, grads)
            elif k == OpKind.EWS:
                self._backward_ews(node, env, grads)
            elif k == OpKind.DATA:
                input_grad = grads.get(node.outputs[0])

        self._grads = grads
        if input_grad is None:
            raise ExecutionError("backward never reached the DATA node")
        return input_grad

    def _bn_of(self, norm_or_stats: Node):
        bn_name = norm_or_stats.attrs["bn_name"]
        return self.bn_params[bn_name], self._bn_ctx[bn_name]

    def _transform(self, stats_node: Node, d_bn_out: np.ndarray) -> np.ndarray:
        """Apply sub-BN1' (needs dgamma/dbeta already recorded in context)."""
        bn, ctx = self._bn_of(stats_node)
        if "dgamma" not in ctx:
            raise ExecutionError(
                f"{stats_node.name}: input-grad transform before dgamma/dbeta "
                f"(sub-BN2' must run first)"
            )
        return bn_input_grad_transform(
            d_bn_out, ctx["x"], ctx["mean"], ctx["var"],
            bn.gamma.data, ctx["dgamma"], ctx["dbeta"], bn.eps,
        )

    def _incoming_grad_for_conv(self, node: Node, grads: Dict[str, np.ndarray]) -> np.ndarray:
        """Gradient at the conv output, applying a fused sub-BN1' if present."""
        stats_name = node.attrs.get("fused_bn_stats")
        if stats_name:
            stats_node = self.graph.node(stats_name)
            d_bn_out = grads[stats_node.attrs["y_grad_source"]]
            return self._transform(stats_node, d_bn_out)
        return grads[node.outputs[0]]

    def _backward_conv(self, node: Node, env, grads) -> None:
        conv: Conv2d = self.modules[node.name]
        dy = self._incoming_grad_for_conv(node, grads)
        norm_name = node.attrs.get("fused_bn_norm")
        if norm_name:
            norm = self.graph.node(norm_name)
            bn, ctx = self._bn_of(norm)
            d_bn_out, dgamma, dbeta = bn_relu_conv_backward(
                dy, conv, ctx["x"], ctx["mean"], ctx["var"],
                bn.gamma.data, bn.beta.data, bn.eps,
                apply_relu=bool(node.attrs.get("fused_relu")),
            )
            bn.gamma.accumulate_grad(dgamma)
            bn.beta.accumulate_grad(dbeta)
            ctx["dgamma"], ctx["dbeta"] = dgamma, dbeta
            grads[norm.outputs[0]] = d_bn_out
        elif node.attrs.get("fused_relu"):
            dx, _ = relu_conv_backward(env[node.inputs[0]], dy, conv)
            grads[node.inputs[0]] = dx
        else:
            grads[node.inputs[0]] = conv.backward(dy)

    def _backward_norm(self, node: Node, grads) -> None:
        """Alive sub-BN2': dgamma/dbeta only; the gradient at the BN output
        stays in place for the stats node (sub-BN1') to consume."""
        bn, ctx = self._bn_of(node)
        dy = grads[node.outputs[0]]
        inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
        x_hat = (ctx["x"] - ctx["mean"][None, :, None, None]) * inv_std[None, :, None, None]
        dgamma = channel_sum(dy * x_hat).astype(bn.gamma.data.dtype)
        dbeta = channel_sum(dy).astype(bn.beta.data.dtype)
        bn.gamma.accumulate_grad(dgamma)
        bn.beta.accumulate_grad(dbeta)
        ctx["dgamma"], ctx["dbeta"] = dgamma, dbeta

    def _backward_stats(self, node: Node, grads) -> None:
        """Alive sub-BN1': transform the BN-output gradient into the input
        gradient."""
        d_bn_out = grads[node.attrs["y_grad_source"]]
        self._add_grad(grads, node.inputs[0], self._transform(node, d_bn_out))

    def _backward_concat(self, node: Node, grads) -> None:
        dy = self._host_incoming_grad(node, node.outputs[0], grads)
        slices = self.modules[node.name].backward(dy)
        for t, g in zip(node.inputs, slices):
            self._add_grad(grads, t, g)

    def _backward_split(self, node: Node, grads) -> None:
        icf_by_branch = {}
        for stats_name in node.attrs.get("icf_input_grad", []):
            stats_node = self.graph.node(stats_name)
            icf_by_branch[stats_node.inputs[0]] = stats_node
        total = None
        for branch in node.outputs:
            if branch in icf_by_branch:
                stats_node = icf_by_branch[branch]
                g = self._transform(stats_node, grads[stats_node.attrs["y_grad_source"]])
            else:
                g = grads[branch]
            total = g.copy() if total is None else total + g
        self._add_grad(grads, node.inputs[0], total)

    def _host_incoming_grad(self, node: Node, tensor: str, grads) -> np.ndarray:
        """Gradient at *tensor*, honouring an ICF'd BN that consumed it."""
        for stats_name in node.attrs.get("icf_input_grad", []):
            stats_node = self.graph.node(stats_name)
            if stats_node.inputs[0] == tensor:
                return self._transform(
                    stats_node, grads[stats_node.attrs["y_grad_source"]]
                )
        return grads[tensor]

    def _backward_ews(self, node: Node, env, grads) -> None:
        dy = grads[node.outputs[0]]
        by_input = {}
        for norm_name in node.attrs.get("fused_bn_norms", []):
            norm = self.graph.node(norm_name)
            by_input[norm.inputs[0]] = norm
        for t in node.inputs:
            if t in by_input:
                norm = by_input[t]
                bn, ctx = self._bn_of(norm)
                inv_std = 1.0 / np.sqrt(ctx["var"] + bn.eps)
                x_hat = (ctx["x"] - ctx["mean"][None, :, None, None]) * inv_std[None, :, None, None]
                dgamma = channel_sum(dy * x_hat).astype(bn.gamma.data.dtype)
                dbeta = channel_sum(dy).astype(bn.beta.data.dtype)
                bn.gamma.accumulate_grad(dgamma)
                bn.beta.accumulate_grad(dbeta)
                ctx["dgamma"], ctx["dbeta"] = dgamma, dbeta
                grads[norm.outputs[0]] = dy.copy()
            else:
                self._add_grad(grads, t, dy.copy())

    @staticmethod
    def _add_grad(grads: Dict[str, np.ndarray], tensor: str, g: np.ndarray) -> None:
        if tensor in grads:
            grads[tensor] = grads[tensor] + g
        else:
            grads[tensor] = g

    # ------------------------------------------------------------- inspection --
    def gradient_of(self, tensor: str) -> np.ndarray:
        try:
            return self._grads[tensor]
        except KeyError:
            raise ExecutionError(f"no gradient recorded for {tensor!r}") from None

    def activation_of(self, tensor: str) -> np.ndarray:
        try:
            return self._env[tensor]
        except KeyError:
            raise ExecutionError(f"no activation recorded for {tensor!r}") from None
