"""GraphBuilder: a small DSL for constructing validated layer graphs.

Model definitions (:mod:`repro.models`) call shape-inferring helpers
(``conv``, ``bn``, ``relu``, ``concat``, ...) that create tensors and nodes;
:meth:`GraphBuilder.finalize` then inserts explicit SPLIT nodes wherever a
feature tensor fans out to several consumers (matching the Caffe graphs the
paper instruments, where Split layers are auto-inserted and their backward
gradient accumulation is real memory traffic), attaches the reference
memory-sweep ledger to every node, and validates the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_DTYPE
from repro.errors import GraphError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.graph.sweeps import attach_reference_sweeps
from repro.tensors.shapes import conv2d_output_hw, pool2d_output_hw
from repro.tensors.tensor_spec import TensorKind, TensorSpec


class GraphBuilder:
    """Build a :class:`~repro.graph.graph.LayerGraph` layer by layer."""

    def __init__(
        self,
        name: str,
        batch: int,
        image: Tuple[int, int, int] = (3, 224, 224),
        dtype=DEFAULT_DTYPE,
    ):
        if batch <= 0:
            raise GraphError(f"batch must be positive, got {batch}")
        self.graph = LayerGraph(name)
        self.batch = batch
        self.image = image
        self.dtype = np.dtype(dtype)
        self._region = ""
        self._counters: Dict[str, int] = {}
        self._finalized = False

    # -- naming / regions ------------------------------------------------------
    def region(self, region: str) -> "GraphBuilder":
        """Set the composite-layer region tag for subsequently added nodes."""
        self._region = region
        return self

    def _auto_name(self, prefix: str, name: Optional[str]) -> str:
        if name:
            return f"{self._region}/{name}" if self._region else name
        idx = self._counters.get(prefix, 0)
        self._counters[prefix] = idx + 1
        base = f"{prefix}_{idx}"
        return f"{self._region}/{base}" if self._region else base

    def _feature(self, name: str, shape: Tuple[int, ...]) -> str:
        self.graph.add_tensor(
            TensorSpec(name, shape, kind=TensorKind.FEATURE, dtype=self.dtype)
        )
        return name

    def _node(self, kind: OpKind, name: str, inputs: List[str], outputs: List[str],
              attrs: Optional[dict] = None) -> Node:
        node = Node(
            name=name,
            kind=kind,
            inputs=inputs,
            outputs=outputs,
            attrs=attrs or {},
            region=self._region,
        )
        return self.graph.add_node(node)

    def shape(self, tensor: str) -> Tuple[int, ...]:
        return self.graph.tensor(tensor).shape

    # -- layer helpers -------------------------------------------------------------
    def input(self, name: str = "input") -> str:
        c, h, w = self.image
        out = self._feature(name, (self.batch, c, h, w))
        self._node(OpKind.DATA, f"{name}.data", [], [out])
        return out

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        name: Optional[str] = None,
    ) -> str:
        node_name = self._auto_name("conv", name)
        n, c, h, w = self.graph.tensor(x).shape
        oh, ow = conv2d_output_hw((h, w), kernel, stride, padding)
        wname = f"{node_name}.w"
        self.graph.add_tensor(
            TensorSpec(wname, (out_channels, c, kernel, kernel),
                       kind=TensorKind.WEIGHT, dtype=self.dtype)
        )
        y = self._feature(f"{node_name}.out", (n, out_channels, oh, ow))
        self._node(
            OpKind.CONV,
            node_name,
            [x],
            [y],
            attrs={
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
                "in_channels": c,
                "out_channels": out_channels,
                "weight": wname,
            },
        )
        return y

    def depthwise_conv(
        self,
        x: str,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        name: Optional[str] = None,
    ) -> str:
        """Depthwise convolution node (groups == channels, MobileNet-style).

        Shares OpKind.CONV with dense convolutions — the memory-sweep
        ledger is identical — but carries ``depthwise=True`` so the FLOP
        model and the executor pick the per-channel kernel.
        """
        node_name = self._auto_name("dwconv", name)
        n, c, h, w = self.graph.tensor(x).shape
        oh, ow = conv2d_output_hw((h, w), kernel, stride, padding)
        wname = f"{node_name}.w"
        self.graph.add_tensor(
            TensorSpec(wname, (c, kernel, kernel),
                       kind=TensorKind.WEIGHT, dtype=self.dtype)
        )
        y = self._feature(f"{node_name}.out", (n, c, oh, ow))
        self._node(
            OpKind.CONV,
            node_name,
            [x],
            [y],
            attrs={
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
                "in_channels": c,
                "out_channels": c,
                "weight": wname,
                "depthwise": True,
            },
        )
        return y

    def bn(self, x: str, name: Optional[str] = None) -> str:
        node_name = self._auto_name("bn", name)
        shape = self.graph.tensor(x).shape
        y = self._feature(f"{node_name}.out", shape)
        self._node(OpKind.BN, node_name, [x], [y],
                   attrs={"channels": shape[1]})
        return y

    def relu(self, x: str, name: Optional[str] = None) -> str:
        node_name = self._auto_name("relu", name)
        y = self._feature(f"{node_name}.out", self.graph.tensor(x).shape)
        self._node(OpKind.RELU, node_name, [x], [y])
        return y

    def _pool(self, kind: OpKind, prefix: str, x: str, kernel: int,
              stride: Optional[int], padding: int, ceil_mode: bool,
              name: Optional[str]) -> str:
        node_name = self._auto_name(prefix, name)
        n, c, h, w = self.graph.tensor(x).shape
        oh, ow = pool2d_output_hw((h, w), kernel, stride, padding, ceil_mode)
        y = self._feature(f"{node_name}.out", (n, c, oh, ow))
        self._node(kind, node_name, [x], [y],
                   attrs={"kernel": kernel, "stride": stride or kernel,
                          "padding": padding, "ceil_mode": ceil_mode})
        return y

    def max_pool(self, x: str, kernel: int, stride: Optional[int] = None,
                 padding: int = 0, ceil_mode: bool = False,
                 name: Optional[str] = None) -> str:
        return self._pool(OpKind.POOL_MAX, "maxpool", x, kernel, stride,
                          padding, ceil_mode, name)

    def avg_pool(self, x: str, kernel: int, stride: Optional[int] = None,
                 padding: int = 0, ceil_mode: bool = False,
                 name: Optional[str] = None) -> str:
        return self._pool(OpKind.POOL_AVG, "avgpool", x, kernel, stride,
                          padding, ceil_mode, name)

    def global_pool(self, x: str, name: Optional[str] = None) -> str:
        node_name = self._auto_name("gap", name)
        n, c, _, _ = self.graph.tensor(x).shape
        y = self._feature(f"{node_name}.out", (n, c, 1, 1))
        self._node(OpKind.POOL_GLOBAL, node_name, [x], [y])
        return y

    def concat(self, xs: Sequence[str], name: Optional[str] = None) -> str:
        if len(xs) < 2:
            raise GraphError("concat requires at least two inputs")
        node_name = self._auto_name("concat", name)
        shapes = [self.graph.tensor(x).shape for x in xs]
        base = shapes[0]
        for s in shapes[1:]:
            if s[0] != base[0] or s[2:] != base[2:]:
                raise GraphError(f"concat: incompatible shapes {shapes}")
        channels = sum(s[1] for s in shapes)
        y = self._feature(f"{node_name}.out", (base[0], channels, base[2], base[3]))
        self._node(OpKind.CONCAT, node_name, list(xs), [y])
        return y

    def ews(self, xs: Sequence[str], name: Optional[str] = None) -> str:
        if len(xs) < 2:
            raise GraphError("ews requires at least two inputs")
        node_name = self._auto_name("ews", name)
        shapes = {self.graph.tensor(x).shape for x in xs}
        if len(shapes) != 1:
            raise GraphError(f"ews: mismatched shapes {shapes}")
        y = self._feature(f"{node_name}.out", next(iter(shapes)))
        self._node(OpKind.EWS, node_name, list(xs), [y])
        return y

    def fc(self, x: str, out_features: int, name: Optional[str] = None) -> str:
        node_name = self._auto_name("fc", name)
        shape = self.graph.tensor(x).shape
        in_features = int(np.prod(shape[1:]))
        wname = f"{node_name}.w"
        self.graph.add_tensor(
            TensorSpec(wname, (out_features, in_features),
                       kind=TensorKind.WEIGHT, dtype=self.dtype)
        )
        y = self.graph.add_tensor(
            TensorSpec(f"{node_name}.out", (shape[0], out_features),
                       kind=TensorKind.FEATURE, dtype=self.dtype)
        )
        self._node(
            OpKind.FC, node_name, [x], [y.name],
            attrs={"in_features": in_features, "out_features": out_features,
                   "weight": wname},
        )
        return y.name

    def loss(self, logits: str, name: str = "loss") -> str:
        y = self.graph.add_tensor(
            TensorSpec(f"{name}.out", (1,), kind=TensorKind.SCALAR, dtype=self.dtype)
        )
        self._node(OpKind.LOSS, name, [logits], [y.name])
        return y.name

    # -- finalization ------------------------------------------------------------
    def finalize(self) -> LayerGraph:
        """Insert SPLIT nodes at fan-outs, attach ledgers, validate."""
        if self._finalized:
            raise GraphError("finalize() called twice")
        self._insert_splits()
        for node in self.graph.nodes:
            attach_reference_sweeps(node)
        self.graph.validate()
        self._finalized = True
        return self.graph

    def _insert_splits(self) -> None:
        # Walk tensors with >1 consumer; carve one SPLIT node per fan-out.
        for tensor in list(self.graph.tensors.values()):
            if tensor.kind != TensorKind.FEATURE:
                continue
            consumers = self.graph.consumers_of(tensor.name)
            if len(consumers) < 2:
                continue
            producer = self.graph.producer_of(tensor.name)
            if producer is None:
                continue
            split_name = f"{tensor.name}.split"
            outs = []
            for i, consumer in enumerate(consumers):
                branch = TensorSpec(
                    f"{tensor.name}.split{i}", tensor.shape,
                    kind=TensorKind.FEATURE, dtype=tensor.dtype,
                )
                self.graph.add_tensor(branch)
                outs.append(branch.name)
            node = Node(
                name=split_name,
                kind=OpKind.SPLIT,
                inputs=[tensor.name],
                outputs=outs,
                region=producer.region,
            )
            # Insert right after the producer to preserve topological order.
            pos = self.graph.index_of(producer.name) + 1
            self.graph.add_node(node, position=pos)
            for consumer, branch in zip(consumers, outs):
                self.graph.replace_input(consumer, tensor.name, branch)
