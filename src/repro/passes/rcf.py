"""RCF — ReLU-CONV Fusion.

DenseNet-style pre-activation places ReLU *before* the convolution, so the
stock conv+relu fusion of the reference library cannot apply. RCF folds the
rectification into the following convolution instead:

* forward: the convolution rectifies elements while reading its input
  feature map — the ReLU layer's read and write sweeps disappear.
* backward: the convolution's backward-data pass applies the ReLU mask
  while writing its input gradient (one extra read of the pre-ReLU tensor
  for the mask), and its backward-weights pass rectifies inline while
  reading the pre-ReLU tensor — the ReLU layer's three backward sweeps
  disappear at the cost of one added mask read.

Eligibility: the ReLU's output must have exactly one consumer and it must
be a convolution. Fan-out ReLUs (e.g. ResNet's post-EWS activation feeding
both the next block and the shortcut) are left alone, which is one reason
ResNet-50 benefits less than DenseNet-121 in the paper.
"""

from __future__ import annotations

from dataclasses import replace

from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.graph.sweeps import Direction, Sweep
from repro.passes.base import Pass, PassResult


class RCFPass(Pass):
    """Fold eligible ReLU layers into their consuming convolution."""

    name = "rcf"

    def run(self, graph: LayerGraph) -> PassResult:
        result = PassResult(self.name)
        for relu in list(graph.nodes_of_kind(OpKind.RELU)):
            if self.is_ghost(relu):
                continue
            conv = self._eligible_consumer(graph, relu)
            if conv is None:
                continue
            self._fuse(graph, relu, conv, result)
        return result

    @staticmethod
    def _eligible_consumer(graph: LayerGraph, relu: Node) -> Node | None:
        consumers = graph.consumers_of(relu.outputs[0])
        if len(consumers) == 1 and consumers[0].kind == OpKind.CONV:
            return consumers[0]
        return None

    def _fuse(self, graph: LayerGraph, relu: Node, conv: Node,
              result: PassResult) -> None:
        x = relu.inputs[0]   # pre-ReLU tensor: the mask source
        y = relu.outputs[0]  # rectified tensor: becomes transient

        graph.replace_input(conv, y, x)
        conv.attrs["fused_relu"] = relu.name
        conv.fused_from.append(f"relu:{relu.name}")

        new_fwd = []
        for sweep in conv.fwd_sweeps:
            if sweep.tag == "read_x" and sweep.tensor == y:
                sweep = replace(sweep, tensor=x, note="rcf: rectify inline")
            new_fwd.append(sweep)
        conv.fwd_sweeps = new_fwd

        new_bwd = []
        for sweep in conv.bwd_sweeps:
            if sweep.tensor == y:
                if sweep.tag == "write_dx":
                    sweep = replace(sweep, tensor=x,
                                    note="rcf: relu mask applied during write")
                elif sweep.tag == "read_x_weights":
                    sweep = replace(sweep, tensor=x,
                                    note="rcf: rectify inline re-read")
            new_bwd.append(sweep)
        # The backward-data half needs the pre-ReLU tensor for the mask.
        new_bwd.append(
            Sweep(x, Direction.READ, "read_mask_rcf", origin=relu.name,
                  note="rcf: mask source for masked dX write")
        )
        conv.bwd_sweeps = new_bwd
        result.sweeps_added += 1

        self.ghost(relu, conv.name, result)
        result.log(f"rcf folded {relu.name} into {conv.name}")
