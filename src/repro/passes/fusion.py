"""Fusion — glue fissioned BN sub-layers onto their neighbouring CONVs.

Producer side (CONV1-(sub-BN1)): when the BN's input is produced by a
convolution, the statistics sweeps ride the convolution's output write
(forward), and the input-gradient transform (sub-BN1') is applied while the
convolution's backward passes read their incoming gradient — which is
retargeted from the BN *input* gradient to the BN *output* gradient, with
one extra read of the BN input per backward half to recompute ``x_hat``.

Consumer side ((sub-BN2)-ReLU-CONV2): when the BN's output (possibly
through an RCF-folded ReLU) feeds exactly one convolution, normalization
and rectification happen while that convolution reads its input — which is
retargeted from the normalized tensor to the raw BN input, so the
normalized/rectified feature maps never exist in memory. In backward, the
same convolution's backward-data pass applies the ReLU mask while writing
the BN-output gradient and accumulates dgamma/dbeta from the ``x_hat`` it
recomputes (sub-BN2'), and its backward-weights pass recomputes its own
forward input from the BN input.

Net ledger effect per interior CONV-BN-ReLU-CONV chain (DESIGN.md Sec. 5):
forward 10 -> 4 sweeps (the paper's Figure 5 span counted 8 -> 3), backward
16 -> 11 — exactly the "five memory sweeps per BN layer" the paper reports
removing on the backward pass.

Boundary BNs (producer is Concat/Split, not CONV) receive only the consumer
-side fusion; their statistics sweep and standalone input-gradient pass
survive until :class:`~repro.passes.icf.ICFPass` claims them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import PassError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.graph.sweeps import Direction, Sweep
from repro.passes.base import Pass, PassResult


class FusionPass(Pass):
    """Fuse sub-BN1 with the preceding CONV and sub-BN2 with the following
    (ReLU-)CONV wherever the graph structure allows."""

    name = "fusion"

    def run(self, graph: LayerGraph) -> PassResult:
        if graph.nodes_of_kind(OpKind.BN):
            raise PassError(
                "FusionPass requires fissioned BN layers; run FissionPass first"
            )
        result = PassResult(self.name)
        for stats in list(graph.nodes_of_kind(OpKind.BN_STATS)):
            if self.is_ghost(stats):
                continue
            self._producer_fusion(graph, stats, result)
        for norm in list(graph.nodes_of_kind(OpKind.BN_NORM)):
            if self.is_ghost(norm):
                continue
            self._consumer_fusion(graph, norm, result)
        return result

    # -- CONV1-(sub-BN1) ---------------------------------------------------------
    def _producer_fusion(self, graph: LayerGraph, stats: Node, result: PassResult) -> None:
        x = stats.inputs[0]
        producer = graph.producer_of(x)
        if producer is None or producer.kind != OpKind.CONV or self.is_ghost(producer):
            return
        y = stats.attrs["y_grad_source"]

        # Backward: the convolution consumes the BN-output gradient and
        # applies the sub-BN1' transform inline; both halves need x_hat.
        new_bwd = []
        for sweep in producer.bwd_sweeps:
            if sweep.tensor == x and sweep.tag == "read_dy_data":
                sweep = replace(sweep, tensor=y,
                                note="bnff: sub-BN1' transform inline (bwd-data)")
            elif sweep.tensor == x and sweep.tag == "read_dy_weights":
                sweep = replace(sweep, tensor=y,
                                note="bnff: sub-BN1' transform inline (bwd-weights)")
            new_bwd.append(sweep)
        new_bwd.append(Sweep(x, Direction.READ, "read_xbn_transform_data",
                             origin=stats.name,
                             note="bnff: x_hat recompute for transform (bwd-data)"))
        new_bwd.append(Sweep(x, Direction.READ, "read_xbn_transform_weights",
                             origin=stats.name,
                             note="bnff: x_hat recompute for transform (bwd-weights)"))
        producer.bwd_sweeps = new_bwd
        result.sweeps_added += 2

        producer.attrs["fused_bn_stats"] = stats.name
        producer.fused_from.append(f"bn_stats:{stats.name}")
        producer.fused_from.append(f"bn_input_grad:{stats.name}")
        self.ghost(stats, producer.name, result)
        result.log(f"fused {stats.name} into {producer.name} (producer side)")

    # -- (sub-BN2)-ReLU-CONV2 -------------------------------------------------------
    def _consumer_fusion(self, graph: LayerGraph, norm: Node, result: PassResult) -> None:
        x = norm.inputs[0]
        y = norm.outputs[0]
        consumers = [c for c in graph.consumers_of(y) if not self.is_ghost(c)]
        if len(consumers) != 1:
            return
        if consumers[0].kind == OpKind.EWS:
            self._consumer_fusion_ews(graph, norm, consumers[0], result)
            return
        if consumers[0].kind != OpKind.CONV:
            return
        conv = consumers[0]

        # Forward: normalize (and rectify, if RCF folded a ReLU in) while
        # reading the BN input instead of the normalized tensor.
        graph.replace_input(conv, y, x)
        new_fwd = []
        for sweep in conv.fwd_sweeps:
            if sweep.tensor == y and sweep.tag == "read_x":
                sweep = replace(sweep, tensor=x,
                                note="bnff: normalize(+relu) inline")
            new_fwd.append(sweep)
        conv.fwd_sweeps = new_fwd

        # Backward: retarget the weights-half input read and the RCF mask
        # read to the BN input; the mask read doubles as the x_hat source
        # for the inline dgamma/dbeta reductions (sub-BN2').
        new_bwd = []
        had_mask_read = False
        for sweep in conv.bwd_sweeps:
            if sweep.tensor == y and sweep.tag == "read_mask_rcf":
                sweep = Sweep(x, Direction.READ, "read_xbn_data", origin=norm.name,
                              note="bnff: mask + x_hat + dgamma/dbeta inline (bwd-data)")
                had_mask_read = True
            elif sweep.tensor == y and sweep.tag == "read_x_weights":
                sweep = replace(sweep, tensor=x,
                                note="bnff: recompute normalize(+relu) inline")
            new_bwd.append(sweep)
        if not had_mask_read:
            # Direct BN->CONV (no ReLU): backward-data still needs x_hat for
            # the dgamma/dbeta accumulation.
            new_bwd.append(Sweep(x, Direction.READ, "read_xbn_data", origin=norm.name,
                                 note="bnff: x_hat + dgamma/dbeta inline (bwd-data)"))
            result.sweeps_added += 1
        conv.bwd_sweeps = new_bwd

        conv.attrs["fused_bn_norm"] = norm.name
        conv.fused_from.append(f"bn_norm:{norm.name}")
        conv.fused_from.append(f"bn_param_grad:{norm.name}")
        self.ghost(norm, conv.name, result)
        result.log(f"fused {norm.name} into {conv.name} (consumer side)")

    def _consumer_fusion_ews(self, graph: LayerGraph, norm: Node, ews: Node,
                             result: PassResult) -> None:
        """(sub-BN2)-EWS fusion — ResNet's third per-block BN.

        In post-activation ResNet the last BN of a bottleneck feeds the
        elementwise sum, not a convolution. Normalization is a per-channel
        scale/shift, so it rides the EWS's read of that operand (forward);
        in backward the EWS already writes this operand's gradient — which
        *is* the BN-output gradient — and one extra read of the BN input
        supplies x_hat for the inline dgamma/dbeta reductions (sub-BN2').
        Without this, the widest tensors in ResNet (the 4x-expanded block
        outputs) would keep their normalize sweeps and ResNet-50's gain
        could not approach the paper's 16.1%.
        """
        x = norm.inputs[0]
        y = norm.outputs[0]

        new_fwd = []
        for sweep in ews.fwd_sweeps:
            if sweep.tensor == y and sweep.tag == "read_x":
                sweep = replace(sweep, tensor=x, note="bnff: normalize inline")
            new_fwd.append(sweep)
        ews.fwd_sweeps = new_fwd
        graph.replace_input(ews, y, x)

        # Backward: the write of this operand's gradient already exists
        # (it is d_bn_out); add the x_hat read for dgamma/dbeta.
        ews.bwd_sweeps = list(ews.bwd_sweeps) + [
            Sweep(x, Direction.READ, "read_xbn_data", origin=norm.name,
                  note="bnff: x_hat + dgamma/dbeta inline (ews bwd)")
        ]
        result.sweeps_added += 1

        ews.attrs.setdefault("fused_bn_norms", []).append(norm.name)
        ews.fused_from.append(f"bn_norm:{norm.name}")
        ews.fused_from.append(f"bn_param_grad:{norm.name}")
        self.ghost(norm, ews.name, result)
        result.log(f"fused {norm.name} into {ews.name} (ews consumer side)")
