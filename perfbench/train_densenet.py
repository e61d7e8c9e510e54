"""Workload ``train-densenet``: the paper's experiment, run with numpy.

Closed loop. A DenseNet-BC miniature (blocks (6, 12), growth 12, 32x32
inputs, batch 32, 10 classes; feature maps of 6-13 MB, beyond a 2 MB L2)
is trained with ``Trainer.step`` on seeded ``SyntheticClassification``
batches, alternating one ``baseline`` step and one ``bnff_icf`` step. Both
executors start from identical weights and see identical batches, so the
two step times differ only by the restructuring. ``nn``, ``kernels`` and
``train`` do all the work; ``sweep`` and ``serve`` do none.
"""

import time

T0 = time.perf_counter()  # benchmark start: before numpy and repro load

import math  # noqa: E402

import common  # noqa: E402
from common import Checks, emit, peak_rss_mb, timing  # noqa: E402

BLOCKS = (6, 12)
GROWTH = 12
IMAGE = (3, 32, 32)
BATCH = 32
CLASSES = 10
SCENARIOS = ("baseline", "bnff_icf")
#: Spans whose arrays count toward ``bn_path_mb``.
BN_LAYERS = ("nn.batchnorm", "kernels.bn_stats", "kernels.bn_relu_conv_fused",
             "kernels.conv_bn_fused", "train.executor_bn")
#: Per-step self-time layers, in report order.
LAYERS = ("nn.im2col.col2im", "nn.im2col.im2col", "nn.conv", "nn.batchnorm",
          "kernels.bn_stats", "kernels.bn_relu_conv_fused",
          "kernels.conv_bn_fused", "kernels.relu_conv_fused", "nn.relu",
          "nn.pooling", "nn.merge", "nn.classifier", "train.executor",
          "train.executor_bn", "train.optimizer", "train.trainer")


def setup(seed: int):
    from repro.models import densenet_graph
    from repro.passes import apply_scenario
    from repro.train import GraphExecutor, SyntheticClassification, Trainer

    graph = densenet_graph(blocks=BLOCKS, growth=GROWTH, image=IMAGE,
                           batch=BATCH, num_classes=CLASSES,
                           name="densenet_bc_mini")
    graphs = {"baseline": graph,
              "bnff_icf": apply_scenario(graph, "bnff_icf")[0]}
    data = SyntheticClassification(image=IMAGE, num_classes=CLASSES,
                                   seed=seed)
    trainers = {s: Trainer(GraphExecutor(g, seed=seed), data)
                for s, g in graphs.items()}
    # One warm-up step per scenario (batch 0): first-touch allocation and
    # lazy imports happen here, and its losses are the equivalence check.
    first = {s: trainers[s].step(BATCH, seed=0).loss for s in SCENARIOS}
    return graphs, trainers, first


def install(tracer) -> None:
    """Wrap every layer entry point the executor and trainer resolve."""
    import repro.nn.conv as conv_mod
    import repro.train.executor as ex
    from repro.nn import (Add, AvgPool2d, BatchNorm2d, Concat, Conv2d,
                          GlobalAvgPool2d, Linear, MaxPool2d, ReLU,
                          SoftmaxCrossEntropy)
    from repro.train.optimizer import SGD
    from repro.train.trainer import Trainer
    from tracer import call_bytes

    def norm_bytes(args, kwargs, result):  # _forward_norm(self, node, env)
        self_, node, env = args
        return env[node.inputs[0]].nbytes + result.nbytes

    def norm_grad_bytes(args, kwargs, result):  # _backward_norm(...)
        self_, node, grads = args
        x = self_._bn_ctx[node.attrs["bn_name"]]["x"]
        return grads[node.outputs[0]].nbytes + x.nbytes

    tracer.patch(conv_mod, "im2col", "nn.im2col.im2col")
    tracer.patch(conv_mod, "col2im", "nn.im2col.col2im")
    for attr in ("forward", "prepare_backward", "backward_data",
                 "backward_weights"):
        tracer.patch(Conv2d, attr, "nn.conv")
    for cls, name in ((BatchNorm2d, "nn.batchnorm"), (ReLU, "nn.relu"),
                      (MaxPool2d, "nn.pooling"), (AvgPool2d, "nn.pooling"),
                      (GlobalAvgPool2d, "nn.pooling"), (Concat, "nn.merge"),
                      (Add, "nn.merge"), (Linear, "nn.classifier"),
                      (SoftmaxCrossEntropy, "nn.classifier")):
        bn = name == "nn.batchnorm"
        for attr in ("forward", "backward"):
            tracer.patch(cls, attr, name, measure=call_bytes if bn else None)
    for attr in ("onepass_stats", "twopass_stats"):
        tracer.patch(ex, attr, "kernels.bn_stats", measure=call_bytes)
    for attr in ("bn_relu_conv_forward", "bn_relu_conv_backward"):
        tracer.patch(ex, attr, "kernels.bn_relu_conv_fused",
                     measure=call_bytes)
    tracer.patch(ex, "bn_input_grad_transform", "kernels.conv_bn_fused",
                 measure=call_bytes)
    for attr in ("relu_conv_forward", "relu_conv_backward"):
        tracer.patch(ex, attr, "kernels.relu_conv_fused")
    for attr in ("forward", "backward", "zero_grad"):
        tracer.patch(ex.GraphExecutor, attr, "train.executor")
    tracer.patch(ex.GraphExecutor, "_forward_norm", "train.executor_bn",
                 measure=norm_bytes)
    tracer.patch(ex.GraphExecutor, "_backward_norm", "train.executor_bn",
                 measure=norm_grad_bytes)
    tracer.patch(SGD, "step", "train.optimizer")
    tracer.patch(Trainer, "step", "train.trainer")


def layer_metrics(tracer, steps: dict) -> dict:
    totals = tracer.totals(lambda op: op[0] if op else None)
    out = {}
    for s in SCENARIOS:
        n = steps[s]
        for layer in LAYERS:
            entry = totals.get((s, layer), {"self_s": 0.0, "calls": 0})
            out[f"{s}.{layer}_ms"] = {"value": entry["self_s"] * 1e3 / n,
                                      "unit": "ms/op"}
        out[f"{s}.nn.im2col.im2col_calls"] = {
            "value": totals.get((s, "nn.im2col.im2col"), {"calls": 0})["calls"]
            / n, "unit": "count/op"}
        bn_bytes = sum(totals.get((s, layer), {"bytes": 0})["bytes"]
                       for layer in BN_LAYERS)
        out[f"{s}.bn_path_mb"] = {"value": bn_bytes / 1e6 / n,
                                  "unit": "MB/op"}
    return out


def predicted_ratio(graphs) -> float:
    """Simulated baseline/bnff_icf iteration-time ratio on skylake_2s."""
    from repro.hw.presets import get_preset
    from repro.perf.simulator import simulate

    hw = get_preset("skylake_2s")
    t = {s: simulate(graphs[s], hw, scenario=s).total_time_s
         for s in SCENARIOS}
    return t["baseline"] / t["bnff_icf"]


def main() -> None:
    args = common.child_args()
    tracer = None
    if args.trace_out:
        from tracer import OP, Tracer

        tracer = Tracer("train-densenet")
        install(tracer)
    graphs, trainers, first = setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        emit({"setup_s": setup_s})
        return

    checks = Checks()
    samples = {s: [] for s in SCENARIOS}
    bad_losses = []
    step = 1
    deadline = time.perf_counter() + args.seconds
    while step == 1 or time.perf_counter() < deadline:
        for s in SCENARIOS:
            if tracer is not None:
                OP.set((s, step))
            t = time.perf_counter()
            loss = trainers[s].step(BATCH, seed=step).loss
            samples[s].append(time.perf_counter() - t)
            if not math.isfinite(loss):
                bad_losses.append((s, step, loss))
        step += 1
    if tracer is not None:
        OP.set(None)
        tracer.undo()

    delta = abs(first["baseline"] - first["bnff_icf"])
    checks.check("first-step losses agree within 1e-5", delta <= 1e-5,
                 f"|{first['baseline']:.7f} - {first['bnff_icf']:.7f}| "
                 f"= {delta:.2e}")
    checks.check("every loss is finite", not bad_losses, repr(bad_losses[:3]))
    steps = {s: len(v) for s, v in samples.items()}
    metrics = {f"{s}_step_ms": timing(samples[s]) for s in SCENARIOS}
    measured = (metrics["baseline_step_ms"]["value"]
                / metrics["bnff_icf_step_ms"]["value"])
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "metrics": metrics,
        "info": {
            "measured baseline/bnff_icf step ratio": round(measured, 3),
            "predicted ratio (perf.simulate, skylake_2s)":
                round(predicted_ratio(graphs), 3),
            "first-step loss": first["baseline"],
        },
        "attempted": sum(steps.values()) + len(checks.results),
        "failed": len(bad_losses) + checks.failed,
        "checks": checks.results,
    }
    if tracer is not None:
        from tracer import write_chrome

        result["layers"] = layer_metrics(tracer, steps)
        write_chrome(args.trace_out, tracer.chrome_events())
        result["trace"] = args.trace_out
    emit(result)


if __name__ == "__main__":
    main()
