"""The per-layer metrics: which program attributes the tracer hooks, and how
the spans and counts become named metrics.

Conv layers are named `<config>.conv<i>`, with i the layer's index in the
config (`toy` has conv1-3, `default` conv1-5), because the workloads run both
configs through the same functions.
"""

from __future__ import annotations

import os
import zlib

from tracer import Hook, Tracer

from visback.config import default_config, toy_config, validate_config

CONFIGS = {"toy": toy_config(), "default": default_config()}
CONV_NAMES = {
    cfg.layers[i].geometry: f"{cfg_name}.conv{i}"
    for cfg_name, cfg in CONFIGS.items()
    for i in cfg.conv_indices()
}


def _conv_label(position: int):
    def label(args):
        try:
            return CONV_NAMES.get(args[position], "conv_other")
        except IndexError:
            return "conv_other"
    return label


def _shift_digest(tracer, args, result):
    # distinct shifted inputs per run_shift_experiment span
    tracer.bags[tracer.current_span()].add(zlib.crc32(result.data))


def _file_bytes(tracer, args, result):
    tracer.counts[("imageio.bytes", None)] += os.path.getsize(args[0])


HOOKS = (
    Hook("scenes.render", "scenes", "render_scene_rgb"),
    Hook("scenes.rgb_to_yuv", "scenes", "rgb_to_yuv"),
    Hook("scenes.lateral_source_columns", "scenes", "lateral_source_columns"),
    Hook("training.generate", "training", "generate_dataset"),
    Hook("training.save", "training", "FrameDataset.save"),
    Hook("training.load", "training", "FrameDataset.load"),
    Hook("training.augment", "training", "_augment_batch"),
    Hook("training.sgd_update", "training", "train"),
    Hook("training.to_yuv", "training", "_to_yuv_batch"),
    Hook("training.evaluate", "training", "evaluate_mse"),
    Hook("network.forward", "network", "forward"),
    Hook("network.run_batch", "network", "_run_batch"),
    Hook("network.loss_and_grads", "network", "_loss_and_grads_batch"),
    Hook("network.conv_forward_batch", "network", "_conv_forward_batch", label=_conv_label(3)),
    Hook("network.conv_input_grad", "network", "_conv_input_grad"),
    Hook("tensor.conv2d", "tensor", "conv2d", label=_conv_label(2)),
    Hook("tensor.deconv_upscale", "tensor", "deconv_upscale"),
    Hook("tensor.wrap", "tensor", "Tensor._wrap", count_only=True),
    Hook("config.validate_config", "config", "validate_config", count_only=True),
    Hook("saliency.compute_mask", "saliency", "compute_mask"),
    Hook("harness.segment", "harness", "segment"),
    Hook("harness.shift_class", "harness", "shift_class", observe=_shift_digest),
    Hook("harness.fit_line", "harness", "fit_line"),
    Hook("harness.run_shift_experiment", "harness", "run_shift_experiment"),
    Hook("imageio.write_ppm", "imageio", "write_ppm", observe=_file_bytes),
    Hook("imageio.read_ppm", "imageio", "read_ppm", observe=_file_bytes),
)

# Spans reported as .ms (mean self time per call) and .calls. Labelled hooks
# expand to one span per conv layer they run on in the workloads.
SPANS = tuple(
    [h.name for h in HOOKS if h.label is None and not h.count_only]
    + [f"network.conv_forward_batch.{n}" for n in CONV_NAMES.values()]
    + [f"tensor.conv2d.toy.conv{i}" for i in CONFIGS["toy"].conv_indices()]
)


def make_tracer() -> Tracer:
    return Tracer(HOOKS)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the trace supports; absent ones are left out."""
    summary = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        row = summary.get(name)
        if row and row["calls"]:
            out[f"{name}.ms"] = (1e3 * row["self_s"] / row["calls"], "ms")
            out[f"{name}.calls"] = (float(row["calls"]), "count")

    steps = summary.get("network.loss_and_grads", {}).get("calls", 0)
    if "training.sgd_update.ms" in out and steps:  # per SGD step, not per training run
        out["training.sgd_update.ms"] = (1e3 * summary["training.sgd_update"]["self_s"] / steps, "ms")

    def per(counter: str, enclosing: str, unit_span: str):
        calls = summary.get(unit_span, {}).get("calls", 0)
        if calls and (counter, None) in tracer.counts:
            return tracer.counts[(counter, enclosing)] / calls
        return None

    ratios = {
        "tensor.wrap.per_forward": per("tensor.wrap", "network.forward", "network.forward"),
        "config.validate_config.per_forward": per("config.validate_config", "network.forward", "network.forward"),
        "config.validate_config.per_step": per("config.validate_config", "network.loss_and_grads",
                                               "network.loss_and_grads"),
    }
    for name, value in ratios.items():
        if value is not None:
            out[name] = (value, "count")
    for counter in ("tensor.wrap", "config.validate_config"):
        if (counter, None) in tracer.counts:
            out[f"{counter}.calls"] = (float(tracer.counts[(counter, None)]), "count")
    if ("imageio.bytes", None) in tracer.counts:
        out["imageio.bytes"] = (float(tracer.counts[("imageio.bytes", None)]), "B")

    forwards = tracer.children_named("harness.run_shift_experiment", "network.forward")
    if forwards and tracer.bags:
        distinct = sum(len(bag) for bag in tracer.bags.values())
        out["harness.unique_forward_ratio"] = (distinct / forwards, "ratio")

    out.update(computed_conv_metrics())
    return out


def computed_conv_metrics() -> dict[str, tuple[float, str]]:
    """Per frame, from shapes alone: conv FLOPs, bytes the im2col gather
    materialises (float32), and their ratio. Computed, not measured."""
    out = {}
    for cfg_name, cfg in CONFIGS.items():
        shapes = validate_config(cfg)
        for i in cfg.conv_indices():
            g = cfg.layers[i].geometry
            _, oh, ow = shapes[i].output_shape
            window = g.in_channels * g.kernel_h * g.kernel_w
            flop = 2.0 * oh * ow * g.out_channels * window
            im2col_bytes = 4.0 * oh * ow * window
            key = f"network.{cfg_name}.conv{i}"
            out[f"{key}.mflop"] = (flop / 1e6, "MFLOP")
            out[f"{key}.im2col_mb"] = (im2col_bytes / 1e6, "MB")
            out[f"{key}.flop_per_byte"] = (flop / im2col_bytes, "FLOP/B")
    return out


def expected_names() -> list[str]:
    """Names of every per-layer metric a complete traced run reports."""
    names = [f"{s}.{suffix}" for s in SPANS for suffix in ("ms", "calls")]
    names += ["tensor.wrap.per_forward", "config.validate_config.per_forward", "config.validate_config.per_step",
              "tensor.wrap.calls", "config.validate_config.calls", "imageio.bytes",
              "harness.unique_forward_ratio", "network.forward_cold_ms", "network.forward_warm_ms",
              "network.batch_speedup", "trace.overhead_ms", "trace.overhead_pct"]
    names += list(computed_conv_metrics())
    return names


def missing(tracer: Tracer, metrics: dict) -> set[str]:
    return {n for n in expected_names() if n not in metrics} | {f"hook:{h}" for h in tracer.missing}


def failed_counts(tracer: Tracer) -> dict[str, int]:
    """`.failed` per hooked layer: calls that raised."""
    return {f"{name}.failed": row["failed"] for name, row in tracer.summary().items()}
