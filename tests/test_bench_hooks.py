"""The program surface the benchmark's per-layer tracer reaches into.

`bench/layers.py` wraps `visback` module attributes by name and labels conv
spans by the position of their geometry argument. In a traced bench run a
hook whose target is gone is only listed as missing and its metrics drop out
of the result; these tests fail instead.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import layers  # noqa: E402  (bench/layers.py; imports bench/tracer.py)
from tracer import Hook, Tracer  # noqa: E402

from visback import harness, network, saliency, scenes  # noqa: E402
from visback.config import toy_config  # noqa: E402
from visback.tensor import Tensor  # noqa: E402
from visback.weights import init_weights  # noqa: E402


@pytest.mark.parametrize("hook", layers.HOOKS, ids=lambda h: h.name)
def test_bench_hook_target_exists(hook):
    # resolved the way the tracer installs a hook: the attribute must live in
    # the owner's own namespace
    owner = importlib.import_module(f"visback.{hook.module}")
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert vars(owner).get(name) is not None, f"{hook.name}: visback.{hook.module}.{hook.attr} is gone"


def test_traced_toy_run_labels_conv_layers_and_counts_shift_forwards():
    cfg = toy_config()
    weights = init_weights(cfg, seed=0)
    params = scenes.SceneParams(lane_offset=0.3, heading=0.02, curvature=0.004, style="lane_marked", seed=1)
    shifts = (-4, 0, 4)
    # the bench's hooks plus one on the batched entry, to count it per experiment
    tracer = Tracer(layers.HOOKS + (Hook("network.forward_batch", "network", "forward_batch"),))
    with tracer.active():
        image = Tensor(scenes.rgb_to_yuv(scenes.render_scene_rgb(params)))
        _, trace = network.forward(cfg, weights, image)
        mask, _ = saliency.compute_mask(trace, cfg)
        harness.run_shift_experiment(cfg, weights, image, harness.segment(mask), shifts)
        network.forward_batch(cfg, weights, image.data[np.newaxis])

    assert not tracer.missing
    summary = tracer.summary()
    for i in cfg.conv_indices():
        assert f"tensor.conv2d.toy.conv{i}" in summary  # geometry at args[2]
        assert f"network.conv_forward_batch.toy.conv{i}" in summary  # geometry at args[3]
    assert not [name for name in summary if name.endswith("conv_other")]
    # the unshifted frame runs per frame, the shifted ones in one batch per mode
    assert tracer.children_named("harness.run_shift_experiment", "network.forward") == 1
    assert tracer.children_named("harness.run_shift_experiment", "network.forward_batch") <= len(harness.MODES)
    experiment = tracer.name_ids["harness.run_shift_experiment"]
    span = next(i for i, name_id in enumerate(tracer.name_of) if name_id == experiment)
    assert tracer.bags[span]  # shift_class digests, behind unique_forward_ratio
    assert "harness.unique_forward_ratio" in layers.layer_metrics(tracer)


def test_traced_bench_run_reports_every_per_layer_metric():
    """A short traced explain_shift run completes with every per-layer name of
    BENCHMARK.json, so a program change cannot leave the traced result short."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "explain_shift",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert details["missing"] == []
    assert result["correct"] is True
