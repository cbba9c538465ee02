"""Acceptance gate: seven end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each check prints before asserting, so a red run still reports every line.
"""

import time

import numpy as np
import pytest

from conftest import random_conv_config, random_image, random_weights
from oracles import mask_loops
from visback.config import (
    LayerSpec,
    NetworkConfig,
    conv_layer,
    default_config,
    fc_layer,
    toy_config,
    validate_config,
)
from visback.harness import (
    DEFAULT_SHIFTS,
    DEFAULT_THRESHOLD,
    run_shift_experiment,
    scaled_dilation_radius,
    segment,
)
from visback.network import ActivationTrace, _loss_and_grads_batch, forward
from visback.saliency import compute_mask
from visback.tensor import Tensor, conv2d, nhwc_kernel
from visback.training import FrameDataset, TrainConfig, generate_dataset, sample_scene_params, train
from visback import scenes
from visback.weights import (
    WeightChecksumError,
    WeightFileError,
    WeightSet,
    init_weights,
    load_weights,
    save_weights,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {verdict}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_default_architecture_shapes():
    start = time.perf_counter()
    shapes = validate_config(default_config())
    conv_shapes = [s.output_shape for s in shapes if s.kind == "conv"]
    elapsed = time.perf_counter() - start
    expected = [(24, 31, 98), (36, 14, 47), (48, 5, 22), (64, 3, 20), (64, 1, 18)]
    ok = conv_shapes == expected and elapsed < 1.0
    _report(1, ok, f"conv output shapes {conv_shapes} in {elapsed:.3f}s")


# --------------------------------------------------------------- criterion 2


def _oracle_mask(cfg, trace):
    maps = [t.data.astype(np.float64) for _, t in trace.conv_entries]
    geoms = []
    for i in cfg.conv_indices():
        g = cfg.layers[i].geometry
        geoms.append((g.kernel_h, g.kernel_w, g.stride_h, g.stride_w))
    return mask_loops(maps, geoms, (cfg.input_height, cfg.input_width))


def test_acceptance_2_mask_matches_reference_loops():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        _, trace = forward(cfg, ws, img)
        mask, _ = compute_mask(trace, cfg)
        assert mask.data.shape == (cfg.input_height, cfg.input_width)
        assert 0.0 <= float(mask.data.min()) and float(mask.data.max()) <= 1.0
        want = _oracle_mask(cfg, trace)
        assert np.allclose(mask.data, want, rtol=1e-5, atol=1e-5)
        worst = max(worst, float(np.max(np.abs(mask.data - want))))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(2, ok, f"100 random nets, worst deviation {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_mask_scale_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        _, trace = forward(cfg, ws, img)
        base, _ = compute_mask(trace, cfg)
        for lam in (0.1, 3.0, 10.0):
            scaled = ActivationTrace(tuple(
                (i, Tensor(t.data * np.float32(lam))) for i, t in trace.conv_entries
            ))
            mask, _ = compute_mask(scaled, cfg)
            dev = float(np.max(np.abs(mask.data - base.data)))
            worst = max(worst, dev)
            assert dev <= 1e-6
    _report(3, True, f"20 nets x scales 0.1/3/10, worst deviation {worst:.2e}")


# --------------------------------------------------------------- criterion 4


def _tiny_net(rng) -> NetworkConfig:
    c, h, w = 3, int(rng.integers(8, 13)), int(rng.integers(8, 13))
    layers = [LayerSpec(kind="normalization")]
    cur_c, cur_h, cur_w = c, h, w
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(2, 4))
        if cur_h < k or cur_w < k:
            break
        s = int(rng.integers(1, 3))
        oc = int(rng.integers(2, 5))
        layers.append(conv_layer(oc, kernel=k, stride=s, in_channels=cur_c))
        cur_h = (cur_h - k) // s + 1
        cur_w = (cur_w - k) // s + 1
        cur_c = oc
    if rng.integers(0, 2):
        layers.append(fc_layer(int(rng.integers(2, 6))))
    layers.append(fc_layer(1, activation="none"))
    return NetworkConfig(input_channels=c, input_height=h, input_width=w, layers=tuple(layers))


def _relu_margin(cfg, ws, img):
    """Smallest |pre-activation| over every rectified unit, plus the largest
    magnitude seen anywhere — used to keep the finite-difference stencil away
    from activation kinks, where a central difference measures nothing."""
    x = img
    vec = None
    margins, peak = [], 0.0
    for i, spec in enumerate(cfg.layers):
        if spec.kind == "normalization":
            x = Tensor(x.data / np.float32(127.5) - np.float32(1.0))
        elif spec.kind == "conv":
            pre = conv2d(x.data.transpose(1, 2, 0)[np.newaxis], nhwc_kernel(ws.weight(i), spec.geometry),
                         spec.geometry, ws.bias(i))[0][0].transpose(2, 0, 1)
            margins.append(float(np.abs(pre).min()))
            peak = max(peak, float(np.abs(pre).max()))
            x = Tensor(np.maximum(pre, 0.0))
        else:
            v = x.data.reshape(-1) if vec is None else vec
            pre = ws.weight(i).reshape(spec.units, v.size) @ v + ws.bias(i)
            peak = max(peak, float(np.abs(pre).max()))
            if spec.activation == "relu":
                margins.append(float(np.abs(pre).min()))
                vec = np.maximum(pre, 0.0)
            else:
                vec = pre
    return (min(margins) if margins else np.inf), peak


def _sample_smooth_case(rng):
    while True:
        cfg = _tiny_net(rng)
        ws = random_weights(cfg, rng)
        img = Tensor(rng.uniform(0.0, 255.0, size=cfg.input_shape).astype(np.float32))
        target = float(rng.uniform(-0.1, 0.1))
        margin, peak = _relu_margin(cfg, ws, img)
        if margin > 0.05 and peak < 30.0:
            return cfg, ws, img, target


def _loss_at(cfg, arrays, img, target):
    out, _ = forward(cfg, WeightSet(config=cfg, arrays=arrays), img)
    return (float(out.inverse_turning_radius) - target) ** 2


def _fd_relative_error(cfg, ws, img, target, eps):
    _, grads = _loss_and_grads_batch(cfg, ws, img.data[np.newaxis], np.asarray([target]))
    fd_all, an_all = [], []
    for i, (w, b) in sorted(ws.arrays.items()):
        for which, arr in (("w", w), ("b", b)):
            analytic = grads[i][0] if which == "w" else grads[i][1]
            for j in range(arr.size):
                plus = {k: (ww.copy(), bb.copy()) for k, (ww, bb) in ws.arrays.items()}
                minus = {k: (ww.copy(), bb.copy()) for k, (ww, bb) in ws.arrays.items()}
                (plus[i][0] if which == "w" else plus[i][1])[j] += np.float32(eps)
                (minus[i][0] if which == "w" else minus[i][1])[j] -= np.float32(eps)
                fd = (_loss_at(cfg, plus, img, target) - _loss_at(cfg, minus, img, target)) / (2 * eps)
                fd_all.append(fd)
                an_all.append(float(analytic[j]))
    fd_vec = np.asarray(fd_all)
    an_vec = np.asarray(an_all)
    denom = max(float(np.linalg.norm(fd_vec)), 1e-12)
    return float(np.linalg.norm(an_vec - fd_vec) / denom), fd_vec.size


def test_acceptance_4_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst, total_params = 0.0, 0
    for _ in range(20):
        cfg, ws, img, target = _sample_smooth_case(rng)
        err, n_params = _fd_relative_error(cfg, ws, img, target, eps=1e-3)
        worst = max(worst, err)
        total_params += n_params
        assert err < 1e-3
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(4, ok, f"20 nets / {total_params} params, worst relative error {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5


def test_acceptance_5_training_converges(trained_model):
    cfg, weights, losses, dataset, elapsed = trained_model
    var = dataset.label_variance()
    final = losses[-1]
    ratio = final / var

    # Same seeds twice at reduced scale: the loop must be bit-reproducible.
    small = generate_dataset(120, style="mixed", seed=11)
    tc = TrainConfig(epochs=3, seed=3)
    _, first = train(cfg, tc, small)
    _, second = train(cfg, tc, small)
    deterministic = first == second

    ok = len(losses) <= 30 and ratio < 0.25 and elapsed < 600.0 and deterministic
    _report(
        5,
        ok,
        f"final loss {final:.3e} = {100 * ratio:.1f}% of label variance {var:.3e} "
        f"after {len(losses)} epochs in {elapsed:.0f}s; reruns identical: {deterministic}",
    )


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_shift_response_localized_to_salient_class(trained_model):
    cfg, weights, _, _, _ = trained_model
    start = time.perf_counter()

    rng = np.random.default_rng(99)
    radius = scaled_dilation_radius(cfg.input_width)
    slopes = {"class1": [], "class2": [], "all": []}
    r_squared_class1 = []
    for _ in range(20):
        params = sample_scene_params(rng)
        image = Tensor(scenes.rgb_to_yuv(scenes.render_scene_rgb(params, cfg.input_width, cfg.input_height)))
        _, trace = forward(cfg, weights, image)
        mask, _ = compute_mask(trace, cfg)
        seg = segment(mask, t=DEFAULT_THRESHOLD, radius=radius)
        result = run_shift_experiment(cfg, weights, image, seg, DEFAULT_SHIFTS)
        for mode in slopes:
            slopes[mode].append(abs(result.fit(mode).slope))
        r_squared_class1.append(result.fit("class1").r_squared)
    elapsed = time.perf_counter() - start

    mean_c1 = float(np.mean(slopes["class1"]))
    mean_c2 = float(np.mean(slopes["class2"]))
    mean_all = float(np.mean(slopes["all"]))
    med_r2 = float(np.median(r_squared_class1))

    ok = (
        mean_c1 >= 0.5 * mean_all
        and mean_c2 <= 0.5 * mean_c1
        and med_r2 >= 0.8
        and elapsed < 300.0
    )
    _report(
        6,
        ok,
        f"mean |slope| class1 {mean_c1:.3e} / class2 {mean_c2:.3e} / all {mean_all:.3e}; "
        f"median r2(class1) {med_r2:.3f}; 20 scenes in {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 7


def test_acceptance_7_artifact_round_trips_and_corruption_errors(tmp_path):
    cfg = toy_config()
    ws = init_weights(cfg, seed=5)
    wpath = tmp_path / "model.pnw"
    save_weights(ws, wpath)
    back = load_weights(wpath)
    weights_exact = back.config == cfg and all(
        np.array_equal(back.weight(i), ws.weight(i)) and np.array_equal(back.bias(i), ws.bias(i))
        for i in ws.arrays
    )
    save_weights(back, tmp_path / "again.pnw")
    weights_bytes_stable = (tmp_path / "again.pnw").read_bytes() == wpath.read_bytes()

    raw = wpath.read_bytes()
    bad_magic = tmp_path / "magic.pnw"
    bad_magic.write_bytes(b"JUNK" + raw[4:])
    with pytest.raises(WeightFileError) as magic_err:
        load_weights(bad_magic)
    magic_rejected = not isinstance(magic_err.value, WeightChecksumError)

    bad_crc = bytearray(raw)
    bad_crc[len(raw) // 2] ^= 0xFF
    crc_path = tmp_path / "crc.pnw"
    crc_path.write_bytes(bytes(bad_crc))
    with pytest.raises(WeightChecksumError):
        load_weights(crc_path)

    ds = generate_dataset(6, style="mixed", seed=21, width=32, height=16)
    ds.save(tmp_path / "data")
    loaded = FrameDataset.load(tmp_path / "data")
    dataset_exact = np.array_equal(loaded.images_rgb, ds.images_rgb) and np.array_equal(
        loaded.labels, ds.labels
    )
    loaded.save(tmp_path / "data2")
    dataset_bytes_stable = (tmp_path / "data2" / "labels.csv").read_bytes() == (
        tmp_path / "data" / "labels.csv"
    ).read_bytes() and all(
        (tmp_path / "data2" / "frames" / f"{i:06d}.ppm").read_bytes()
        == (tmp_path / "data" / "frames" / f"{i:06d}.ppm").read_bytes()
        for i in range(6)
    )

    from visback.cli import EXIT_DATA, main

    cli_maps_to_data_error = (
        main(["explain", "--weights", str(bad_magic), "--image", "x.ppm", "--out", str(tmp_path / "o")])
        == EXIT_DATA
    )

    ok = (
        weights_exact
        and weights_bytes_stable
        and magic_rejected
        and dataset_exact
        and dataset_bytes_stable
        and cli_maps_to_data_error
    )
    _report(
        7,
        ok,
        "weight and dataset round trips bit-exact; bad magic and bad checksum "
        "raise their own error types and exit code 3",
    )
