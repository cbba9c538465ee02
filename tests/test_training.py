"""Dataset handling and the SGD loop: validation, determinism, and the
behavioral contracts (zero-rate no-op, memorization, divergence, mirror
symmetry)."""

import math
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import env_with_src, zero_weights
from visback import network, scenes, training
from visback.config import LayerSpec, NetworkConfig, conv_layer, fc_layer, toy_config
from visback.network import forward_batch
from visback.training import (
    DatasetError,
    DivergenceError,
    FrameDataset,
    LABELS_FILE,
    LABELS_HEADER,
    TrainConfig,
    evaluate_mse,
    generate_dataset,
    train,
)
from visback.weights import init_weights, load_weights

TOY_WEIGHTS = Path(__file__).resolve().parents[1] / "bench" / "toy_weights.pnw"


def tiny_config() -> NetworkConfig:
    return NetworkConfig(
        input_channels=3,
        input_height=12,
        input_width=16,
        layers=(
            LayerSpec(kind="normalization"),
            conv_layer(4, kernel=3, stride=2, in_channels=3),
            fc_layer(1, activation="none"),
        ),
    )


def tiny_dataset(n: int, seed: int = 0) -> FrameDataset:
    return generate_dataset(n, style="mixed", seed=seed, width=16, height=12)


# ---------------------------------------------------------------- TrainConfig


def test_train_config_defaults_are_valid():
    tc = TrainConfig()
    assert tc.learning_rate > 0
    assert tc.batch_size >= 1
    assert tc.epochs >= 1
    assert tc.augmentation_shift_range >= 0


def test_train_config_zero_learning_rate_allowed():
    TrainConfig(learning_rate=0.0)


def test_train_config_zero_shift_range_allowed():
    TrainConfig(augmentation_shift_range=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": -0.01},
        {"batch_size": 0},
        {"batch_size": -3},
        {"epochs": 0},
        {"augmentation_shift_range": -0.1},
        {"learning_rate": float("nan")},
        {"augmentation_shift_range": float("inf")},
        {"seed": -1},
        {"epochs": 1.5},
        {"epochs": True},
        {"batch_size": 2.5},
        {"batch_size": "32"},
        {"seed": 1.5},
        {"seed": False},
        {"learning_rate": True},
        {"learning_rate": "0.5"},
        {"learning_rate": None},
        {"augmentation_shift_range": True},
        {"augmentation_shift_range": "0.5"},
        {"augmentation_shift_range": None},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


def test_train_config_accepts_numpy_integers():
    tc = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(7))
    assert (tc.epochs, tc.batch_size, tc.seed) == (2, 4, 7)


# ------------------------------------------------------------- color handling


def test_yuv_batch_matches_single_frame_converter():
    rng = np.random.default_rng(5)
    batch = rng.integers(0, 256, size=(4, 8, 9, 3), dtype=np.uint8)
    got = training._to_yuv_batch(batch)
    assert got.shape == (4, 3, 8, 9)
    assert got.dtype == np.float32
    for i in range(4):
        np.testing.assert_array_equal(got[i], scenes.rgb_to_yuv(batch[i]))


def test_forward_batch_is_bit_identical_across_input_layouts():
    # _to_yuv_batch returns a (B, 3, H, W) view of NHWC memory
    cfg = tiny_config()
    ds = tiny_dataset(4, seed=2)
    view = training._to_yuv_batch(ds.images_rgb)
    nchw = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous and nchw.flags.c_contiguous
    weights = init_weights(cfg, seed=4)
    assert np.array_equal(forward_batch(cfg, weights, view), forward_batch(cfg, weights, nchw))


# ----------------------------------------------------------------- FrameDataset


def test_dataset_rejects_bad_shapes_and_dtypes():
    good_imgs = np.zeros((2, 4, 5, 3), np.uint8)
    good_labels = np.zeros(2, np.float32)
    with pytest.raises(DatasetError):
        FrameDataset(good_imgs.astype(np.float32), good_labels)
    with pytest.raises(DatasetError):
        FrameDataset(np.zeros((2, 4, 5), np.uint8), good_labels)
    with pytest.raises(DatasetError):
        FrameDataset(good_imgs, np.zeros(3, np.float32))
    with pytest.raises(DatasetError):
        FrameDataset(good_imgs, np.array([0.0, np.nan], np.float32))


def test_dataset_arrays_are_read_only():
    ds = tiny_dataset(2)
    with pytest.raises(ValueError):
        ds.images_rgb[0, 0, 0, 0] = 7
    with pytest.raises(ValueError):
        ds.labels[0] = 1.0


def test_dataset_frame_accessor():
    ds = tiny_dataset(3, seed=4)
    fr = ds.frame(1)
    assert fr.image_yuv.shape == (3, 12, 16)
    assert fr.steering == float(ds.labels[1])
    np.testing.assert_allclose(fr.image_yuv.data, scenes.rgb_to_yuv(ds.images_rgb[1]))


def test_label_variance_matches_numpy():
    ds = tiny_dataset(40, seed=8)
    assert ds.label_variance() == pytest.approx(np.var(ds.labels.astype(np.float64)), rel=1e-12)


def test_dataset_save_load_round_trip_bit_exact(tmp_path):
    ds = generate_dataset(5, style="mixed", seed=9, width=24, height=12)
    ds.save(tmp_path / "d")
    back = FrameDataset.load(tmp_path / "d")
    assert np.array_equal(back.images_rgb, ds.images_rgb)
    assert np.array_equal(back.labels, ds.labels)
    assert back.labels.dtype == np.float32


def test_dataset_save_is_byte_stable(tmp_path):
    ds = tiny_dataset(3, seed=2)
    ds.save(tmp_path / "a")
    ds.save(tmp_path / "b")
    assert (tmp_path / "a" / LABELS_FILE).read_bytes() == (tmp_path / "b" / LABELS_FILE).read_bytes()
    for i in range(3):
        name = f"frames/{i:06d}.ppm"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_empty_dataset_round_trip(tmp_path):
    ds = generate_dataset(0, seed=0, width=16, height=12)
    assert len(ds) == 0
    ds.save(tmp_path / "d")
    assert (tmp_path / "d" / LABELS_FILE).read_text() == LABELS_HEADER + "\n"
    assert len(FrameDataset.load(tmp_path / "d")) == 0


def test_a_frame_size_is_checked_whatever_the_scene_count():
    """A height with no ground rows fails before any scene is drawn, so an
    empty dataset of that size raises as a one-scene one does."""
    for n in (0, 1):
        with pytest.raises(ValueError, match="height 1 leaves no rows below the horizon"):
            generate_dataset(n, height=1)
    ds = generate_dataset(0)
    assert ds.images_rgb.shape == (0, 66, 200, 3) and ds.labels.shape == (0,)


def test_load_missing_labels_file(tmp_path):
    with pytest.raises(DatasetError, match="missing labels"):
        FrameDataset.load(tmp_path)


def test_load_rejects_bad_header(tmp_path):
    (tmp_path / LABELS_FILE).write_text("frame,angle\n")
    with pytest.raises(DatasetError, match="header"):
        FrameDataset.load(tmp_path)


def test_load_rejects_empty_file(tmp_path):
    (tmp_path / LABELS_FILE).write_text("")
    with pytest.raises(DatasetError, match="empty"):
        FrameDataset.load(tmp_path)


def test_load_rejects_malformed_rows(tmp_path):
    (tmp_path / LABELS_FILE).write_text(LABELS_HEADER + "\n000000,0.1,extra\n")
    with pytest.raises(DatasetError, match="expected 2 fields"):
        FrameDataset.load(tmp_path)
    (tmp_path / LABELS_FILE).write_text(LABELS_HEADER + "\n000000,not-a-number\n")
    with pytest.raises(DatasetError, match="bad steering value"):
        FrameDataset.load(tmp_path)


def test_load_rejects_missing_frame(tmp_path):
    (tmp_path / LABELS_FILE).write_text(LABELS_HEADER + "\n000000,0.25\n")
    with pytest.raises(DatasetError, match="frame 000000"):
        FrameDataset.load(tmp_path)


def test_load_rejects_inconsistent_frame_sizes(tmp_path):
    from visback.imageio import write_ppm

    (tmp_path / "frames").mkdir()
    write_ppm(tmp_path / "frames" / "000000.ppm", np.zeros((4, 5, 3), np.uint8))
    write_ppm(tmp_path / "frames" / "000001.ppm", np.zeros((6, 5, 3), np.uint8))
    (tmp_path / LABELS_FILE).write_text(LABELS_HEADER + "\n000000,0.0\n000001,0.1\n")
    with pytest.raises(DatasetError, match="differs"):
        FrameDataset.load(tmp_path)


# -------------------------------------------------------------- generation


def test_generate_dataset_is_deterministic():
    a = tiny_dataset(6, seed=13)
    b = tiny_dataset(6, seed=13)
    assert np.array_equal(a.images_rgb, b.images_rgb)
    assert np.array_equal(a.labels, b.labels)
    c = tiny_dataset(6, seed=14)
    assert not np.array_equal(a.images_rgb, c.images_rgb)


def test_generate_dataset_validates_arguments():
    with pytest.raises(ValueError):
        generate_dataset(-1)
    with pytest.raises(ValueError):
        generate_dataset(2, style="watercolor")
    with pytest.raises(ValueError, match="seed"):
        generate_dataset(2, seed=-1)
    for kwargs, name in [
        ({"n": 2.5}, "n"),
        ({"n": True}, "n"),
        ({"seed": 1.5}, "seed"),
        ({"width": 0}, "width"),
        ({"height": 0}, "height"),
        ({"width": 32.0}, "width"),
        ({"height": -5}, "height"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            generate_dataset(**{"n": 2, **kwargs})


def test_generate_dataset_custom_size():
    ds = generate_dataset(2, seed=1, width=32, height=20)
    assert ds.images_rgb.shape == (2, 20, 32, 3)


# -------------------------------------------------------------- augmentation


def test_augment_batch_zero_shift_is_identity():
    ds = tiny_dataset(3, seed=6)
    imgs, labels = training._augment_batch(ds.images_rgb, ds.labels, np.zeros(3))
    assert np.array_equal(imgs, ds.images_rgb)
    np.testing.assert_array_equal(labels, ds.labels)


def test_augment_batch_applies_shift_and_label_rule():
    # bit-identical to warping each frame on its own with take_along_axis
    ds = tiny_dataset(5, seed=7)
    shifts = np.array([0.4, -0.3, 0.0, 1.0, -1.0])
    imgs, labels = training._augment_batch(ds.images_rgb, ds.labels, shifts)
    np.testing.assert_allclose(
        labels, (ds.labels - scenes.OFFSET_GAIN * shifts).astype(np.float32), rtol=0, atol=0
    )
    assert imgs.shape == ds.images_rgb.shape and imgs.dtype == np.uint8
    h, w = ds.images_rgb.shape[1:3]
    for j in range(5):
        src = scenes.lateral_source_columns(h, w, float(shifts[j]))
        expect = np.take_along_axis(ds.images_rgb[j], src[:, :, None], axis=1)
        assert np.array_equal(imgs[j], expect)


# ------------------------------------------------------------------ training


def test_train_rejects_empty_or_mismatched_dataset():
    cfg = tiny_config()
    with pytest.raises(DatasetError):
        train(cfg, TrainConfig(epochs=1), generate_dataset(0, width=16, height=12))
    wrong_size = generate_dataset(2, seed=0, width=16, height=20)
    with pytest.raises(DatasetError, match="config wants"):
        train(cfg, TrainConfig(epochs=1), wrong_size)


def test_train_zero_learning_rate_leaves_weights_unchanged():
    cfg = tiny_config()
    ds = tiny_dataset(8, seed=3)
    tc = TrainConfig(learning_rate=0.0, batch_size=4, epochs=5, seed=21,
                     augmentation_shift_range=0.0)
    weights, losses = train(cfg, tc, ds)
    start = init_weights(cfg, seed=tc.seed)
    for i in start.arrays:
        assert np.array_equal(weights.weight(i), start.weight(i))
        assert np.array_equal(weights.bias(i), start.bias(i))
    # Same samples each epoch, only regrouped: the curve is flat up to
    # accumulation-order rounding.
    assert len(losses) == 5
    np.testing.assert_allclose(losses, losses[0], rtol=1e-5)


def test_train_fixed_seed_reproduces_loss_curve_exactly():
    cfg = tiny_config()
    ds = tiny_dataset(12, seed=5)
    tc = TrainConfig(learning_rate=0.05, batch_size=4, epochs=4, seed=17)
    w1, l1 = train(cfg, tc, ds)
    w2, l2 = train(cfg, tc, ds)
    assert l1 == l2
    for i in w1.arrays:
        assert np.array_equal(w1.weight(i), w2.weight(i))
        assert np.array_equal(w1.bias(i), w2.bias(i))


def test_train_different_seed_changes_trajectory():
    cfg = tiny_config()
    ds = tiny_dataset(12, seed=5)
    _, l1 = train(cfg, TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=17), ds)
    _, l2 = train(cfg, TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=18), ds)
    assert l1 != l2


def test_train_memorizes_single_sample():
    cfg = tiny_config()
    ds = tiny_dataset(1, seed=9)
    tc = TrainConfig(learning_rate=0.1, batch_size=1, epochs=400, seed=2,
                     augmentation_shift_range=0.0)
    _, losses = train(cfg, tc, ds)
    assert losses[-1] < 1e-4


def test_train_loss_decreases_on_small_dataset():
    cfg = tiny_config()
    ds = tiny_dataset(32, seed=10)
    tc = TrainConfig(learning_rate=0.5, batch_size=8, epochs=40, seed=1,
                     augmentation_shift_range=0.0)
    _, losses = train(cfg, tc, ds)
    assert losses[-1] < 0.5 * losses[0]


def test_train_divergence_reports_epoch():
    cfg = tiny_config()
    ds = tiny_dataset(8, seed=3)
    tc = TrainConfig(learning_rate=1e9, batch_size=4, epochs=50, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc_info:
            train(cfg, tc, ds)
    err = exc_info.value
    assert isinstance(err.epoch, int)
    assert 0 <= err.epoch < 50
    assert str(err.epoch) in str(err)


def test_evaluate_mse_zero_weights_gives_label_power():
    cfg = tiny_config()
    ds = tiny_dataset(10, seed=12)
    mse = evaluate_mse(cfg, zero_weights(cfg), ds)
    assert mse == pytest.approx(float(np.mean(ds.labels.astype(np.float64) ** 2)), rel=1e-6)
    with pytest.raises(DatasetError):
        evaluate_mse(cfg, zero_weights(cfg), generate_dataset(0, width=16, height=12))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_mse_rejects_batch_size_below_one(batch_size):
    cfg = tiny_config()
    with pytest.raises(ValueError, match="batch_size"):
        evaluate_mse(cfg, zero_weights(cfg), tiny_dataset(3, seed=12), batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [2.5, "4", True])
def test_evaluate_mse_rejects_non_integer_batch_size(batch_size):
    # unchecked, 2.5 and "4" raise a bare TypeError and True runs as 1
    cfg = tiny_config()
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        evaluate_mse(cfg, zero_weights(cfg), tiny_dataset(3, seed=12), batch_size=batch_size)


def _chunk_sizes(n: int) -> list[int]:
    return [min(network.MICRO_BATCH, n - lo) for lo in range(0, n, network.MICRO_BATCH)]


@pytest.mark.parametrize("threads", [1, 2])
def test_evaluate_mse_is_the_float_of_yuv_batches_per_slice(threads, chunk_threads):
    """``evaluate_mse`` hands the network uint8 frames, which each chunk
    converts, and returns the float of the route that converted each slice
    first: ``forward_batch`` over ``_to_yuv_batch`` of the slice, then a
    float64 sum of squared errors, at every ``batch_size``."""
    chunk_threads(threads)
    cfg, ws = toy_config(), load_weights(TOY_WEIGHTS)
    ds = generate_dataset(70, seed=21)
    for batch_size in (1, 5, 64):
        total = 0.0
        for lo in range(0, len(ds), batch_size):
            preds = forward_batch(cfg, ws, training._to_yuv_batch(ds.images_rgb[lo : lo + batch_size]))
            diff = preds.astype(np.float64) - ds.labels[lo : lo + batch_size].astype(np.float64)
            total += float((diff**2).sum())
        assert evaluate_mse(cfg, ws, ds, batch_size=batch_size) == total / len(ds), batch_size


def test_every_uint8_chunk_converts_through_the_hooked_converter(monkeypatch):
    """``training._to_yuv_batch`` is the converter each chunk of a uint8
    batch calls, so a wrapper on it (bench/layers.py's ``training.to_yuv``)
    sees one call per chunk, in ``evaluate_mse`` and in the SGD loss."""
    assert training._to_yuv_batch is scenes._to_yuv_batch
    calls = []
    original = scenes._to_yuv_batch

    def counting(rgb):
        calls.append(rgb.shape[0])
        return original(rgb)

    monkeypatch.setattr(scenes, "_to_yuv_batch", counting)
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    ds = generate_dataset(11, seed=22)
    evaluate_mse(cfg, ws, ds, batch_size=5)
    assert sorted(calls) == sorted(_chunk_sizes(5) * 2 + _chunk_sizes(1))
    calls.clear()
    network._loss_and_grads_batch(cfg, ws, ds.images_rgb.transpose(0, 3, 1, 2), ds.labels)
    assert sorted(calls) == sorted(_chunk_sizes(11))


def test_evaluate_mse_peaks_below_one_float_copy_of_its_batch(chunk_threads):
    """The chunks convert their own frames, so ``evaluate_mse`` over 64
    frames of 66 x 200 holds no float32 YUV copy of the batch: at one chunk
    thread its ``tracemalloc`` peak stays below that copy's 10.14 MB.
    Converting each batch before the network peaked at two such copies."""
    chunk_threads(1)
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    ds = generate_dataset(64, seed=23)
    evaluate_mse(cfg, ws, ds)  # warm: the first call may fill caches of its own
    tracemalloc.start()
    try:
        evaluate_mse(cfg, ws, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.images_rgb.size * np.dtype(np.float32).itemsize


def test_train_enters_loss_and_grads_once_per_sgd_step(monkeypatch):
    """Tools that wrap ``network._loss_and_grads_batch`` see one call per SGD
    step: the micro-batches inside a step do not come back through it."""
    calls = []
    original = network._loss_and_grads_batch

    def counting(cfg, weights, x, targets):
        calls.append(x.shape[0])
        return original(cfg, weights, x, targets)

    monkeypatch.setattr(network, "_loss_and_grads_batch", counting)
    n, batch_size, epochs = 11, 2 * network.MICRO_BATCH + 1, 3
    train(tiny_config(), TrainConfig(batch_size=batch_size, epochs=epochs, seed=4), tiny_dataset(n, seed=6))
    assert len(calls) == epochs * math.ceil(n / batch_size)
    assert sum(calls) == epochs * n


def test_seeded_training_is_bit_identical_at_any_chunk_thread_count(monkeypatch):
    """The SGD step sums its chunks' gradients in chunk order however many
    chunks run at once, so a seeded run gives the same weight bytes and loss
    curve at 1 and 2 chunk threads."""
    cfg = toy_config()
    dataset = generate_dataset(12, style="mixed", seed=8)
    runs = []
    for threads in (1, 2):
        with ThreadPoolExecutor(max_workers=1) as pool:
            monkeypatch.setattr(network, "CHUNK_THREADS", threads)
            monkeypatch.setattr(network, "_POOL", pool)
            weights, losses = train(cfg, TrainConfig(batch_size=2 * network.MICRO_BATCH + 3, epochs=2, seed=5),
                                    dataset)
        runs.append(([a.tobytes() for i in sorted(weights.arrays) for a in weights.arrays[i]], losses))
    assert runs[1] == runs[0]


_BLAS_RUN = """
import hashlib, os
import numpy as np
from visback import network, training
from visback.config import default_config, toy_config
from visback.weights import init_weights

ds = training.generate_dataset(64, seed=3)
weights, losses = training.train(toy_config(), training.TrainConfig(epochs=2, seed=3), ds)
cfg = default_config()
preds = network.forward_batch(cfg, init_weights(cfg, seed=3), training._to_yuv_batch(ds.images_rgb))
h = hashlib.sha256(np.array(losses).tobytes() + preds.tobytes())
for i in sorted(weights.arrays):
    for a in weights.arrays[i]:
        h.update(a.tobytes())
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
print(h.hexdigest(), network.CHUNK_THREADS, cpus)
"""


@pytest.mark.skipif(not network.BLAS_PINNED, reason="numpy's BLAS has no OpenBLAS thread setter")
def test_seeded_results_are_the_same_bytes_at_any_blas_setting():
    """Importing ``network`` pins OpenBLAS to one thread and runs one chunk
    thread per CPU, whatever the environment says. So seeded `toy` training
    and a `default` ``forward_batch`` give the same bytes with the BLAS
    variables unset or set, including ``GOTO_NUM_THREADS``, which OpenBLAS
    also reads."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
    env = {k: v for k, v in env_with_src().items() if k not in blas_vars}
    digests = set()
    for setting in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", _BLAS_RUN], env={**env, **setting},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digest, chunk_threads, cpus = proc.stdout.split()
        assert chunk_threads == cpus, setting
        digests.add(digest)
    assert len(digests) == 1


# ------------------------------------------------------- mirror consistency


def test_trained_model_is_statistically_mirror_consistent(trained_model):
    """Left/right flipping a frame should flip the predicted steering: the
    scene distribution is symmetric, so residual asymmetry is a training
    artifact and must stay well below the signal scale."""
    cfg, weights, _, _, _ = trained_model
    held_out = generate_dataset(300, style="mixed", seed=171)
    x = training._to_yuv_batch(held_out.images_rgb)
    x_flipped = training._to_yuv_batch(held_out.images_rgb[:, :, ::-1])
    preds = forward_batch(cfg, weights, x)
    preds_flipped = forward_batch(cfg, weights, x_flipped)
    rms = float(np.sqrt(np.mean(held_out.labels.astype(np.float64) ** 2)))
    asymmetry = float(np.mean(np.abs(preds + preds_flipped)))
    assert asymmetry < 0.2 * rms
