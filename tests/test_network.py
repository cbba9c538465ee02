"""Forward pass, activation trace, and loss gradients."""

import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_layers, random_conv_config, random_image, random_weights, zero_weights
from oracles import conv2d_loops, fd_loss_gradients, forward_loops, loss_loops
from visback import config as config_module
from visback import network, tensor, training
from visback.config import (
    ConfigError,
    LayerSpec,
    NetworkConfig,
    conv_layer,
    default_config,
    fc_layer,
    toy_config,
    validate_config,
)
from visback.network import (
    MICRO_BATCH,
    InputRangeError,
    NonFiniteOutputError,
    _conv_input_grad,
    _input_grad_kernel,
    _loss_and_grads_batch,
    forward,
    forward_batch,
    normalize_input,
)
from visback.tensor import ConvGeometry, ShapeError, Tensor
from visback.weights import WeightSet, init_weights, load_weights


def ws_from_arrays(cfg, pairs):
    """Build a WeightSet from {layer_index: (flat weights, biases)} lists."""
    arrays = {
        i: (np.asarray(w, dtype=np.float32).reshape(-1), np.asarray(b, dtype=np.float32).reshape(-1))
        for i, (w, b) in pairs.items()
    }
    return WeightSet(config=cfg, arrays=arrays)


# --- normalization ----------------------------------------------------------

def test_normalize_input_endpoints():
    out = normalize_input(np.array([[[0.0, 127.5, 255.0]]], dtype=np.float32))
    np.testing.assert_allclose(out, [[[-1.0, 0.0, 1.0]]], atol=1e-7)


def test_normalize_input_range_check():
    with pytest.raises(InputRangeError):
        normalize_input(np.array([[[-0.5]]], dtype=np.float32))
    with pytest.raises(InputRangeError):
        normalize_input(np.array([[[255.5]]], dtype=np.float32))
    with pytest.raises(InputRangeError):
        normalize_input(np.array([[[10.0, np.nan]]], dtype=np.float32))


# --- forward ----------------------------------------------------------------

def test_forward_hand_example():
    # 1x1 input x=2, conv w=3 b=1 relu -> 7, output fc w=2 b=-1 -> 13
    cfg = NetworkConfig(1, 1, 1, (
        conv_layer(1, kernel=1, stride=1, in_channels=1),
        fc_layer(1, activation="none"),
    ))
    ws = ws_from_arrays(cfg, {0: ([3.0], [1.0]), 1: ([2.0], [-1.0])})
    out, trace = forward(cfg, ws, Tensor(np.array([[[2.0]]], dtype=np.float32)))
    assert out.inverse_turning_radius == pytest.approx(13.0)
    assert [i for i, _ in trace.conv_entries] == [0]
    assert trace.conv_entries[0][1].data[0, 0, 0] == pytest.approx(7.0)


def test_forward_trace_shapes_match_validation_table():
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    rng = np.random.default_rng(2)
    img = Tensor(rng.uniform(0, 255, cfg.input_shape).astype(np.float32))
    _, trace = forward(cfg, ws, img)
    table = {row.index: row.output_shape for row in validate_config(cfg)}
    for idx, tensor in trace.conv_entries:
        assert tensor.shape == table[idx]
    assert [idx for idx, _ in trace.conv_entries] == cfg.conv_indices()


def test_forward_is_pure_and_deterministic():
    rng = np.random.default_rng(7)
    cfg = random_conv_config(rng)
    ws = random_weights(cfg, rng)
    img = random_image(cfg, rng)
    before = img.data.copy()
    out1, tr1 = forward(cfg, ws, img)
    out2, tr2 = forward(cfg, ws, img)
    assert out1.inverse_turning_radius == out2.inverse_turning_radius
    for (i1, t1), (i2, t2) in zip(tr1.conv_entries, tr2.conv_entries):
        assert i1 == i2
        np.testing.assert_array_equal(t1.data, t2.data)
    np.testing.assert_array_equal(img.data, before)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        got = forward(cfg, ws, img)[0].inverse_turning_radius
        want = forward_loops(oracle_layers(cfg, ws), img.data.astype(np.float64))
        assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_forward_rejects_mismatched_config_and_shape():
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    other = init_weights(random_conv_config(np.random.default_rng(0)), seed=0)
    img = Tensor(np.zeros(cfg.input_shape, dtype=np.float32))
    with pytest.raises(ConfigError):
        forward(cfg, other, img)
    # same parameter shapes, different activation: only the config check tells them apart
    relu_head = NetworkConfig(cfg.input_channels, cfg.input_height, cfg.input_width,
                                cfg.layers[:-1] + (fc_layer(1, activation="relu"),))
    with pytest.raises(ConfigError):
        forward(cfg, init_weights(relu_head, seed=0), img)
    with pytest.raises(ShapeError):
        forward(cfg, ws, Tensor(np.zeros((3, 10, 10), dtype=np.float32)))


def test_forward_does_not_revalidate_config(monkeypatch):
    """A WeightSet validates its config when built and ``forward`` checks that
    the weights were built for ``cfg``, so a forward pass walks no shape table."""
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    calls = []
    original = config_module.validate_config

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("visback") and getattr(module, "validate_config", None) is original:
            monkeypatch.setattr(module, "validate_config", counting)
    forward(cfg, ws, Tensor(np.full(cfg.input_shape, 100.0, dtype=np.float32)))
    assert calls == []


def test_forward_nonfinite_output_raises():
    cfg = NetworkConfig(1, 1, 1, (fc_layer(1, activation="none"),))
    ws = ws_from_arrays(cfg, {0: ([3.0e38], [0.0])})
    with np.errstate(over="ignore"), pytest.raises(NonFiniteOutputError):
        forward(cfg, ws, Tensor(np.array([[[100.0]]], dtype=np.float32)))


def test_forward_conv_overflow_names_the_layer():
    """A conv map that overflows is a numeric failure of that layer:
    ``forward`` checks each conv map once and names the first bad one."""
    cfg = NetworkConfig(1, 3, 3, (conv_layer(1, kernel=2, stride=1, in_channels=1), fc_layer(1, activation="none")))
    ws = ws_from_arrays(cfg, {0: ([3.0e38] * 4, [0.0]), 1: ([0.0] * 4, [0.0])})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteOutputError, match="conv layer 0"):
        forward(cfg, ws, Tensor(np.full((1, 3, 3), 100.0, dtype=np.float32)))


def test_forward_zero_weights_outputs_zero():
    cfg = toy_config()
    ws = zero_weights(cfg)
    img = Tensor(np.full(cfg.input_shape, 128.0, dtype=np.float32))
    out, _ = forward(cfg, ws, img)
    assert out.inverse_turning_radius == 0.0


def test_zeroing_a_layer_changes_output():
    rng = np.random.default_rng(21)
    cfg = toy_config()
    ws = init_weights(cfg, seed=5)
    img = Tensor(rng.uniform(0, 255, cfg.input_shape).astype(np.float32))
    base = forward(cfg, ws, img)[0].inverse_turning_radius
    for i in sorted(ws.arrays):
        arrays = {j: (w.copy(), b.copy()) for j, (w, b) in ws.arrays.items()}
        arrays[i] = (np.zeros_like(arrays[i][0]), arrays[i][1])
        cut = WeightSet(config=cfg, arrays=arrays)
        assert forward(cfg, cut, img)[0].inverse_turning_radius != base


def test_forward_batch_of_no_frames_is_empty():
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    preds = forward_batch(cfg, ws, np.zeros((0,) + cfg.input_shape, dtype=np.float32))
    assert preds.shape == (0,) and preds.dtype == np.float32
    with pytest.raises(ShapeError):
        forward_batch(cfg, ws, np.zeros((0, 3, 10, 10), dtype=np.float32))


# --- backward ---------------------------------------------------------------

def test_backward_hand_example():
    # one fc layer, no normalization: pred = 2w + b, loss = (2w + b - t)^2
    # at w=1.5 b=0 t=1: loss = 4, dloss/dw = 2*(3-1)*2 = 8, dloss/db = 4
    cfg = NetworkConfig(1, 1, 1, (fc_layer(1, activation="none"),))
    ws = ws_from_arrays(cfg, {0: ([1.5], [0.0])})
    loss, grads = _loss_and_grads_batch(cfg, ws, np.array([[[[2.0]]]], dtype=np.float32), np.asarray([1.0]))
    assert loss == pytest.approx(4.0)
    assert grads[0][0][0] == pytest.approx(8.0)
    assert grads[0][1][0] == pytest.approx(4.0)


def _loss_of(cfg, ws, img, target):
    pred = forward(cfg, ws, img)[0].inverse_turning_radius
    diff = pred - target
    return diff * diff


def _fd_gradients_via_forward(cfg, ws, img, target, eps):
    """Central finite differences of the package's own loss, one parameter at
    a time. Cheap enough for tiny nets because the forward pass is vectorized."""
    out = {}
    for i in sorted(ws.arrays):
        w, b = ws.arrays[i]
        dw, db = np.zeros_like(w, dtype=np.float64), np.zeros_like(b, dtype=np.float64)
        for arr, grad in ((w, dw), (b, db)):
            for k in range(arr.size):
                arrays = {j: (wj.copy(), bj.copy()) for j, (wj, bj) in ws.arrays.items()}
                probe = arrays[i][0] if arr is w else arrays[i][1]
                probe[k] = arr[k] + eps
                hi = _loss_of(cfg, WeightSet(config=cfg, arrays=arrays), img, target)
                probe[k] = arr[k] - eps
                lo = _loss_of(cfg, WeightSet(config=cfg, arrays=arrays), img, target)
                grad[k] = (hi - lo) / (2 * eps)
        out[i] = (dw, db)
    return out


def test_backward_matches_finite_differences():
    # eps = 1e-4 keeps the probe off ReLU kinks for these nets
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(6):
        cfg = random_conv_config(rng, max_conv_layers=2, max_fc_layers=1)
        if sum(w.size + b.size for w, b in random_weights(cfg, rng).arrays.values()) > 900:
            continue  # keep the parameter-by-parameter probe fast
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        target = float(rng.uniform(-1, 1))
        _, grads = _loss_and_grads_batch(cfg, ws, img.data[np.newaxis], np.asarray([target]))
        fd = _fd_gradients_via_forward(cfg, ws, img, target, eps=1e-4)
        for i in sorted(ws.arrays):
            dw_fd, db_fd = fd[i]
            scale = max(np.abs(dw_fd).max(), np.abs(db_fd).max(), 1e-6)
            np.testing.assert_allclose(grads[i][0], dw_fd, atol=2e-3 * scale)
            np.testing.assert_allclose(grads[i][1], db_fd, atol=2e-3 * scale)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("hidden", ["relu", "none"])
def test_backward_matches_float64_loop_oracle(hidden):
    """One fully independent check: finite differences of a straight-loop
    float64 reimplementation, no shared code with the package. The hidden
    conv and FC layers run with and without ReLU."""
    cfg = NetworkConfig(2, 6, 7, (
        LayerSpec(kind="normalization"),
        conv_layer(2, kernel=3, stride=2, in_channels=2, activation=hidden),
        fc_layer(3, activation=hidden),
        fc_layer(1, activation="none"),
    ))
    rng = np.random.default_rng(23)
    ws = random_weights(cfg, rng)
    img = random_image(cfg, rng)
    target = 0.25
    loss, grads = _loss_and_grads_batch(cfg, ws, img.data[np.newaxis], np.asarray([target]))
    layers = oracle_layers(cfg, ws)
    assert loss == pytest.approx(loss_loops(layers, img.data.astype(np.float64), target),
                                 rel=1e-4, abs=1e-7)
    fd = fd_loss_gradients(layers, img.data.astype(np.float64), target, eps=1e-5)
    param_indices = [i for i, l in enumerate(cfg.layers) if l.kind != "normalization"]
    fd_entries = [g for g in fd if g is not None]
    for i, (dw_fd, db_fd) in zip(param_indices, fd_entries):
        scale = max(np.abs(dw_fd).max(), np.abs(db_fd).max(), 1e-6)
        np.testing.assert_allclose(grads[i][0], dw_fd.reshape(-1), atol=2e-3 * scale)
        np.testing.assert_allclose(grads[i][1], db_fd.reshape(-1), atol=2e-3 * scale)


def test_single_channel_batched_path_matches_per_frame_path():
    """With one input channel and no normalization layer, the first conv
    reads the batch's NHWC copy directly: forward_batch must equal forward
    frame by frame, and the gradients of one frame (a batch of one) must
    match the float64 loop oracle."""
    cfg = NetworkConfig(1, 7, 8, (
        conv_layer(1, kernel=3, stride=1, in_channels=1),
        conv_layer(2, kernel=3, stride=2, in_channels=1),
        fc_layer(1, activation="none"),
    ))
    rng = np.random.default_rng(43)
    ws = random_weights(cfg, rng)
    imgs = [random_image(cfg, rng) for _ in range(4)]
    preds = forward_batch(cfg, ws, np.stack([im.data for im in imgs]))
    np.testing.assert_array_equal(preds, [forward(cfg, ws, img)[0].inverse_turning_radius for img in imgs])
    target = 0.25
    loss, grads = _loss_and_grads_batch(cfg, ws, imgs[0].data[np.newaxis], np.asarray([target]))
    layers = oracle_layers(cfg, ws)
    x64 = imgs[0].data.astype(np.float64)
    assert loss == pytest.approx(loss_loops(layers, x64, target), rel=1e-4, abs=1e-7)
    for i, (dw_fd, db_fd) in enumerate(fd_loss_gradients(layers, x64, target, eps=1e-5)):
        scale = max(np.abs(dw_fd).max(), np.abs(db_fd).max(), 1e-6)
        np.testing.assert_allclose(grads[i][0], dw_fd.reshape(-1), atol=2e-3 * scale)
        np.testing.assert_allclose(grads[i][1], db_fd.reshape(-1), atol=2e-3 * scale)


def test_batched_gradients_are_mean_of_per_frame_gradients():
    """At N > 1 the batch axis must stay apart from the spatial and channel
    axes: the batched loss and gradients equal the mean of N batch-of-one
    results. Covers stride 1 and 2 on conv layers with Ci > 1
    that also scatter an input gradient."""
    rng = np.random.default_rng(41)
    n = 5
    seen_strides = set()
    for _ in range(8):
        cfg = random_conv_config(rng, max_conv_layers=3)
        convs = [cfg.layers[i].geometry for i in cfg.conv_indices()]
        seen_strides |= {g.stride_h for g in convs[1:] if g.in_channels > 1}
        ws = random_weights(cfg, rng)
        x = np.stack([random_image(cfg, rng).data for _ in range(n)])
        targets = rng.uniform(-1, 1, n).astype(np.float32)
        loss, grads = _loss_and_grads_batch(cfg, ws, x, targets)
        singles = [_loss_and_grads_batch(cfg, ws, x[k : k + 1], targets[k : k + 1]) for k in range(n)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-5)
        for i in sorted(ws.arrays):
            for got, want in ((grads[i][0], np.mean([g[i][0] for _, g in singles], axis=0)),
                              (grads[i][1], np.mean([g[i][1] for _, g in singles], axis=0))):
                scale = max(float(np.abs(want).max()), 1e-6)
                np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)
    assert seen_strides == {1, 2}


def test_backward_gradient_zero_at_exact_fit():
    cfg = NetworkConfig(1, 1, 1, (fc_layer(1, activation="none"),))
    ws = ws_from_arrays(cfg, {0: ([2.0], [1.0])})
    loss, grads = _loss_and_grads_batch(cfg, ws, np.array([[[[3.0]]]], dtype=np.float32), np.asarray([7.0]))
    assert loss == pytest.approx(0.0)
    assert grads[0][0][0] == pytest.approx(0.0)
    assert grads[0][1][0] == pytest.approx(0.0)


def test_relu_inactive_unit_passes_exactly_zero_gradient():
    """An inactive ReLU unit passes 0 x upstream, so exactly zero for a finite
    upstream. Biases switch conv channel 1 and FC unit 0 off, and the other
    units on, for any input: a normalized conv pre-activation before its
    bias is at most 18 * 0.5 in size, an FC one at most 12 * 19 * 0.5. The layers after
    them read every unit with nonzero weights, so the dead units' parameters
    get exactly zero gradient and the live units' do not. Three frames run
    as two chunks, so the chunk sum is covered too."""
    cfg = NetworkConfig(2, 6, 7, (
        LayerSpec(kind="normalization"),
        conv_layer(2, kernel=3, stride=2, in_channels=2),
        fc_layer(3),
        fc_layer(1, activation="none"),
    ))
    rng = np.random.default_rng(61)
    ws = random_weights(cfg, rng)
    biases = {1: [10.0, -1e3], 2: [-1e3, 1e3, 1e3]}
    ws = ws_from_arrays(cfg, {i: (w, biases.get(i, b)) for i, (w, b) in ws.arrays.items()})
    x = rng.uniform(0.0, 255.0, (3,) + cfg.input_shape).astype(np.float32)
    _, grads = _loss_and_grads_batch(cfg, ws, x, rng.uniform(-1, 1, 3).astype(np.float32))
    for i, dead in ((1, 1), (2, 0)):
        dw, db = grads[i]
        dw = dw.reshape(db.size, -1)
        assert np.isfinite(dw).all() and np.isfinite(db).all()
        assert (dw[dead] == 0).all() and db[dead] == 0
        live = np.arange(db.size) != dead
        assert (dw[live] != 0).any(axis=1).all() and (db[live] != 0).all()


def test_loss_rejects_empty_batch_and_mismatched_targets():
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    with pytest.raises(ShapeError):
        _loss_and_grads_batch(cfg, ws, np.zeros((0,) + cfg.input_shape, dtype=np.float32), np.zeros(0, np.float32))
    # more targets than frames would otherwise go unnoticed once the batch is cut into chunks
    x = np.full((MICRO_BATCH + 1,) + cfg.input_shape, 100.0, dtype=np.float32)
    for n_targets in (MICRO_BATCH, MICRO_BATCH + 2):
        with pytest.raises(ShapeError):
            _loss_and_grads_batch(cfg, ws, x, np.zeros(n_targets, np.float32))


# one frame, one chunk, two chunks plus one frame, and two sizes from the
# former 4-frame chunks: two whole chunks, four chunks plus one frame
MICRO_BATCH_EDGES = sorted({1, MICRO_BATCH, 2 * MICRO_BATCH + 1, 4, 9})


@pytest.mark.parametrize("n", MICRO_BATCH_EDGES)
def test_micro_batch_edges_match_per_frame_results(n, monkeypatch):
    """A batch runs in chunks of MICRO_BATCH frames, the last one holding the
    remainder. At one frame, one full chunk and two chunks plus one frame,
    the loss and gradients equal the mean of batch-of-one results
    at the tolerance of the N=5 test above. (The predictions are checked bit
    for bit by the determinism contract test below.) The chunks run serially
    here, so they are recorded in chunk order; the thread-count invariance
    test covers the threads."""
    chunks = []
    run_batch = network._run_batch

    def recording(cfg, weights, x, keep, convs):
        chunks.append(x.shape[0])
        return run_batch(cfg, weights, x, keep, convs)

    monkeypatch.setattr(network, "_run_batch", recording)
    monkeypatch.setattr(network, "CHUNK_THREADS", 1)
    rng = np.random.default_rng(47 + n)
    want_chunks = [MICRO_BATCH] * (n // MICRO_BATCH) + ([n % MICRO_BATCH] if n % MICRO_BATCH else [])
    for _ in range(3):
        cfg = random_conv_config(rng, max_conv_layers=3)
        ws = random_weights(cfg, rng)
        x = np.stack([random_image(cfg, rng).data for _ in range(n)])
        targets = rng.uniform(-1, 1, n).astype(np.float32)

        chunks.clear()
        forward_batch(cfg, ws, x)
        assert chunks == want_chunks

        chunks.clear()
        loss, grads = _loss_and_grads_batch(cfg, ws, x, targets)
        assert chunks == want_chunks
        singles = [_loss_and_grads_batch(cfg, ws, x[k : k + 1], targets[k : k + 1]) for k in range(n)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-5)
        for i in sorted(ws.arrays):
            for got, want in ((grads[i][0], np.mean([g[i][0] for _, g in singles], axis=0)),
                              (grads[i][1], np.mean([g[i][1] for _, g in singles], axis=0))):
                scale = max(float(np.abs(want).max()), 1e-6)
                np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)


TOY_WEIGHTS = Path(__file__).resolve().parents[1] / "bench" / "toy_weights.pnw"


def _contract_nets():
    """The determinism contract's nets: ``toy`` with the committed weights,
    ``default`` at init, and random configs with and without normalization."""
    yield toy_config(), load_weights(TOY_WEIGHTS)
    yield default_config(), init_weights(default_config(), seed=1)
    rng = np.random.default_rng(53)
    for k in range(6):
        cfg = random_conv_config(rng, with_normalization=k % 2 == 0)
        yield cfg, random_weights(cfg, rng)


@pytest.mark.parametrize("whole_stack", [False, True], ids=["chunked", "whole_stack"])
@pytest.mark.parametrize("n", sorted({2, 3, *MICRO_BATCH_EDGES}))
def test_forward_conv_maps_equal_batched_kernel_rows(n, whole_stack, monkeypatch):
    """Determinism contract: a frame's prediction and conv maps do not depend
    on the batch. ``forward`` on each frame alone and ``forward_batch`` on N
    frames, cut into MICRO_BATCH chunks or run as one stack, give the same
    prediction and the same post-activation conv maps bit for bit. The
    recorded kernel outputs are read by position, so the chunks run serially."""
    for cfg, ws in _contract_nets():
        x = np.random.default_rng(n).uniform(0.0, 255.0, (n,) + cfg.input_shape).astype(np.float32)
        outputs = []
        kernel = tensor.conv2d_nhwc

        def recording(*args):
            z, cols = kernel(*args)
            outputs.append(z.copy())
            return z, cols

        monkeypatch.setattr(tensor, "conv2d_nhwc", recording)
        monkeypatch.setattr(network, "CHUNK_THREADS", 1)
        if whole_stack:
            monkeypatch.setattr(network, "MICRO_BATCH", n)
        preds = forward_batch(cfg, ws, x)
        monkeypatch.undo()

        convs = cfg.conv_indices()
        assert len(outputs) % len(convs) == 0
        batched = [np.concatenate(outputs[j :: len(convs)]) for j in range(len(convs))]  # per layer, all frames
        for k in range(n):
            out, trace = forward(cfg, ws, Tensor(x[k]))
            assert preds[k] == out.inverse_turning_radius
            assert [i for i, _ in trace.conv_entries] == list(convs)
            for (i, t), z in zip(trace.conv_entries, batched):
                if cfg.layers[i].activation == "relu":
                    z = np.maximum(z, 0.0)
                np.testing.assert_array_equal(t.data, z[k].transpose(2, 0, 1))


def test_forward_is_one_run_batch_call_on_a_batch_of_one(monkeypatch):
    """``forward`` has no layer loop of its own: it runs the frame as a batch
    of one through ``_run_batch``, the loop ``forward_batch`` and the SGD
    step use."""
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    calls = []
    run_batch = network._run_batch

    def recording(cfg, weights, x, keep, convs):
        calls.append(x.shape)
        return run_batch(cfg, weights, x, keep, convs)

    monkeypatch.setattr(network, "_run_batch", recording)
    forward(cfg, ws, random_image(cfg, np.random.default_rng(3)))
    assert calls == [(1,) + cfg.input_shape]


BATCH_LAYOUTS = {
    "c_order": lambda stack: stack,
    "nhwc_view": lambda stack: np.ascontiguousarray(stack.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
    "strided": lambda stack: np.repeat(stack, 2, axis=0)[::2],
    "float64": lambda stack: stack.astype(np.float64),
}


@pytest.mark.parametrize("layout", sorted(BATCH_LAYOUTS))
def test_batch_layout_keeps_predictions_and_maps(layout):
    """``_run_batch`` copies every float batch to NHWC one channel plane at
    a time. Whatever the layout or dtype of the (N, C, H, W) batch, the
    predictions and conv maps are the C-order float32 stack's bit for bit,
    and each frame's per-frame ``forward`` gives the same prediction and
    trace maps."""
    for cfg, ws in _contract_nets():
        stack = np.random.default_rng(61).uniform(0.0, 255.0, (3,) + cfg.input_shape).astype(np.float32)
        x = BATCH_LAYOUTS[layout](stack)
        convs = network._conv_operands(cfg, ws, False)
        want_preds, want_maps = network._run_batch(cfg, ws, stack, "conv_outputs", convs)
        preds, maps = network._run_batch(cfg, ws, x, "conv_outputs", convs)
        assert preds.dtype == np.float32 and preds.tobytes() == want_preds.tobytes()
        assert [i for i, _ in maps] == [i for i, _ in want_maps] == list(cfg.conv_indices())
        for (_, z), (_, want) in zip(maps, want_maps):
            assert z.dtype == np.float32 and z.tobytes() == want.tobytes()
        assert forward_batch(cfg, ws, x).tobytes() == want_preds.tobytes()
        for k in range(x.shape[0]):
            out, trace = forward(cfg, ws, Tensor(x[k]))
            assert out.inverse_turning_radius == want_preds[k]
            for (_, t), (_, want) in zip(trace.conv_entries, want_maps):
                np.testing.assert_array_equal(t.data, want[k].transpose(2, 0, 1))


NHWC_INPUTS = {
    "yuv_batch_view": lambda rng: training._to_yuv_batch(rng.integers(0, 256, (2, 6, 9, 3), dtype=np.uint8)),
    "c_order_3_channels": lambda rng: rng.uniform(-1.0, 1.0, (2, 3, 6, 9)).astype(np.float32),
    "c_order_1_channel": lambda rng: rng.uniform(-1.0, 1.0, (4, 1, 7, 8)).astype(np.float32),
}


@pytest.mark.parametrize("name", sorted(NHWC_INPUTS))
def test_a_float_batch_enters_as_a_fresh_nhwc_copy(name):
    """Every float batch reaches the first layer as a new C-order float32
    NHWC array, never as the caller's memory: not a ``_to_yuv_batch`` view
    of NHWC memory, nor a one-channel stack whose NHWC view is contiguous."""
    x = NHWC_INPUTS[name](np.random.default_rng(67))
    a = network._to_nhwc(x)
    assert a.dtype == np.float32 and a.flags.c_contiguous
    assert not np.shares_memory(a, x)
    np.testing.assert_array_equal(a, x.transpose(0, 2, 3, 1))


def test_forward_memory_peak_is_forward_batchs_plus_its_maps():
    """``forward`` keeps only the conv outputs it returns, not the backward's
    records (each im2col matrix), so its ``tracemalloc`` peak on ``default``
    is at most ``forward_batch``'s on the same frame plus the returned maps."""
    cfg = default_config()
    ws = init_weights(cfg, seed=1)
    image = random_image(cfg, np.random.default_rng(71))

    def peak(run):
        run()  # warm: the first call may fill caches of its own
        tracemalloc.start()
        try:
            result = run()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    batch_peak, _ = peak(lambda: forward_batch(cfg, ws, image.data[np.newaxis]))
    forward_peak, (_, trace) = peak(lambda: forward(cfg, ws, image))
    map_bytes = sum(t.data.nbytes for _, t in trace.conv_entries)
    assert forward_peak <= batch_peak + map_bytes


@pytest.mark.parametrize("with_normalization", [True, False], ids=["normalized", "raw"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_entries_reject_nonfinite_frames(bad, with_normalization):
    """One non-finite pixel in a stack raises at ``forward_batch`` and at the
    loss, instead of turning that frame's prediction or the loss into NaN."""
    rng = np.random.default_rng(59)
    cfg = random_conv_config(rng, with_normalization=with_normalization)
    ws = random_weights(cfg, rng)
    x = rng.uniform(0.0, 255.0, (2,) + cfg.input_shape).astype(np.float32)
    x[1, 0, 0, 0] = bad
    error = InputRangeError if with_normalization else ValueError
    with pytest.raises(error):
        forward_batch(cfg, ws, x)
    with pytest.raises(error):
        _loss_and_grads_batch(cfg, ws, x, np.zeros(2, np.float32))


# --- chunk threads -----------------------------------------------------------

def _batched_bytes(cfg, ws, x, targets):
    """Every byte ``forward_batch`` and ``_loss_and_grads_batch`` return."""
    loss, grads = _loss_and_grads_batch(cfg, ws, x, targets)
    parts = [forward_batch(cfg, ws, x).tobytes(), np.float64(loss).tobytes()]
    for i in sorted(grads):
        parts += [grads[i][0].tobytes(), grads[i][1].tobytes()]
    return parts


@pytest.mark.parametrize("n", [1, 2, 3, 2 * MICRO_BATCH + 1, 32])
def test_batched_results_are_bit_identical_at_any_chunk_thread_count(n, chunk_threads):
    """Chunks are reduced in chunk order however many run at once, so the
    predictions, the loss and every gradient are the same bytes at 1, 2 and
    3 chunk threads (3 leaves a short last round at most sizes)."""
    for cfg, ws in _contract_nets():
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 255.0, (n,) + cfg.input_shape).astype(np.float32)
        targets = rng.uniform(-1.0, 1.0, n).astype(np.float32)
        results = []
        for k in (1, 2, 3):
            chunk_threads(k)
            results.append(_batched_bytes(cfg, ws, x, targets))
        assert results[1] == results[0]
        assert results[2] == results[0]


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("test-chunk")]


def test_one_chunk_thread_starts_no_pool_thread(chunk_threads):
    chunk_threads(1)
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    x = np.full((2 * MICRO_BATCH + 1,) + cfg.input_shape, 100.0, dtype=np.float32)
    forward_batch(cfg, ws, x)
    _loss_and_grads_batch(cfg, ws, x, np.zeros(x.shape[0], np.float32))
    assert _pool_threads() == []
    chunk_threads(2)  # the check would see a pool thread
    forward_batch(cfg, ws, x)
    assert len(_pool_threads()) == 1


@pytest.mark.parametrize("bad", [300.0, np.nan])
@pytest.mark.parametrize("threads, n, bad_frame", [(2, 2 * MICRO_BATCH, 2 * MICRO_BATCH - 1),
                                                   (3, 3 * MICRO_BATCH, MICRO_BATCH),
                                                   (2, 2 * MICRO_BATCH, 0)],
                         ids=["pool-chunk", "pool-chunk-beside-slow-one", "caller-chunk-beside-slow-one"])
def test_chunk_error_raises_after_every_chunk_of_its_round(threads, n, bad_frame, bad, chunk_threads, monkeypatch):
    """A frame out of range in any chunk raises the error the serial loop
    raises, and only once every chunk started has finished: ``train`` writes
    the weights in place right after the call. Chunks with good frames are
    slowed down on pool threads, so one still running would be seen."""
    cfg = toy_config()
    ws = load_weights(TOY_WEIGHTS)
    x = np.random.default_rng(61).uniform(0.0, 255.0, (n,) + cfg.input_shape).astype(np.float32)
    x[bad_frame, 1, 2, 3] = bad
    targets = np.zeros(n, np.float32)
    calls = [(forward_batch, (cfg, ws, x)), (_loss_and_grads_batch, (cfg, ws, x, targets))]

    chunk_threads(1)
    serial = []
    for fn, args in calls:
        with pytest.raises(InputRangeError) as info:
            fn(*args)
        serial.append(str(info.value))

    events = []
    run_batch = network._run_batch

    def recording(cfg, weights, x, keep, convs):
        key = object()
        events.append(("start", key))
        try:
            if threading.current_thread() is not threading.main_thread() and 0.0 <= x.min() <= x.max() <= 255.0:
                time.sleep(0.05)
            return run_batch(cfg, weights, x, keep, convs)
        finally:
            events.append(("end", key))

    monkeypatch.setattr(network, "_run_batch", recording)
    chunk_threads(threads)
    for (fn, args), message in zip(calls, serial):
        events.clear()
        with pytest.raises(InputRangeError) as info:
            fn(*args)
        assert str(info.value) == message
        started = [key for what, key in events if what == "start"]
        ended = [key for what, key in events if what == "end"]
        assert len(started) == threads and sorted(map(id, ended)) == sorted(map(id, started))


@pytest.mark.parametrize("threads", [1, 2])
def test_callers_errstate_holds_in_every_chunk(threads, chunk_threads):
    """An overflow in any chunk follows the caller's ``np.errstate``: raised
    when asked to raise, silent when asked to ignore, at any thread count."""
    chunk_threads(threads)
    cfg = NetworkConfig(1, 1, 1, (fc_layer(1, activation="none"),))
    ws = ws_from_arrays(cfg, {0: ([3.0e38], [0.0])})
    x = np.full((2 * MICRO_BATCH, 1, 1, 1), 1.0, dtype=np.float32)
    x[-1] = 100.0  # overflows float32, in the last chunk
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        forward_batch(cfg, ws, x)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(forward_batch(cfg, ws, x)[-1])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunks_come_back_in_order_with_a_bounded_number_in_flight(threads, chunk_threads, monkeypatch):
    """Chunks are yielded in chunk order, and at no point have more than
    ``2 * CHUNK_THREADS`` chunks started without being yielded, so the memory
    in flight stays bounded per CPU. The caller's first chunk is slow, so the
    pool runs ahead of it as far as it may: past the caller's round, which a
    per-round barrier would not allow."""
    chunk_threads(threads)
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    n = 9 * MICRO_BATCH + 1
    x = np.empty((n,) + cfg.input_shape, dtype=np.float32)
    x[:] = np.arange(n, dtype=np.float32)[:, None, None, None]  # each frame holds its own index
    events = []
    lock = threading.Lock()
    run_batch, chunk_results = network._run_batch, network._chunk_results

    def recording(cfg, weights, x, keep, convs):
        lo = int(x[0, 0, 0, 0])
        with lock:
            events.append(("start", lo))
        if lo == 0:
            time.sleep(0.1)
        return run_batch(cfg, weights, x, keep, convs)

    def watched(run_chunk, n):
        for lo, result in chunk_results(run_chunk, n):
            with lock:
                events.append(("yield", lo))
            yield lo, result

    monkeypatch.setattr(network, "_run_batch", recording)
    monkeypatch.setattr(network, "_chunk_results", watched)
    forward_batch(cfg, ws, x)
    starts = list(range(0, n, MICRO_BATCH))
    assert [lo for what, lo in events if what == "yield"] == starts
    assert sorted(lo for what, lo in events if what == "start") == starts
    in_flight = np.cumsum([1 if what == "start" else -1 for what, _ in events])
    assert in_flight.max() <= 2 * threads
    if threads > 1:
        assert in_flight.max() > threads


@pytest.mark.parametrize("threads", [1, 2])
def test_conv_operands_are_built_once_per_call_not_per_chunk(threads, chunk_threads, monkeypatch):
    """Each conv layer's kernel is permuted once per ``forward``,
    ``forward_batch`` or loss call, and its input-gradient kernel packed once
    per loss call, before any chunk runs: the counts equal the number of conv
    layers at every batch size, however many chunks share them."""
    chunk_threads(threads)
    calls = {"nhwc_kernel": 0, "_input_grad_kernel": 0}

    def counting(name):
        original = getattr(network, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(network, name, counting(name))
    cfg = toy_config()
    ws = init_weights(cfg, seed=0)
    convs = len(cfg.conv_indices())
    rng = np.random.default_rng(73)
    for n in (1, 2, 7, 32):
        x = rng.uniform(0.0, 255.0, (n,) + cfg.input_shape).astype(np.float32)
        for run, packed in ((lambda: forward_batch(cfg, ws, x), 0),
                            (lambda: _loss_and_grads_batch(cfg, ws, x, np.zeros(n, np.float32)), convs)):
            calls.update(nhwc_kernel=0, _input_grad_kernel=0)
            run()
            assert calls == {"nhwc_kernel": convs, "_input_grad_kernel": packed}, n
    calls.update(nhwc_kernel=0, _input_grad_kernel=0)
    forward(cfg, ws, Tensor(x[0]))
    assert calls == {"nhwc_kernel": convs, "_input_grad_kernel": 0}


def test_generated_dataset_is_the_same_bytes_at_any_chunk_thread_count(chunk_threads):
    results = []
    for k in (1, 2, 3):
        chunk_threads(k)
        ds = training.generate_dataset(64, seed=3)
        results.append((ds.images_rgb.tobytes(), ds.labels.tobytes()))
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("n", [1, 3, 2 * MICRO_BATCH + 1, 32])
def test_uint8_frames_give_the_bytes_of_their_yuv_batch(n, chunk_threads):
    """A uint8 batch holds RGB frames, and each chunk converts its own to YUV:
    the predictions, the loss and every gradient are the bytes the whole
    batch's ``training._to_yuv_batch`` gives, at any chunk-thread count and in
    either memory layout."""
    rng = np.random.default_rng(n)
    for cfg, ws in ((toy_config(), load_weights(TOY_WEIGHTS)), (default_config(), init_weights(default_config(), seed=1))):
        frames = rng.integers(0, 256, (n, cfg.input_height, cfg.input_width, 3), dtype=np.uint8)
        targets = rng.uniform(-1.0, 1.0, n).astype(np.float32)
        chunk_threads(1)
        want = _batched_bytes(cfg, ws, training._to_yuv_batch(frames), targets)
        for k in (1, 2, 3):
            chunk_threads(k)
            assert _batched_bytes(cfg, ws, frames.transpose(0, 3, 1, 2), targets) == want
        planar = np.ascontiguousarray(frames.transpose(0, 3, 1, 2))
        assert _batched_bytes(cfg, ws, planar, targets) == want


def test_uint8_frames_for_a_one_channel_config_raise_shape_error():
    cfg = NetworkConfig(1, 6, 6, (LayerSpec(kind="normalization"), fc_layer(1, activation="none")))
    ws = init_weights(cfg, seed=0)
    frames = np.zeros((2, 1, 6, 6), dtype=np.uint8)
    with pytest.raises(ShapeError, match="RGB"):
        forward_batch(cfg, ws, frames)
    with pytest.raises(ShapeError, match="RGB"):
        _loss_and_grads_batch(cfg, ws, frames, np.zeros(2, np.float32))
    with pytest.raises(ShapeError):  # RGB frames do not fit a 1-channel input either
        forward_batch(cfg, ws, np.zeros((2, 3, 6, 6), dtype=np.uint8))


def test_chunk_threads_fall_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(network.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(network.os, "cpu_count", lambda: 4)
    assert network._chunk_threads(True) == 4


def test_no_blas_setter_means_one_chunk_thread(monkeypatch):
    """Where numpy's BLAS has no OpenBLAS setter nothing is pinned, and the
    chunks run serially beside BLAS's own threads."""
    monkeypatch.setattr(network, "_BLAS_SETTERS", ("no_such_blas_setter",))
    monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: set(range(4)))
    assert network._chunk_threads(network._pin_blas()) == 1


def _input_grad_loops(dy: np.ndarray, w4: np.ndarray, sh: int, sw: int, in_hw) -> np.ndarray:
    """Input gradient of a conv by its definition: conv2d_loops is linear in x
    (zero bias), so dL/dx[c, y, x] is the response to the unit input at
    (c, y, x), dotted with dy. dy (N, Co, Ho, Wo), w4 (Co, Ci, Kh, Kw)."""
    co, ci, kh, kw = w4.shape
    h, w = in_hw
    dx = np.zeros((dy.shape[0], ci, h, w))
    for c in range(ci):
        for y in range(h):
            for x in range(w):
                unit = np.zeros((ci, h, w))
                unit[c, y, x] = 1.0
                response = conv2d_loops(unit, w4, np.zeros(co), sh, sw)
                dx[:, c, y, x] = np.tensordot(dy, response, axes=3)
    return dx


@pytest.mark.parametrize("kernel, stride, in_hw", [
    ((3, 3), (1, 1), (7, 6)),
    ((3, 3), (2, 2), (8, 9)),     # kernel not a multiple of the stride; (8 - 3) % 2 = 1
    ((4, 4), (2, 2), (9, 10)),    # (9 - 4) % 2 = 1
    ((5, 5), (3, 3), (12, 13)),   # (12 - 5) % 3 = 1, (13 - 5) % 3 = 2
    ((2, 2), (3, 3), (10, 11)),   # kernel smaller than the stride: phase 2 gets no tap
    ((3, 2), (2, 3), (9, 11)),    # unequal kernel and stride sides
], ids=["s1-k3", "s2-k3", "s2-k4", "s3-k5", "s3-k2", "s2x3-k3x2"])
def test_conv_input_grad_phase_scatter_matches_loop_oracle(kernel, stride, in_hw):
    """The stride-phase scatter equals the float64 loop definition, including
    the phase-grid rows and columns past every tap's span, which must come
    out zero although ``dx`` starts uninitialized."""
    rng = np.random.default_rng(53)
    n, ci, co = 2, 2, 3
    g = ConvGeometry(kernel[0], kernel[1], stride[0], stride[1], ci, co)
    oh, ow = g.output_hw(*in_hw)
    w_oihw = rng.uniform(-1, 1, (co, ci) + kernel)
    dy = rng.uniform(-1, 1, (n, co, oh, ow))
    want = _input_grad_loops(dy, w_oihw, stride[0], stride[1], in_hw)
    dyr = dy.transpose(0, 2, 3, 1).reshape(-1, co).astype(np.float32)
    w4 = np.ascontiguousarray(w_oihw.transpose(0, 2, 3, 1), dtype=np.float32)
    for _ in range(3):
        # freed at once: leaves NaN garbage where the next np.empty is likely to land
        np.full((n, in_hw[0], in_hw[1], ci), np.nan, dtype=np.float32)
        got = _conv_input_grad(dyr, _input_grad_kernel(w4, g), g, n, in_hw, (oh, ow)).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def _conv_shapes(cfg):
    """(geometry, input (H, W), output (Ho, Wo)) of every conv layer of ``cfg``."""
    shapes = validate_config(cfg)
    hw = cfg.input_shape[1:]
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "conv":
            yield i, layer.geometry, hw, shapes[i].output_shape[1:]
        if len(shapes[i].output_shape) == 3:
            hw = shapes[i].output_shape[1:]


def _input_grad_taps(dy: np.ndarray, w4: np.ndarray, g: ConvGeometry, in_hw) -> np.ndarray:
    """Input gradient as a float64 scatter, one tap at a time: output pixel
    (i, j) of tap (ki, kj) adds dy[i, j] @ w4[:, ki, kj] to input pixel
    (i*sh + ki, j*sw + kj). dy (N, Ho, Wo, Co), w4 (Co, Kh, Kw, Ci)."""
    n, oh, ow, _ = dy.shape
    sh, sw = g.stride_h, g.stride_w
    dx = np.zeros((n,) + tuple(in_hw) + (g.in_channels,))
    for ki in range(g.kernel_h):
        for kj in range(g.kernel_w):
            dx[:, ki : ki + (oh - 1) * sh + 1 : sh, kj : kj + (ow - 1) * sw + 1 : sw] += dy @ w4[:, ki, kj]
    return dx


@pytest.mark.parametrize("cfg", [toy_config(), default_config()], ids=["toy", "default"])
def test_conv_input_grad_matches_tap_scatter_on_every_conv_layer(cfg):
    """The one-convolution input gradient on the real nets' geometries (5x5
    stride 2 with 3-48 channels, 3x3 stride 1 with 48-64) and a 2-frame
    chunk, against the float64 tap scatter, with the loop oracle's
    tolerances."""
    ws = init_weights(cfg, seed=1)
    rng = np.random.default_rng(71)
    for i, g, in_hw, out_hw in _conv_shapes(cfg):
        w4 = tensor.nhwc_kernel(ws.weight(i), g)
        dy = rng.uniform(-1, 1, (MICRO_BATCH,) + tuple(out_hw) + (g.out_channels,)).astype(np.float32)
        got = _conv_input_grad(dy.reshape(-1, g.out_channels), _input_grad_kernel(w4, g), g, MICRO_BATCH,
                               in_hw, out_hw)
        assert got.shape == (MICRO_BATCH,) + tuple(in_hw) + (g.in_channels,) and got.dtype == np.float32
        want = _input_grad_taps(dy.astype(np.float64), w4.astype(np.float64), g, in_hw)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6, err_msg=f"layer {i}")


@pytest.mark.parametrize("cfg", [toy_config(), default_config()], ids=["toy", "default"])
def test_bias_gradient_einsum_equals_column_sum_bytes(cfg):
    """The backward sums each bias gradient with ``einsum("ij->j")``; on every
    layer's chunk shapes (a full chunk and a one-frame tail) its bytes are
    those of ``sum(axis=0)``."""
    shapes = validate_config(cfg)
    rng = np.random.default_rng(72)
    for i in (i for i, layer in enumerate(cfg.layers) if layer.kind != "normalization"):
        pixels = int(np.prod(shapes[i].output_shape[1:]))  # 1 for an FC layer
        for frames in (MICRO_BATCH, 1):
            rows = rng.standard_normal((frames * pixels, shapes[i].output_shape[0])).astype(np.float32)
            rows[rows < 0] = 0.0  # as after the ReLU mask
            assert np.einsum("ij->j", rows).tobytes() == rows.sum(axis=0).tobytes(), f"layer {i}"
