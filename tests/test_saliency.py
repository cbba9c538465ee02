"""Mask backprojection: hand examples, loop-oracle equality, scale invariance,
locality, and the overlay."""

import numpy as np
import pytest

from conftest import random_conv_config, random_image, random_weights
from oracles import mask_loops
from visback.config import NetworkConfig, conv_layer, fc_layer, validate_config
from visback.network import ActivationTrace, forward
from visback.saliency import (
    TraceMismatchError,
    VisualizationMask,
    compute_mask,
    mask_to_gray,
    overlay,
)
from visback.tensor import ShapeError, Tensor


def zeros(*shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


def two_conv_cfg():
    """5x5 input -> conv 3x3 s1 -> 3x3 -> conv 3x3 s1 -> 1x1 -> fc."""
    return NetworkConfig(1, 5, 5, (
        conv_layer(1, kernel=3, stride=1, in_channels=1),
        conv_layer(1, kernel=3, stride=1, in_channels=1),
        fc_layer(1, activation="none"),
    ))


def hand_trace(cfg, conv_maps):
    """Assemble a trace from explicit conv activation maps."""
    return ActivationTrace(tuple(zip(cfg.conv_indices(), conv_maps)))


# --- hand examples ----------------------------------------------------------

def test_intermediate_mask_ramp_example():
    """Deepest averaged map == [[1]] upscales to all-ones, so the intermediate
    mask at the first level must equal that level's own averaged map."""
    cfg = two_conv_cfg()
    ramp = np.arange(9, dtype=np.float32).reshape(1, 3, 3) / 8.0
    maps = [Tensor(ramp), Tensor(np.ones((1, 1, 1), dtype=np.float32))]
    _, levels = compute_mask(hand_trace(cfg, maps), cfg)
    assert isinstance(levels, tuple) and len(levels) == 2
    np.testing.assert_allclose(levels[0], ramp[0], atol=1e-7)
    np.testing.assert_allclose(levels[1], [[1.0]])


def test_mask_single_conv_locality():
    """With one conv layer, a single hot activation can only light up the K x K
    input footprint it was computed from."""
    cfg = NetworkConfig(1, 8, 8, (
        conv_layer(1, kernel=3, stride=2, in_channels=1),
        fc_layer(1, activation="none"),
    ))
    act = np.zeros((1, 3, 3), dtype=np.float32)
    act[0, 1, 1] = 5.0  # output position (1,1) reads input rows/cols 2..4
    mask, _ = compute_mask(hand_trace(cfg, [Tensor(act)]), cfg)
    hot = mask.data > 0
    rows, cols = np.nonzero(hot)
    assert rows.min() == 2 and rows.max() == 4
    assert cols.min() == 2 and cols.max() == 4
    assert hot.sum() == 9


def test_mask_constant_zero_activations_give_zero_mask():
    cfg = two_conv_cfg()
    maps = [zeros(1, 3, 3), zeros(1, 1, 1)]
    mask, _ = compute_mask(hand_trace(cfg, maps), cfg)
    np.testing.assert_array_equal(mask.data, 0.0)


def test_mask_has_input_dims_and_unit_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        _, trace = forward(cfg, ws, img)
        mask, levels = compute_mask(trace, cfg)
        assert (mask.height, mask.width) == (cfg.input_height, cfg.input_width)
        assert mask.data.min() >= 0.0 and mask.data.max() <= 1.0
        # intermediate mask sizes telescope along the conv feature maps
        shapes = {row.index: row.output_shape for row in validate_config(cfg)}
        assert len(levels) == len(cfg.conv_indices())
        for level, idx in zip(levels, cfg.conv_indices()):
            assert level.shape == shapes[idx][1:] and level.dtype == np.float32


def test_mask_uses_post_activation_maps():
    """The trace records post-ReLU maps, so a dead (all-negative pre-activation)
    layer yields an all-zero mask rather than leaking negative values."""
    cfg = NetworkConfig(1, 6, 6, (
        conv_layer(1, kernel=3, stride=1, in_channels=1),
        fc_layer(1, activation="none"),
    ))
    from visback.weights import WeightSet
    ws = WeightSet(config=cfg, arrays={
        0: (np.full(9, -1.0, dtype=np.float32), np.zeros(1, dtype=np.float32)),
        1: (np.zeros(16, dtype=np.float32), np.zeros(1, dtype=np.float32)),
    })
    img = Tensor(np.full(cfg.input_shape, 200.0, dtype=np.float32))
    _, trace = forward(cfg, ws, img)
    assert trace.conv_entries[0][1].data.min() >= 0.0
    mask, _ = compute_mask(trace, cfg)
    np.testing.assert_array_equal(mask.data, 0.0)


# --- oracle and invariance --------------------------------------------------

def oracle_mask_for(cfg, trace):
    conv_idx = cfg.conv_indices()
    maps = [t.data.astype(np.float64) for _, t in trace.conv_entries]
    geoms = []
    for i in conv_idx:
        g = cfg.layers[i].geometry
        geoms.append((g.kernel_h, g.kernel_w, g.stride_h, g.stride_w))
    return mask_loops(maps, geoms, (cfg.input_height, cfg.input_width))


def test_mask_matches_loop_oracle():
    rng = np.random.default_rng(29)
    for _ in range(15):
        cfg = random_conv_config(rng)
        ws = random_weights(cfg, rng)
        img = random_image(cfg, rng)
        _, trace = forward(cfg, ws, img)
        mask, _ = compute_mask(trace, cfg)
        want = oracle_mask_for(cfg, trace)
        np.testing.assert_allclose(mask.data, want, atol=1e-5)


def test_mask_scale_invariance():
    """Scaling every traced activation by a positive constant cannot move the
    normalized mask."""
    rng = np.random.default_rng(41)
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
        np.testing.assert_allclose(mask.data, base.data, atol=1e-6)


# --- trace validation -------------------------------------------------------

def test_trace_mismatch_wrong_shape():
    cfg = two_conv_cfg()
    maps = [zeros(1, 3, 3), zeros(1, 2, 2)]  # deepest should be 1x1
    with pytest.raises(TraceMismatchError):
        compute_mask(hand_trace(cfg, maps), cfg)


def test_trace_mismatch_missing_layer():
    cfg = two_conv_cfg()
    maps = [zeros(1, 3, 3)]
    with pytest.raises(TraceMismatchError):
        compute_mask(hand_trace(cfg, maps), cfg)


def test_trace_mismatch_no_conv_layers():
    cfg = NetworkConfig(1, 2, 2, (fc_layer(1, activation="none"),))
    trace = ActivationTrace(())
    with pytest.raises(TraceMismatchError):
        compute_mask(trace, cfg)


def test_visualization_mask_validates_range_and_channels():
    for bad in (1.5, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            VisualizationMask(np.array([[0.5, bad]], dtype=np.float32))
    with pytest.raises(ShapeError):
        VisualizationMask(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        VisualizationMask(np.zeros((0, 2)))
    src = np.full((2, 2), 0.5)
    m = VisualizationMask(src)
    src[0, 0] = 0.0
    assert m.data.dtype == np.float32 and m.data[0, 0] == 0.5
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0  # read-only


# --- overlay ----------------------------------------------------------------

def unit_mask(h, w, value):
    return VisualizationMask(np.full((h, w), value, dtype=np.float32))


def test_overlay_zero_mask_is_identity():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    out = overlay(img, unit_mask(4, 6, 0.0))
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, img)


def test_overlay_full_mask_saturates_green():
    img = np.full((3, 3, 3), 100, dtype=np.uint8)
    out = overlay(img, unit_mask(3, 3, 1.0))  # default gain 255
    np.testing.assert_array_equal(out[:, :, 1], 255)
    np.testing.assert_array_equal(out[:, :, 0], 100)
    np.testing.assert_array_equal(out[:, :, 2], 100)


def test_overlay_half_mask_gain_100_adds_50():
    img = np.full((2, 2, 3), 60, dtype=np.uint8)
    out = overlay(img, unit_mask(2, 2, 0.5), gain=100.0)
    np.testing.assert_array_equal(out[:, :, 1], 110)
    np.testing.assert_array_equal(out[:, :, 0], 60)
    np.testing.assert_array_equal(img, 60)  # the input frame is not modified


def test_overlay_shape_checks():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(ShapeError):
        overlay(img, unit_mask(3, 4, 0.5))
    with pytest.raises(ShapeError):
        overlay(np.zeros((4, 4, 1), dtype=np.uint8), unit_mask(4, 4, 0.5))
    with pytest.raises(ShapeError):
        overlay(img.astype(np.float32), unit_mask(4, 4, 0.5))


@pytest.mark.parametrize("gain", [float("nan"), float("inf"), -float("inf")])
def test_overlay_rejects_non_finite_gain(gain):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match="gain must be finite"):
        overlay(img, unit_mask(2, 2, 0.5), gain=gain)


def test_mask_to_gray_quantization():
    m = VisualizationMask(np.array([[0.0, 0.5, 1.0]], dtype=np.float32))
    gray = mask_to_gray(m)
    assert gray.dtype == np.uint8
    np.testing.assert_array_equal(gray, [[0, 128, 255]])
