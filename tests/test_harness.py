"""Shift-experiment machinery: thresholding, dilation, per-class translation,
line fitting, and the experiment driver."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image, random_weights, zero_weights
from oracles import dilate_loops, shift_full_loops
from visback import network, scenes
from visback.config import NetworkConfig, conv_layer, fc_layer
from visback.harness import (
    CSV_HEADER,
    DEFAULT_SHIFTS,
    MODES,
    dilate,
    fit_line,
    result_summary,
    result_to_csv,
    run_shift_experiment,
    scaled_dilation_radius,
    segment,
    shift_class,
    threshold_mask,
)
from visback.network import NonFiniteOutputError
from visback.saliency import VisualizationMask, compute_mask
from visback.tensor import ShapeError, Tensor
from visback.weights import WeightSet, load_weights

TRAINED_WEIGHTS = Path(__file__).resolve().parents[1] / "bench" / "toy_weights.pnw"


def vmask(arr2d):
    return VisualizationMask(np.asarray(arr2d, dtype=np.float32))


def binary(arr2d):
    return np.asarray(arr2d) > 0.5


# --- threshold --------------------------------------------------------------

def test_threshold_is_strictly_greater():
    out = threshold_mask(vmask([[0.1, 0.3]]), 0.2)
    assert out.dtype == np.bool_
    np.testing.assert_array_equal(out, [[False, True]])
    # a value exactly at the threshold stays out
    out_eq = threshold_mask(vmask([[0.2, 0.20001]]), 0.2)
    np.testing.assert_array_equal(out_eq, [[False, True]])


def test_threshold_range_check():
    with pytest.raises(ValueError):
        threshold_mask(vmask([[0.5]]), 1.5)
    with pytest.raises(ValueError):
        threshold_mask(vmask([[0.5]]), -0.1)


# --- dilation ----------------------------------------------------------------

def test_dilate_center_pixel_radius_1():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    out = dilate(m, 1)
    want = np.zeros((5, 5), dtype=bool)
    want[1:4, 1:4] = True
    np.testing.assert_array_equal(out, want)


def test_dilate_radius_0_is_identity():
    m = np.random.default_rng(0).uniform(size=(6, 6)) > 0.6
    np.testing.assert_array_equal(dilate(m, 0), m)


def test_dilate_returns_a_new_array_at_radius_0():
    """At r = 0 too the result is the caller's map copied, not the map
    itself: writing to it leaves the input as it was. ``segment``'s map
    stays read-only."""
    m = np.random.default_rng(0).uniform(size=(6, 6)) > 0.6
    before = m.copy()
    out = dilate(m, 0)
    assert out is not m
    np.testing.assert_array_equal(out, m)
    out[...] = ~out
    np.testing.assert_array_equal(m, before)
    class1 = segment(vmask(m.astype(np.float32)), t=0.5, radius=0)
    np.testing.assert_array_equal(class1, m)
    assert not class1.flags.writeable


def test_dilate_clips_at_border():
    m = np.zeros((4, 4), dtype=bool)
    m[0, 0] = True
    out = dilate(m, 2)
    want = np.zeros((4, 4), dtype=bool)
    want[:3, :3] = True
    np.testing.assert_array_equal(out, want)


@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=25)
def test_dilate_matches_window_scan_oracle(seed, radius):
    rng = np.random.default_rng(seed)
    m = rng.uniform(size=(16, 16)) > 0.85
    np.testing.assert_array_equal(dilate(m, radius), dilate_loops(m, radius))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=25)
def test_dilate_monotone_and_composes(seed, ra, rb):
    rng = np.random.default_rng(seed)
    m = rng.uniform(size=(12, 12)) > 0.9
    once = dilate(m, ra)
    assert np.all(once >= m)  # dilation only grows the set
    np.testing.assert_array_equal(dilate(once, rb), dilate(m, ra + rb))


@pytest.mark.parametrize("cells", [[[0, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0]], [[1], [0], [0], [0]]])
def test_dilate_huge_radius_is_clamped_to_the_map(cells):
    m = np.array(cells, dtype=bool)
    reach = max(m.shape)
    tracemalloc.start()
    try:
        out = dilate(m, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    np.testing.assert_array_equal(out, dilate(m, reach))
    np.testing.assert_array_equal(out, dilate_loops(m, reach))


@pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
@pytest.mark.parametrize("radius", [0, 1, 8, 30, "max", 10**7])
def test_dilate_counts_match_the_window_scan_at_any_radius(radius, density):
    """The cumulative-count dilation equals the brute-force window scan from
    r = 0 to past the map. Any radius of at least max(H, W) covers the whole
    map, so the scan runs at max(H, W) there; the huge radius stays under
    the 1 MB bound of the clamp test above."""
    m = np.random.default_rng(int(density * 100)).uniform(size=(9, 13)) < density
    reach = max(m.shape)
    r = reach if radius == "max" else radius
    tracemalloc.start()
    try:
        out = dilate(m, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert out.dtype == np.bool_ and out.shape == m.shape
    np.testing.assert_array_equal(out, dilate_loops(m, min(r, reach)))


@pytest.mark.parametrize("radius", [2.5, 2.0, True, "3", None])
def test_dilate_and_segment_reject_a_non_integer_radius(radius):
    m = np.zeros((3, 4), dtype=bool)
    m[1, 1] = True
    with pytest.raises(ValueError, match="radius"):
        dilate(m, radius)
    with pytest.raises(ValueError, match="radius"):
        segment(vmask(m.astype(np.float32)), t=0.2, radius=radius)


def test_dilate_accepts_numpy_integer_radius():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    for r in (np.int64(1), np.int32(1), np.uint8(1)):
        np.testing.assert_array_equal(dilate(m, r), dilate(m, 1))


def test_dilate_rejects_nonbinary_and_negative_radius():
    with pytest.raises(ValueError):
        dilate(np.array([[0.5]]), 1)
    with pytest.raises(ValueError):  # a 0/1 float map is not a bool map either
        dilate(np.array([[1.0]], dtype=np.float32), 1)
    with pytest.raises(ShapeError):
        dilate(np.zeros((1, 2, 2), dtype=bool), 1)
    with pytest.raises(ValueError):
        dilate(binary([[1.0]]), -1)


def test_scaled_dilation_radius():
    assert scaled_dilation_radius(200) == 30
    assert scaled_dilation_radius(100) == 15
    assert scaled_dilation_radius(66) == 10  # round(9.9)
    assert scaled_dilation_radius(16) == 2


def test_segment_combines_threshold_and_dilate():
    mask = vmask([[0.0, 0.9, 0.0, 0.0]])
    class1 = segment(mask, t=0.5, radius=1)
    np.testing.assert_array_equal(class1, [[True, True, True, False]])
    np.testing.assert_array_equal(~class1, [[False, False, False, True]])


def test_segment_default_radius_scales_with_the_mask_width():
    m = np.zeros((40, 100), dtype=np.float32)
    m[20, 50] = 0.9
    mask = vmask(m)
    np.testing.assert_array_equal(segment(mask), segment(mask, radius=15))
    assert not np.array_equal(segment(mask), segment(mask, radius=30))


@pytest.mark.parametrize("radius", [0, 1])
def test_segment_returns_read_only_bool_map(radius):
    class1 = segment(vmask([[0.9, 0.0, 0.0]]), t=0.2, radius=radius)
    assert class1.dtype == np.bool_ and class1.shape == (1, 3)
    with pytest.raises(ValueError):
        class1[0, 0] = False  # read-only


def test_segment_rejects_bad_threshold_and_radius():
    with pytest.raises(ValueError):
        segment(vmask([[1.0]]), t=1.2, radius=1)
    with pytest.raises(ValueError):
        segment(vmask([[1.0]]), t=0.2, radius=-2)


def test_shift_class_validates_class_map():
    img = Tensor(np.zeros((1, 1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        shift_class(img, np.array([[0.25, 0.0]]), "class1", 1)
    with pytest.raises(ValueError):
        shift_class(img, np.array([[1.0, 0.0]], dtype=np.float32), "class1", 1)
    with pytest.raises(ShapeError):
        shift_class(img, np.ones((1, 1, 2), dtype=bool), "class1", 1)


# --- shifting ----------------------------------------------------------------

def test_shift_zero_is_bit_exact_in_every_mode():
    rng = np.random.default_rng(5)
    img = Tensor(rng.uniform(0, 255, (3, 4, 7)).astype(np.float32))
    s = binary((rng.uniform(size=(4, 7)) > 0.5).astype(np.float32))
    for mode in MODES:
        out = shift_class(img, s, mode, 0)
        np.testing.assert_array_equal(out.data, img.data)


def test_shift_all_replicates_edge_columns():
    img = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 4))
    s = binary(np.zeros((2, 4), dtype=np.float32))
    right = shift_class(img, s, "all", 2)
    np.testing.assert_array_equal(right.data[0], [[0, 0, 0, 1], [4, 4, 4, 5]])
    left = shift_class(img, s, "all", -2)
    np.testing.assert_array_equal(left.data[0], [[2, 3, 3, 3], [6, 7, 7, 7]])


@given(st.integers(0, 2**32 - 1), st.integers(-5, 5))
@settings(max_examples=30)
def test_shift_all_matches_loop_oracle(seed, dx):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, (2, 3, 6)).astype(np.float32)
    s = binary(np.zeros((3, 6), dtype=np.float32))
    got = shift_class(Tensor(img), s, "all", dx).data
    want = shift_full_loops(img, dx)
    np.testing.assert_array_equal(got, want)


def test_shift_class1_moves_only_masked_pixels():
    # single masked pixel moves right; its origin keeps the original value
    img = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 6))
    m = np.zeros((1, 6), dtype=np.float32)
    m[0, 1] = 1.0
    s = binary(m)
    out = shift_class(img, s, "class1", 2)
    np.testing.assert_array_equal(out.data[0, 0], [0, 1, 2, 1, 4, 5])


def test_shift_class2_moves_complement():
    img = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 6))
    m = np.ones((1, 6), dtype=np.float32)
    m[0, 1] = 0.0  # only column 1 is class 2
    s = binary(m)
    out = shift_class(img, s, "class2", 2)
    np.testing.assert_array_equal(out.data[0, 0], [0, 1, 2, 1, 4, 5])


def test_shift_pixels_pushed_off_frame_are_dropped():
    img = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 4))
    m = np.zeros((1, 4), dtype=np.float32)
    m[0, 3] = 1.0
    s = binary(m)
    out = shift_class(img, s, "class1", 2)  # pixel 3 would land at 5: gone
    np.testing.assert_array_equal(out.data[0, 0], [0, 1, 2, 3])


def test_shift_class_composites_over_unmoved_frame():
    """Moved-class pixels overwrite their destination; everything else is the
    original frame."""
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, (1, 5, 9)).astype(np.float32)
    region = (rng.uniform(size=(5, 9)) > 0.6).astype(np.float32)
    s = binary(region)
    dx = 3
    out = shift_class(Tensor(img), s, "class1", dx).data[0]
    want = img[0].copy()
    src = region.astype(bool)
    want[:, dx:][src[:, : 9 - dx]] = img[0][:, : 9 - dx][src[:, : 9 - dx]]
    np.testing.assert_array_equal(out, want)


def _where_reference(img, class1, which, dx):
    """A class shift as an ``np.where`` composite over a copy of the frame;
    a full-frame shift as a gather from clipped source columns."""
    w = img.shape[2]
    if which == "all":
        return img[:, :, np.clip(np.arange(w) - dx, 0, w - 1)]
    region = class1 if which == "class1" else ~class1
    dest, src = (slice(dx, w), slice(0, w - dx)) if dx > 0 else (slice(0, w + dx), slice(-dx, w))
    out = img.copy()
    out[:, :, dest] = np.where(region[:, src], img[:, :, src], out[:, :, dest])
    return out


@pytest.mark.parametrize("maps", ["empty", "full", "random"])
def test_shift_class_equals_where_reference(maps):
    rng = np.random.default_rng(13)
    img = rng.uniform(0, 255, (3, 5, 48)).astype(np.float32)
    class1 = {"empty": np.zeros((5, 48), dtype=bool), "full": np.ones((5, 48), dtype=bool),
              "random": rng.uniform(size=(5, 48)) > 0.5}[maps]
    for mode in MODES:
        for dx in (-40, -4, 0, 4, 40):
            got = shift_class(Tensor(img), class1, mode, dx).data
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == _where_reference(img, class1, mode, dx).tobytes()


@pytest.mark.parametrize("dx", [2.5, 2.0, True, "2", None])
def test_shift_class_rejects_a_non_integer_dx(dx):
    img = Tensor(np.zeros((1, 2, 6), dtype=np.float32))
    s = np.zeros((2, 6), dtype=bool)
    for mode in MODES:
        with pytest.raises(ValueError, match="dx"):
            shift_class(img, s, mode, dx)


def test_shift_class_accepts_numpy_integer_dx():
    img = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 6))
    s = np.zeros((1, 6), dtype=bool)
    s[0, 1] = True
    for dx in (np.int64(2), np.int32(2), np.int8(-2)):
        for mode in MODES:
            np.testing.assert_array_equal(shift_class(img, s, mode, dx).data, shift_class(img, s, mode, int(dx)).data)


def test_shift_rejects_out_of_range_dx_and_bad_mode():
    img = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    s = binary(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        shift_class(img, s, "all", 4)
    with pytest.raises(ValueError):
        shift_class(img, s, "all", -4)
    with pytest.raises(ValueError):
        shift_class(img, s, "sideways", 1)
    with pytest.raises(ShapeError):
        shift_class(Tensor(np.zeros((1, 3, 5), dtype=np.float32)), s, "all", 1)


# --- line fitting -------------------------------------------------------------

def test_fit_line_matches_polyfit():
    rng = np.random.default_rng(8)
    x = np.arange(10.0)
    y = 0.7 * x - 2.0 + rng.normal(0, 0.3, 10)
    fit = fit_line(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)


def test_fit_line_perfect_line_r2_one():
    x = np.array([-2.0, 0.0, 1.0, 5.0])
    fit = fit_line(x, 3.0 * x + 0.5)
    assert fit.slope == pytest.approx(3.0)
    assert fit.intercept == pytest.approx(0.5)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_line_constant_series_r2_one():
    fit = fit_line(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))
    assert fit.slope == 0.0
    assert fit.intercept == 4.0
    assert fit.r_squared == 1.0


def test_fit_line_single_x_value_has_zero_slope():
    fit = fit_line(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
    assert fit.slope == 0.0
    assert fit.intercept == 2.0


def test_fit_line_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_line(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_line(np.array([]), np.array([]))


# --- experiment driver ---------------------------------------------------------

def tiny_net():
    cfg = NetworkConfig(3, 10, 16, (
        conv_layer(2, kernel=3, stride=2, in_channels=3),
        fc_layer(1, activation="none"),
    ))
    rng = np.random.default_rng(77)
    ws = random_weights(cfg, rng)
    img = random_image(cfg, rng)
    mask_vals = rng.uniform(0, 1, (10, 16)).astype(np.float32)
    seg_ = segment(VisualizationMask(mask_vals), t=0.5, radius=1)
    return cfg, ws, img, seg_


def test_experiment_requires_zero_shift():
    cfg, ws, img, s = tiny_net()
    with pytest.raises(ValueError):
        run_shift_experiment(cfg, ws, img, s, shifts=[2, 4])


def test_experiment_rejects_non_integer_shifts():
    cfg, ws, img, s = tiny_net()
    for shifts in ((-2.5, 0, 2.5), (0, True, 4)):  # a bool is not a 1-px shift
        with pytest.raises(ValueError, match="integers"):
            run_shift_experiment(cfg, ws, img, s, shifts=shifts)


def test_experiment_accepts_numpy_integer_shifts():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=np.arange(-2, 3, 2))
    assert res.shifts == (-2, 0, 2) and all(type(dx) is int for dx in res.shifts)
    assert res == run_shift_experiment(cfg, ws, img, s, shifts=[-2, 0, 2])


def test_experiment_checks_the_class_map_without_shifting():
    cfg, ws, img, s = tiny_net()
    with pytest.raises(ValueError):
        run_shift_experiment(cfg, ws, img, s.astype(np.float32), shifts=[0])
    with pytest.raises(ShapeError):
        run_shift_experiment(cfg, ws, img, s[:, :-1], shifts=[0])


def test_experiment_zero_weight_net_all_slopes_zero():
    cfg, _, img, s = tiny_net()
    ws = zero_weights(cfg)
    res = run_shift_experiment(cfg, ws, img, s, shifts=[-4, 0, 4])
    for mode in MODES:
        assert res.fit(mode).slope == 0.0
        assert all(v == 0.0 for v in getattr(res, f"steer_{mode}"))


def test_experiment_single_zero_shift_gives_identical_triple():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=[0])  # an empty batch per mode
    assert res.shifts == (0,)
    assert res.steer_class1 == res.steer_class2 == res.steer_all
    assert res.steer_all[0] == network.forward(cfg, ws, img)[0].inverse_turning_radius


def test_experiment_rows_sorted_and_deduplicated():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=[4, 0, -4, 4])
    assert res.shifts == (-4, 0, 4)


def test_experiment_zero_shift_row_equal_across_modes():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=[-2, 0, 2])
    i0 = res.shifts.index(0)
    assert res.steer_class1[i0] == res.steer_class2[i0] == res.steer_all[i0]


def test_experiment_nonfinite_shifted_prediction_raises():
    # the unshifted frame predicts 0; shifted left by one pixel, 100 * 3e38 overflows
    cfg = NetworkConfig(1, 1, 2, (fc_layer(1, activation="none"),))
    ws = WeightSet(config=cfg, arrays={0: (np.array([3.0e38, 0.0], np.float32), np.zeros(1, np.float32))})
    img = Tensor(np.array([[[0.0, 100.0]]], dtype=np.float32))
    assert network.forward(cfg, ws, img)[0].inverse_turning_radius == 0.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteOutputError, match="dx=-1"):
        run_shift_experiment(cfg, ws, img, binary([[0.0, 1.0]]), shifts=[-1, 0, 1])


@pytest.fixture(scope="module")
def trained_frame():
    """The committed trained toy weights, one rendered frame, its segmentation
    and its per-frame prediction."""
    ws = load_weights(TRAINED_WEIGHTS)
    cfg = ws.config
    params = scenes.SceneParams(lane_offset=0.3, heading=0.02, curvature=0.004, style="lane_marked", seed=1)
    img = Tensor(scenes.rgb_to_yuv(scenes.render_scene_rgb(params, cfg.input_width, cfg.input_height)))
    out, trace = network.forward(cfg, ws, img)
    mask, _ = compute_mask(trace, cfg)
    seg_ = segment(mask, radius=scaled_dilation_radius(cfg.input_width))
    return cfg, ws, img, seg_, out.inverse_turning_radius


def test_experiment_unshifted_row_is_the_per_frame_prediction(trained_frame):
    cfg, ws, img, s, pred = trained_frame
    res = run_shift_experiment(cfg, ws, img, s)
    i0 = res.shifts.index(0)
    for mode in MODES:
        assert getattr(res, f"steer_{mode}")[i0] == pred  # bit for bit, as explain computes it


def test_program_made_tensors_are_frozen_finite_and_own_their_memory(trained_frame):
    """``Tensor._wrap`` adopts what the program made without a copy or a
    scan, so the program must hand it fresh, finite arrays: forward's trace
    maps and every ``shift_class`` frame (each mode, dx = 0 too) are
    read-only, finite, C-contiguous float32, and share no memory with the
    input ``Tensor`` or with each other."""
    cfg, ws, img, s, _ = trained_frame
    _, trace = network.forward(cfg, ws, img)
    made = [t for _, t in trace.conv_entries]
    made += [shift_class(img, s, mode, dx) for mode in MODES for dx in (-7, 0, 7)]
    for t in made:
        a = t.data
        assert a.dtype == np.float32 and a.flags.c_contiguous and not a.flags.writeable
        assert np.isfinite(a).all()
        assert not np.shares_memory(a, img.data)
    for k, t in enumerate(made):
        assert not any(np.shares_memory(t.data, u.data) for u in made[k + 1 :])


def test_experiment_shifted_rows_match_per_frame_forward(trained_frame):
    cfg, ws, img, s, _ = trained_frame
    res = run_shift_experiment(cfg, ws, img, s)
    for mode in MODES:
        got = np.asarray(getattr(res, f"steer_{mode}"))
        want = np.array([network.forward(cfg, ws, shift_class(img, s, mode, dx))[0].inverse_turning_radius
                         for dx in res.shifts])
        np.testing.assert_array_equal(got, want)  # bit for bit: a frame's prediction does not depend on its batch


def test_experiment_reruns_are_bit_identical(trained_frame):
    cfg, ws, img, s, _ = trained_frame
    assert run_shift_experiment(cfg, ws, img, s) == run_shift_experiment(cfg, ws, img, s)


def test_zero_weight_net_flags_degenerate_segmentation(trained_frame):
    # all ReLUs dead: an all-zero mask and an empty Class 1
    cfg, _, img, _, _ = trained_frame
    ws = zero_weights(cfg)
    _, trace = network.forward(cfg, ws, img)
    mask, _ = compute_mask(trace, cfg)
    summary = result_summary(run_shift_experiment(cfg, ws, img, segment(mask)))
    assert summary["class1_fraction"] == 0.0
    assert summary["degenerate_segmentation"] is True


def test_whole_frame_class1_is_degenerate():
    cfg, ws, img, _ = tiny_net()
    full = binary(np.ones((cfg.input_height, cfg.input_width), dtype=np.float32))
    summary = result_summary(run_shift_experiment(cfg, ws, img, full, shifts=[-2, 0, 2]))
    assert summary["class1_fraction"] == 1.0
    assert summary["degenerate_segmentation"] is True


def test_default_shift_range():
    assert DEFAULT_SHIFTS[0] == -40 and DEFAULT_SHIFTS[-1] == 40
    assert all(b - a == 4 for a, b in zip(DEFAULT_SHIFTS, DEFAULT_SHIFTS[1:]))
    assert 0 in DEFAULT_SHIFTS


# --- CSV / summary --------------------------------------------------------------

def test_csv_header_and_layout():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=[-2, 0, 2])
    text = result_to_csv(res)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "shift_px,steer_class1,steer_class2,steer_all"
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "-2"
    # 6 significant digits
    v = float(first[1])
    assert first[1] == f"{v:.6g}"


def test_summary_structure():
    cfg, ws, img, s = tiny_net()
    res = run_shift_experiment(cfg, ws, img, s, shifts=[-2, 0, 2])
    summary = result_summary(res)
    assert summary["class1_fraction"] == 158 / 160  # 2 of the 10x16 pixels stay in Class 2
    assert summary["degenerate_segmentation"] is False
    assert summary["n_shifts"] == 3
    assert summary["shift_min"] == -2 and summary["shift_max"] == 2
    for mode in MODES:
        for key in ("slope", "intercept", "r_squared"):
            assert isinstance(summary["series"][mode][key], float)
        fit = fit_line(np.asarray(res.shifts, dtype=np.float64), np.asarray(getattr(res, f"steer_{mode}")))
        assert res.fit(mode) == fit
        assert summary["series"][mode] == {"slope": fit.slope, "intercept": fit.intercept,
                                           "r_squared": fit.r_squared}
