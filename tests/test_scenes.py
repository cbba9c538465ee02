"""Synthetic road scenes: steering ground truth, rendering determinism, the
RGB/YUV conversions, and the lateral viewpoint warp used for augmentation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visback.scenes import (
    _YUV_MATRIX,
    _YUV_OFFSET,
    CAMERA_HEIGHT_M,
    HEADING_GAIN,
    HORIZON_FRAC,
    OFFSET_GAIN,
    STYLES,
    LabeledFrame,
    SceneParams,
    _frame_layout,
    _yuv_channels_last,
    ground_truth_steering,
    lateral_source_columns,
    render_scene_rgb,
    rgb_to_yuv,
)
from visback.tensor import Tensor
from visback.training import _augment_batch, generate_dataset


def params(offset=0.0, heading=0.0, curvature=0.0, style="lane_marked", seed=0):
    return SceneParams(lane_offset=offset, heading=heading, curvature=curvature,
                       style=style, seed=seed)


def augment_one(rgb, label, shift):
    """One (H, W, 3) frame through the training augmenter as a batch of one."""
    imgs, labels = _augment_batch(rgb[np.newaxis], np.array([label], np.float32), np.array([shift]))
    return imgs[0], float(labels[0])


# --- ground-truth steering ----------------------------------------------------

def test_centered_straight_road_steers_zero():
    assert ground_truth_steering(0.0, 0.0, 0.0) == 0.0


def test_mirrored_scene_negates_steering():
    rng = np.random.default_rng(0)
    for _ in range(25):
        o, h, c = rng.uniform(-2, 2), rng.uniform(-0.2, 0.2), rng.uniform(-0.02, 0.02)
        assert ground_truth_steering(-o, -h, -c) == pytest.approx(
            -ground_truth_steering(o, h, c), abs=1e-12)


def test_offset_right_steers_left():
    # positive steering turns right, so sitting right of center must steer left
    assert ground_truth_steering(1.0, 0.0, 0.0) < 0.0
    assert ground_truth_steering(0.0, 0.1, 0.0) < 0.0
    assert ground_truth_steering(0.0, 0.0, 0.01) > 0.0  # follow a right-hand bend


def test_scene_params_validation():
    with pytest.raises(ValueError):
        params(offset=2.5)  # beyond half lane width
    with pytest.raises(ValueError):
        params(style="desert")
    with pytest.raises(ValueError):
        params(heading=float("nan"))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_scene_seed_is_checked_at_construction(seed):
    # unchecked, -1 and 1.5 fail only inside the renderer and True renders as 1
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        params(seed=seed)


def test_scene_seed_accepts_numpy_integers():
    p = params(seed=np.int64(3))
    assert type(p.seed) is int and p == params(seed=3)


# --- rendering ------------------------------------------------------------------

def test_render_deterministic_per_seed():
    p = params(offset=0.4, heading=0.02, curvature=0.004, seed=9)
    a = render_scene_rgb(p)
    b = render_scene_rgb(p)
    np.testing.assert_array_equal(a, b)
    c = render_scene_rgb(params(offset=0.4, heading=0.02, curvature=0.004, seed=10))
    assert (a != c).any()


def test_render_shape_and_dtype():
    img = render_scene_rgb(params(), width=64, height=48)
    assert img.shape == (48, 64, 3)
    assert img.dtype == np.uint8


def test_render_every_style():
    for style in STYLES:
        img = render_scene_rgb(params(style=style))
        assert img.shape == (66, 200, 3)


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_rendered_bytes_are_pinned():
    """The renderer's output bytes, pinned at two frame sizes in one process,
    so a layout cache keyed on the wrong size fails here."""
    ds = generate_dataset(64, seed=3)
    assert sha256(ds.images_rgb) == "1fcbfef26a4aaec4567e02a861d1d05aad7365f313fd19f19be9f5ea0399c088"
    assert sha256(ds.labels) == "e1c0071ab5849ea046dafb98b786627c37aa73786dc80e7bedde618ee2e7c1b9"
    pinned = {
        "lane_marked": "8de0138f310ec68062b1f48016405dbe40175747e87a61d746a4e46abd488ecc",
        "unmarked_with_parked_cars": "87e80de40c550ae1de1f382b139ee85ee1ab5d39456b847b49bced3e098d3723",
        "grass_edge": "4051d80890c714b684192f25e7258530c0efbc3499b04bb94066d81b33acb0b9",
    }
    for style, digest in pinned.items():
        small = generate_dataset(24, style=style, seed=5, width=64, height=40)
        assert sha256(small.images_rgb) == digest, style


@pytest.mark.parametrize("value", [0, -5, 200.0, True])
@pytest.mark.parametrize("name", ["width", "height"])
def test_render_rejects_a_bad_frame_size(name, value):
    # unchecked, a width of 0 rendered an empty frame after a 0/0 warning
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        render_scene_rgb(params(), **{name: value})


def test_render_takes_numpy_integer_sizes():
    np.testing.assert_array_equal(render_scene_rgb(params(seed=4), np.int64(64), np.int32(40)),
                                  render_scene_rgb(params(seed=4), 64, 40))


def test_render_rejects_a_height_with_no_ground_rows():
    with pytest.raises(ValueError, match="leaves no rows below the horizon"):
        render_scene_rgb(params(), 200, 1)


def test_a_rendered_frame_is_never_the_layout_cache():
    for style in STYLES:
        p = params(offset=0.5, style=style, seed=2)
        first = render_scene_rgb(p)
        expected = first.copy()
        first[:] = 0
        np.testing.assert_array_equal(render_scene_rgb(p), expected)
    layout = _frame_layout(200, 66)
    arrays = [v for v in vars(layout).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 5
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_lane_marked_style_has_bright_marking_pixels():
    """Painted lines rasterize far brighter than the road surface."""
    img = render_scene_rgb(params(style="lane_marked"))
    below_horizon = img[int(HORIZON_FRAC * 66) + 4:]
    assert (below_horizon.max(axis=2) > 200).sum() > 20


def test_grass_edge_style_is_green_dominant_off_road():
    img = render_scene_rgb(params(style="grass_edge")).astype(np.int16)
    below = img[50:]  # near rows, road occupies the middle
    green_excess = below[..., 1] - (below[..., 0] + below[..., 2]) // 2
    assert (green_excess > 20).sum() > 100


def test_render_scene_returns_labeled_frame():
    p = params(offset=0.3, heading=-0.01, curvature=0.002)
    frame = LabeledFrame(Tensor(rgb_to_yuv(render_scene_rgb(p))),
                         ground_truth_steering(p.lane_offset, p.heading, p.curvature))
    assert frame.image_yuv.shape == (3, 66, 200)
    assert frame.steering == pytest.approx(
        ground_truth_steering(0.3, -0.01, 0.002))


def test_labeled_frame_rejects_nonfinite_steering():
    img = Tensor(np.zeros((3, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        LabeledFrame(img, float("nan"))


# --- color conversion -------------------------------------------------------------

def test_rgb_to_yuv_known_values():
    white = np.full((1, 1, 3), 255, dtype=np.uint8)
    yuv = rgb_to_yuv(white)
    assert yuv[0, 0, 0] == pytest.approx(255.0, abs=0.5)
    assert yuv[1, 0, 0] == pytest.approx(128.0, abs=0.5)
    assert yuv[2, 0, 0] == pytest.approx(128.0, abs=0.5)
    black = np.zeros((1, 1, 3), dtype=np.uint8)
    yuv_b = rgb_to_yuv(black)
    assert yuv_b[0, 0, 0] == pytest.approx(0.0, abs=0.5)
    assert yuv_b[1, 0, 0] == pytest.approx(128.0, abs=0.5)


def test_rgb_to_yuv_shape_contract():
    rgb = np.zeros((4, 6, 3), dtype=np.uint8)
    yuv = rgb_to_yuv(rgb)
    assert yuv.shape == (3, 4, 6)
    assert yuv.dtype == np.float32


def test_yuv_equals_clipped_affine_reference():
    """The converter is clip(rgb @ M.T + offset, 0, 255) to the bit, on the
    8 corners of the RGB cube, random colours, and float colours outside
    [0, 255] that drive every channel past both clamps."""
    rng = np.random.default_rng(17)
    corners = np.array([[r, g, b] for r in (0, 255) for g in (0, 255) for b in (0, 255)], np.float32)
    outside = np.array([[-40.0, -40.0, 300.0], [300.0, 300.0, -40.0], [-40.0, 300.0, -40.0],
                        [300.0, -40.0, 300.0]], np.float32)
    rgb = np.concatenate([corners, rng.integers(0, 256, (200, 3)).astype(np.float32), outside])
    unclipped = rgb @ _YUV_MATRIX.T + _YUV_OFFSET
    assert (unclipped < 0).any(axis=0).all() and (unclipped > 255).any(axis=0).all()
    want = np.clip(unclipped, 0, 255)
    got = _yuv_channels_last(rgb)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    # uint8 input converts like the same values in float32
    as_uint8 = rgb[:-len(outside)].astype(np.uint8)
    assert _yuv_channels_last(as_uint8).tobytes() == want[:-len(outside)].tobytes()


def _bt601_yuv_to_rgb(yuv: np.ndarray) -> np.ndarray:
    """The standard full-range BT.601 inverse, written apart from the
    converter's matrix: (3, H, W) YUV -> (H, W, 3) uint8 RGB."""
    y, u, v = yuv[0], yuv[1] - 128.0, yuv[2] - 128.0
    rgb = np.stack([y + 1.402 * v, y - 0.344136 * u - 0.714136 * v, y + 1.772 * u], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_rgb_yuv_round_trip_within_quantization(seed):
    rng = np.random.default_rng(seed)
    rgb = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    back = _bt601_yuv_to_rgb(rgb_to_yuv(rgb))
    assert np.abs(back.astype(np.int16) - rgb.astype(np.int16)).max() <= 2


# --- lateral warp -------------------------------------------------------------------

def test_source_columns_identity_at_zero_shift():
    src = lateral_source_columns(10, 20, 0.0)
    np.testing.assert_array_equal(src, np.tile(np.arange(20), (10, 1)))


@pytest.mark.parametrize("shifts", [[0.0, 0.0], [0.6, 0.6], [-0.6], [0.6, -0.6, 0.0, 0.25, -1.3]],
                         ids=["zero", "plus", "minus", "mixed"])
def test_source_columns_array_form_equals_stacked_scalar_calls(shifts):
    arr = np.array(shifts)
    stacked = np.stack([lateral_source_columns(66, 200, float(s)) for s in shifts])
    got = lateral_source_columns(66, 200, arr)
    assert got.shape == stacked.shape and got.dtype == stacked.dtype
    assert got.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_source_columns_reject_nonfinite_shift(bad):
    # unchecked, NaN maps every ground row to column 0 with only a RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        lateral_source_columns(66, 200, bad)
    with pytest.raises(ValueError, match="finite"):
        lateral_source_columns(66, 200, np.array([0.2, bad]))


def test_source_columns_sky_rows_fixed():
    src = lateral_source_columns(66, 200, 0.8)
    horizon_row = int(HORIZON_FRAC * 66)
    np.testing.assert_array_equal(src[: horizon_row - 1], np.tile(np.arange(200), (horizon_row - 1, 1)))


def test_source_columns_magnitude_grows_toward_bottom():
    src = lateral_source_columns(66, 200, 0.9)
    disp = np.abs(src - np.arange(200)).max(axis=1)
    assert disp[-1] >= disp[40] >= disp[25]
    assert disp[-1] > 0


def test_warp_moves_content_left_for_rightward_shift():
    """Camera moving right: ground content slides left, so the warped bottom row
    reads from source columns to the right of each pixel."""
    h, w = 66, 200
    src = lateral_source_columns(h, w, 0.5)
    mid = w // 2
    assert src[h - 1, mid] > mid
    src_neg = lateral_source_columns(h, w, -0.5)
    assert src_neg[h - 1, mid] < mid


def test_warp_zero_is_identity():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (12, 20, 3), dtype=np.uint8)
    warped, _ = augment_one(img, 0.0, 0.0)
    np.testing.assert_array_equal(warped, img)


def test_warp_clamps_at_edges():
    img = np.repeat(np.tile(np.arange(20, dtype=np.uint8), (12, 1))[:, :, None], 3, axis=2)
    out, _ = augment_one(img, 0.0, 1.0)
    # each pixel reads its clamped source column; the bottom row runs off the
    # right edge, which is replicated
    np.testing.assert_array_equal(out[:, :, 0], lateral_source_columns(12, 20, 1.0))
    assert (out[-1, :, 0] == 19).sum() > 1


def test_warp_approximates_rerendered_shifted_scene():
    """Warping a frame should look like rendering a scene whose lane offset
    grew by the camera displacement (same geometry, same seed)."""
    base = params(offset=-0.2, heading=0.0, curvature=0.0, style="grass_edge", seed=4)
    s = 0.4
    moved = params(offset=-0.2 + s, heading=0.0, curvature=0.0, style="grass_edge", seed=4)
    warped_rgb, _ = augment_one(render_scene_rgb(base), 0.0, s)
    warped = rgb_to_yuv(warped_rgb)
    rerendered = rgb_to_yuv(render_scene_rgb(moved))
    # compare luminance on ground rows, away from clamped borders
    diff = np.abs(warped[0, 40:, 30:170] - rerendered[0, 40:, 30:170])
    assert np.median(diff) < 8.0


# --- augmentation --------------------------------------------------------------------
# Labels come back as float32, so label arithmetic holds to float32 rounding.

def test_augment_zero_shift_returns_same_frame():
    p = params(offset=0.1)
    rgb = render_scene_rgb(p)
    label = ground_truth_steering(p.lane_offset, p.heading, p.curvature)
    out, out_label = augment_one(rgb, label, 0.0)
    np.testing.assert_array_equal(out, rgb)
    assert out_label == np.float32(label)


def test_augment_label_correction_is_antisymmetric():
    p = params(offset=0.1, heading=0.01)
    rgb = render_scene_rgb(p)
    label = float(np.float32(ground_truth_steering(p.lane_offset, p.heading, p.curvature)))
    d_plus = augment_one(rgb, label, 0.5)[1] - label
    d_minus = augment_one(rgb, label, -0.5)[1] - label
    assert d_plus == pytest.approx(-d_minus, abs=1e-8)
    assert d_plus == pytest.approx(-OFFSET_GAIN * 0.5, abs=1e-8)


def test_augment_rightward_shift_gives_leftward_correction():
    rgb = render_scene_rgb(params())
    _, shifted = augment_one(rgb, 0.0, 0.6)
    assert shifted < 0.0


def test_augment_label_matches_rerendered_ground_truth():
    """The augmented label is the ground truth of the displaced camera position:
    the label correction per meter is the renderer's offset gain."""
    p = params(offset=0.2, heading=0.015, curvature=-0.003)
    label = ground_truth_steering(p.lane_offset, p.heading, p.curvature)
    s = 0.35
    _, shifted = augment_one(render_scene_rgb(p), label, s)
    assert shifted == pytest.approx(ground_truth_steering(0.2 + s, 0.015, -0.003), abs=1e-8)


def test_corrected_label_recenters_kinematic_integrator():
    """Drive a kinematic bicycle model with the corrected labels: starting off
    center, repeatedly applying the proportional rule must pull lateral error
    toward zero within a horizon instead of diverging."""
    v = 10.0          # m/s
    dt = 0.05
    y = 0.8           # initial lateral offset, m
    psi = 0.0         # heading error, rad
    for _ in range(600):  # 30 s horizon
        steer = ground_truth_steering(y, psi, 0.0)  # curvature command, 1/m
        psi += v * steer * dt
        y += v * psi * dt
    assert abs(y) < 0.1
    assert abs(psi) < 0.05
