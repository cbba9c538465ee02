"""Synthetic road scenes with ground-truth steering, plus the camera geometry
used to fake lateral viewpoint shifts.

A pinhole camera sits ``CAMERA_HEIGHT_M`` above a flat ground plane, looking
down the road; rows below the horizon map to ground depths via
``z = f * camera_height / (v - v_horizon)``. The lane center at depth z is

    x_c(z) = -lane_offset - heading * z + curvature * z**2 / 2

(x in meters, positive to the right of the camera axis), which makes a
positive lane_offset render the road shifted left, as seen from a car sitting
right of center. Ground-truth steering is the proportional controller

    steering = curvature - OFFSET_GAIN * lane_offset - HEADING_GAIN * heading

in units of inverse turning radius (1/m), positive steering turning right.
Three visual styles mark the road edge in different ways: painted lines,
parked cars, or a grass verge.

Everything a frame draws whatever the scene (the first ground row, the
ground depths, each ground pixel's lateral meters, the sky gradient, the
road shade and the dash rows) is computed once per frame size by
``_frame_layout`` and kept as read-only arrays in a small LRU cache.
``render_scene_rgb`` copies the sky frame and writes the scene in place
into its ground rows, which are one contiguous slice, so the per-scene work
is the lane geometry, the masks and the two seeded noise draws; the draws
are most of it. Scaling ``standard_normal`` in place gives the draws'
bytes but no measurable gain.

The warp maps run once per SGD step on the whole batch, the YUV
conversion once per chunk. The conversion clamps with ``np.clip``:
``np.maximum`` then ``np.minimum`` took twice as long (800 against 375-400
us on the 1.27 M floats of a 32-frame batch).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_int

CAMERA_HEIGHT_M = 1.2
HORIZON_FRAC = 0.35      # horizon row as a fraction of image height
FOCAL_FRAC = 0.9         # focal length in pixels as a fraction of image width
LANE_WIDTH_M = 4.0
HALF_LANE_M = LANE_WIDTH_M / 2.0

OFFSET_GAIN = 0.06       # 1/m per meter of lateral offset
HEADING_GAIN = 0.2       # 1/m per radian of heading error

STYLES = ("lane_marked", "unmarked_with_parked_cars", "grass_edge")


@dataclass(frozen=True)
class SceneParams:
    lane_offset: float   # meters right of lane center
    heading: float       # radians right of road direction
    curvature: float     # 1/m, positive curves right
    style: str
    seed: int

    def __post_init__(self):
        if abs(self.lane_offset) > HALF_LANE_M:
            raise ValueError(f"|lane_offset| must be <= {HALF_LANE_M} m, got {self.lane_offset}")
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {self.style!r}")
        for name in ("lane_offset", "heading", "curvature"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))


@dataclass(frozen=True)
class LabeledFrame:
    """One training sample: the network-ready YUV image and its steering label."""

    image_yuv: Tensor
    steering: float

    def __post_init__(self):
        if not np.isfinite(self.steering):
            raise ValueError("steering label must be finite")


def ground_truth_steering(lane_offset: float, heading: float, curvature: float) -> float:
    """Inverse turning radius commanded by the lane-keeping rule."""
    return float(curvature - OFFSET_GAIN * lane_offset - HEADING_GAIN * heading)


_YUV_MATRIX = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ],
    dtype=np.float32,
)
_YUV_OFFSET = np.array([0.0, 128.0, 128.0], dtype=np.float32)


def _yuv_channels_last(rgb: np.ndarray) -> np.ndarray:
    """(..., 3) RGB -> (..., 3) float32 YUV, full range, U/V centered at 128.

    One pixel per GEMM row. The per-frame and the batched converters both
    run this, so a frame converts to the same bits alone or in a batch.
    """
    yuv = rgb.reshape(-1, 3).astype(np.float32) @ _YUV_MATRIX.T
    for c in range(3):  # per-channel adds: an (N, 3) + (3,) broadcast add is slower
        yuv[:, c] += _YUV_OFFSET[c]
    np.clip(yuv, 0.0, 255.0, out=yuv)
    return yuv.reshape(rgb.shape)


def rgb_to_yuv(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 RGB -> (3, H, W) float32 YUV, a transposed view of
    (H, W, 3) memory."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got {arr.shape}")
    return _yuv_channels_last(arr).transpose(2, 0, 1)


@dataclass(frozen=True)
class _FrameLayout:
    """What a frame of one size draws whatever the scene; every array read-only.

    Rows ``g0:`` are the ground, one contiguous slice of the frame. ``gz``
    holds their depths, ``x`` each ground pixel's lateral meters, ``sky`` the
    whole frame's sky gradient, ``road`` each ground row's road shade and
    ``dash_rows`` the ground rows where the center dashes are painted.
    """

    g0: int
    gz: np.ndarray         # (Hg,) float64
    x: np.ndarray          # (Hg, W) float64
    sky: np.ndarray        # (H, W, 3) float32
    road: np.ndarray       # (Hg, 1, 1) float32
    dash_rows: np.ndarray  # (Hg, 1) bool


def _first_ground_row(height: int) -> int:
    """The first row drawn as ground; rows up to 0.75 below the horizon stay
    sky, which keeps the ground depth finite. ``height`` if there is none."""
    v_centers = np.arange(height, dtype=np.float64) + 0.5
    return int(np.count_nonzero(v_centers <= HORIZON_FRAC * height + 0.75))


def has_ground_rows(height: int) -> bool:
    """Whether a frame of this height has any rows below the horizon to draw as ground."""
    return _first_ground_row(height) < height


@functools.lru_cache(maxsize=4)
def _frame_layout(width: int, height: int) -> _FrameLayout:
    g0 = _first_ground_row(height)
    if g0 == height:
        raise ValueError(f"height {height} leaves no rows below the horizon")
    v_h = HORIZON_FRAC * height
    f = FOCAL_FRAC * width
    gz = f * CAMERA_HEIGHT_M / (np.arange(g0, height, dtype=np.float64) + 0.5 - v_h)
    u_centers = np.arange(width, dtype=np.float64) + 0.5 - width / 2.0
    x = u_centers[None, :] * gz[:, None] / f

    # Sky: vertical gradient, brightest at the horizon.
    v_frac = (np.arange(height, dtype=np.float32) + 0.5) / max(1.0, v_h)
    sky_t = np.clip(v_frac, 0.0, 1.0)[:, None, None]
    top = np.array([96.0, 142.0, 204.0], np.float32)
    low = np.array([172.0, 192.0, 214.0], np.float32)
    sky = np.broadcast_to(top + (low - top) * sky_t, (height, width, 3)).copy()

    # Road surface: asphalt gray, slightly lighter with distance.
    road = np.clip(105.0 + 28.0 * (gz / gz.max()), 0.0, 160.0).astype(np.float32)[:, None, None]

    dash_rows = np.mod(gz, 4.0)[:, None] < 2.0
    for arr in (gz, x, sky, road, dash_rows):
        arr.setflags(write=False)
    return _FrameLayout(g0, gz, x, sky, road, dash_rows)


def _lane_center(z: np.ndarray, p: SceneParams) -> np.ndarray:
    return -p.lane_offset - p.heading * z + 0.5 * p.curvature * z * z


def render_scene_rgb(p: SceneParams, width: int = 200, height: int = 66) -> np.ndarray:
    """Rasterize the scene to (H, W, 3) uint8; deterministic in (params, seed).
    ``width`` and ``height`` must be integers >= 1; a height with no rows
    below the horizon raises ``ValueError``."""
    width, height = as_int(width, "width", 1), as_int(height, "height", 1)
    layout = _frame_layout(width, height)
    rng = np.random.default_rng(p.seed)
    img = layout.sky.copy()
    ground = img[layout.g0:]                         # (Hg, W, 3) view of the ground rows

    dist = layout.x - _lane_center(layout.gz, p)[:, None]
    np.abs(dist, out=dist)                           # meters from the lane center
    on_road = dist <= HALF_LANE_M

    if p.style == "grass_edge":
        ground[:, :, 0] = 62.0
        ground[:, :, 1] = 128.0
        ground[:, :, 2] = 58.0
        ground += rng.normal(0.0, 9.0, ground.shape).astype(np.float32)
    elif p.style == "unmarked_with_parked_cars":
        ground[:] = 146.0  # pale shoulder
    else:
        ground[:] = 126.0  # dirt shoulder
    np.copyto(ground, layout.road, where=on_road[:, :, None])

    if p.style == "lane_marked":
        line_w = 0.14
        edge = np.abs(dist - HALF_LANE_M) <= line_w
        dashes = layout.dash_rows & (dist <= 0.09)
        ground[edge | dashes] = 232.0

    if p.style == "unmarked_with_parked_cars":
        _draw_parked_cars(img, p, rng, width, height)

    img += rng.normal(0.0, 2.0, img.shape).astype(np.float32)
    np.rint(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def _draw_parked_cars(img: np.ndarray, p: SceneParams, rng: np.random.Generator,
                      width: int, height: int) -> None:
    """Box-shaped cars along the road edge, nearer ones drawn last (painter's order)."""
    v_h = HORIZON_FRAC * height
    f = FOCAL_FRAC * width
    n_cars = int(rng.integers(3, 7))
    depths = np.sort(rng.uniform(6.0, 42.0, n_cars))[::-1]
    sides = rng.choice([-1.0, 1.0], n_cars, p=[0.35, 0.65])
    shades = rng.uniform(150.0, 215.0, n_cars)
    for z_i, side, shade in zip(depths, sides, shades):
        x_center = float(_lane_center(np.array([z_i]), p)[0] + side * (HALF_LANE_M + 1.1))
        u_c = width / 2.0 + f * x_center / z_i
        v_contact = v_h + f * CAMERA_HEIGHT_M / z_i
        half_w_px = f * 0.95 / z_i
        h_px = f * 1.35 / z_i
        r0 = max(0, int(round(v_contact - h_px)))
        r1 = min(height, int(round(v_contact)) + 1)
        c0 = max(0, int(round(u_c - half_w_px)))
        c1 = min(width, int(round(u_c + half_w_px)) + 1)
        if r1 <= r0 or c1 <= c0:
            continue
        img[r0:r1, c0:c1] = shade
        img[r0:r1, c0:c1, 2] = min(255.0, shade * 0.92)  # slightly warm tint
        if r1 - r0 > 2 and c1 - c0 > 2:  # window band
            wr = r0 + max(1, (r1 - r0) // 4)
            img[r0:wr, c0 + 1 : c1 - 1] = shade * 0.55


# --- lateral viewpoint warp --------------------------------------------------

def lateral_source_columns(height: int, width: int, shift_m) -> np.ndarray:
    """(H, W) int source-column map realizing a lateral camera shift.

    A camera moved shift_m to the right sees ground content displaced left by
    shift_m * (v - v_horizon) / camera_height pixels at image row v (the focal
    length cancels); sky rows stay put. Columns pulled from outside the frame
    clamp to the nearest edge.

    ``shift_m`` may also be an array of shifts, shape S; the maps then come
    back stacked, shape S + (H, W), each the bytes of its scalar call, so
    ``training._augment_batch`` makes one call per batch. A non-finite shift
    raises ``ValueError``.
    """
    shift = np.asarray(shift_m, dtype=np.float64)
    if not np.isfinite(shift).all():
        raise ValueError(f"lateral shift must be finite, got {shift_m!r}")
    v_h = HORIZON_FRAC * height
    v_centers = np.arange(height, dtype=np.float64) + 0.5
    du = np.where(v_centers > v_h, shift[..., None] * (v_centers - v_h) / CAMERA_HEIGHT_M, 0.0)
    k = np.rint(-du).astype(np.int64)  # content shift per row, signed
    cols = np.arange(width, dtype=np.int64)
    src = cols - k[..., None]
    return np.clip(src, 0, width - 1)
