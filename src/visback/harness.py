"""Causal check of the salience mask: move what it highlights, watch the wheel.

The input image is split into Class 1 (mask above threshold, then dilated by a
square structuring element to absorb receptive-field growth) and Class 2 (the
complement). Each class — or the whole frame — is translated horizontally over
a range of pixel offsets, the network is re-run on every perturbed frame, and
an ordinary least-squares line is fitted per series. If the mask really marks
what steers the car, the Class 1 slope should carry most of the full-frame
slope and Class 2 should be comparatively flat.

The Class-1 map is a plain (H, W) bool array, so any map — the segmented
mask or a control with no threshold and no radius — can be shifted; Class 2 is
its complement. The frames that get shifted and scored stay (C, H, W)
``Tensor``s, the network's input type.

The study runs this per frame many times, so its two array passes avoid
work that does not change the bytes: the dilation counts True pixels with
cumulative sums, O(H*W) at any radius, instead of scanning a (2r+1)-wide
window (about 5x faster at r = 30 on 66 x 200), and a class shift
composites in place with ``np.copyto(..., where=...)`` instead of building
an ``np.where`` temporary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import network
from .config import NetworkConfig
from .saliency import VisualizationMask
from .tensor import ShapeError, Tensor, as_int
from .weights import WeightSet

DEFAULT_THRESHOLD = 0.2
DILATION_BASE_WIDTH = 200  # input width the default radius was tuned for
DEFAULT_DILATION_RADIUS = 30
DEFAULT_SHIFTS = tuple(range(-40, 41, 4))

MODES = ("class1", "class2", "all")


def scaled_dilation_radius(width: int) -> int:
    """The default dilation radius scaled to an image ``width`` px wide."""
    return round(DEFAULT_DILATION_RADIUS * width / DILATION_BASE_WIDTH)


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ShiftExperimentResult:
    """Steering response per shift for the three perturbation modes, plus fits."""

    shifts: tuple[int, ...]
    steer_class1: tuple[float, ...]
    steer_class2: tuple[float, ...]
    steer_all: tuple[float, ...]
    fits: tuple[LineFit, ...]  # one least-squares line per mode, in MODES order
    class1_fraction: float  # share of the frame's pixels in Class 1

    def fit(self, mode: str) -> LineFit:
        return self.fits[MODES.index(mode)]


def _check_bool_map(m: np.ndarray, what: str) -> None:
    if m.ndim != 2:
        raise ShapeError(f"{what} must be an (H, W) array, got shape {m.shape}")
    if m.dtype != np.bool_:
        raise ValueError(f"{what} must be a bool array, got {m.dtype}")


def threshold_mask(mask: VisualizationMask, t: float) -> np.ndarray:
    """(H, W) bool map: True where the mask value is strictly above t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {t}")
    return mask.data > np.float32(t)


def _dilate_axis(m: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """1-D dilation of a bool map along ``axis``: a pixel is set when the
    count of True pixels in its window [k - radius, k + radius], clipped to
    the map, is above zero. One int32 cumulative count per line gives every
    window's count as a difference of two entries, so the cost is O(H*W)
    whatever the radius.
    """
    n = m.shape[axis]
    shape = list(m.shape)
    shape[axis] = n + 1
    counts = np.zeros(shape, dtype=np.int32)  # counts[..., k]: True pixels before k
    np.cumsum(m, axis=axis, dtype=np.int32, out=counts[(slice(None),) * axis + (slice(1, None),)])
    k = np.arange(n)
    above = np.take(counts, np.minimum(k + radius + 1, n), axis=axis)
    below = np.take(counts, np.maximum(k - radius, 0), axis=axis)
    return above > below


def dilate(binary: np.ndarray, radius: int) -> np.ndarray:
    """Square (Chebyshev-ball) binary dilation with a (2r+1)x(2r+1) window.

    Takes an (H, W) bool map and returns a new one, at r = 0 too. Separable:
    a horizontal 1-D dilation followed by a vertical one is exactly the
    square-window dilation. Each pass counts True pixels with a cumulative
    sum instead of scanning a (2r+1)-wide window view, so r = 30 on a
    66 x 200 map costs what r = 1 does. A radius of max(H, W) already
    spreads any True pixel over the whole map, so larger radii are clamped
    to it. ``radius`` goes through ``as_int`` with minimum 0.
    """
    radius = as_int(radius, "radius", 0)
    _check_bool_map(binary, "dilate's input")
    radius = min(radius, max(binary.shape))
    return _dilate_axis(_dilate_axis(binary, radius, axis=1), radius, axis=0)


_SCALED_RADIUS = object()  # segment's default radius; None stays a refused radius


def segment(mask: VisualizationMask, t: float = DEFAULT_THRESHOLD, radius: int = _SCALED_RADIUS) -> np.ndarray:
    """The Class-1 map: the mask thresholded at t, then dilated by radius,
    by default ``scaled_dilation_radius(mask.width)``.

    Returns a read-only (H, W) bool array; Class 2 is its complement.
    """
    radius = scaled_dilation_radius(mask.width) if radius is _SCALED_RADIUS else radius
    class1 = dilate(threshold_mask(mask, t), radius)
    class1.flags.writeable = False
    return class1


def _check_class_map(class1: np.ndarray, image: Tensor) -> None:
    _check_bool_map(class1, "class map")
    if class1.shape != (image.height, image.width):
        raise ShapeError(f"class map size {class1.shape} != image size {(image.height, image.width)}")


def shift_class(image: Tensor, class1: np.ndarray, which: str, dx: int) -> Tensor:
    """Translate one pixel class (or the whole frame) horizontally by dx.

    ``class1`` is the (H, W) bool Class-1 map; Class 2 is ``~class1``. Class
    shifts composite the moved pixels over the untouched frame: vacated
    positions keep the original pixel values and pixels pushed past the border
    are dropped. A full-frame shift replicates the edge column into the gap.
    ``dx`` goes through ``as_int``; at dx = 0 both branches copy the frame.

    A class shift copies the frame once and writes the moved pixels over it
    with ``np.copyto(..., where=moved)``; a full-frame shift writes every
    column, so it starts from an uninitialized array. Neither builds an
    ``np.where`` temporary.
    """
    if which not in MODES:
        raise ValueError(f"which must be one of {MODES}, got {which!r}")
    dx = as_int(dx, "dx")
    _check_class_map(class1, image)
    w = image.width
    if abs(dx) >= w:
        raise ValueError(f"|dx| must be smaller than the image width {w}, got {dx}")

    img = image.data
    if which == "all":
        out = np.empty_like(img)
        if dx > 0:
            out[:, :, dx:] = img[:, :, : w - dx]
            out[:, :, :dx] = img[:, :, :1]
        else:
            out[:, :, : w + dx] = img[:, :, -dx:]
            out[:, :, w + dx :] = img[:, :, -1:]
        return Tensor._wrap(out)

    out = img.copy()
    region = class1 if which == "class1" else ~class1
    if dx > 0:
        dest, src = slice(dx, w), slice(0, w - dx)
    else:
        dest, src = slice(0, w + dx), slice(-dx, w)
    np.copyto(out[:, :, dest], img[:, :, src], where=region[:, src])  # the mask broadcasts over channels
    return Tensor._wrap(out)


def fit_line(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Least-squares line through (x, y); degenerate inputs fit exactly.

    With fewer than two distinct x values the slope is 0 and the intercept is
    the mean. R^2 is 1 - ss_res/ss_tot, defined as 1.0 when ss_tot == 0 (a
    constant series is fitted perfectly by its own mean).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("fit_line needs two equal-length non-empty 1-D arrays")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        slope = 0.0
        intercept = float(ym)
    else:
        slope = float(((x - xm) * (y - ym)).sum() / sxx)
        intercept = float(ym - slope * xm)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LineFit(slope, intercept, r2)


def run_shift_experiment(cfg: NetworkConfig, weights: WeightSet, image: Tensor,
                         class1: np.ndarray, shifts=DEFAULT_SHIFTS) -> ShiftExperimentResult:
    """Evaluate steering for every (shift, mode) pair of the Class-1 map and
    fit a line per mode.

    Rows come out in ascending shift order. The unperturbed frame runs through
    the per-frame ``network.forward``, the call ``explain`` makes, so the dx=0
    row of every series equals the explain prediction bit for bit. The shifted
    frames of each mode are stacked and scored by one ``network.forward_batch``,
    which is batch-invariant, so those rows equal per-frame forwards too. Raises
    ``NonFiniteOutputError`` if any prediction is NaN or infinite, and
    ``ValueError`` for a shift that ``as_int`` refuses.
    """
    try:
        shift_list = sorted({as_int(s, "shift") for s in shifts})
    except ValueError as exc:
        raise ValueError(f"shifts must be integers: {exc}") from None
    _check_class_map(class1, image)
    if 0 not in shift_list:
        raise ValueError("the shift list must include 0 (the unperturbed frame)")
    moved = [dx for dx in shift_list if dx != 0]
    i0 = shift_list.index(0)

    unshifted, _ = network.forward(cfg, weights, image)
    by_mode = {}
    for mode in MODES:
        # one mode at a time keeps a single stack of shifted frames alive
        stack = np.empty((len(moved),) + image.shape, dtype=np.float32)
        for k, dx in enumerate(moved):
            stack[k] = shift_class(image, class1, mode, dx).data
        preds = network.forward_batch(cfg, weights, stack)
        bad = np.flatnonzero(~np.isfinite(preds))
        if bad.size:
            raise network.NonFiniteOutputError(f"steering output is not finite for the {mode} shift dx={moved[bad[0]]}")
        series = preds.tolist()
        series.insert(i0, unshifted.inverse_turning_radius)
        by_mode[mode] = series

    xs = np.asarray(shift_list, dtype=np.float64)
    return ShiftExperimentResult(
        shifts=tuple(shift_list),
        steer_class1=tuple(by_mode["class1"]),
        steer_class2=tuple(by_mode["class2"]),
        steer_all=tuple(by_mode["all"]),
        fits=tuple(fit_line(xs, np.asarray(by_mode[mode])) for mode in MODES),
        class1_fraction=np.count_nonzero(class1) / class1.size,
    )


CSV_HEADER = "shift_px,steer_class1,steer_class2,steer_all"


def result_to_csv(result: ShiftExperimentResult) -> str:
    """Render the per-shift table; floats carry 6 significant digits."""
    lines = [CSV_HEADER]
    for i, dx in enumerate(result.shifts):
        lines.append(
            f"{dx},{result.steer_class1[i]:.6g},{result.steer_class2[i]:.6g},{result.steer_all[i]:.6g}"
        )
    return "\n".join(lines) + "\n"


def result_summary(result: ShiftExperimentResult) -> dict:
    """JSON-ready digest: the fitted line per series and the Class-1 area.

    ``degenerate_segmentation`` is true when Class 1 is empty or covers the
    whole frame (an all-zero mask, e.g. from a net whose ReLUs are all dead,
    leaves it empty); then one shifted class is the frame or nothing, and its
    slope says nothing about the mask.
    """
    return {
        "class1_fraction": result.class1_fraction,
        "degenerate_segmentation": result.class1_fraction in (0.0, 1.0),
        "n_shifts": len(result.shifts),
        "shift_min": min(result.shifts),
        "shift_max": max(result.shifts),
        "series": {mode: asdict(result.fit(mode)) for mode in MODES},
    }
