"""Causal check of the salience mask: move what it highlights, watch the wheel.

The input image is split into Class 1 (mask above threshold, then dilated by a
square structuring element to absorb receptive-field growth) and Class 2 (the
complement). Each class — or the whole frame — is translated horizontally over
a range of pixel offsets, the network is re-run on every perturbed frame, and
an ordinary least-squares line is fitted per series. If the mask really marks
what steers the car, the Class 1 slope should carry most of the full-frame
slope and Class 2 should be comparatively flat.

The class maps are read-only (H, W) bool arrays; the frames that get shifted
and scored stay (C, H, W) ``Tensor``s, the network's input type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .config import NetworkConfig
from .saliency import VisualizationMask
from .tensor import ShapeError, Tensor
from .weights import WeightSet

DEFAULT_THRESHOLD = 0.2
DEFAULT_DILATION_RADIUS = 30  # tuned for 200-px-wide input
DEFAULT_SHIFTS = tuple(range(-40, 41, 4))

MODES = ("class1", "class2", "all")


def scaled_dilation_radius(width: int, base_radius: int = DEFAULT_DILATION_RADIUS, base_width: int = 200) -> int:
    """Dilation radius proportional to image width (30 px is calibrated for 200)."""
    return int(round(base_radius * width / base_width))


@dataclass(frozen=True)
class ClassSegmentation:
    """Class 1 = salient pixels (thresholded mask, dilated); Class 2 = the rest."""

    class1: np.ndarray  # read-only (H, W) bool
    threshold: float
    dilation_radius: int

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.dilation_radius < 0:
            raise ValueError(f"dilation radius must be >= 0, got {self.dilation_radius}")
        _check_bool_map(self.class1, "class mask")
        class1 = self.class1.copy()
        class1.flags.writeable = False
        object.__setattr__(self, "class1", class1)

    @property
    def class2(self) -> np.ndarray:
        """The complement mask: every pixel not in Class 1."""
        return ~self.class1

    @property
    def class1_fraction(self) -> float:
        """Share of the frame's pixels in Class 1, in [0, 1]."""
        return np.count_nonzero(self.class1) / self.class1.size


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
    fit_class1: LineFit
    fit_class2: LineFit
    fit_all: LineFit
    class1_fraction: float  # share of the frame's pixels in Class 1

    def series(self, mode: str) -> tuple[float, ...]:
        return {"class1": self.steer_class1, "class2": self.steer_class2, "all": self.steer_all}[mode]

    def fit(self, mode: str) -> LineFit:
        return {"class1": self.fit_class1, "class2": self.fit_class2, "all": self.fit_all}[mode]


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
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(m, pad, mode="constant", constant_values=False)
    win = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=axis)
    return win.any(axis=-1)


def dilate(binary: np.ndarray, radius: int) -> np.ndarray:
    """Square (Chebyshev-ball) binary dilation with a (2r+1)x(2r+1) window.

    Takes and returns an (H, W) bool map. Separable: a horizontal 1-D
    dilation followed by a vertical one is exactly the square-window dilation.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    _check_bool_map(binary, "dilate's input")
    if radius == 0:
        return binary
    return _dilate_axis(_dilate_axis(binary, radius, axis=1), radius, axis=0)


def segment(mask: VisualizationMask, t: float = DEFAULT_THRESHOLD,
            radius: int = DEFAULT_DILATION_RADIUS) -> ClassSegmentation:
    """Threshold the mask, dilate the result, package both classes."""
    return ClassSegmentation(dilate(threshold_mask(mask, t), radius), t, radius)


def shift_class(image: Tensor, seg: ClassSegmentation, which: str, dx: int) -> Tensor:
    """Translate one pixel class (or the whole frame) horizontally by dx.

    Class shifts composite the moved pixels over the untouched frame: vacated
    positions keep the original pixel values and pixels pushed past the border
    are dropped. A full-frame shift replicates the edge column into the gap.
    """
    if which not in MODES:
        raise ValueError(f"which must be one of {MODES}, got {which!r}")
    h, w = image.height, image.width
    if seg.class1.shape != (h, w):
        raise ShapeError(f"segmentation size {seg.class1.shape} != image size {(h, w)}")
    if abs(dx) >= w:
        raise ValueError(f"|dx| must be smaller than the image width {w}, got {dx}")

    img = image.data
    if dx == 0:
        return Tensor._wrap(img.copy())

    out = img.copy()
    if which == "all":
        if dx > 0:
            out[:, :, dx:] = img[:, :, : w - dx]
            out[:, :, :dx] = img[:, :, :1]
        else:
            out[:, :, : w + dx] = img[:, :, -dx:]
            out[:, :, w + dx :] = img[:, :, -1:]
        return Tensor._wrap(out)

    region = seg.class1 if which == "class1" else seg.class2
    if dx > 0:
        dest, src = slice(dx, w), slice(0, w - dx)
    else:
        dest, src = slice(0, w + dx), slice(-dx, w)
    moved = region[:, src][np.newaxis]  # broadcast over channels
    out[:, :, dest] = np.where(moved, img[:, :, src], out[:, :, dest])
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
                         seg: ClassSegmentation, shifts=DEFAULT_SHIFTS) -> ShiftExperimentResult:
    """Evaluate steering for every (shift, mode) pair and fit a line per mode.

    Rows come out in ascending shift order. The unperturbed frame runs through
    the per-frame ``network.forward``, the call ``explain`` makes, so the dx=0
    row of every series equals the explain prediction bit for bit. The shifted
    frames of each mode are stacked and scored by one ``network.forward_batch``,
    which is batch-invariant, so those rows equal per-frame forwards too. Raises
    ``NonFiniteOutputError`` if any prediction is NaN or infinite.
    """
    shift_list = sorted(set(int(s) for s in shifts))
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
            stack[k] = shift_class(image, seg, mode, dx).data
        preds = network.forward_batch(cfg, weights, stack)
        bad = np.flatnonzero(~np.isfinite(preds))
        if bad.size:
            raise network.NonFiniteOutputError(f"steering output is not finite for the {mode} shift dx={moved[bad[0]]}")
        series = preds.tolist()
        series.insert(i0, unshifted.inverse_turning_radius)
        by_mode[mode] = series

    xs = np.asarray(shift_list, dtype=np.float64)
    fits = {mode: fit_line(xs, np.asarray(by_mode[mode])) for mode in MODES}
    return ShiftExperimentResult(
        shifts=tuple(shift_list),
        steer_class1=tuple(by_mode["class1"]),
        steer_class2=tuple(by_mode["class2"]),
        steer_all=tuple(by_mode["all"]),
        fit_class1=fits["class1"],
        fit_class2=fits["class2"],
        fit_all=fits["all"],
        class1_fraction=seg.class1_fraction,
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
        "series": {
            mode: {
                "slope": result.fit(mode).slope,
                "intercept": result.fit(mode).intercept,
                "r_squared": result.fit(mode).r_squared,
            }
            for mode in MODES
        },
    }
