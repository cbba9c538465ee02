"""Salient-region mask built by backprojecting averaged feature maps.

The idea: regions that stay bright through *every* conv layer are the ones the
network actually used. Starting from the deepest layer, the channel-averaged
map is repeatedly upscaled to the resolution one layer below (unit-weight
transposed convolution with that layer's own kernel and stride) and multiplied
pointwise with the averaged map at that level. A final upscale through the
first conv layer's geometry lands on input resolution; min-max normalization
makes it a displayable [0, 1] mask. The input image itself never enters the
product.

The trace's conv maps arrive as (C, h, w) ``Tensor``s; from the channel mean
on, every level, the mask and the overlay are plain numpy arrays.
``compute_mask`` returns the mask with its levels as a tuple of (h, w) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig, validate_config
from .network import ActivationTrace
from .tensor import ShapeError, deconv_upscale


class TraceMismatchError(ValueError):
    """Raised when an activation trace does not belong to the given config."""


@dataclass(frozen=True)
class VisualizationMask:
    """[0, 1] mask at input resolution, held as a read-only (H, W) float32 array."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float32, copy=True, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"mask must be a non-empty (H, W) array, got shape {arr.shape}")
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
            raise ValueError(f"mask values must be finite and lie in [0, 1], got [{lo}, {hi}]")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def normalize_01(a: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1] by (x - min) / (max - min); a constant array maps to all zeros."""
    lo, hi = a.min(), a.max()
    if hi == lo:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def compute_mask(trace: ActivationTrace, cfg: NetworkConfig) -> tuple[VisualizationMask, tuple[np.ndarray, ...]]:
    """Backproject a forward trace into an input-resolution salience mask.

    Walking top-down through the conv stack: average each level's channels,
    upscale the running mask through each layer's own geometry (unit weights,
    zero bias), multiply with the averaged map below, and finally upscale the
    bottom intermediate mask to input size and min-max normalize. The raw
    input never multiplies into the chain.

    Returns the mask and its levels: one (h, w) float32 array per conv layer,
    bottom (first conv) to top (deepest). The top level is that layer's
    averaged map itself; each lower one is upscale(level above) * averaged(level),
    so the level sizes are the conv feature-map sizes.
    """
    shapes = validate_config(cfg)
    conv_indices = cfg.conv_indices()
    if not conv_indices:
        raise TraceMismatchError("config has no conv layers to backproject")

    entries = trace.conv_entries
    if [i for i, _ in entries] != conv_indices:
        raise TraceMismatchError(
            f"trace conv layers {[i for i, _ in entries]} != config conv layers {conv_indices}"
        )
    for i, t in entries:
        if t.shape != shapes[i].output_shape:
            raise TraceMismatchError(
                f"conv layer {i} activation shape {t.shape} != expected {shapes[i].output_shape}"
            )

    # float64 accumulation so the result is independent of channel count quirks
    averaged = [t.data.mean(axis=0, dtype=np.float64).astype(np.float32) for _, t in entries]

    combined = averaged[:]
    for j in range(len(averaged) - 2, -1, -1):
        geom = cfg.layers[conv_indices[j + 1]].geometry
        combined[j] = deconv_upscale(combined[j + 1], geom, *averaged[j].shape) * averaged[j]

    first_geom = cfg.layers[conv_indices[0]].geometry
    projection = deconv_upscale(combined[0], first_geom, cfg.input_height, cfg.input_width)
    return VisualizationMask(normalize_01(projection)), tuple(combined)


def overlay(rgb: np.ndarray, mask: VisualizationMask, gain: float = 255.0) -> np.ndarray:
    """Highlight masked pixels by adding gain * mask to the green plane.

    Takes and returns an (H, W, 3) uint8 frame; red and blue pass through
    untouched and the boosted green plane is rounded and clamped to [0, 255].
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ShapeError(f"overlay expects an (H, W, 3) uint8 frame, got {rgb.shape} {rgb.dtype}")
    if rgb.shape[:2] != mask.data.shape:
        raise ShapeError(f"image size {rgb.shape[:2]} != mask size {mask.data.shape}")
    if not np.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    green = rgb[:, :, 1] + np.float32(gain) * mask.data
    out = rgb.copy()
    out[:, :, 1] = np.clip(np.rint(green), 0, 255).astype(np.uint8)
    return out


def mask_to_gray(mask: VisualizationMask) -> np.ndarray:
    """Quantize a [0, 1] mask to (H, W) uint8 for image export."""
    return np.clip(np.rint(mask.data * np.float32(255.0)), 0, 255).astype(np.uint8)
