"""Forward pass with activation tracing, and the training-grade backward pass.

One layer loop, ``_run_batch``, runs every forward: it takes (N, C, H, W)
batches, checks and scales them with ``normalize_input``, runs each conv
through ``tensor.conv2d`` and the FC layers through ``_fc_head``. Conv
activations stay NHWC, (N, H, W, C) in C order, so a conv's GEMM output
(N*Ho*Wo, Co) already is the next layer's input and its gradient needs no
transpose. The last conv map is flattened in (C, H, W) order for the FC
weights.

* ``forward`` runs one image as a batch of one and returns, with the
  prediction, the post-activation map of every conv layer as a (C, H, W)
  tensor; this trace is what the mask backprojection consumes.
* ``forward_batch``, ``backward`` and the SGD loop run micro-batches of
  ``MICRO_BATCH`` frames, so a chunk's im2col matrices and activations stay
  near the L2 cache. The loss and the parameter gradients are summed over
  the chunks with the whole batch's ``2/N`` scale. The input gradient of a
  strided conv is scattered by stride phase: the kernel taps that land on
  one phase (row % stride_h, col % stride_w) of the input grid add their
  GEMMs into contiguous slices of a dense accumulator, and each phase is
  copied into the strided gradient once.

Every result is a deterministic function of (config, weights, input). The
conv kernel runs one GEMM and the FC head one matrix-vector product per
frame, so a frame's conv maps and prediction are bit-identical in a batch of
any size, at any chunk position. See README "Determinism".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .config import ConfigError, LayerSpec, NetworkConfig
from .tensor import ConvGeometry, ShapeError, Tensor, nhwc_kernel
from .tensor import conv2d_nhwc as _conv_forward_batch  # noqa: F401  bench/layers.py hooks this name
from .weights import WeightSet

NORMALIZATION_SCALE = 127.5  # x / 127.5 - 1 maps [0, 255] onto [-1, 1]


class InputRangeError(ValueError):
    """Raised when an image fed to the normalization layer leaves [0, 255]."""


class NonFiniteOutputError(ArithmeticError):
    """Raised when a forward pass produces NaN or infinity."""


@dataclass(frozen=True)
class SteeringOutput:
    """Network output: inverse turning radius, 1/meters. Positive steers right."""

    inverse_turning_radius: float

    def __post_init__(self):
        if not np.isfinite(self.inverse_turning_radius):
            raise NonFiniteOutputError("steering output is not finite")


@dataclass(frozen=True)
class ActivationTrace:
    """Post-activation (C, H, W) map of every conv layer of one forward pass,
    as (layer index, map) pairs in network order."""

    conv_entries: tuple[tuple[int, Tensor], ...]


def normalize_input(x: np.ndarray) -> np.ndarray:
    """Hard-coded input normalization: x / 127.5 - 1. Never trained."""
    lo, hi = float(x.min()), float(x.max())
    if not (lo >= 0.0 and hi <= 255.0):  # also true for NaN
        raise InputRangeError(f"image values must lie in [0, 255], got [{lo}, {hi}]")
    return x / np.float32(NORMALIZATION_SCALE) - np.float32(1.0)


def _check_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray) -> None:
    """Entry checks of ``forward`` (a batch of one), ``forward_batch`` and the loss."""
    if weights.config != cfg:
        raise ConfigError("weight set was built for a different config")
    if x.ndim != 4 or x.shape[1:] != cfg.input_shape:
        raise ShapeError(f"batch shape {x.shape} incompatible with config input {cfg.input_shape}")
    # with a normalization layer, normalize_input's range check rejects NaN and inf
    if cfg.layers[0].kind != "normalization" and not np.isfinite(x).all():
        raise ValueError("batch elements must be finite")


def forward(cfg: NetworkConfig, weights: WeightSet, image: Tensor) -> tuple[SteeringOutput, ActivationTrace]:
    """Run one image through the network; returns the steering value and the trace."""
    x = image.data[np.newaxis]
    _check_batch(cfg, weights, x)
    pred, cache = _run_batch(cfg, weights, x, want_cache=True)
    # a conv entry ends with the layer's post-activation NHWC output
    maps = tuple((e[1], Tensor._wrap(np.ascontiguousarray(e[-1][0].transpose(2, 0, 1))))
                 for e in cache if e[0] == "conv")
    return SteeringOutput(float(pred[0])), ActivationTrace(maps)


def _fc_head(cfg: NetworkConfig, weights: WeightSet, a: np.ndarray, start: int, cache: list | None = None):
    """Run the FC layers ``cfg.layers[start:]`` on (N, D) rows, one matrix-vector
    product per row so that no row depends on the others (an (N, D) GEMM lets
    BLAS block by N). Appends each layer's input rows and ReLU mask to ``cache`` if given."""
    for i in range(start, len(cfg.layers)):
        w2 = weights.weight(i).reshape(cfg.layers[i].units, -1)
        z = (a[:, np.newaxis] @ w2.T)[:, 0] + weights.bias(i)
        mask = _activate(z, cfg.layers[i])
        if cache is not None:
            cache.append(("fc", i, a, mask))
        a = z
    return a


def _activate(z: np.ndarray, layer: LayerSpec) -> np.ndarray | None:
    """Apply ``layer``'s activation to ``z`` in place; returns its ReLU mask, or None."""
    if layer.activation != "relu":
        return None
    mask = z > 0
    np.maximum(z, np.float32(0.0), out=z)
    return mask


MICRO_BATCH = 4  # frames per forward/backward chunk; chosen by a sweep over {1, 2, 4, 8, 16}


def _conv_input_grad(dyr: np.ndarray, w4: np.ndarray, g: ConvGeometry, n: int, in_hw, out_hw) -> np.ndarray:
    """Scatter the (N*Ho*Wo, Co) output gradient back onto the NHWC input grid.

    Output pixel (i, j) of tap (ki, kj) lands on input pixel
    (i*sh + ki, j*sw + kj), which lies on the stride phase (ki % sh, kj % sw)
    at phase-grid offset (ki // sh, kj // sw). So each phase gathers its taps'
    (Co, Ci) GEMMs in a dense accumulator, one contiguous slice per tap, and
    is copied into its strided view of ``dx`` once. Phase-grid rows and
    columns past the accumulator (and phases no tap reaches, when the kernel
    is smaller than the stride) get no gradient.
    """
    h, w = in_hw
    oh, ow = out_hw
    sh, sw = g.stride_h, g.stride_w
    dx = np.empty((n, h, w, g.in_channels), dtype=np.float32)
    for ph in range(sh):
        for pw in range(sw):
            grid = dx[:, ph::sh, pw::sw]
            taps_h, taps_w = range(ph, g.kernel_h, sh), range(pw, g.kernel_w, sw)
            if not taps_h or not taps_w:
                grid[...] = 0.0
                continue
            acc_h, acc_w = oh + len(taps_h) - 1, ow + len(taps_w) - 1
            acc = np.zeros((n, acc_h, acc_w, g.in_channels), dtype=np.float32)
            for a, ki in enumerate(taps_h):
                for c, kj in enumerate(taps_w):
                    acc[:, a : a + oh, c : c + ow] += (dyr @ w4[:, ki, kj]).reshape(n, oh, ow, g.in_channels)
            grid[:, :acc_h, :acc_w] = acc
            grid[:, acc_h:] = 0.0
            grid[:, :acc_h, acc_w:] = 0.0
    return dx


def _run_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, want_cache: bool):
    """Forward one micro-batch, (N, C, H, W) float32; optionally keep what backward
    needs, with each conv layer's post-activation NHWC output.

    Conv activations are NHWC. A batch whose memory already is NHWC, such as
    the view ``training._to_yuv_batch`` returns, enters without a copy, so it
    must not be written to.
    """
    a = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float32)
    cache: list[tuple] | None = [] if want_cache else None
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            a = normalize_input(a)
        elif layer.kind == "conv":
            z, cols = tc.conv2d(a, weights.weight(i), layer.geometry, weights.bias(i))
            mask = _activate(z, layer)
            if cache is not None:
                cache.append(("conv", i, cols, mask, a.shape[1:3], z))
            a = z
        else:
            break
    # the FC weights read the last map in (C, H, W) order
    a = _fc_head(cfg, weights, a.transpose(0, 3, 1, 2).reshape(a.shape[0], -1), i, cache)
    return a.reshape(-1), cache


def forward_batch(cfg: NetworkConfig, weights: WeightSet, images: np.ndarray) -> np.ndarray:
    """Steering predictions for a stack of images, (N, C, H, W) -> (N,).

    An empty stack gives an empty (0,) result.
    """
    x = np.asarray(images, dtype=np.float32)
    _check_batch(cfg, weights, x)
    preds = np.empty(x.shape[0], dtype=np.float32)
    for lo in range(0, x.shape[0], MICRO_BATCH):
        chunk, _ = _run_batch(cfg, weights, x[lo : lo + MICRO_BATCH], want_cache=False)
        preds[lo : lo + MICRO_BATCH] = chunk
    return preds


def _loss_and_grads_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, targets: np.ndarray):
    """Mean squared error over the batch and its gradient for every parameter.

    Returns (loss, grads) with grads a dict layer index -> (dW flat, db). The
    normalization layer has no parameters and receives none. The batch runs
    in micro-batches of ``MICRO_BATCH`` frames whose gradients are summed.
    """
    _check_batch(cfg, weights, x)
    n = x.shape[0]
    if n == 0:
        raise ShapeError("cannot compute a loss over an empty batch")
    if np.shape(targets) != (n,):
        raise ShapeError(f"targets shape {np.shape(targets)} does not match a batch of {n}")
    scale = np.float32(2.0 / n)
    sq_sum = 0.0
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for lo in range(0, n, MICRO_BATCH):
        # the chunk body is called directly, so a wrapper on this function's
        # module attribute sees one call per batch
        chunk_sq, chunk_grads = _chunk_loss_and_grads(
            cfg, weights, x[lo : lo + MICRO_BATCH], targets[lo : lo + MICRO_BATCH], scale)
        sq_sum += chunk_sq
        if not grads:
            grads = chunk_grads
            continue
        for i, (dw, db) in chunk_grads.items():
            gw, gb = grads[i]
            gw += dw
            gb += db
    return sq_sum / n, grads


def _chunk_loss_and_grads(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, targets: np.ndarray,
                          scale: np.float32):
    """One micro-batch of ``_loss_and_grads_batch``: the sum of its squared
    errors and its parameter gradients, with ``scale`` (2 / whole-batch N)
    as the loss gradient per unit of prediction error."""
    n = x.shape[0]
    preds, cache = _run_batch(cfg, weights, x, want_cache=True)
    diff = preds - targets.astype(np.float32)
    sq = float(np.sum(diff.astype(np.float64) ** 2))

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    upstream = (scale * diff).reshape(n, 1)  # d loss / d last-layer output
    for k in range(len(cache) - 1, -1, -1):
        entry = cache[k]
        if entry[0] == "fc":
            _, i, a_in, mask = entry
            layer = cfg.layers[i]
            if mask is not None:
                upstream = np.where(mask, upstream, np.float32(0.0))
            dw = upstream.T @ a_in  # (units, D)
            db = upstream.sum(axis=0)
            grads[i] = (dw.reshape(-1).astype(np.float32), db.astype(np.float32))
            w2 = weights.weight(i).reshape(layer.units, -1)
            upstream = upstream @ w2  # (N, D)
            if k > 0 and cache[k - 1][0] == "conv":  # (C, H, W) flatten order back to NHWC
                z = cache[k - 1][-1]
                upstream = upstream.reshape(z.transpose(0, 3, 1, 2).shape).transpose(0, 2, 3, 1)
        elif entry[0] == "conv":
            _, i, cols, mask, in_hw, z = entry
            g = cfg.layers[i].geometry
            if mask is not None:
                upstream = np.where(mask, upstream, np.float32(0.0))
            dyr = upstream.reshape(-1, g.out_channels)  # NHWC rows: (N*Ho*Wo, Co)
            dw = (dyr.T @ cols).reshape(g.out_channels, g.kernel_h, g.kernel_w, g.in_channels)
            db = dyr.sum(axis=0)
            grads[i] = (dw.transpose(0, 3, 1, 2).reshape(-1).astype(np.float32), db.astype(np.float32))
            if k > 0:  # the first layer's input (the image) needs no gradient
                upstream = _conv_input_grad(dyr, nhwc_kernel(weights.weight(i), g), g, n, in_hw, z.shape[1:3])
    return sq, grads


def backward(cfg: NetworkConfig, weights: WeightSet, image: Tensor, target: float):
    """Squared-error loss for one image and its gradient as a WeightSet.

    loss = (prediction - target)^2; the normalization layer gets no gradient.
    Returns (gradients, loss).
    """
    loss, grads = _loss_and_grads_batch(cfg, weights, image.data[np.newaxis], np.asarray([target]))
    return WeightSet(cfg, grads), loss
