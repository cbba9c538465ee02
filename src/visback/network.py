"""Forward pass with activation tracing, and the training-grade backward pass.

Two execution paths share the layer semantics:

* ``forward`` runs one image through the tensor-core kernels and records the
  post-activation feature maps of every conv layer (plus the normalized
  input); this trace is what the mask backprojection consumes.
* A batched array path (``_run_batch`` / ``_loss_and_grads_batch``) powers
  ``forward_batch``, ``backward`` and the SGD loop, trading object overhead
  for GEMM throughput. It takes (N, C, H, W) batches like ``forward`` but
  runs its conv activations in NHWC layout, (N, H, W, C) in C order: each
  im2col row then gathers contiguous runs of Kw*C floats, a conv's GEMM
  output (N*Ho*Wo, Co) already is the next layer's NHWC input, and its
  gradient needs no transpose. Conv weights keep their (Co, Ci, Kh, Kw)
  storage order and are permuted to (Co, Kh, Kw, Ci) per call, and their
  gradients back. The last conv map is flattened in (C, H, W) order, so
  FC weights read the same features on both paths.

  The batched path is cache-blocked: ``forward_batch`` and
  ``_loss_and_grads_batch`` run forward and backward over micro-batches of
  ``MICRO_BATCH`` frames, so a chunk's im2col matrices and activations stay
  near the L2 cache instead of streaming a whole batch's worth (tens of MB
  for the 66x200 configs at batch 32) through L3 and DRAM. The loss and the
  parameter gradients are summed over the chunks with the whole batch's
  ``2/N`` scale. The input gradient of a strided conv is scattered by stride
  phase: the kernel taps that land on one phase (row % stride_h,
  col % stride_w) of the input grid add their GEMMs into contiguous slices of
  a dense accumulator, and each phase is copied into the strided gradient
  once.

Both are deterministic functions of (config, weights, input). The batched
path sums in another order than ``forward``, so its predictions agree with
the per-frame ones to float32 rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .config import ConfigError, NetworkConfig
from .tensor import ConvGeometry, ShapeError, Tensor
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
    """Post-activation record of one forward pass.

    ``entries[0]`` is the input after normalization (layer index -1 when the
    config has no normalization layer); the remaining entries are the conv
    layers' post-activation maps in network order.
    """

    entries: tuple[tuple[int, Tensor], ...]

    @property
    def normalized_input(self) -> Tensor:
        return self.entries[0][1]

    @property
    def conv_entries(self) -> tuple[tuple[int, Tensor], ...]:
        return self.entries[1:]


def normalize_input(image: Tensor) -> Tensor:
    """Hard-coded input normalization: x / 127.5 - 1. Never trained."""
    lo, hi = float(image.data.min()), float(image.data.max())
    if lo < 0.0 or hi > 255.0:
        raise InputRangeError(f"image values must lie in [0, 255], got [{lo}, {hi}]")
    return Tensor._wrap(image.data / np.float32(NORMALIZATION_SCALE) - np.float32(1.0))


def _apply_activation(t: Tensor, activation: str) -> Tensor:
    return tc.relu(t) if activation == "relu" else t


def forward(cfg: NetworkConfig, weights: WeightSet, image: Tensor) -> tuple[SteeringOutput, ActivationTrace]:
    """Run one image through the network; returns the steering value and the trace."""
    if weights.config != cfg:
        raise ConfigError("weight set was built for a different config")
    if image.shape != cfg.input_shape:
        raise ShapeError(f"image shape {image.shape} != config input shape {cfg.input_shape}")

    entries: list[tuple[int, Tensor]] = []
    current: Tensor | np.ndarray = image
    flattened = False
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            current = normalize_input(current)
            entries.append((i, current))
        elif layer.kind == "conv":
            out = tc.conv2d(current, weights.weight(i), layer.geometry, weights.bias(i))
            current = _apply_activation(out, layer.activation)
            entries.append((i, current))
        else:
            if not flattened:
                current = current.data.reshape(-1) if isinstance(current, Tensor) else current
                flattened = True
            w2 = weights.weight(i).reshape(layer.units, -1)
            out = tc.fully_connected(current, w2, weights.bias(i))
            current = np.maximum(out, np.float32(0.0)) if layer.activation == "relu" else out

    if not entries or cfg.layers[0].kind != "normalization":
        entries.insert(0, (-1, image))
    pred = float(np.asarray(current).reshape(-1)[0])
    return SteeringOutput(pred), ActivationTrace(tuple(entries))


# --- batched array path ----------------------------------------------------

MICRO_BATCH = 4  # frames per forward/backward chunk; chosen by a sweep over {1, 2, 4, 8, 16}


def _conv_forward_batch(x: np.ndarray, w4: np.ndarray, b: np.ndarray, g: ConvGeometry):
    """Valid strided conv on NHWC (N, H, W, Ci) with (Co, Kh, Kw, Ci) weights.

    Returns the NHWC output (N, Ho, Wo, Co) and the im2col matrix
    (N*Ho*Wo, Kh*Kw*Ci). In NHWC one kernel row of a window, Kw*Ci floats,
    is contiguous, so the gather copies Kh runs of that length per window.
    """
    x = np.ascontiguousarray(x)  # keeps the reshape below a view
    n, h, w, ci = x.shape
    oh, ow = g.output_hw(h, w)
    win = np.lib.stride_tricks.sliding_window_view(
        x.reshape(n, h, w * ci), (g.kernel_h, g.kernel_w * ci), axis=(1, 2)
    )[:, :: g.stride_h, :: g.stride_w * ci]  # (N, Ho, Wo, Kh, Kw*Ci)
    cols = np.ascontiguousarray(win).reshape(n * oh * ow, -1)
    y = cols @ w4.reshape(g.out_channels, -1).T + b
    return y.reshape(n, oh, ow, g.out_channels), cols


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


def _check_batch_shape(cfg: NetworkConfig, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1:] != cfg.input_shape:
        raise ShapeError(f"batch shape {x.shape} incompatible with config input {cfg.input_shape}")


def _run_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, want_cache: bool):
    """Forward one micro-batch, (N, C, H, W) float32; optionally keep what backward needs.

    Conv activations are NHWC. A batch whose memory already is NHWC, such as
    the view ``training._to_yuv_batch`` returns, enters without a copy, so it
    must not be written to.
    """
    a = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float32)
    cache: list[tuple] = []
    flattened = False
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            lo, hi = float(a.min()), float(a.max())
            if lo < 0.0 or hi > 255.0:
                raise InputRangeError(f"image values must lie in [0, 255], got [{lo}, {hi}]")
            a = a / np.float32(NORMALIZATION_SCALE) - np.float32(1.0)
            cache.append(("normalization",))
        elif layer.kind == "conv":
            g = layer.geometry
            in_hw = a.shape[1:3]
            w4 = weights.weight(i).reshape(g.out_channels, g.in_channels, g.kernel_h, g.kernel_w)
            w4 = np.ascontiguousarray(w4.transpose(0, 2, 3, 1))  # (Co, Kh, Kw, Ci)
            z, cols = _conv_forward_batch(a, w4, weights.bias(i), g)
            mask = None
            if layer.activation == "relu":
                mask = z > 0
                np.maximum(z, np.float32(0.0), out=z)
            cache.append(("conv", i, cols if want_cache else None, mask, in_hw, z.shape[1:3], w4))
            a = z
        else:
            if not flattened:  # the FC weights read the last conv map in (C, H, W) order
                a = a.transpose(0, 3, 1, 2).reshape(a.shape[0], -1)
                flattened = True
            w2 = weights.weight(i).reshape(layer.units, -1)
            z = a @ w2.T + weights.bias(i)
            mask = None
            if layer.activation == "relu":
                mask = z > 0
                np.maximum(z, np.float32(0.0), out=z)
            cache.append(("fc", i, a if want_cache else None, mask))
            a = z
    preds = a.reshape(-1).astype(np.float32)
    return preds, cache if want_cache else None


def forward_batch(cfg: NetworkConfig, weights: WeightSet, images: np.ndarray) -> np.ndarray:
    """Steering predictions for a stack of images, (N, C, H, W) -> (N,).

    An empty stack gives an empty (0,) result.
    """
    if weights.config != cfg:
        raise ConfigError("weight set was built for a different config")
    x = np.asarray(images, dtype=np.float32)
    _check_batch_shape(cfg, x)
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
    _check_batch_shape(cfg, x)
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
    conv_positions = [k for k, c in enumerate(cache) if c[0] == "conv"]
    first_conv = conv_positions[0] if conv_positions else None

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
                _, below, _, _, _, (oh, ow), _ = cache[k - 1]
                co = cfg.layers[below].geometry.out_channels
                upstream = upstream.reshape(n, co, oh, ow).transpose(0, 2, 3, 1)
        elif entry[0] == "conv":
            _, i, cols, mask, in_hw, out_hw, w4 = entry
            g = cfg.layers[i].geometry
            if mask is not None:
                upstream = np.where(mask, upstream, np.float32(0.0))
            dyr = upstream.reshape(-1, g.out_channels)  # NHWC rows: (N*Ho*Wo, Co)
            dw = (dyr.T @ cols).reshape(g.out_channels, g.kernel_h, g.kernel_w, g.in_channels)
            db = dyr.sum(axis=0)
            grads[i] = (dw.transpose(0, 3, 1, 2).reshape(-1).astype(np.float32), db.astype(np.float32))
            if k != first_conv:
                upstream = _conv_input_grad(dyr, w4, g, n, in_hw, out_hw)
        else:  # normalization: fixed, no parameters, nothing below it
            break
    return sq, grads


def backward(cfg: NetworkConfig, weights: WeightSet, image: Tensor, target: float):
    """Squared-error loss for one image and its gradient as a WeightSet.

    loss = (prediction - target)^2; the normalization layer gets no gradient.
    Returns (gradients, loss).
    """
    if weights.config != cfg:
        raise ConfigError("weight set was built for a different config")
    if image.shape != cfg.input_shape:
        raise ShapeError(f"image shape {image.shape} != config input shape {cfg.input_shape}")
    loss, grads = _loss_and_grads_batch(cfg, weights, image.data[np.newaxis], np.asarray([target]))
    return WeightSet(cfg, grads), loss
