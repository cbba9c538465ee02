"""Forward pass with activation tracing, and the training-grade backward pass.

One layer loop, ``_run_batch``, runs every forward: it takes (N, C, H, W)
batches, checks and scales them with ``normalize_input``, runs each conv
through ``tensor.conv2d`` and each FC layer as one matrix-vector product per
frame. Conv activations stay NHWC, (N, H, W, C) in C order, so a conv's GEMM
output (N*Ho*Wo, Co) already is the next layer's input and its gradient needs
no transpose. The last conv map is flattened in (C, H, W) order for the FC
weights. When asked, the loop keeps one record per conv and FC layer:
(layer index, input, post-activation output, im2col matrix or None). The
backward reads everything else off those records: the ReLU mask is
``output > 0`` and the conv input size is the input's shape.

A (N, C, H, W) batch moves to NHWC one channel plane at a time
(``a[..., c] = x[:, c]``). ``np.ascontiguousarray`` of the transposed view
makes the same bytes, but it walks the 3-float pixel rows of the NHWC
destination one at a time: 100-220 us for a 2-frame 66 x 200 chunk,
against 30-40 us for three plane copies. The way back, NHWC conv maps to
(C, H, W) trace maps, stays one transpose copy: there the destination rows
are long, and per-plane copies of 12-64 channels took 1.3-40x as long.

* ``forward`` runs one image as a batch of one and returns, with the
  prediction, the post-activation map of every conv layer as a (C, H, W)
  tensor; this trace is what the mask backprojection consumes. The loop
  keeps only those conv outputs, not the full records, so its memory peak
  is ``forward_batch``'s plus the maps.
* ``forward_batch`` and the SGD loss run micro-batches of
  ``MICRO_BATCH`` frames, so a chunk's im2col matrices and activations stay
  near the L2 cache. The loss and the parameter gradients are summed over
  the chunks with the whole batch's ``2/N`` scale. A conv's input gradient
  is one more ``conv2d_nhwc`` (see ``_conv_input_grad``), so every conv,
  forward or backward, runs through the one im2col kernel.
* The backward multiplies each ReLU mask into the upstream gradient in place
  (an inactive unit passes 0 x upstream), and sums a bias gradient with
  ``einsum("ij->j")``: the bytes of ``sum(axis=0)``, about 3x faster.
  ``ones @ dyr`` ran about 10x faster, but it changed the gradient bits.
* ``forward_batch`` and the loss run their chunks ``CHUNK_THREADS`` at a
  time: the calling thread runs the first chunk of each round and a module
  pool the rest, and a round's results are combined in chunk order before
  the next round starts. Importing this module pins numpy's OpenBLAS to one
  thread, process-wide (``_pin_blas``), and ``CHUNK_THREADS`` is the CPU
  count, or 1 where no setter is found (MKL, Accelerate); no environment
  variable is read. The pool shares glibc's main arena (``_share_malloc_arena``).

Every result is a deterministic function of (config, weights, input). The
conv kernel runs one GEMM and the FC head one matrix-vector product per
frame, so a frame's conv maps and prediction are bit-identical in a batch of
any size, at any chunk position. Chunks are reduced in the same order at any
``CHUNK_THREADS``, so every output is bit-identical at any chunk-thread
count and, with BLAS pinned, at any BLAS setting. See README "Determinism".
"""

from __future__ import annotations

import contextvars
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_all
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .config import ConfigError, NetworkConfig
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
    y = x / np.float32(NORMALIZATION_SCALE)
    y -= np.float32(1.0)  # in place: one temporary, the same bytes
    return y


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
    pred, conv_outputs = _run_batch(cfg, weights, x, "conv_outputs")
    try:
        maps = tuple((i, Tensor._wrap(np.ascontiguousarray(out[0].transpose(2, 0, 1)))) for i, out in conv_outputs)
    except ValueError:  # _wrap's finiteness check: an overflow is a numeric failure, not a bad input
        bad = next(i for i, out in conv_outputs if not np.isfinite(out).all())
        raise NonFiniteOutputError(f"conv layer {bad} output is not finite") from None
    return SteeringOutput(float(pred[0])), ActivationTrace(maps)


# Frames per forward/backward chunk. At 2 chunk threads, 2 keeps 4 frames in
# flight, as serial 4-frame chunks did, and with them the peak memory: 4-frame
# chunks on 2 threads read 99.4-99.7 MB peak RSS on the bench's `gen_eval` and
# `explain_shift` against about 91 MB serially, near its 10% bound.
MICRO_BATCH = 2

# OpenBLAS's process-wide thread setters: numpy's bundled build, then a system one
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas() -> bool:
    """Set numpy's OpenBLAS to one thread, process-wide; False where no setter
    is found. dlsym on numpy's extension module also searches the libraries it
    links, so this finds the OpenBLAS numpy loads privately. One call, not a
    set-and-restore per BLAS call: on numpy's bundled build even the "local"
    setter is process-wide, so a restore would race between chunk threads."""
    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    setter = next((getattr(blas, name) for name in _BLAS_SETTERS if hasattr(blas, name)), None)
    if setter is not None:
        setter(ctypes.c_int(1))
    return setter is not None


def _chunk_threads(blas_pinned: bool) -> int:
    """One chunk thread per CPU when BLAS runs one thread, else 1."""
    if not blas_pinned:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_M_ARENA_MAX = -8  # mallopt parameter number, from glibc's malloc.h


def _share_malloc_arena() -> None:
    """Have threads started from now on allocate from glibc's main malloc arena.

    glibc gives each allocating thread an arena of its own, and an arena
    keeps the heap its peak working set freed while that stays below the
    trim threshold. A pool thread's arena held about 7 MB of free heap after
    batch-64 `default` evals, which raised the bench's peak RSS by up to
    10%. In one arena the pool thread reuses memory the caller freed. Where
    the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle on the C library, or no mallopt in it
        return
    mallopt(ctypes.c_int(_M_ARENA_MAX), ctypes.c_int(1))


BLAS_PINNED = _pin_blas()
CHUNK_THREADS = _chunk_threads(BLAS_PINNED)
# threads start on the first submit, so at CHUNK_THREADS = 1 none ever does
_POOL = ThreadPoolExecutor(max_workers=max(1, CHUNK_THREADS - 1), thread_name_prefix="visback-chunk")
if CHUNK_THREADS > 1:
    _share_malloc_arena()


def _chunk_results(run_chunk, n: int):
    """Yield ``(lo, run_chunk(lo))`` for the chunk starts 0, MICRO_BATCH, ...
    below ``n``, in chunk order, ``CHUNK_THREADS`` chunks a round: the
    round's first chunk on the calling thread, the rest on the pool.

    Every chunk of a round has finished before the round yields or raises,
    so at most ``CHUNK_THREADS`` chunks' records and results are alive at
    once, and no chunk still reads the weights once the caller moves on.
    A failure raises the first failed chunk's error, as the serial loop
    would. Pool chunks run in a copy of the caller's context, so the
    caller's ``np.errstate`` holds in them too.
    """
    starts = range(0, n, MICRO_BATCH)
    for r in range(0, len(starts), CHUNK_THREADS):
        batch = starts[r : r + CHUNK_THREADS]
        futures = [_POOL.submit(contextvars.copy_context().run, run_chunk, lo) for lo in batch[1:]]
        try:
            results = [run_chunk(batch[0])]
        finally:
            wait_all(futures)
        yield from zip(batch, results + [f.result() for f in futures])


def _conv_input_grad(dyr: np.ndarray, w4: np.ndarray, g: ConvGeometry, n: int, in_hw, out_hw) -> np.ndarray:
    """The NHWC input gradient of a conv from its (N*Ho*Wo, Co) output
    gradient and (Co, Kh, Kw, Ci) kernel, as one stride-1 ``conv2d_nhwc``.

    Input pixel (P*sh + ph, Q*sw + pw) gets tap (a*sh + ph, c*sw + pw) of
    output pixel (P - a, Q - c). So a valid (A, C) conv, A = ceil(Kh/sh) and
    C = ceil(Kw/sw), of the output gradient zero-padded by A-1 rows and C-1
    columns a side, with the kernel flipped and packed by phase (zero taps
    past Kh or Kw), gives each stride phase (ph, pw) as Ci of its sh*sw*Ci
    output channels. The phases are interleaved into the input grid; input
    rows and columns no tap reaches stay zero. These few large numpy calls
    replace a GEMM and a strided add per tap: each call retakes the GIL, and
    the many small ones serialised the chunk threads.
    """
    (h, w), (oh, ow) = in_hw, out_hw
    sh, sw, ci, co = g.stride_h, g.stride_w, g.in_channels, g.out_channels
    a, c = -(-g.kernel_h // sh), -(-g.kernel_w // sw)
    wp = np.zeros((co, a, sh, c, sw, ci), dtype=np.float32)
    wp.reshape(co, a * sh, c * sw, ci)[:, : g.kernel_h, : g.kernel_w] = w4
    # laid out (A, C, Co, phases) so conv2d_nhwc's GEMM operand is a C-order view
    packed = np.ascontiguousarray(wp[:, ::-1, :, ::-1].transpose(1, 3, 0, 2, 4, 5))
    kernel = packed.reshape(a, c, co, sh * sw * ci).transpose(3, 0, 1, 2)
    dyp = np.zeros((n, oh + 2 * (a - 1), ow + 2 * (c - 1), co), dtype=np.float32)
    dyp[:, a - 1 : a - 1 + oh, c - 1 : c - 1 + ow] = dyr.reshape(n, oh, ow, co)
    phases, _ = tc.conv2d_nhwc(dyp, kernel, np.float32(0.0), ConvGeometry(a, c, 1, 1, co, sh * sw * ci))
    gh, gw = oh + a - 1, ow + c - 1
    grid = phases.reshape(n, gh, gw, sh, sw, ci).transpose(0, 1, 3, 2, 4, 5).reshape(n, gh * sh, gw * sw, ci)
    if gh * sh >= h and gw * sw >= w:
        return np.ascontiguousarray(grid[:, :h, :w])
    dx = np.zeros((n, h, w, ci), dtype=np.float32)
    dx[:, : gh * sh, : gw * sw] = grid[:, :h, :w]
    return dx


def _to_nhwc(x: np.ndarray) -> np.ndarray:
    """The (N, C, H, W) batch ``x`` as a C-order float32 NHWC array.

    A batch whose NHWC view already is C-contiguous float32, such as the one
    ``training._to_yuv_batch`` returns, comes back as that view, with no
    copy. Any other batch is copied one channel plane at a time (see the
    module docstring).
    """
    a = x.transpose(0, 2, 3, 1)
    if a.dtype == np.float32 and a.flags.c_contiguous:
        return a
    nhwc = np.empty(a.shape, dtype=np.float32)
    for c in range(x.shape[1]):
        nhwc[..., c] = x[:, c]
    return nhwc


def _run_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, keep: str | None):
    """Forward one micro-batch, (N, C, H, W); returns the (N,) predictions
    and what ``keep`` asks the loop to hold on to: nothing for None; for
    ``"conv_outputs"`` the (layer index, NHWC post-activation output) of each
    conv layer; for ``"records"`` one record per conv and FC layer:
    (layer index, input, post-activation output, im2col matrix or None).

    Conv activations are NHWC. A batch whose memory already is NHWC enters
    without a copy, so it must not be written to. An FC layer runs one
    matrix-vector product per row, so that no row depends on the others (an
    (N, D) GEMM lets BLAS block by N).
    """
    a = _to_nhwc(x)
    kept: list[tuple] | None = [] if keep else None
    for i, layer in enumerate(cfg.layers):
        if layer.kind == "normalization":
            a = normalize_input(a)
            continue
        if layer.kind == "conv":
            out, cols = tc.conv2d(a, weights.weight(i), layer.geometry, weights.bias(i))
        else:
            if a.ndim == 4:  # the FC weights read the last map in (C, H, W) order
                a = a.transpose(0, 3, 1, 2).reshape(a.shape[0], -1)
            w2 = weights.weight(i).reshape(layer.units, -1)
            out, cols = (a[:, np.newaxis] @ w2.T)[:, 0] + weights.bias(i), None
        if layer.activation == "relu":
            np.maximum(out, np.float32(0.0), out=out)
        if keep == "records":
            kept.append((i, a, out, cols))
        elif keep == "conv_outputs" and layer.kind == "conv":
            kept.append((i, out))
        a = out
    return a.reshape(-1), kept


def forward_batch(cfg: NetworkConfig, weights: WeightSet, images: np.ndarray) -> np.ndarray:
    """Steering predictions for a stack of images, (N, C, H, W) -> (N,).

    An empty stack gives an empty (0,) result.
    """
    x = np.asarray(images, dtype=np.float32)
    _check_batch(cfg, weights, x)
    preds = np.empty(x.shape[0], dtype=np.float32)

    def run_chunk(lo):
        return _run_batch(cfg, weights, x[lo : lo + MICRO_BATCH], None)[0]

    for lo, chunk in _chunk_results(run_chunk, x.shape[0]):
        preds[lo : lo + MICRO_BATCH] = chunk
    return preds


def _loss_and_grads_batch(cfg: NetworkConfig, weights: WeightSet, x: np.ndarray, targets: np.ndarray):
    """Mean squared error over the batch and its gradient for every parameter.

    Returns (loss, grads) with grads a dict layer index -> (dW flat, db). The
    normalization layer has no parameters and receives none. The batch runs
    in micro-batches of ``MICRO_BATCH`` frames whose gradients are summed
    in chunk order.
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

    def run_chunk(lo):
        # the chunk body is called directly, so a wrapper on this function's
        # module attribute sees one call per batch
        return _chunk_loss_and_grads(cfg, weights, x[lo : lo + MICRO_BATCH], targets[lo : lo + MICRO_BATCH], scale)

    for _, (chunk_sq, chunk_grads) in _chunk_results(run_chunk, n):
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
    preds, records = _run_batch(cfg, weights, x, "records")
    diff = preds - targets.astype(np.float32)
    sq = float(np.sum(diff.astype(np.float64) ** 2))

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    upstream = (scale * diff).reshape(n, 1)  # d loss / d last-layer output
    for k in range(len(records) - 1, -1, -1):
        i, a_in, out, cols = records[k]
        layer = cfg.layers[i]
        if upstream.ndim < out.ndim:  # from the FC head: (C, H, W) flatten order back to NHWC
            upstream = upstream.reshape(out.transpose(0, 3, 1, 2).shape).transpose(0, 2, 3, 1)
        if layer.activation == "relu":
            # max(z, 0) > 0 exactly where z > 0, NaN included; an inactive unit
            # passes 0 x upstream, exactly 0 for a finite upstream. In place:
            # upstream is always a fresh array this loop owns
            np.multiply(upstream, out > 0, out=upstream)
        if cols is None:
            grads[i] = ((upstream.T @ a_in).reshape(-1), np.einsum("ij->j", upstream))  # dW: (units, D)
            upstream = upstream @ weights.weight(i).reshape(layer.units, -1)  # (N, D)
            continue
        g = layer.geometry
        dyr = upstream.reshape(-1, g.out_channels)  # NHWC rows: (N*Ho*Wo, Co)
        dw = (dyr.T @ cols).reshape(g.out_channels, g.kernel_h, g.kernel_w, g.in_channels)
        grads[i] = (dw.transpose(0, 3, 1, 2).reshape(-1), np.einsum("ij->j", dyr))
        if k > 0:  # the first layer's input (the image) needs no gradient
            upstream = _conv_input_grad(dyr, nhwc_kernel(weights.weight(i), g), g, n,
                                        a_in.shape[1:3], out.shape[1:3])
    return sq, grads
