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
  the chunks with the whole batch's ``2/N`` scale. The input gradient of a
  strided conv is scattered by stride phase: the kernel taps that land on
  one phase (row % stride_h, col % stride_w) of the input grid add their
  GEMMs into contiguous slices of a dense accumulator, and each phase is
  copied into the strided gradient once.
* The backward multiplies each ReLU mask into the upstream gradient in place
  (an inactive unit passes 0 x upstream), and sums a bias gradient with
  ``sum(axis=0)``. A matrix-vector ``ones @ dyr`` sum ran about 10x faster
  on a 2-frame `toy` chunk, but it changed the gradient bits, so it is not
  used.
* ``forward_batch`` and the loss run their chunks ``CHUNK_THREADS`` at a
  time: the calling thread runs the first chunk of each round and a module
  pool the rest, and a round's results are combined in chunk order before
  the next round starts. ``CHUNK_THREADS`` is the CPU count over the BLAS
  thread count (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else one
  BLAS thread per CPU), read once at import. So with BLAS pinned to one
  thread a 2-CPU machine runs two chunks at once; with BLAS unpinned the
  chunks run serially on the caller and no pool thread starts. With the
  pool on, importing this module makes glibc keep later threads in its
  main malloc arena (``_share_malloc_arena``).

Every result is a deterministic function of (config, weights, input). The
conv kernel runs one GEMM and the FC head one matrix-vector product per
frame, so a frame's conv maps and prediction are bit-identical in a batch of
any size, at any chunk position. Chunks are reduced in the same order at any
``CHUNK_THREADS``, so every output is bit-identical at any chunk-thread
count. See README "Determinism".
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
    maps = tuple((i, Tensor._wrap(np.ascontiguousarray(out[0].transpose(2, 0, 1)))) for i, out in conv_outputs)
    return SteeringOutput(float(pred[0])), ActivationTrace(maps)


# Frames per forward/backward chunk. At 2 chunk threads, 2 keeps 4 frames in
# flight, as serial 4-frame chunks did, and with them the peak memory: 4-frame
# chunks on 2 threads read 99.4-99.7 MB peak RSS on the bench's `gen_eval` and
# `explain_shift` against about 91 MB serially, near its 10% bound. The serial
# path (BLAS unpinned) pays for it: batch-64 `default` forward_batch and the
# `toy` batch-32 loss and gradients each ran about 10% slower than with
# 4-frame chunks.
MICRO_BATCH = 2


def _chunk_threads() -> int:
    """CPUs over BLAS threads: the chunks that can run at once without
    oversubscribing the CPUs. BLAS threads are the first positive integer in
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``; with neither set,
    OpenBLAS runs one thread per CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cpus // blas)


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


CHUNK_THREADS = _chunk_threads()
# threads start on the first submit, so at CHUNK_THREADS = 1 none ever does
_POOL = ThreadPoolExecutor(max_workers=max(1, CHUNK_THREADS - 1), thread_name_prefix="visback-chunk")
if CHUNK_THREADS > 1:
    _share_malloc_arena()


def _chunk_round(run_chunk, starts) -> list:
    """``run_chunk(lo)`` for each chunk start in ``starts``, the first on the
    calling thread and the rest on the pool, as a list in chunk order.

    Every chunk of the round has finished before this returns or raises, so
    none still reads the weights once the caller moves on. A failure raises
    the first failed chunk's error, as the serial loop would. Pool chunks
    run in a copy of the caller's context, so the caller's ``np.errstate``
    holds in them too.
    """
    futures = [_POOL.submit(contextvars.copy_context().run, run_chunk, lo) for lo in starts[1:]]
    try:
        results = [run_chunk(starts[0])]
    finally:
        wait_all(futures)
    return results + [f.result() for f in futures]


def _chunk_results(run_chunk, n: int):
    """Yield ``(lo, run_chunk(lo))`` for the chunk starts 0, MICRO_BATCH, ...
    below ``n``, in chunk order, running ``CHUNK_THREADS`` chunks at a time.
    A round ends before the next begins, so at most ``CHUNK_THREADS``
    chunks' records and results are alive at once."""
    starts = range(0, n, MICRO_BATCH)
    for r in range(0, len(starts), CHUNK_THREADS):
        batch = starts[r : r + CHUNK_THREADS]
        yield from zip(batch, _chunk_round(run_chunk, batch))


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
            dw = upstream.T @ a_in  # (units, D)
            db = upstream.sum(axis=0)
            grads[i] = (dw.reshape(-1).astype(np.float32), db.astype(np.float32))
            upstream = upstream @ weights.weight(i).reshape(layer.units, -1)  # (N, D)
            continue
        g = layer.geometry
        dyr = upstream.reshape(-1, g.out_channels)  # NHWC rows: (N*Ho*Wo, Co)
        dw = (dyr.T @ cols).reshape(g.out_channels, g.kernel_h, g.kernel_w, g.in_channels)
        db = dyr.sum(axis=0)
        grads[i] = (dw.transpose(0, 3, 1, 2).reshape(-1).astype(np.float32), db.astype(np.float32))
        if k > 0:  # the first layer's input (the image) needs no gradient
            upstream = _conv_input_grad(dyr, nhwc_kernel(weights.weight(i), g), g, n,
                                        a_in.shape[1:3], out.shape[1:3])
    return sq, grads
