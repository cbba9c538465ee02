"""The (channels, height, width) ``Tensor`` and the numeric kernels the
forward pass and the mask backprojection need.

``Tensor`` is the float32, channel-major type of a network input image and of
each map in an ``ActivationTrace``; masks, class maps and overlays downstream
are plain (H, W) arrays. ``conv2d_nhwc`` is the one convolution kernel, on
(N, H, W, C) batches; ``conv2d`` is the checked entry the forward calls it
through, with the (Co, Kh, Kw, Ci) kernel ``nhwc_kernel`` makes of the flat
weights a ``WeightSet`` stores. ``deconv_upscale`` is the mask's unit-weight
transposed convolution on a single (h, w) map. Operations are pure: they
never mutate their inputs.

``conv2d_nhwc`` builds its im2col window view as an ``np.ndarray`` on the
input's buffer, with strides computed from the shape. ``sliding_window_view``
gives the same view, but its Python wrapper costs about 18 us a call and
``as_strided`` 3-7 us, against 0.4-0.5 us, and a `toy` SGD step of 32
frames makes 80 calls: 16 chunks of 3 forward and 2 backward convs. It adds
the bias into the GEMM output in place, which gives the bytes of ``y + b``
without allocating a second output. Its input is already NHWC: ``network``
makes that copy one channel plane at a time, because a transposing
``np.ascontiguousarray`` into 3-float pixel rows is 3-6x slower.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible; names the offending axis."""


@dataclass(frozen=True)
class Tensor:
    """Immutable (channels, height, width) array of float32.

    Construction copies the input array and scans it for NaN and infinity:
    it is where outside data enters (a read frame, a dataset frame, a test's
    array). Arrays the program builds from checked data are adopted by
    ``_wrap`` instead, so every ``Tensor`` is finite. The wrapped array is
    marked read-only, so slices of ``data`` are safe to hand out and tensors
    can be shared across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float32, copy=True, order="C")
        if arr.ndim != 3:
            raise ShapeError(f"tensor must be rank 3 (channels, height, width), got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all tensor dimensions must be >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor elements must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt a finite float32 C-order array the program made and owns:
        no copy and no scan, only made read-only. The caller vouches that
        it is finite, as a moved copy of a ``Tensor`` is, or a conv map
        ``network.forward`` has checked."""
        t = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(t, "data", arr)
        return t

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def as_int(value, name: str, minimum: int | None = None, error: type[Exception] = ValueError) -> int:
    """The one integer rule for sizes, seeds, shifts and radii: ``value`` as a
    plain ``int``. Integers pass, numpy integers too; a float, a bool, a
    string or a value below ``minimum`` raises ``error`` naming ``name``.
    The plain ``int`` keeps JSON writable and products from wrapping."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ConvGeometry:
    """Kernel/stride/channel description of one convolutional layer."""

    kernel_h: int
    kernel_w: int
    stride_h: int
    stride_w: int
    in_channels: int
    out_channels: int

    def __post_init__(self):
        for name in ("kernel_h", "kernel_w", "stride_h", "stride_w", "in_channels", "out_channels"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"ConvGeometry.{name}", 1, ShapeError))

    def output_hw(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size of a valid (unpadded) convolution on height x width."""
        if height < self.kernel_h:
            raise ShapeError(f"input height {height} smaller than kernel height {self.kernel_h}")
        if width < self.kernel_w:
            raise ShapeError(f"input width {width} smaller than kernel width {self.kernel_w}")
        return (height - self.kernel_h) // self.stride_h + 1, (width - self.kernel_w) // self.stride_w + 1

    def weight_count(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w


def conv2d_nhwc(x: np.ndarray, w4: np.ndarray, b: np.ndarray | None, g: ConvGeometry):
    """Valid strided conv on NHWC (N, H, W, Ci) with (Co, Kh, Kw, Ci) weights;
    ``b`` None adds no bias.

    Returns the NHWC output (N, Ho, Wo, Co) and the im2col matrix
    (N*Ho*Wo, Kh*Kw*Ci). In NHWC one kernel row of a window, Kw*Ci floats,
    is contiguous, so the gather copies Kh runs of that length per window.
    The GEMM runs once per frame, so a frame's output does not depend on the
    batch: one GEMM over all N*Ho*Wo rows would let BLAS block by N.
    """
    x = np.ascontiguousarray(x)  # the window strides below assume C order
    n, h, w, ci = x.shape
    oh, ow = g.output_hw(h, w)
    # strides come from the shape, not x.strides: a contiguous array may keep
    # any stride on a size-1 axis
    item, row = x.itemsize, w * ci * x.itemsize
    win = np.ndarray((n, oh, ow, g.kernel_h, g.kernel_w * ci), x.dtype, x, 0,
                     (h * row, g.stride_h * row, g.stride_w * ci * item, row, item))
    # (N, Ho, Wo, Kh, Kw*Ci), a view of x that is only read
    cols = np.ascontiguousarray(win).reshape(n * oh * ow, -1)
    y = np.matmul(cols.reshape(n, oh * ow, -1), w4.reshape(g.out_channels, -1).T)
    if b is not None:
        y += b  # into the GEMM output: no second output-sized array
    return y.reshape(n, oh, ow, g.out_channels), cols


def nhwc_kernel(weights: np.ndarray, g: ConvGeometry) -> np.ndarray:
    """Flat (Co, Ci, Kh, Kw) conv weights permuted to the (Co, Kh, Kw, Ci) order ``conv2d_nhwc`` takes."""
    w4 = np.asarray(weights, dtype=np.float32).reshape(g.out_channels, g.in_channels, g.kernel_h, g.kernel_w)
    return np.ascontiguousarray(w4.transpose(0, 2, 3, 1))


def conv2d(x: np.ndarray, w4: np.ndarray, geometry: ConvGeometry, bias: np.ndarray):
    """Valid strided convolution of an NHWC batch (N, H, W, Ci) through ``conv2d_nhwc``.

    ``w4`` is the (out_channels, kernel_h, kernel_w, in_channels) kernel
    ``nhwc_kernel`` makes; a flat weight vector raises ``ShapeError``.
    ``bias`` holds one float per output channel. Returns ``conv2d_nhwc``'s
    NHWC output and im2col matrix.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects an (N, H, W, C) batch, got rank {x.ndim}")
    if x.shape[3] != geometry.in_channels:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[3]} channels, geometry expects {geometry.in_channels}"
        )
    w4 = np.asarray(w4, dtype=np.float32)
    want = (geometry.out_channels, geometry.kernel_h, geometry.kernel_w, geometry.in_channels)
    if w4.shape != want:
        raise ShapeError(f"kernel shape {w4.shape} != expected (Co, Kh, Kw, Ci) {want}")
    b = np.asarray(bias, dtype=np.float32)
    if b.size != geometry.out_channels:
        raise ShapeError(f"bias length {b.size} != out_channels {geometry.out_channels}")
    # bench/layers.py labels spans by geometry position: args[2] here, args[3] in conv2d_nhwc, so pass it positionally
    return conv2d_nhwc(x, w4, b, geometry)


def deconv_upscale(m: np.ndarray, geometry: ConvGeometry, target_h: int, target_w: int) -> np.ndarray:
    """Upscale an (h, w) map to (target_h, target_w) with a unit-weight, zero-bias transposed convolution.

    Each input value is spread over the kernel_h x kernel_w footprint its
    position would have covered in the forward convolution, and overlapping
    footprints sum. The natural output size is (h-1)*stride + kernel; the
    requested target may exceed it by at most stride-1 per axis (the forward
    floor division loses that much), and the excess rows/columns stay zero.
    """
    if m.ndim != 2:
        raise ShapeError(f"deconv_upscale expects an (h, w) map, got shape {m.shape}")
    h, w = m.shape
    nat_h = (h - 1) * geometry.stride_h + geometry.kernel_h
    nat_w = (w - 1) * geometry.stride_w + geometry.kernel_w
    if not 0 <= target_h - nat_h < geometry.stride_h:
        raise ShapeError(
            f"target height {target_h} unreachable from natural height {nat_h} with stride {geometry.stride_h}"
        )
    if not 0 <= target_w - nat_w < geometry.stride_w:
        raise ShapeError(
            f"target width {target_w} unreachable from natural width {nat_w} with stride {geometry.stride_w}"
        )
    out = np.zeros((target_h, target_w), dtype=np.float32)
    sh, sw = geometry.stride_h, geometry.stride_w
    span_h = (h - 1) * sh + 1
    span_w = (w - 1) * sw + 1
    for ki in range(geometry.kernel_h):
        for kj in range(geometry.kernel_w):
            out[ki : ki + span_h : sh, kj : kj + span_w : sw] += m
    return out
