"""Numeric kernels: the Tensor container, convolution, deconvolution
upscaling, and the mask's channel averaging and min-max normalization (which
live in ``saliency`` and run on plain arrays). Frozen hand examples plus
loop-oracle and property checks."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import channel_mean_loops, conv2d_loops, deconv_loops, normalize01_loops
from visback.config import NetworkConfig, conv_layer, fc_layer
from visback.network import ActivationTrace
from visback.saliency import compute_mask, normalize_01
from visback.tensor import ConvGeometry, ShapeError, Tensor, as_int, conv2d, conv2d_nhwc, deconv_upscale, nhwc_kernel


def zeros(*shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


def nhwc_zeros(c, h, w):
    """One all-zero frame as the (1, H, W, C) batch ``conv2d`` takes."""
    return np.zeros((1, h, w, c), dtype=np.float32)


def conv_chw(x, weights, g, bias):
    """``conv2d`` on one (C, H, W) array and flat (Co, Ci, Kh, Kw) weights,
    returning its (Co, Ho, Wo) output."""
    y, _ = conv2d(x.transpose(1, 2, 0)[np.newaxis], nhwc_kernel(weights, g), g, bias)
    return y[0].transpose(2, 0, 1)


def geom(k, s, cin=1, cout=1):
    return ConvGeometry(kernel_h=k, kernel_w=k, stride_h=s, stride_w=s,
                        in_channels=cin, out_channels=cout)


# --- the integer rule --------------------------------------------------------

@pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3), np.uint16(3)])
def test_as_int_returns_a_plain_int(value):
    got = as_int(value, "n", minimum=3)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("value, minimum, message", [
    (2.0, None, "n must be an integer, got 2.0"),
    (True, None, "n must be an integer, got True"),
    ("2", None, "n must be an integer, got '2'"),
    (None, 0, "n must be an integer >= 0, got None"),
    (np.int8(-1), 0, "n must be an integer >= 0, got np.int8(-1)"),
])
def test_as_int_refuses_with_the_callers_error(value, minimum, message):
    with pytest.raises(ShapeError) as info:
        as_int(value, "n", minimum, ShapeError)
    assert str(info.value) == message


def test_conv_geometry_stores_plain_ints():
    # np.int8 fields would wrap the weight count's product to 0
    g = ConvGeometry(*(np.int8(100),) * 6)
    assert g.weight_count() == 10**8
    assert all(type(getattr(g, f.name)) is int for f in fields(g))


# --- Tensor container ------------------------------------------------------

def test_tensor_requires_rank3():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor(np.array([[[np.nan]]], dtype=np.float32))
    with pytest.raises(ValueError):
        Tensor(np.array([[[np.inf]]], dtype=np.float32))


def test_tensor_is_immutable_and_copies_input():
    src = np.ones((1, 2, 2), dtype=np.float32)
    t = Tensor(src)
    src[0, 0, 0] = 99.0
    assert t.data[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 5.0


def test_tensor_shape_accessors():
    t = zeros(2, 3, 4)
    assert (t.data.shape[0], t.height, t.width) == (2, 3, 4)
    assert t.shape == (2, 3, 4)


# --- convolution -----------------------------------------------------------

def test_conv_one_by_one():
    # 1x1 input, 1x1 kernel: plain scalar product 2 * 3 = 6
    x = np.array([[[[2.0]]]], dtype=np.float32)
    out, cols = conv2d(x, nhwc_kernel(np.array([3.0]), geom(1, 1)), geom(1, 1), np.array([0.0]))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == pytest.approx(6.0)
    assert cols.shape == (1, 1)


def test_conv_bias_added_per_channel():
    g = geom(3, 1, cin=1, cout=2)
    out, _ = conv2d(nhwc_zeros(1, 3, 3), nhwc_kernel(np.zeros(g.weight_count()), g), g, np.array([1.5, -2.0]))
    assert out[0, 0, 0, 0] == pytest.approx(1.5)
    assert out[0, 0, 0, 1] == pytest.approx(-2.0)


def test_conv_output_hw_floor_division():
    # 31x98 -> k5 s2 -> 14x47 (floor chain used throughout the architecture)
    assert geom(5, 2).output_hw(31, 98) == (14, 47)
    assert geom(5, 2).output_hw(66, 200) == (31, 98)
    assert geom(3, 1).output_hw(5, 22) == (3, 20)


def test_conv_kernel_larger_than_input_raises():
    with pytest.raises(ShapeError):
        geom(5, 1).output_hw(4, 10)
    with pytest.raises(ShapeError):
        conv2d(nhwc_zeros(1, 4, 4), np.ones((1, 5, 5, 1)), geom(5, 1), np.zeros(1))


def test_conv_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        conv2d(nhwc_zeros(2, 4, 4), np.ones((1, 3, 3, 1)), geom(3, 1, cin=1), np.zeros(1))


def test_conv_rejects_non_batch_rank():
    # a single (H, W, C) frame or a 5-d array is not an NHWC batch
    for shape in ((4, 4, 1), (1, 1, 4, 4, 1)):
        with pytest.raises(ShapeError):
            conv2d(np.zeros(shape, dtype=np.float32), np.ones((1, 3, 3, 1)), geom(3, 1), np.zeros(1))


def test_conv_weight_and_bias_length_checked():
    with pytest.raises(ShapeError):
        conv2d(nhwc_zeros(1, 4, 4), np.ones((1, 2, 4, 1)), geom(3, 1), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(nhwc_zeros(1, 4, 4), np.ones((1, 3, 3, 1)), geom(3, 1), np.zeros(2))
    # a flat weight vector of the right length is refused, not read as a kernel
    with pytest.raises(ShapeError, match="kernel shape"):
        conv2d(nhwc_zeros(1, 4, 4), np.ones(9), geom(3, 1), np.zeros(1))
    g = geom(3, 1, cin=2, cout=2)  # the (Co, Ci, Kh, Kw) layout, unpermuted, has the right size too
    with pytest.raises(ShapeError, match="kernel shape"):
        conv2d(nhwc_zeros(2, 4, 4), np.ones((2, 2, 3, 3)), g, np.zeros(2))


@given(st.data())
@settings(max_examples=40)
def test_conv_matches_loop_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    h = int(rng.integers(k, k + 6))
    w = int(rng.integers(k, k + 6))
    g = ConvGeometry(kernel_h=k, kernel_w=k, stride_h=s, stride_w=s,
                     in_channels=cin, out_channels=cout)
    x = rng.standard_normal((cin, h, w)).astype(np.float32)
    wts = rng.standard_normal(g.weight_count()).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)

    got = conv_chw(x, wts, g, b)
    want = conv2d_loops(x.astype(np.float64), wts.reshape(cout, cin, k, k).astype(np.float64),
                        b.astype(np.float64), s, s)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def _window_rows(x, g):
    """im2col rows of an NHWC batch from ``sliding_window_view``: one row per
    output pixel, its window laid out (Kh, Kw, Ci)."""
    win = np.lib.stride_tricks.sliding_window_view(x, (g.kernel_h, g.kernel_w), axis=(1, 2))
    win = win[:, :: g.stride_h, :: g.stride_w]  # (N, Ho, Wo, Ci, Kh, Kw)
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, g.kernel_h * g.kernel_w * g.in_channels)


WINDOW_CASES = ("random", "one_output_row", "one_channel", "stride_past_kernel", "strided_input")


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_conv_window_rows_equal_sliding_window_view(case):
    """``conv2d_nhwc`` builds its window as an ndarray on the input's buffer;
    its im2col rows equal those ``sliding_window_view`` gives, bit for bit,
    on seeded random geometries and on the edge cases."""
    rng = np.random.default_rng(WINDOW_CASES.index(case))
    for _ in range(8):
        kh, kw = (int(v) for v in rng.integers(1, 5, 2))
        sh, sw = (int(v) for v in rng.integers(1, 4, 2))
        n, ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        h, w = kh + int(rng.integers(0, 7)), kw + int(rng.integers(0, 7))
        if case == "one_output_row":
            h = kh
        elif case == "one_channel":
            ci = 1
        elif case == "stride_past_kernel":
            sh, sw = kh + int(rng.integers(1, 3)), kw + int(rng.integers(1, 3))
            h, w = kh + 2 * sh, kw + sw + 1
        g = ConvGeometry(kh, kw, sh, sw, ci, co)
        x = rng.standard_normal((n, h, w, ci)).astype(np.float32)
        if case == "strided_input":  # every other column of a wider batch: not C-contiguous
            wide = rng.standard_normal((n, h, 2 * w, ci)).astype(np.float32)
            wide[:, :, ::2] = x
            x = wide[:, :, ::2]
            assert not x.flags.c_contiguous
        w4 = rng.standard_normal((co, kh, kw, ci)).astype(np.float32)
        y, cols = conv2d_nhwc(x, w4, np.zeros(co, np.float32), g)
        oh, ow = g.output_hw(h, w)
        assert y.shape == (n, oh, ow, co)
        if case == "one_output_row":
            assert oh == 1
        np.testing.assert_array_equal(cols, _window_rows(x, g))


# --- channel mean ----------------------------------------------------------

def top_mask_level(x):
    """The deepest mask level for a one-conv net whose conv map is x:
    the channel mean that ``compute_mask`` takes of each traced map."""
    c, h, w = x.shape
    cfg = NetworkConfig(1, h, w, (
        conv_layer(c, kernel=1, stride=1, in_channels=1),
        fc_layer(1, activation="none"),
    ))
    trace = ActivationTrace(((0, Tensor(x)),))
    return compute_mask(trace, cfg)[1][-1]


def test_channel_mean_two_channels():
    x = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)]).astype(np.float32)
    out = top_mask_level(x)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out, 2.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_channel_mean_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((int(rng.integers(1, 6)), 3, 4)).astype(np.float32)
    np.testing.assert_allclose(top_mask_level(x), channel_mean_loops(x.astype(np.float64)),
                               rtol=1e-6, atol=1e-7)


def test_channel_mean_single_channel_is_identity():
    x = np.random.default_rng(1).standard_normal((1, 3, 3)).astype(np.float32)
    np.testing.assert_array_equal(top_mask_level(x), x[0])


# --- deconvolution upscale -------------------------------------------------

def test_deconv_ones_2x2_k3_s1():
    # every input cell stamps a 3x3 footprint; overlaps sum
    out = deconv_upscale(np.ones((2, 2), dtype=np.float32), geom(3, 1), 4, 4)
    want = np.array(
        [[1, 2, 2, 1],
         [2, 4, 4, 2],
         [2, 4, 4, 2],
         [1, 2, 2, 1]], dtype=np.float32)
    np.testing.assert_array_equal(out, want)


def test_deconv_single_cell_stamps_kernel_footprint():
    out = deconv_upscale(np.array([[2.0]], dtype=np.float32), geom(3, 1), 3, 3)
    np.testing.assert_array_equal(out, np.full((3, 3), 2.0, dtype=np.float32))


def test_deconv_stride_padding_to_requested_size():
    # 31x98 --(k5 s2)--> natural 65x199; request 66x200, the extra row/col stays zero
    out = deconv_upscale(np.ones((31, 98), dtype=np.float32), geom(5, 2), 66, 200)
    assert out.shape == (66, 200) and out.dtype == np.float32
    np.testing.assert_array_equal(out[65, :], 0.0)
    np.testing.assert_array_equal(out[:, 199], 0.0)
    assert out[0, 0] == 1.0


def test_deconv_unreachable_target_raises():
    m = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        deconv_upscale(m, geom(3, 1), 5, 4)  # natural is 4x4, stride 1 allows no slack
    with pytest.raises(ShapeError):
        deconv_upscale(m, geom(3, 1), 3, 4)  # below natural size


def test_deconv_rejects_multichannel():
    with pytest.raises(ShapeError):
        deconv_upscale(np.zeros((2, 2, 2), dtype=np.float32), geom(3, 1), 4, 4)


@given(st.data())
@settings(max_examples=40)
def test_deconv_matches_loop_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kh, kw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    sh, sw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    pad_h = int(rng.integers(0, sh))
    pad_w = int(rng.integers(0, sw))
    th = (h - 1) * sh + kh + pad_h
    tw = (w - 1) * sw + kw + pad_w
    m = rng.standard_normal((h, w)).astype(np.float32)
    g = ConvGeometry(kernel_h=kh, kernel_w=kw, stride_h=sh, stride_w=sw,
                     in_channels=1, out_channels=1)
    got = deconv_upscale(m, g, th, tw)
    want = deconv_loops(m.astype(np.float64), kh, kw, sh, sw, th, tw)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


@given(st.data())
@settings(max_examples=30)
def test_deconv_is_adjoint_of_unit_weight_conv(data):
    """<conv_ones(x), r> == <x, deconv(r)> — the upscaling really is the
    transpose of the forward convolution with all-ones kernel."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    h = int(rng.integers(k, k + 5))
    w = int(rng.integers(k, k + 5))
    g = geom(k, s)
    x = rng.standard_normal((1, h, w)).astype(np.float32)
    y = conv_chw(x, np.ones(k * k, dtype=np.float32), g, np.zeros(1, dtype=np.float32))
    r = rng.standard_normal(y.shape[1:]).astype(np.float32)
    lhs = float(np.vdot(y[0].astype(np.float64), r.astype(np.float64)))
    back = deconv_upscale(r, g, h, w)
    rhs = float(np.vdot(x[0].astype(np.float64), back.astype(np.float64)))
    assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4)


# --- normalize_01 -----------------------------------------------------------

def test_normalize_01_basic():
    a = np.array([[0.1, 0.3]], dtype=np.float32)
    np.testing.assert_allclose(normalize_01(a), [[0.0, 1.0]])


def test_normalize_01_constant_maps_to_zeros():
    out = normalize_01(np.full((3, 3), 7.5, dtype=np.float32))
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_normalize_01_range_and_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 5)).astype(np.float32) * rng.uniform(0.1, 50)
    out = normalize_01(a)
    assert out.min() >= 0.0 and out.max() <= 1.0
    if a.max() > a.min():
        np.testing.assert_allclose(out, normalize01_loops(a.astype(np.float64)),
                                   rtol=1e-5, atol=1e-6)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
@settings(max_examples=30)
def test_normalize_01_affine_invariance(seed, scale, offset):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)).astype(np.float32)
    np.testing.assert_allclose(normalize_01(a * np.float32(scale) + np.float32(offset)),
                               normalize_01(a), atol=1e-4)
