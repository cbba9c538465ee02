"""Numeric kernels: convolution, deconvolution upscaling, channel averaging,
normalization. Frozen hand examples plus loop-oracle and
property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import channel_mean_loops, conv2d_loops, deconv_loops, normalize01_loops
from visback.tensor import (
    ConvGeometry,
    ShapeError,
    Tensor,
    channel_mean,
    conv2d,
    deconv_upscale,
    elementwise_mul,
    normalize_01,
)


def geom(k, s, cin=1, cout=1):
    return ConvGeometry(kernel_h=k, kernel_w=k, stride_h=s, stride_w=s,
                        in_channels=cin, out_channels=cout)


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
    t = Tensor.zeros(2, 3, 4)
    assert (t.channels, t.height, t.width) == (2, 3, 4)
    assert t.shape == (2, 3, 4)
    assert t.flat().shape == (24,)


# --- convolution -----------------------------------------------------------

def test_conv_one_by_one():
    # 1x1 input, 1x1 kernel: plain scalar product 2 * 3 = 6
    t = Tensor(np.array([[[2.0]]], dtype=np.float32))
    out = conv2d(t, np.array([3.0]), geom(1, 1), np.array([0.0]))
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(6.0)


def test_conv_bias_added_per_channel():
    t = Tensor.zeros(1, 3, 3)
    g = geom(3, 1, cin=1, cout=2)
    out = conv2d(t, np.zeros(g.weight_count()), g, np.array([1.5, -2.0]))
    assert out.data[0, 0, 0] == pytest.approx(1.5)
    assert out.data[1, 0, 0] == pytest.approx(-2.0)


def test_conv_output_hw_floor_division():
    # 31x98 -> k5 s2 -> 14x47 (floor chain used throughout the architecture)
    assert geom(5, 2).output_hw(31, 98) == (14, 47)
    assert geom(5, 2).output_hw(66, 200) == (31, 98)
    assert geom(3, 1).output_hw(5, 22) == (3, 20)


def test_conv_kernel_larger_than_input_raises():
    with pytest.raises(ShapeError):
        geom(5, 1).output_hw(4, 10)
    with pytest.raises(ShapeError):
        conv2d(Tensor.zeros(1, 4, 4), np.ones(25), geom(5, 1), np.zeros(1))


def test_conv_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        conv2d(Tensor.zeros(2, 4, 4), np.ones(9), geom(3, 1, cin=1), np.zeros(1))


def test_conv_weight_and_bias_length_checked():
    with pytest.raises(ShapeError):
        conv2d(Tensor.zeros(1, 4, 4), np.ones(8), geom(3, 1), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(Tensor.zeros(1, 4, 4), np.ones(9), geom(3, 1), np.zeros(2))


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

    got = conv2d(Tensor(x), wts, g, b).data
    want = conv2d_loops(x.astype(np.float64), wts.reshape(cout, cin, k, k).astype(np.float64),
                        b.astype(np.float64), s, s)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


# --- channel mean ----------------------------------------------------------

def test_channel_mean_two_channels():
    t = Tensor(np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)]).astype(np.float32))
    out = channel_mean(t)
    assert out.shape == (1, 2, 2)
    np.testing.assert_allclose(out.data[0], 2.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_channel_mean_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((int(rng.integers(1, 6)), 3, 4)).astype(np.float32)
    np.testing.assert_allclose(channel_mean(Tensor(x)).data[0],
                               channel_mean_loops(x.astype(np.float64)),
                               rtol=1e-6, atol=1e-7)


def test_channel_mean_single_channel_is_identity():
    x = np.random.default_rng(1).standard_normal((1, 3, 3)).astype(np.float32)
    np.testing.assert_array_equal(channel_mean(Tensor(x)).data, x)


# --- deconvolution upscale -------------------------------------------------

def test_deconv_ones_2x2_k3_s1():
    # every input cell stamps a 3x3 footprint; overlaps sum
    t = Tensor(np.ones((1, 2, 2), dtype=np.float32))
    out = deconv_upscale(t, geom(3, 1), 4, 4)
    want = np.array(
        [[1, 2, 2, 1],
         [2, 4, 4, 2],
         [2, 4, 4, 2],
         [1, 2, 2, 1]], dtype=np.float32)
    np.testing.assert_array_equal(out.data[0], want)


def test_deconv_single_cell_stamps_kernel_footprint():
    t = Tensor(np.array([[[2.0]]], dtype=np.float32))
    out = deconv_upscale(t, geom(3, 1), 3, 3)
    np.testing.assert_array_equal(out.data[0], np.full((3, 3), 2.0, dtype=np.float32))


def test_deconv_stride_padding_to_requested_size():
    # 31x98 --(k5 s2)--> natural 65x199; request 66x200, the extra row/col stays zero
    t = Tensor(np.ones((1, 31, 98), dtype=np.float32))
    out = deconv_upscale(t, geom(5, 2), 66, 200)
    assert out.shape == (1, 66, 200)
    np.testing.assert_array_equal(out.data[0, 65, :], 0.0)
    np.testing.assert_array_equal(out.data[0, :, 199], 0.0)
    assert out.data[0, 0, 0] == 1.0


def test_deconv_unreachable_target_raises():
    t = Tensor(np.ones((1, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        deconv_upscale(t, geom(3, 1), 5, 4)  # natural is 4x4, stride 1 allows no slack
    with pytest.raises(ShapeError):
        deconv_upscale(t, geom(3, 1), 3, 4)  # below natural size


def test_deconv_rejects_multichannel():
    with pytest.raises(ShapeError):
        deconv_upscale(Tensor.zeros(2, 2, 2), geom(3, 1), 4, 4)


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
    got = deconv_upscale(Tensor(m[np.newaxis]), g, th, tw).data[0]
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
    y = conv2d(Tensor(x), np.ones(k * k, dtype=np.float32), g, np.zeros(1, dtype=np.float32))
    r = rng.standard_normal(y.shape).astype(np.float32)
    lhs = float(np.vdot(y.data.astype(np.float64), r.astype(np.float64)))
    back = deconv_upscale(Tensor(r), g, h, w)
    rhs = float(np.vdot(x.astype(np.float64), back.data.astype(np.float64)))
    assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4)


# --- normalize_01 / relu / elementwise_mul ---------------------------------

def test_normalize_01_basic():
    t = Tensor(np.array([[[0.1, 0.3]]], dtype=np.float32))
    np.testing.assert_allclose(normalize_01(t).data, [[[0.0, 1.0]]])


def test_normalize_01_constant_maps_to_zeros():
    t = Tensor.full(1, 3, 3, 7.5)
    np.testing.assert_array_equal(normalize_01(t).data, 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_normalize_01_range_and_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, 4, 5)).astype(np.float32) * rng.uniform(0.1, 50)
    out = normalize_01(Tensor(a)).data
    assert out.min() >= 0.0 and out.max() <= 1.0
    if a.max() > a.min():
        np.testing.assert_allclose(out, normalize01_loops(a.astype(np.float64)),
                                   rtol=1e-5, atol=1e-6)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
@settings(max_examples=30)
def test_normalize_01_affine_invariance(seed, scale, offset):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, 4, 4)).astype(np.float32)
    base = normalize_01(Tensor(a)).data
    moved = normalize_01(Tensor(a * scale + offset)).data
    np.testing.assert_allclose(moved, base, atol=1e-4)


def test_elementwise_mul_and_shape_error():
    a = Tensor(np.array([[[1.0, 2.0]]], dtype=np.float32))
    b = Tensor(np.array([[[3.0, 0.5]]], dtype=np.float32))
    np.testing.assert_allclose(elementwise_mul(a, b).data, [[[3.0, 1.0]]])
    with pytest.raises(ShapeError):
        elementwise_mul(a, Tensor.zeros(1, 1, 3))
