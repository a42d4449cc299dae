"""Property tests for the numeric kernels against scalar-loop oracles."""

import re

import numpy as np
import pytest
from scipy.special import erf

from piip import autodiff as ad
from piip.interaction import reference_points

import scalar_oracles as ref

RNG = np.random.default_rng(20240911)
TOL = 1e-9
CASES = 100


def rand_shape(lo=1, hi=7):
    return int(RNG.integers(lo, hi)), int(RNG.integers(lo, hi))


def test_linear_matches_oracle():
    for _ in range(CASES):
        n, din = rand_shape(1, 9)
        dout = int(RNG.integers(1, 9))
        x = RNG.standard_normal((n, din))
        w = RNG.standard_normal((din, dout))
        b = RNG.standard_normal(dout)
        got = ad.matmul(ad.as_var(x), ad.as_var(w), ad.as_var(b)).value
        assert np.abs(got - np.array(ref.linear_ref(x, w, b))).max() <= TOL


def test_layer_norm_matches_oracle():
    for _ in range(CASES):
        n, d = rand_shape(1, 9)
        x = RNG.standard_normal((n, d)) * RNG.uniform(0.1, 10)
        g = RNG.standard_normal(d)
        b = RNG.standard_normal(d)
        got = ad.layer_norm_op(ad.as_var(x), ad.as_var(g), ad.as_var(b)).value
        assert np.abs(got - np.array(ref.layer_norm_ref(x, g, b))).max() <= TOL


def test_layer_norm_standardizes_pair():
    # with eps -> 0, [1, 3] normalizes to [-1, 1]
    x, gain, shift = ad.as_var([[1.0, 3.0]]), ad.as_var(np.ones(2)), ad.as_var(np.zeros(2))
    out = ad.layer_norm_op(x, gain, shift, eps=1e-30).value
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)


def test_group_norm_matches_oracle():
    for _ in range(CASES):
        h, w = rand_shape(1, 6)
        groups = int(RNG.integers(1, 4))
        c = groups * int(RNG.integers(1, 4))
        x = RNG.standard_normal((h, w, c))
        g = RNG.standard_normal(c)
        b = RNG.standard_normal(c)
        got = ad.group_norm_op(ad.as_var(x), groups, ad.as_var(g), ad.as_var(b)).value
        assert np.abs(got - np.array(ref.group_norm_ref(x, groups, g, b))).max() <= TOL


def test_softmax_matches_oracle():
    for _ in range(CASES):
        n, d = rand_shape(1, 9)
        x = RNG.standard_normal((n, d)) * RNG.uniform(0.5, 30)
        got = ad.softmax_op(ad.leaf(x)).value
        assert np.abs(got - np.array(ref.softmax_ref(x))).max() <= TOL
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_stable():
    x = np.array([[1000.0, 0.0, -1000.0], [-1e8, -1e8, -1e8]])
    got = ad.softmax_op(ad.leaf(x)).value
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(got[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_gelu_matches_oracle():
    for _ in range(CASES):
        x = RNG.standard_normal(int(RNG.integers(1, 40))) * 3
        got = ad.gelu_op(ad.as_var(x)).value
        assert np.abs(got - np.array(ref.gelu_ref(x))).max() <= TOL


def test_bilinear_resize_matches_oracle():
    for _ in range(CASES):
        h, w = rand_shape(1, 7)
        c = int(RNG.integers(1, 5))
        oh, ow = rand_shape(1, 9)
        x = RNG.standard_normal((h, w, c))
        got = ad.bilinear_resize_op(ad.leaf(x), oh, ow).value
        assert np.abs(got - np.array(ref.bilinear_resize_ref(x, oh, ow))).max() <= TOL


def test_bilinear_resize_same_size_is_bitwise_copy():
    for _ in range(20):
        x = RNG.standard_normal((int(RNG.integers(1, 8)), int(RNG.integers(1, 8)), 3))
        assert np.array_equal(ad.bilinear_resize_op(ad.leaf(x), x.shape[0], x.shape[1]).value, x)


def test_bilinear_resize_constant_map_bitwise():
    value = np.pi
    x = np.full((3, 5, 2), value)
    out = ad.bilinear_resize_op(ad.leaf(x), 7, 4).value
    assert np.array_equal(out, np.full((7, 4, 2), value))


def test_bilinear_resize_ramp_2x():
    # [0, 1] per row upsampled 2x in width: centers fall at t = 1/4 and 3/4
    x = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
    out = ad.bilinear_resize_op(ad.leaf(x), 2, 4).value
    np.testing.assert_allclose(out[:, :, 0], [[0.0, 0.25, 0.75, 1.0]] * 2, atol=1e-15)


def test_bilinear_sample_matches_oracle():
    for _ in range(CASES):
        h, w = rand_shape(1, 7)
        c = int(RNG.integers(1, 5))
        n = int(RNG.integers(1, 12))
        x = RNG.standard_normal((h, w, c))
        pts = RNG.uniform(-0.5, 1.5, (n, 2))  # includes out-of-bounds
        got = ad.bilinear_sample_op(ad.leaf(x), ad.leaf(pts)).value
        assert np.abs(got - np.array(ref.bilinear_sample_ref(x, pts))).max() <= TOL


def test_bilinear_sample_grid_centers_exact():
    # power-of-two grids make (j + 0.5)/W exactly representable
    for h, w in ((4, 8), (8, 8), (2, 16)):
        x = RNG.standard_normal((h, w, 3))
        pts = reference_points(h, w)
        got = ad.bilinear_sample_op(ad.leaf(x), ad.leaf(pts)).value
        assert np.array_equal(got, x.reshape(h * w, 3))


def test_bilinear_sample_far_outside_is_zero():
    x = RNG.standard_normal((4, 4, 2))
    pts = np.array([[-1.0, -1.0], [2.0, 2.0], [-1.0, 0.5]])
    assert np.array_equal(ad.bilinear_sample_op(ad.leaf(x), ad.leaf(pts)).value, np.zeros((3, 2)))


def test_conv2d_matches_oracle():
    for _ in range(CASES):
        kh = int(RNG.choice([1, 3]))
        stride = int(RNG.choice([1, kh]))
        pad = kh // 2 if stride == 1 else 0
        h = int(RNG.integers(kh, 7))
        w = int(RNG.integers(kh, 7))
        cin = int(RNG.integers(1, 4))
        cout = int(RNG.integers(1, 4))
        x = RNG.standard_normal((h, w, cin))
        k = RNG.standard_normal((kh, kh, cin, cout))
        b = RNG.standard_normal(cout)
        got = ad.conv2d_op(ad.leaf(x), ad.leaf(k), ad.leaf(b), stride=stride, padding=pad).value
        want = np.array(ref.conv2d_ref(x, k, b, stride, pad))
        assert np.abs(got - want).max() <= TOL


def test_conv2d_patchify_matches_oracle():
    # stride = kernel = patch size, no padding: the embedding layout
    for _ in range(30):
        p = int(RNG.choice([2, 4]))
        gh, gw = rand_shape(1, 4)
        cin, cout = 3, int(RNG.integers(1, 6))
        x = RNG.standard_normal((gh * p, gw * p, cin))
        k = RNG.standard_normal((p, p, cin, cout))
        got = ad.conv2d_op(ad.leaf(x), ad.leaf(k), None, stride=p, padding=0).value
        want = np.array(ref.conv2d_ref(x, k, None, p, 0))
        assert got.shape == (gh, gw, cout)
        assert np.abs(got - want).max() <= TOL


def test_depthwise_conv_matches_oracle():
    for _ in range(CASES):
        kh = int(RNG.choice([3, 5, 7]))
        h, w = rand_shape(1, 6)
        c = int(RNG.integers(1, 5))
        x = RNG.standard_normal((h, w, c))
        k = RNG.standard_normal((kh, kh, c))
        b = RNG.standard_normal(c)
        got = ad.depthwise_conv_op(ad.leaf(x), ad.leaf(k), ad.leaf(b)).value
        assert np.abs(got - np.array(ref.depthwise_conv_ref(x, k, b))).max() <= TOL


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda x, k: ad.conv2d_op(x, k((3, 3, 4, 2)), None),
         "conv2d: kernel expects 4 input channels, map has 3"),
        (lambda x, k: ad.depthwise_conv_op(x, k((3, 3, 2))),
         "depthwise_conv: kernel has 2 channels, map has 3"),
        (lambda x, k: ad.bilinear_resize_op(x, 0, 4), "bilinear_resize: bad output size 0x4"),
        (lambda x, k: ad.bilinear_resize_op(x, 4, -1), "bilinear_resize: bad output size 4x-1"),
        (lambda x, k: ad.bilinear_sample_op(x, k((2, 4, 2))),
         "bilinear_sample: points must be [..., N, 2] with the maps' leading axes, "
         "got maps (5, 6, 3) and points (2, 4, 2)"),
        (lambda x, k: ad.conv2d_op(x, k((7, 7, 3, 2)), None),
         "im2col: kernel 7x7 larger than padded map 5x6"),
        (lambda x, k: reference_points(0, 3), "reference_points: bad grid 0x3"),
        (lambda x, k: ad.matmul(x, k((4, 3, 2))),
         "matmul: batch dims differ (5, 6, 3) @ (4, 3, 2)"),
    ],
)
def test_op_input_checks_raise_their_messages(op, message):
    rng = np.random.default_rng(12)  # leaves the module stream as it was
    x = ad.leaf(rng.standard_normal((5, 6, 3)))
    with pytest.raises(ValueError, match=re.escape(message)):
        op(x, lambda shape: ad.leaf(rng.standard_normal(shape)))


def test_reference_points_match_oracle():
    for h, w in ((1, 1), (2, 3), (5, 4), (8, 8)):
        got = reference_points(h, w)
        np.testing.assert_array_equal(got, np.array(ref.reference_points_ref(h, w)))


def test_single_buffer_kernels_bitwise_equal_one_line_formulas():
    rng = np.random.default_rng(5)  # leaves the module stream as it was
    x = rng.standard_normal((3, 6, 8)) * 3
    gain, shift = rng.standard_normal(8), rng.standard_normal(8)
    assert np.array_equal(ad.gelu_op(ad.leaf(x)).value, 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    assert np.array_equal(ad.softmax_op(ad.leaf(x)).value, e / np.sum(e, axis=-1, keepdims=True))
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    ln = (x - mu) / np.sqrt(var + 1e-6) * gain + shift
    op = ad.layer_norm_op(ad.leaf(x), ad.leaf(gain), ad.leaf(shift))
    assert np.array_equal(op.value, ln)
    # group norm of [2, 3, 3, 8] maps in 2 groups of 4 channels
    maps = x.reshape(2, 3, 3, 8)
    g = maps.reshape(2, 3, 3, 2, 4)
    mu = g.mean(axis=(-4, -3, -1), keepdims=True)
    var = np.mean((g - mu) ** 2, axis=(-4, -3, -1), keepdims=True)
    gn = ((g - mu) / np.sqrt(var + 1e-6)).reshape(maps.shape) * gain + shift
    op = ad.group_norm_op(ad.leaf(maps), 2, ad.leaf(gain), ad.leaf(shift))
    assert np.array_equal(op.value, gn)
