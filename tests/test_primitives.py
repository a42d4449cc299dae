"""Exact values, edge cases and input checks of the numeric kernels.

The random sweep of every kernel against the scalar-loop oracles is
acceptance criterion 9 (``tests/test_acceptance.py``).
"""

import re

import numpy as np
import pytest
from scipy.special import erf

from piip import autodiff as ad
from piip.interaction import reference_points

import scalar_oracles as ref

RNG = np.random.default_rng(20240911)


def test_layer_norm_standardizes_pair():
    # [1, 3] has mean 2 and variance 1: it normalizes to [-1, 1] / sqrt(1 + eps), eps = 1e-6
    x, gain, shift = ad.leaf([[1.0, 3.0]]), ad.leaf(np.ones(2)), ad.leaf(np.zeros(2))
    out = ad.layer_norm_op(x, gain, shift).value
    np.testing.assert_allclose(out, [[-1.0, 1.0]] / np.sqrt(1.0 + 1e-6), rtol=0, atol=1e-15)


def test_softmax_extreme_logits_stable():
    x = np.array([[1000.0, 0.0, -1000.0], [-1e8, -1e8, -1e8]])
    got = ad.softmax_op(ad.leaf(x)).value
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(got[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


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


def test_bilinear_sample_far_outside_is_zero():
    x = RNG.standard_normal((4, 4, 2))
    pts = np.array([[-1.0, -1.0], [2.0, 2.0], [-1.0, 0.5]])
    assert np.array_equal(ad.bilinear_sample_op(ad.leaf(x), ad.leaf(pts)).value, np.zeros((3, 2)))


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda x, k: ad.conv2d_op(x, k((3, 3, 4, 2)), k((2,))),
         "conv2d: kernel expects 4 input channels, map has 3"),
        (lambda x, k: ad.bilinear_resize_op(x, 0, 4), "bilinear_resize: bad output size 0x4"),
        (lambda x, k: ad.bilinear_resize_op(x, 4, -1), "bilinear_resize: bad output size 4x-1"),
        (lambda x, k: ad.bilinear_sample_op(x, k((2, 4, 2))),
         "bilinear_sample: points must be [..., N, 2] with the maps' leading axes, "
         "got maps (5, 6, 3) and points (2, 4, 2)"),
        (lambda x, k: ad.conv2d_op(x, k((7, 7, 3, 2)), k((2,))),
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
