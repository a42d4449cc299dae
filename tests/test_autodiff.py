"""Finite-difference checks for every reverse-mode op, plus tape mechanics."""

import numpy as np
import pytest

from piip import autodiff as ad

RNG = np.random.default_rng(7)


def fd_max_err(fn, arrays, step=1e-6):
    """Max |analytic - central difference| over every input coordinate.

    ``fn`` maps a list of leaf Vars to a scalar Var.
    """
    leaves = [ad.leaf(a.copy(), needs_grad=True) for a in arrays]
    out = fn(leaves)
    ad.backward(out)
    worst = 0.0
    for li, arr in enumerate(arrays):
        work = [a.copy() for a in arrays]
        flat = work[li].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = float(fn([ad.leaf(a) for a in work]).value)
            flat[idx] = orig - step
            f_minus = float(fn([ad.leaf(a) for a in work]).value)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2 * step)
            analytic = leaves[li].grad.reshape(-1)[idx]
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    return worst


def scalarize(v):
    # deterministic random projection to a scalar so all coords matter
    proj = np.cos(np.arange(v.value.size)).reshape(v.value.shape)
    return ad.sum_op(ad.mul(v, ad.leaf(proj)))


TOL = 5e-9


def test_add_mul_broadcast():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((1, 4))  # broadcast against a
    assert fd_max_err(lambda v: scalarize(ad.add(v[0], v[1])), [a, b]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.mul(v[0], v[1])), [a, b]) <= TOL


def test_scale_reshape():
    a = RNG.standard_normal((2, 6))
    assert fd_max_err(lambda v: scalarize(ad.scale(v[0], -1.7)), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.reshape(v[0], (3, 4))), [a]) <= TOL


def test_transpose_including_negative_axes():
    a = RNG.standard_normal((2, 3, 4))
    assert fd_max_err(lambda v: scalarize(ad.transpose(v[0], (1, 2, 0))), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.transpose(v[0], (0, -1, -2))), [a]) <= TOL


def test_matmul_2d_and_batched():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4, 2))
    assert fd_max_err(lambda v: scalarize(ad.matmul(v[0], v[1])), [a, b]) <= TOL
    a = RNG.standard_normal((2, 3, 4))
    b = RNG.standard_normal((2, 4, 2))
    assert fd_max_err(lambda v: scalarize(ad.matmul(v[0], v[1])), [a, b]) <= TOL
    # a shared 2-D weight under leading axes, with the bias fused in
    rng = np.random.default_rng(8)  # leaves the module stream of later tests as it was
    b = rng.standard_normal((4, 2))
    c = rng.standard_normal(2)
    assert fd_max_err(lambda v: scalarize(ad.matmul(v[0], v[1], v[2])), [a, b, c]) <= TOL
    # a dense layer: 2-D input, weight and bias
    x, w, bias = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
    assert fd_max_err(lambda v: scalarize(ad.matmul(v[0], v[1], v[2])), [x, w, bias]) <= TOL


def test_swapaxes():
    a = np.random.default_rng(9).standard_normal((2, 3, 4))
    assert fd_max_err(lambda v: scalarize(ad.swapaxes(v[0], -1, -3)), [a]) <= TOL


def test_weighted_sum_op():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4, 5))
    w = rng.standard_normal((2, 3, 4))
    assert fd_max_err(lambda v: scalarize(ad.weighted_sum_op(v[0], v[1])), [x, w]) <= TOL


def test_indexing_ops():
    a = RNG.standard_normal((4, 5))
    assert fd_max_err(lambda v: scalarize(ad.take_index(v[0], 2, 0)), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.take_index(v[0], 1, 1)), [a]) <= TOL


def test_pad_and_crop_grid():
    a = RNG.standard_normal((3, 4, 2))
    assert fd_max_err(lambda v: scalarize(ad.pad_grid(v[0], 2, 1)), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.crop_grid(v[0], 2, 3)), [a]) <= TOL


def test_reductions():
    a = RNG.standard_normal((3, 4))
    assert fd_max_err(lambda v: ad.sum_op(v[0]), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.sum_op(v[0], axis=0)), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.mean_op(v[0], axis=-1)), [a]) <= TOL
    assert fd_max_err(lambda v: ad.mean_op(v[0]), [a]) <= TOL


def test_softmax_gelu():
    a = RNG.standard_normal((3, 5)) * 2
    assert fd_max_err(lambda v: scalarize(ad.softmax_op(v[0])), [a]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.gelu_op(v[0])), [a]) <= TOL


def test_layer_norm_op():
    x = RNG.standard_normal((4, 6))
    g = RNG.standard_normal(6)
    b = RNG.standard_normal(6)
    assert fd_max_err(lambda v: scalarize(ad.layer_norm_op(v[0], v[1], v[2])), [x, g, b]) <= 1e-7


def test_group_norm_op():
    x = RNG.standard_normal((3, 4, 6))
    g = RNG.standard_normal(6)
    b = RNG.standard_normal(6)
    fn = lambda v: scalarize(ad.group_norm_op(v[0], 2, v[1], v[2]))
    assert fd_max_err(fn, [x, g, b]) <= 1e-7


def test_cross_entropy_op():
    logits = RNG.standard_normal(7) * 3
    assert fd_max_err(lambda v: ad.cross_entropy_op(v[0], 4), [logits]) <= TOL
    # a batch of logits gives the mean loss over its rows
    batch = np.random.default_rng(11).standard_normal((3, 7)) * 3
    labels = np.array([4, 0, 6])
    assert fd_max_err(lambda v: ad.cross_entropy_op(v[0], labels), [batch]) <= TOL
    rows = [float(ad.cross_entropy_op(ad.leaf(r), int(y)).value) for r, y in zip(batch, labels)]
    assert abs(float(ad.cross_entropy_op(ad.leaf(batch), labels).value) - np.mean(rows)) <= 1e-15
    # probabilities sum to one => gradient sums to zero
    var = ad.leaf(logits, needs_grad=True)
    ad.backward(ad.cross_entropy_op(var, 0))
    assert abs(var.grad.sum()) <= 1e-12


def test_conv2d_op():
    x = RNG.standard_normal((5, 4, 2))
    k = RNG.standard_normal((3, 3, 2, 3))
    b = RNG.standard_normal(3)
    fn = lambda v: scalarize(ad.conv2d_op(v[0], v[1], v[2], stride=1, padding=1))
    assert fd_max_err(fn, [x, k, b]) <= TOL
    # patchify layout: stride = kernel size, no padding
    k2 = RNG.standard_normal((2, 2, 2, 3))
    fn2 = lambda v: scalarize(ad.conv2d_op(v[0], v[1], v[2], stride=2, padding=0))
    assert fd_max_err(fn2, [RNG.standard_normal((4, 4, 2)), k2, b]) <= TOL


def test_bilinear_resize_op():
    x = RNG.standard_normal((3, 4, 2))
    assert fd_max_err(lambda v: scalarize(ad.bilinear_resize_op(v[0], 5, 3)), [x]) <= TOL
    assert fd_max_err(lambda v: scalarize(ad.bilinear_resize_op(v[0], 2, 6)), [x]) <= TOL


def test_bilinear_sample_op_map_and_points():
    x = RNG.standard_normal((5, 6, 3))
    # keep points clear of cell boundaries so central differences stay smooth
    pts = (RNG.integers(0, 8, (7, 2)) + 0.31) / np.array([6.0, 5.0])
    fn = lambda v: scalarize(ad.bilinear_sample_op(v[0], v[1]))
    assert fd_max_err(fn, [x, pts]) <= 1e-7
    # batched maps and points; cells -1 and size put points partly outside
    rng = np.random.default_rng(12)  # leaves the module stream of later tests as it was
    maps = rng.standard_normal((2, 3, 5, 4, 2))
    pts = (rng.integers(-1, 6, (2, 3, 7, 2)) + 0.31) / np.array([4.0, 5.0])
    assert fd_max_err(fn, [maps, pts]) <= 1e-7


def test_backward_accumulates_through_diamond():
    # y = a*a + a  reuses the same leaf twice: dy/da = 2a + 1
    a = ad.leaf(np.array([1.5, -2.0]), needs_grad=True)
    y = ad.sum_op(ad.add(ad.mul(a, a), a))
    ad.backward(y)
    np.testing.assert_allclose(a.grad, 2 * a.value + 1, atol=1e-12)


def test_backward_keeps_leaf_grads_and_output_values():
    # the tape is consumed, but leaf gradients and every node's value survive
    a = ad.leaf(np.array([1.5, -2.0]), needs_grad=True)
    hidden = ad.mul(a, a)
    out = ad.sum_op(hidden)
    ad.backward(out)
    np.testing.assert_allclose(a.grad, 2 * a.value)
    np.testing.assert_allclose(hidden.value, a.value**2)
    assert float(out.value) == 6.25
    assert hidden.grad is None and hidden.parents == () and hidden.vjp is None


def test_no_grad_nodes_keep_no_tape():
    a = ad.leaf(np.ones(3))
    out = ad.mul(a, a)
    assert not out.needs_grad and out.parents == () and out.vjp is None


def test_backward_requires_scalar_root():
    a = ad.leaf(RNG.standard_normal((2, 2)), needs_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(a, a))


def test_leaf_without_needs_grad_gets_no_gradient():
    a = ad.leaf(np.ones(3), needs_grad=True)
    b = ad.leaf(np.ones(3), needs_grad=False)
    out = ad.sum_op(ad.mul(a, b))
    ad.backward(out)
    assert a.grad is not None
    assert b.grad is None


def test_deep_chain_does_not_hit_recursion_limit():
    v = ad.leaf(np.array([1.0]), needs_grad=True)
    out = v
    for _ in range(5000):
        out = ad.scale(out, 1.0)
    ad.backward(ad.sum_op(out))
    np.testing.assert_allclose(v.grad, [1.0])
