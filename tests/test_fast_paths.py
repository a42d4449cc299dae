"""Fast paths against plain reference forms, bit for bit.

Each reference below is the plain NumPy form of a kernel that the package
computes a faster way: a per-tensor AdamW loop, a fancy-index resize, an
``np.add.at`` resize matrix, a sliding-window patchify, ``np.mean``
statistics and the one-line norm and GELU gradients. Both sides perform the
same floating-point operations in the same order, so every comparison is
exact.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from piip import autodiff as ad
from piip import config
from piip.model import AdamW, PiipModel


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same bits in every element (NaNs and signed zeros too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


class LoopAdamW:
    """AdamW as one loop over the tensors, moments kept per tensor."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {name: np.zeros_like(v) for name, v in params.items()}
        self.v = {name: np.zeros_like(v) for name, v in params.items()}
        self.decayed = {
            name: (v.ndim >= 2 and not name.endswith(".pos")) for name, v in params.items()
        }

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.decayed[name] and self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.lr * update


@pytest.mark.parametrize("lr", [1e-3, 0.0])
@pytest.mark.parametrize("weight_decay", [0.05, 0.0])
def test_flat_adamw_matches_per_tensor_loop(lr, weight_decay):
    model = PiipModel(config.preset("piip-tiny-test"))
    params = {name: v.copy() for name, v in model.params.items()}
    # one parameter as a transposed view, which reshape(-1) would copy: the
    # write-back must land in the caller's array, whatever its layout
    name = "branch1.block1.qkv_w"
    base = np.ascontiguousarray(params[name].T)
    params[name] = base.T
    assert not np.shares_memory(params[name].reshape(-1), base)
    reference = {n: v.copy() for n, v in params.items()}

    flat = AdamW(params, lr=lr, weight_decay=weight_decay)
    loop = LoopAdamW(reference, lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(11)
    for _ in range(30):
        grads = {n: rng.standard_normal(v.shape) for n, v in params.items()}
        flat.step(params, grads)
        loop.step(reference, grads)
    assert params[name].base is base
    for n in params:
        assert bits_equal(params[n], reference[n]), n
    if lr:
        assert not np.array_equal(params[name], model.params[name])
    else:
        assert all(bits_equal(params[n], model.params[n]) for n in params)


# ---------------------------------------------------------------------------
# resize, patchify, statistics
# ---------------------------------------------------------------------------


def resize_fancy_index(img, out_h, out_w):
    """Bilinear resize with a fancy-index gather per corner over [..., H, W, C]."""
    h, w = img.shape[-3:-1]
    y0, y1, ty = ad._lerp_taps(out_h, h)
    x0, x1, tx = ad._lerp_taps(out_w, w)
    ty, tx = ty[:, None, None], tx[:, None]
    rows = img[..., y0, :, :]
    top = rows[..., x0, :]
    step = rows[..., x1, :]
    step -= top
    step *= tx
    top += step
    rows = img[..., y1, :, :]
    bot = rows[..., x0, :]
    step = rows[..., x1, :]
    step -= bot
    step *= tx
    bot += step
    bot -= top
    bot *= ty
    top += bot
    return top


@pytest.mark.parametrize(
    "shape, out_h, out_w",
    [
        ((7, 5, 3), 3, 2),  # odd sizes, down
        ((5, 7, 3), 11, 13),  # odd sizes, up
        ((4, 9, 1), 9, 4),  # one channel, mixed
        ((2, 6, 6, 8), 4, 10),  # one leading axis, eight channels
        ((5, 4, 64), 9, 11),  # wide channels, up
        ((2, 3, 5, 4, 3), 7, 3),  # two leading axes
        ((16, 64, 64, 3), 32, 32),  # the input resizes of piip-tiny-test
        ((1, 1, 8), 3, 5),  # a single pixel
        ((3, 6, 6, 3), 6, 6),  # same size: a copy
    ],
)
def test_resize_matches_fancy_index_form(shape, out_h, out_w):
    img = np.random.default_rng(sum(shape)).standard_normal(shape)
    got = ad.bilinear_resize_op(ad.leaf(img), out_h, out_w).value
    assert bits_equal(got, resize_fancy_index(img, out_h, out_w))


def resize_matrix_add_at(n_out, n_in):
    """1-D resize weights accumulated tap by tap with ``np.add.at``."""
    lo, hi, t = ad._lerp_taps(n_out, n_in)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, lo), 1.0 - t)
    np.add.at(m, (rows, hi), t)
    return m


@pytest.mark.parametrize(
    "n_out, n_in",
    [(13, 5), (64, 4), (3, 7), (2, 64), (6, 6), (1, 1), (5, 1), (1, 5)],  # up, down, same, 1 px
)
def test_resize_matrix_matches_add_at_form(n_out, n_in):
    assert bits_equal(ad._resize_matrix(n_out, n_in), resize_matrix_add_at(n_out, n_in))


def im2col_windows(x, kh, kw, stride, padding):
    """Patch rows through a strided sliding-window view (any stride and padding)."""
    *lead, h, w, c = x.shape
    out_h = ad._conv_out_size(h, kh, stride, padding)
    out_w = ad._conv_out_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, [(0, 0)] * len(lead) + [(padding, padding)] * 2 + [(0, 0)])
    win = sliding_window_view(x, (kh, kw), axis=(-3, -2))
    win = np.moveaxis(win[..., ::stride, ::stride, :, :, :], -3, -1)
    return win.reshape(*lead, out_h * out_w, kh * kw * c), out_h, out_w


@pytest.mark.parametrize(
    "shape, k",
    [
        ((64, 64, 3), 16),  # whole patches
        ((2, 16, 16, 3), 4),  # a leading axis
        ((2, 3, 13, 11, 5), 4),  # sizes that do not divide: cropped
        ((6, 6, 2), 6),  # one patch
        ((5, 5, 1), 1),  # 1x1 patches
    ],
)
def test_patchify_matches_sliding_window_form(shape, k):
    x = np.random.default_rng(k).standard_normal(shape)
    cols, out_h, out_w = ad._im2col(x, k, k, k, 0)
    want, want_h, want_w = im2col_windows(x, k, k, k, 0)
    assert (out_h, out_w) == (want_h, want_w)
    assert bits_equal(cols, want)
    kernel = np.random.default_rng(1).standard_normal((k, k, shape[-1], 4))
    bias = np.random.default_rng(2).standard_normal(4)
    conv = (want @ kernel.reshape(-1, 4) + bias).reshape(*shape[:-3], out_h, out_w, 4)
    assert bits_equal(ad.conv2d_op(ad.leaf(x), ad.leaf(kernel), ad.leaf(bias), stride=k).value, conv)


@pytest.mark.parametrize(
    "shape, axes",
    [((16, 4, 16), (-1,)), ((3, 7), (-1,)), ((2, 5, 1), (-1,)), ((2, 3, 3, 2, 4), ad._GROUP_AXES)],
)
def test_standardize_matches_mean_form(shape, axes):
    x = np.random.default_rng(len(shape)).standard_normal(shape) * 3.0 + 1.5
    mu = x.mean(axis=axes, keepdims=True)
    want = x - mu
    s = np.sqrt(np.mean(want * want, axis=axes, keepdims=True) + 1e-6)
    want /= s
    got, got_mu, got_s = ad._standardize(x, axes)
    assert bits_equal(got, want) and bits_equal(got_mu, mu) and bits_equal(got_s, s)


# ---------------------------------------------------------------------------
# norm and GELU gradients
# ---------------------------------------------------------------------------


def norm_vjp_one_line(g, xhat, s, gain, n, red):
    dxhat = g * gain
    return (
        1.0 / s / n
        * (n * dxhat - dxhat.sum(axis=red, keepdims=True)
           - xhat * (dxhat * xhat).sum(axis=red, keepdims=True))
    )


def test_norm_gradients_match_one_line_forms():
    rng = np.random.default_rng(4)
    x, g = rng.standard_normal((2, 6, 8)) * 2.0, rng.standard_normal((2, 6, 8))
    gain, shift = rng.standard_normal(8), rng.standard_normal(8)
    node = ad.layer_norm_op(ad.leaf(x, True), ad.leaf(gain, True), ad.leaf(shift, True))
    mu = x.mean(axis=-1, keepdims=True)
    s = np.sqrt(np.mean((x - mu) ** 2, axis=-1, keepdims=True) + 1e-6)
    xhat = (x - mu) / s
    want = (
        norm_vjp_one_line(g, xhat, s, gain, 8, (-1,)),
        (g.reshape(-1, 8) * xhat.reshape(-1, 8)).sum(axis=0),
        g.reshape(-1, 8).sum(axis=0),
    )
    assert all(bits_equal(a, b) for a, b in zip(node.vjp(g), want))

    maps = x.reshape(2, 2, 3, 8)
    gm = g.reshape(maps.shape)
    node = ad.group_norm_op(ad.leaf(maps, True), 2, ad.leaf(gain, True), ad.leaf(shift, True))
    grouped = maps.reshape(2, 2, 3, 2, 4)
    mu = grouped.mean(axis=ad._GROUP_AXES, keepdims=True)
    s = np.sqrt(np.mean((grouped - mu) ** 2, axis=ad._GROUP_AXES, keepdims=True) + 1e-6)
    xhat = (grouped - mu) / s
    dx = norm_vjp_one_line(gm.reshape(grouped.shape), xhat, s, gain.reshape(2, 4), 2 * 3 * 4,
                           ad._GROUP_AXES)
    want = (
        dx.reshape(maps.shape),
        (gm.reshape(-1, 8) * xhat.reshape(-1, 8)).sum(axis=0),
        gm.reshape(-1, 8).sum(axis=0),
    )
    assert all(bits_equal(a, b) for a, b in zip(node.vjp(gm), want))


def test_gelu_gradient_matches_recomputed_cdf():
    rng = np.random.default_rng(6)
    x, g = rng.standard_normal((4, 9)) * 3.0, rng.standard_normal((4, 9))
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * (x * x)) / np.sqrt(2.0 * np.pi)
    (got,) = ad.gelu_op(ad.leaf(x, True)).vjp(g)
    assert bits_equal(got, (cdf + pdf * x) * g)
