"""Reverse-mode automatic differentiation over numpy arrays.

A tiny tape: each ``Var`` records its parents and a vector-Jacobian-product
closure. Each kernel has one entry point, its op here, which computes the
forward value and holds the vjp; a layout that a forward shares with its
adjoint (norm statistics, patch rows, resize taps, the sampling plan) is a
private helper beside that op. A plain-array forward is
``op(leaf(x), ...).value``. Forwards are checked against the scalar oracles
of the test-suite, and the hand-written backward passes end-to-end by finite
differences.

Every op takes any number of leading axes: tokens are ``[..., N, D]`` in
row-major grid order, maps ``[..., H, W, C]`` and sampling points
``[..., N, 2]``. A single image is the case with no leading axes and a batch
adds one, so both run the same code. Sampling points are normalized
``(x, y)`` with pixel centers at ``((j + 0.5) / W, (i + 0.5) / H)``
(align-corners false). A resize clamps at the border, so constant maps stay
constant; sampling zero-pads, so a corner outside the map contributes nothing.

All values are float64. Gradients only flow into subgraphs that contain a
leaf created with ``needs_grad=True``; everything else is treated as a
constant. A node that needs no gradient keeps neither its parents nor its
vjp, so a forward pass without gradients frees intermediates as it goes, and
a vjp computes gradients only for the parents that need one.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.special import erf

Array = np.ndarray


class Var:
    """A node in the computation graph: a value plus how to backprop it."""

    __slots__ = ("value", "grad", "parents", "vjp", "needs_grad", "__weakref__")

    def __init__(
        self,
        value: Array,
        parents: tuple["Var", ...] = (),
        vjp: Callable[[Array], Sequence[Array | None]] | None = None,
        needs_grad: bool = False,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.needs_grad = needs_grad or any(p.needs_grad for p in parents)
        self.parents = parents if self.needs_grad else ()
        self.vjp = vjp if self.needs_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def leaf(value: Array, needs_grad: bool = False) -> Var:
    return Var(value, needs_grad=needs_grad)


def as_var(x: "Var | Array | float") -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x, dtype=np.float64))


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar ``root`` into every needs-grad leaf.

    The tape is consumed: each interior node drops its vjp, parents and
    gradient once its vjp has run, so activations are freed as backward
    proceeds. Leaf gradients and every node's value stay readable.
    """
    if root.value.size != 1:
        raise ValueError(f"backward expects a scalar root, got shape {root.shape}")
    # Depth-first post-order over interior nodes. A node without parents (a
    # leaf, or a node that needs no gradient) has no vjp to run, so it is
    # never pushed; that leaves the order of the interior nodes unchanged.
    order: list[Var] = []
    seen: set[Var] = set()
    stack: list[tuple[Var, bool]] = [(root, False)] if root.parents else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p.parents:
                    stack.append((p, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is not None and node.grad is not None:
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is not None and parent.needs_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = None
        node.parents = ()
        node.vjp = None


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    kept = tuple(ax for ax, n in enumerate(shape) if n == 1 and grad.shape[ax] != 1)
    if kept:
        grad = np.add.reduce(grad, axis=kept, keepdims=True)
    return grad.reshape(shape)


def _rows(a: Array) -> Array:
    """Collapse every axis but the last: [..., D] -> [L, D]."""
    return a.reshape(-1, a.shape[-1])


# ---------------------------------------------------------------------------
# elementwise / shape ops
# ---------------------------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.shape) if a.needs_grad else None,
            _unbroadcast(g * a.value, b.shape) if b.needs_grad else None,
        ),
    )


def scale(a: Var, s: float) -> Var:
    return Var(a.value * s, (a,), lambda g: (g * s,))


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Var, axes: tuple[int, ...]) -> Var:
    axes = tuple(ax % a.value.ndim for ax in axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return Var(a.value.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def swapaxes(a: Var, ax1: int, ax2: int) -> Var:
    return Var(a.value.swapaxes(ax1, ax2), (a,), lambda g: (g.swapaxes(ax1, ax2),))


def matmul(a: Var, b: Var, bias: Var | None = None) -> Var:
    """``a @ b`` (plus ``bias``) as one node.

    A 2-D ``b`` is a weight shared by every leading index of ``a``: the
    product and the weight's gradient run as one GEMM over all rows.
    """
    av, bv = a.value, b.value
    if av.ndim > 2 and bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise ValueError(f"matmul: batch dims differ {av.shape} @ {bv.shape}")
    shared = bv.ndim == 2
    if shared and av.ndim > 2:
        out = (_rows(av) @ bv).reshape(*av.shape[:-1], bv.shape[-1])
    else:
        out = av @ bv
    if bias is not None:
        out += bias.value

    def vjp(g: Array) -> tuple[Array | None, Array | None, Array | None]:
        ga = gb = gbias = None
        if a.needs_grad:
            ga = _unbroadcast(g @ bv.swapaxes(-1, -2), a.shape)
        if b.needs_grad:
            if shared:
                gb = _rows(av).T @ _rows(g)
            else:
                gb = _unbroadcast(av.swapaxes(-1, -2) @ g, b.shape)
        if bias is not None and bias.needs_grad:
            gbias = _unbroadcast(g, bias.shape)
        return ga, gb, gbias

    return Var(out, (a, b) if bias is None else (a, b, bias), vjp)


def take_index(a: Var, index: int, axis: int) -> Var:
    """Select one slice along ``axis`` (an integer index, dim removed)."""
    sel: tuple = (slice(None),) * (axis % a.value.ndim) + (index,)

    def vjp(g: Array) -> tuple[Array]:
        out = np.zeros_like(a.value)
        out[sel] = g
        return (out,)

    return Var(a.value[sel], (a,), vjp)


def pad_grid(a: Var, pad_h: int, pad_w: int) -> Var:
    """Zero-pad [..., H, W, C] maps on the bottom/right edges."""
    h, w = a.shape[-3:-1]
    widths = [(0, 0)] * (a.value.ndim - 3) + [(0, pad_h), (0, pad_w), (0, 0)]

    def vjp(g: Array) -> tuple[Array]:
        return (g[..., :h, :w, :],)

    return Var(np.pad(a.value, widths), (a,), vjp)


def crop_grid(a: Var, out_h: int, out_w: int) -> Var:
    """Keep the top-left [out_h, out_w] corner of [..., H, W, C] maps."""

    def vjp(g: Array) -> tuple[Array]:
        out = np.zeros_like(a.value)
        out[..., :out_h, :out_w, :] = g
        return (out,)

    return Var(a.value[..., :out_h, :out_w, :], (a,), vjp)


def _axes(axis: int | tuple[int, ...], ndim: int) -> tuple[int, ...]:
    return tuple(ax % ndim for ax in ((axis,) if isinstance(axis, int) else axis))


def sum_op(a: Var, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Var:
    def vjp(g: Array) -> tuple[Array]:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, _axes(axis, a.value.ndim))
        return (np.broadcast_to(g, a.shape).copy(),)

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean_op(a: Var, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Var:
    if axis is None:
        n = a.value.size
    else:
        n = int(np.prod([a.shape[ax] for ax in _axes(axis, a.value.ndim)]))
    return scale(sum_op(a, axis=axis, keepdims=keepdims), 1.0 / n)


def weighted_sum_op(x: Var, w: Var) -> Var:
    """``sum_k w[..., k] * x[..., k, :]``: [..., K, C] and [..., K] -> [..., C]."""
    xv, wv = x.value, w.value

    def vjp(g: Array) -> tuple[Array | None, Array | None]:
        gx = wv[..., :, None] * g[..., None, :] if x.needs_grad else None
        gw = np.einsum("...kc,...c->...k", xv, g) if w.needs_grad else None
        return gx, gw

    return Var(np.einsum("...k,...kc->...c", wv, xv), (x, w), vjp)


# ---------------------------------------------------------------------------
# nonlinearities / normalizers
# ---------------------------------------------------------------------------


def softmax_op(a: Var) -> Var:
    """Max-shifted softmax over the last axis; safe for large magnitudes."""
    y = a.value - np.maximum.reduce(a.value, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)

    def vjp(g: Array) -> tuple[Array]:
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        out = g - dot
        out *= y
        return (out,)

    return Var(y, (a,), vjp)


def gelu_op(a: Var) -> Var:
    """Exact Gaussian-error-function form: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = a.value
    cdf2 = x * (1.0 / np.sqrt(2.0))  # 1 + erf(x / sqrt(2)), twice the normal CDF
    erf(cdf2, out=cdf2)
    cdf2 += 1.0
    # the vjp reuses the erf term; a node that keeps no vjp finishes in its buffer
    out = cdf2 * x if a.needs_grad else np.multiply(cdf2, x, out=cdf2)
    out *= 0.5

    def vjp(g: Array) -> tuple[Array]:
        # g * (cdf + x * pdf), one buffer each for the cdf and the pdf term
        cdf = cdf2 * 0.5
        pdf = x * x
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf /= np.sqrt(2.0 * np.pi)
        pdf *= x
        cdf += pdf
        cdf *= g
        return (cdf,)

    return Var(out, (a,), vjp)


def _standardize(x: Array, axes: tuple[int, ...], eps: float) -> tuple[Array, Array, Array]:
    """``(x - mu) / s`` over ``axes`` with biased variance, in one new buffer.

    Returns (xhat, mu, s), the statistics kept with their reduced axes.
    """
    n = math.prod(x.shape[ax] for ax in axes)
    # add.reduce(...) / n is exactly np.mean, without its Python wrapper
    mu = np.add.reduce(x, axis=axes, keepdims=True) / n
    out = x - mu
    var = np.add.reduce(out * out, axis=axes, keepdims=True) / n
    s = np.sqrt(var + eps)
    out /= s
    return out, mu, s


def _norm_vjp(
    g: Array, xhat: Array, s: Array, gain: Array, n: int, red: tuple[int, ...]
) -> Array:
    """Input gradient of ``xhat * gain`` where xhat is normalized over ``red``.

    ``(1 / s / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))`` with
    dxhat = g * gain, evaluated in that order in two buffers.
    """
    dxhat = g * gain
    out = dxhat * n
    out -= np.add.reduce(dxhat, axis=red, keepdims=True)
    dxhat *= xhat
    np.multiply(xhat, np.add.reduce(dxhat, axis=red, keepdims=True), out=dxhat)
    out -= dxhat
    scale = 1.0 / s
    scale /= n
    out *= scale
    return out


def layer_norm_op(x: Var, gain: Var, shift: Var, eps: float = 1e-6) -> Var:
    xhat, _, s = _standardize(x.value, (-1,), eps)
    # the vjp reuses xhat; a node that keeps no vjp finishes in its buffer
    keep = x.needs_grad or gain.needs_grad or shift.needs_grad
    out = xhat * gain.value if keep else np.multiply(xhat, gain.value, out=xhat)
    out += shift.value

    def vjp(g: Array) -> tuple[Array | None, Array, Array]:
        dx = _norm_vjp(g, xhat, s, gain.value, xhat.shape[-1], (-1,)) if x.needs_grad else None
        return dx, np.add.reduce(_rows(g * xhat), axis=0), np.add.reduce(_rows(g), axis=0)

    return Var(out, (x, gain, shift), vjp)


# GroupNorm statistics axes of a [..., H, W, groups, C/groups] view
_GROUP_AXES = (-4, -3, -1)


def group_norm_op(x: Var, groups: int, gain: Var, shift: Var, eps: float = 1e-6) -> Var:
    """GroupNorm of [..., H, W, C] maps (statistics per map and group over H, W, C/G)."""
    xv = x.value
    h, w, c = xv.shape[-3:]
    gshape = xv.shape[:-1] + (groups, c // groups)
    red = _GROUP_AXES
    out, mu, s = _standardize(xv.reshape(gshape), red, eps)
    out = out.reshape(xv.shape)
    out *= gain.value
    out += shift.value

    def vjp(g: Array) -> tuple[Array | None, Array, Array]:
        xhat = xv.reshape(gshape) - mu
        xhat /= s
        dx = None
        if x.needs_grad:
            gain_g = gain.value.reshape(groups, c // groups)
            dx = _norm_vjp(g.reshape(gshape), xhat, s, gain_g, h * w * (c // groups), red)
            dx = dx.reshape(xv.shape)
        xhat *= g.reshape(gshape)
        return dx, np.add.reduce(xhat.reshape(-1, c), axis=0), np.add.reduce(_rows(g), axis=0)

    return Var(out, (x, gain, shift), vjp)


def cross_entropy_op(logits: Var, labels: int | Array) -> Var:
    """Mean cross-entropy of [..., C] logits against integer labels [...]."""
    lv = logits.value
    labels = np.asarray(labels, dtype=np.int64)[..., None]
    m = lv.max(axis=-1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(lv - m), axis=-1, keepdims=True))
    losses = lse - np.take_along_axis(lv, labels, axis=-1)
    n = losses.size

    def vjp(g: Array) -> tuple[Array]:
        d = np.exp(lv - lse)
        np.put_along_axis(d, labels, np.take_along_axis(d, labels, axis=-1) - 1.0, axis=-1)
        return (d * (g / n),)

    return Var(np.asarray(losses.mean()), (logits,), vjp)


# ---------------------------------------------------------------------------
# convolution / resampling
# ---------------------------------------------------------------------------


def _conv_out_size(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


def _im2col(x: Array, kh: int, kw: int, stride: int, padding: int) -> tuple[Array, int, int]:
    """Unfold [..., H, W, C] maps into patch rows [..., out_h*out_w, kh*kw*C]."""
    *lead, h, w, c = x.shape
    out_h = _conv_out_size(h, kh, stride, padding)
    out_w = _conv_out_size(w, kw, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"im2col: kernel {kh}x{kw} larger than padded map {h}x{w}")
    if stride == kh == kw and not padding:
        # non-overlapping patches: crop to whole patches, then
        # [..., out_h, kh, out_w, kw, C] -> [..., out_h, out_w, kh, kw, C]
        x = x[..., : out_h * kh, : out_w * kw, :]
        win = x.reshape(*lead, out_h, kh, out_w, kw, c).swapaxes(-4, -3)
    else:
        if padding:
            x = np.pad(x, [(0, 0)] * len(lead) + [(padding, padding)] * 2 + [(0, 0)])
        win = sliding_window_view(x, (kh, kw), axis=(-3, -2))  # [..., H', W', C, kh, kw]
        win = np.moveaxis(win[..., ::stride, ::stride, :, :, :], -3, -1)
    return win.reshape(*lead, out_h * out_w, kh * kw * c), out_h, out_w


def _col2im(
    dcols: Array, shape: tuple[int, ...], kh: int, kw: int, stride: int, padding: int
) -> Array:
    """Adjoint of :func:`_im2col`: sum [..., n, kh*kw*C] patch rows into maps."""
    *lead, h, w, c = shape
    out_h = _conv_out_size(h, kh, stride, padding)
    out_w = _conv_out_size(w, kw, stride, padding)
    dcols = dcols.reshape(*lead, out_h, out_w, kh, kw, c)
    dpad = np.zeros((*lead, h + 2 * padding, w + 2 * padding, c))
    span_h = stride * (out_h - 1) + 1
    span_w = stride * (out_w - 1) + 1
    for i in range(kh):
        for j in range(kw):
            dpad[..., i : i + span_h : stride, j : j + span_w : stride, :] += dcols[..., i, j, :]
    return dpad[..., padding : padding + h, padding : padding + w, :]


def conv2d_op(
    x: Var, kernel: Var, bias: Var | None, stride: int = 1, padding: int = 0
) -> Var:
    """Cross-correlate [..., H, W, Cin] maps with a [kh, kw, Cin, Cout] kernel."""
    kh, kw, cin, cout = kernel.shape
    if cin != x.shape[-1]:
        raise ValueError(f"conv2d: kernel expects {cin} input channels, map has {x.shape[-1]}")
    cols, out_h, out_w = _im2col(x.value, kh, kw, stride, padding)
    out = cols @ kernel.value.reshape(kh * kw * cin, cout)  # [..., out_h*out_w, Cout]
    if bias is not None:
        out += bias.value
    out = out.reshape(*x.shape[:-3], out_h, out_w, cout)

    def vjp(g: Array) -> tuple[Array | None, Array | None, Array | None]:
        gf = g.reshape(-1, cout)
        dx = dkernel = db = None
        if kernel.needs_grad:  # im2col is recomputed rather than kept on the tape
            cols = _im2col(x.value, kh, kw, stride, padding)[0]
            dkernel = (_rows(cols).T @ gf).reshape(kernel.shape)
        if x.needs_grad:
            dcols = gf @ kernel.value.reshape(kh * kw * cin, cout).T
            dx = _col2im(dcols, x.shape, kh, kw, stride, padding)
        if bias is not None and bias.needs_grad:
            db = gf.sum(axis=0)
        return dx, dkernel, db

    return Var(out, (x, kernel) if bias is None else (x, kernel, bias), vjp)


def depthwise_conv_op(x: Var, kernel: Var, bias: Var | None = None) -> Var:
    """Per-channel convolution of [..., H, W, C] maps with a [kh, kw, C] kernel.

    Same-size output: stride 1, padding kh // 2.
    """
    kh, kw, c = kernel.shape
    if c != x.shape[-1]:
        raise ValueError(f"depthwise_conv: kernel has {c} channels, map has {x.shape[-1]}")
    pad = kh // 2
    cols, out_h, out_w = _im2col(x.value, kh, kw, 1, pad)
    cols = cols.reshape(*cols.shape[:-1], kh * kw, c)
    out = np.einsum("...nkc,kc->...nc", cols, kernel.value.reshape(kh * kw, c))
    if bias is not None:
        out += bias.value
    out = out.reshape(*x.shape[:-3], out_h, out_w, c)

    def vjp(g: Array) -> tuple[Array | None, Array | None, Array | None]:
        gf = g.reshape(-1, c)  # every output position of every map
        dx = dkernel = db = None
        if kernel.needs_grad:
            cols = _im2col(x.value, kh, kw, 1, pad)[0].reshape(-1, kh * kw, c)
            dkernel = np.einsum("nkc,nc->kc", cols, gf).reshape(kernel.shape)
        if x.needs_grad:
            dcols = np.einsum("kc,nc->nkc", kernel.value.reshape(kh * kw, c), gf)
            dx = _col2im(dcols, x.shape, kh, kw, 1, pad)
        if bias is not None and bias.needs_grad:
            db = gf.sum(axis=0)
        return dx, dkernel, db

    return Var(out, (x, kernel) if bias is None else (x, kernel, bias), vjp)


def _lerp_taps(n_out: int, n_in: int) -> tuple[Array, Array, Array]:
    """1-D taps of a pixel-center-aligned, edge-clamped resize from n_in to n_out.

    Returns (lower index, upper index, weight of the upper index), each [n_out].
    """
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(pos)
    lo_i = np.clip(lo, 0, n_in - 1).astype(np.int64)
    hi_i = np.clip(lo + 1, 0, n_in - 1).astype(np.int64)
    return lo_i, hi_i, pos - lo


def _resize_matrix(n_out: int, n_in: int) -> Array:
    """[n_out, n_in] weights of the 1-D lerp that ``bilinear_resize_op`` applies per axis."""
    lo, hi, t = _lerp_taps(n_out, n_in)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    m[rows, lo] = 1.0 - t  # one lower and one upper tap per row; they coincide when clamped
    m[rows, hi] += t
    return m


def bilinear_resize_op(img: Var, out_h: int, out_w: int) -> Var:
    """Resize [..., H, W, C] maps with pixel-center alignment and edge clamping.

    Same-size resize is an exact copy; constant maps stay exactly constant.
    """
    *lead, h, w, c = img.shape
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bilinear_resize: bad output size {out_h}x{out_w}")
    y0, y1, ty = _lerp_taps(out_h, h)
    x0, x1, tx = _lerp_taps(out_w, w)
    # Each corner is one gather of whole pixels (C values each); the lerps then
    # run over [..., out_h, out_w*C] rows with the x weight repeated per
    # channel, so no inner loop is only C long.
    pixels = img.value.reshape(*lead, h * w, c)
    rows = (*lead, out_h, out_w * c)
    y0 = y0[:, None] * w
    y1 = y1[:, None] * w
    tx = tx.repeat(c)
    ty = ty[:, None]
    # Lerp form a + t*(b - a), exact for t == 0 and for constant maps; worked
    # in place so at most three output-sized buffers are live at once.
    top = np.take(pixels, (y0 + x0).ravel(), axis=-2).reshape(rows)
    step = np.take(pixels, (y0 + x1).ravel(), axis=-2).reshape(rows)
    step -= top
    step *= tx
    top += step
    bot = np.take(pixels, (y1 + x0).ravel(), axis=-2).reshape(rows)
    step = np.take(pixels, (y1 + x1).ravel(), axis=-2).reshape(rows)
    step -= bot
    step *= tx
    bot += step
    del step
    bot -= top
    bot *= ty
    top += bot

    def vjp(g: Array) -> tuple[Array]:
        # The resize is separable: out = Ry @ img @ Rx^T per channel.
        ry = _resize_matrix(out_h, h)
        rx = _resize_matrix(out_w, w)
        rows = ry.T @ g.reshape(*lead, out_h, out_w * c)  # [..., H, out_w*C]
        return (rx.T @ rows.reshape(*lead, h, out_w, c),)

    return Var(top.reshape(*lead, out_h, out_w, c), (img,), vjp)


_TAP = np.array([0, 1])[:, None, None]  # lower/upper tap offset, [tap, 1, 1]
_TAP_SIGN = np.array([-1.0, 1.0])[:, None, None]


def _sampling_plan(
    maps_shape: tuple[int, ...], points: Array
) -> tuple[sparse.csr_array, Array, Array, Array]:
    """Plan zero-padded sampling of maps of ``maps_shape`` [..., H, W, C] at points [..., N, 2].

    The points carry the maps' leading axes, one set of N per map. With the
    maps flattened to rows [L*H*W, C] and the points to [M, 2] (M = L*N),
    point m reads the corner rows ``index[m]`` [2, 2] (lower/upper y tap, then
    lower/upper x tap) with weight ``taps[a, 1, m] * taps[b, 0, m]``. Returns
    (CSR operator [M, L*H*W], index [M, 2, 2], taps [tap, axis, M], valid
    [tap, axis, M]). A tap outside the map (``valid`` false) has weight 0 and
    points at the nearest row inside.
    """
    if len(maps_shape) < 3 or points.ndim != len(maps_shape) - 1 or points.shape[-1] != 2 or (
        points.shape[:-2] != tuple(maps_shape[:-3])
    ):
        raise ValueError(
            f"bilinear_sample: points must be [..., N, 2] with the maps' leading axes, "
            f"got maps {tuple(maps_shape)} and points {points.shape}"
        )
    h, w = maps_shape[-3:-1]
    maps = math.prod(maps_shape[:-3])
    size = np.array([[w], [h]])  # [axis, 1]
    t = points.reshape(-1, 2).T * size  # [axis, M]
    t -= 0.5  # continuous pixel-space coordinates
    lo = np.floor(t)
    t -= lo  # fractional offset within the cell
    m = t.shape[1]
    cell = np.empty((2, 2, m), dtype=np.int64)  # [tap, axis, M]
    np.add(lo, _TAP, out=cell, casting="unsafe")
    valid = (cell >= 0) & (cell < size)
    taps = np.empty((2, 2, m))
    np.subtract(1.0, t, out=taps[0])
    taps[1] = t
    taps *= valid
    np.maximum(cell, 0, out=cell)
    np.minimum(cell, size - 1, out=cell)
    rows = cell[:, 1]
    rows *= w
    rows += np.arange(maps, dtype=np.int64).repeat(points.shape[-2]) * (h * w)
    # [M, 2, 2] results written through [2, 2, M] views: long inner loops
    index = np.empty((m, 2, 2), dtype=np.int64)
    np.add(rows[:, None, :], cell[None, :, 0], out=index.transpose(1, 2, 0))
    weight = np.empty((m, 2, 2))
    np.multiply(taps[:, None, 1], taps[None, :, 0], out=weight.transpose(1, 2, 0))
    matrix = sparse.csr_array(
        (weight.reshape(-1), index.reshape(-1), np.arange(0, 4 * m + 1, 4)),
        shape=(m, maps * h * w),
    )
    return matrix, index, taps, valid


def bilinear_sample_op(img: Var, points: Var) -> Var:
    """Differentiable zero-padded sampling; grads flow to maps and coords.

    img: [..., H, W, C], points: [..., N, 2] -> [..., N, C]. One sampling plan
    serves the forward ``S @ maps`` and, kept only while a gradient is needed,
    the vjp: ``S^T @ g`` for the maps and the corner rows for the points.
    """
    iv, pv = img.value, points.value
    matrix, index, taps, valid = _sampling_plan(iv.shape, pv)
    h, w, c = iv.shape[-3:]

    def vjp(g: Array) -> tuple[Array | None, Array | None]:
        dimg = dpts = None
        gf = g.reshape(-1, c)
        if img.needs_grad:
            dimg = (matrix.T @ gf).reshape(iv.shape)
        if points.needs_grad:
            corners = np.take(iv.reshape(-1, c), index, axis=0)  # [M, 2, 2, C]
            dweight = np.einsum("mabc,mc->mab", corners, gf)
            # d tap weight / d normalized coordinate: -size, +size, 0 outside
            slope = valid * (_TAP_SIGN * np.array([[w], [h]]))
            (wx, wy), (dx, dy) = taps.swapaxes(0, 1), slope.swapaxes(0, 1)
            dpts = np.empty(g.shape[:-1] + (2,))
            dpts[..., 0] = np.einsum("mab,am,bm->m", dweight, wy, dx).reshape(g.shape[:-1])
            dpts[..., 1] = np.einsum("mab,am,bm->m", dweight, dy, wx).reshape(g.shape[:-1])
        return dimg, dpts

    out = (matrix @ iv.reshape(-1, c)).reshape(*pv.shape[:-1], c)
    return Var(out, (img, points), vjp)
