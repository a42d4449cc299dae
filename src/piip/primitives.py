"""Dense numeric kernels shared by every layer in the package.

Everything here is plain numpy in double precision, written so that a
scalar-loop re-implementation produces the same numbers to ~1e-9 or better.
Conventions used throughout the package:

  * image / feature grids are ``(H, W, C)`` float64 arrays
  * token matrices are ``(N, D)`` with tokens in row-major grid order
  * any number of leading axes may stack grids ``(..., H, W, C)``, tokens
    ``(..., N, D)`` and sampling points ``(..., N, 2)``; a single image has none
  * sampling coordinates are normalized ``(x, y)`` in ``[0, 1]^2`` with pixel
    centers at ``((j + 0.5) / W, (i + 0.5) / H)`` (align-corners = false)
  * ``bilinear_resize`` clamps at the border (constant maps stay constant);
    ``bilinear_sample`` zero-pads out-of-bounds contributions
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# GroupNorm statistics axes of a [..., H, W, groups, C/groups] view
GROUP_AXES = (-4, -3, -1)


@dataclass(frozen=True)
class FeatureMap:
    """Tokens of one branch plus the grid geometry they were lifted from.

    tokens: [grid_h * grid_w, dim], row-major over the grid.
    """

    grid_h: int
    grid_w: int
    dim: int
    branch_id: int
    tokens: np.ndarray

    def __post_init__(self) -> None:
        if self.tokens.shape != (self.grid_h * self.grid_w, self.dim):
            raise ValueError(
                f"FeatureMap tokens shape {self.tokens.shape} does not match "
                f"grid {self.grid_h}x{self.grid_w} with dim {self.dim}"
            )

    def as_grid(self) -> np.ndarray:
        """Return the tokens reshaped to [grid_h, grid_w, dim]."""
        return self.tokens.reshape(self.grid_h, self.grid_w, self.dim)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """x: [..., d_in], weight: [d_in, d_out], bias: [d_out] -> [..., d_out]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(f"linear: input dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def layer_norm(
    x: np.ndarray,
    gain: np.ndarray | None = None,
    shift: np.ndarray | None = None,
    eps: float = 1e-6,
) -> np.ndarray:
    """Normalize over the last axis; biased variance, then affine."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    out = (x - mu) / np.sqrt(var + eps)
    if gain is not None:
        out = out * gain
    if shift is not None:
        out = out + shift
    return out


def group_norm(
    x: np.ndarray,
    groups: int,
    gain: np.ndarray | None = None,
    shift: np.ndarray | None = None,
    eps: float = 1e-6,
) -> np.ndarray:
    """Channel-group normalization of a [..., H, W, C] map.

    Statistics are taken per map and group over all spatial positions and the
    group's channels, the standard convention for convolutional feature maps.
    """
    x = np.asarray(x, dtype=np.float64)
    *lead, h, w, c = x.shape
    if c % groups != 0:
        raise ValueError(f"group_norm: channels {c} not divisible by groups {groups}")
    g = x.reshape(*lead, h, w, groups, c // groups)
    mu = g.mean(axis=GROUP_AXES, keepdims=True)
    var = np.mean((g - mu) ** 2, axis=GROUP_AXES, keepdims=True)
    out = ((g - mu) / np.sqrt(var + eps)).reshape(x.shape)
    if gain is not None:
        out = out * gain
    if shift is not None:
        out = out + shift
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; safe for large magnitudes."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error-function form: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def lerp_taps(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D taps of a pixel-center-aligned, edge-clamped resize from n_in to n_out.

    Returns (lower index, upper index, weight of the upper index), each [n_out].
    """
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(pos)
    lo_i = np.clip(lo, 0, n_in - 1).astype(np.int64)
    hi_i = np.clip(lo + 1, 0, n_in - 1).astype(np.int64)
    return lo_i, hi_i, pos - lo


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a [..., H, W, C] map with pixel-center alignment and edge clamping.

    Same-size resize is an exact copy; constant maps stay exactly constant.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-3:-1]
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bilinear_resize: bad output size {out_h}x{out_w}")
    y0, y1, ty = lerp_taps(out_h, h)
    x0, x1, tx = lerp_taps(out_w, w)
    ty = ty[:, None, None]
    tx = tx[:, None]
    # Lerp form a + t*(b - a), exact for t == 0 and for constant maps; worked
    # in place so only the two output-sized rows are live at once.
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
    del rows, step
    bot -= top
    bot *= ty
    top += bot
    return top


def bilinear_taps(
    shape: tuple[int, ...], points: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Corner taps of zero-padded bilinear sampling of [..., H, W, C] maps.

    ``points`` is [..., N, 2] with the same leading axes as the maps. Returns
    the four corner indices (00, 01, 10, 11), each [..., N], as rows of the
    maps flattened to [L*H*W, C] (see :func:`padded_rows`), where a corner
    outside its map points at the trailing all-zero row; plus the fractional
    offsets tx, ty [..., N] within the cell.
    """
    *lead, h, w, _ = shape
    maps = int(np.prod(lead, dtype=np.int64))
    xp = points[..., 0] * w - 0.5  # continuous pixel-space coords
    yp = points[..., 1] * h - 0.5
    x0 = np.floor(xp)
    y0 = np.floor(yp)
    tx = xp - x0
    ty = yp - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    base = (np.arange(maps, dtype=np.int64) * (h * w)).reshape(*lead, 1)
    corners = []
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        yi = y0 + dy
        xi = x0 + dx
        inside = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        corners.append(np.where(inside, base + yi * w + xi, maps * h * w))
    return corners, tx, ty


def padded_rows(img: np.ndarray) -> np.ndarray:
    """[..., H, W, C] maps as [L*H*W + 1, C] rows, the last one all zero."""
    c = img.shape[-1]
    return np.concatenate([img.reshape(-1, c), np.zeros((1, c))])


def bilinear_sample(img: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sample [..., H, W, C] maps at normalized (x, y) points, zero-padded.

    points: [..., N, 2], one set per map; returns [..., N, C]. A point exactly
    on a cell center returns that cell's stored values; contributions from
    outside the map are zero.
    """
    img = np.asarray(img, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if img.ndim < 3 or points.ndim != img.ndim - 1 or points.shape[-1] != 2 or (
        points.shape[:-2] != img.shape[:-3]
    ):
        raise ValueError(
            f"bilinear_sample: points must be [..., N, 2] with the maps' leading axes, "
            f"got maps {img.shape} and points {points.shape}"
        )
    rows = padded_rows(img)
    corners, tx, ty = bilinear_taps(img.shape, points)
    tx = tx[..., None]
    ty = ty[..., None]
    # v00*(1-tx)*(1-ty) + v01*tx*(1-ty) + v10*(1-tx)*ty + v11*tx*ty, in place
    out = rows[corners[0]]
    out *= 1.0 - tx
    out *= 1.0 - ty
    taps = ((corners[1], tx, 1.0 - ty), (corners[2], 1.0 - tx, ty), (corners[3], tx, ty))
    for idx, wx, wy in taps:
        tap = rows[idx]
        tap *= wx
        tap *= wy
        out += tap
    return out


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Cross-correlate [..., H, W, Cin] maps with a [kh, kw, Cin, Cout] kernel."""
    x = np.asarray(x, dtype=np.float64)
    kh, kw, kcin, cout = kernel.shape
    if kcin != x.shape[-1]:
        raise ValueError(f"conv2d: kernel expects {kcin} input channels, map has {x.shape[-1]}")
    cols, out_h, out_w = im2col(x, kh, kw, stride, padding)
    out = cols @ kernel.reshape(kh * kw * kcin, cout)  # [..., out_h*out_w, Cout]
    if bias is not None:
        out += bias
    return out.reshape(*x.shape[:-3], out_h, out_w, cout)


def depthwise_conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Per-channel convolution with same-size output (stride 1, pad k//2).

    x: [..., H, W, C], kernel: [kh, kw, C].
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[-1]
    kh, kw, kc = kernel.shape
    if kc != c:
        raise ValueError(f"depthwise_conv: kernel has {kc} channels, map has {c}")
    cols, out_h, out_w = im2col(x, kh, kw, 1, kh // 2)
    cols = cols.reshape(*cols.shape[:-1], kh * kw, c)
    out = np.einsum("...nkc,kc->...nc", cols, kernel.reshape(kh * kw, c))
    if bias is not None:
        out += bias
    return out.reshape(*x.shape[:-3], out_h, out_w, c)


def conv_out_size(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold [..., H, W, C] maps into patch rows [..., out_h*out_w, kh*kw*C]."""
    *lead, h, w, c = x.shape
    out_h = conv_out_size(h, kh, stride, padding)
    out_w = conv_out_size(w, kw, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"im2col: kernel {kh}x{kw} larger than padded map {h}x{w}")
    if padding:
        x = np.pad(x, [(0, 0)] * len(lead) + [(padding, padding)] * 2 + [(0, 0)])
    win = sliding_window_view(x, (kh, kw), axis=(-3, -2))  # [..., H', W', C, kh, kw]
    win = np.moveaxis(win[..., ::stride, ::stride, :, :, :], -3, -1)
    return win.reshape(*lead, out_h * out_w, kh * kw * c), out_h, out_w


def reference_points(grid_h: int, grid_w: int) -> np.ndarray:
    """Normalized token-center coordinates of a grid, row-major [N, 2] (x, y)."""
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"reference_points: bad grid {grid_h}x{grid_w}")
    xs = (np.arange(grid_w, dtype=np.float64) + 0.5) / grid_w
    ys = (np.arange(grid_h, dtype=np.float64) + 0.5) / grid_h
    gx, gy = np.meshgrid(xs, ys)  # row-major: y varies over rows
    return np.stack([gx.ravel(), gy.ravel()], axis=1)
