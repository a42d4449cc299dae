"""Numeric helpers that the ops of :mod:`piip.autodiff` share.

Statistics, resize taps, sampling plans, patch unfolding and reference
points, in plain double-precision numpy; none is the forward of an op.
Conventions used throughout the package:

  * image / feature grids are ``(H, W, C)`` float64 arrays
  * token matrices are ``(N, D)`` with tokens in row-major grid order
  * any number of leading axes may stack grids ``(..., H, W, C)``, tokens
    ``(..., N, D)`` and sampling points ``(..., N, 2)``; a single image has none
  * sampling coordinates are normalized ``(x, y)`` in ``[0, 1]^2`` with pixel
    centers at ``((j + 0.5) / W, (i + 0.5) / H)`` (align-corners = false)
  * a resize (``lerp_taps``) clamps at the border, so constant maps stay
    constant; sampling (``sampling_plan``) zero-pads out-of-bounds contributions
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

# GroupNorm statistics axes of a [..., H, W, groups, C/groups] view
GROUP_AXES = (-4, -3, -1)


def standardize(
    x: np.ndarray, axes: tuple[int, ...], eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def lerp_taps(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D taps of a pixel-center-aligned, edge-clamped resize from n_in to n_out.

    Returns (lower index, upper index, weight of the upper index), each [n_out].
    """
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(pos)
    lo_i = np.clip(lo, 0, n_in - 1).astype(np.int64)
    hi_i = np.clip(lo + 1, 0, n_in - 1).astype(np.int64)
    return lo_i, hi_i, pos - lo


@dataclass(frozen=True)
class SamplingPlan:
    """Zero-padded bilinear sampling of [..., H, W, C] maps at fixed points.

    With the maps flattened to rows [L*H*W, C] and the points to [M, 2]
    (M = L*N), point m reads the corners ``index[m]`` [2, 2] (lower/upper y
    tap, then lower/upper x tap) with weight ``taps[a, 1, m] * taps[b, 0, m]``,
    held as the CSR operator ``matrix`` [M, L*H*W]. ``taps`` [tap, axis, M]
    holds the lower/upper tap weights along x and y. A tap outside the map
    (``valid`` false) has weight 0 and points at the nearest row inside, so a
    corner outside contributes nothing.
    """

    matrix: sparse.csr_array
    index: np.ndarray  # [M, 2, 2]
    taps: np.ndarray  # [2, 2, M]
    valid: np.ndarray  # [2, 2, M]

    def sample(self, maps: np.ndarray, points_shape: tuple[int, ...]) -> np.ndarray:
        """``S @ maps``: the samples [..., N, C] for points of ``points_shape``."""
        c = maps.shape[-1]
        return (self.matrix @ maps.reshape(-1, c)).reshape(*points_shape[:-1], c)

    def map_grad(self, g: np.ndarray, maps_shape: tuple[int, ...]) -> np.ndarray:
        """``S^T @ g``: the gradient of the maps from the samples' gradient."""
        return (self.matrix.T @ g.reshape(-1, g.shape[-1])).reshape(maps_shape)

    def point_grad(self, g: np.ndarray, maps: np.ndarray) -> np.ndarray:
        """Gradient of the points [..., N, 2] from the samples' gradient."""
        h, w, c = maps.shape[-3:]
        corners = np.take(maps.reshape(-1, c), self.index, axis=0)  # [M, 2, 2, C]
        dweight = np.einsum("mabc,mc->mab", corners, g.reshape(-1, c))
        # d tap weight / d normalized coordinate: -size, +size, 0 outside
        slope = self.valid * (_TAP_SIGN * np.array([[w], [h]]))
        (wx, wy), (dx, dy) = self.taps.swapaxes(0, 1), slope.swapaxes(0, 1)
        out = np.empty(g.shape[:-1] + (2,))
        out[..., 0] = np.einsum("mab,am,bm->m", dweight, wy, dx).reshape(g.shape[:-1])
        out[..., 1] = np.einsum("mab,am,bm->m", dweight, dy, wx).reshape(g.shape[:-1])
        return out


_TAP = np.array([0, 1])[:, None, None]  # lower/upper tap offset, [tap, 1, 1]
_TAP_SIGN = np.array([-1.0, 1.0])[:, None, None]


def sampling_plan(maps_shape: tuple[int, ...], points: np.ndarray) -> SamplingPlan:
    """Plan sampling of maps of ``maps_shape`` [..., H, W, C] at points [..., N, 2].

    The points carry the maps' leading axes, one set of N per map.
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
    return SamplingPlan(matrix, index, taps, valid)


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


def reference_points(grid_h: int, grid_w: int) -> np.ndarray:
    """Normalized token-center coordinates of a grid, row-major [N, 2] (x, y)."""
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"reference_points: bad grid {grid_h}x{grid_w}")
    out = np.empty((grid_h, grid_w, 2))  # row-major: y varies over rows
    out[..., 0] = (np.arange(grid_w, dtype=np.float64) + 0.5) / grid_w
    out[..., 1] = ((np.arange(grid_h, dtype=np.float64) + 0.5) / grid_h)[:, None]
    return out.reshape(-1, 2)
