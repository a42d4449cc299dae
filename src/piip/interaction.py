"""Cross-branch interaction directions.

A direction ``src -> dst`` lets the destination branch query the source
branch's tokens: the source features are linearly reconciled to the
destination width, both sides are layer-normalized, and a deformable
cross-attention gathers K sampled values per head around each query token's
grid position. The result enters through a per-channel zero-initialized gate
followed by a gated thin FFN, so a freshly built model is exactly the stack
of its isolated branches.

Each direction returns the update it adds. All directions at one point read
the *pre-update* features; a branch receiving several updates (e.g. the
middle branch of a three-level pyramid) adds them to its tokens in pair order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .branches import FeatureMap, Params, attend
from .config import (
    AttentionImpl,
    InteractionSchedule,
    deform_heads_for,
    deform_value_dim,
    ffn_hidden,
)
from .params import ParamSpec


def reference_points(grid_h: int, grid_w: int) -> np.ndarray:
    """Normalized token-center coordinates of a grid, row-major [N, 2] (x, y)."""
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"reference_points: bad grid {grid_h}x{grid_w}")
    out = np.empty((grid_h, grid_w, 2))  # row-major: y varies over rows
    out[..., 0] = (np.arange(grid_w, dtype=np.float64) + 0.5) / grid_w
    out[..., 1] = ((np.arange(grid_h, dtype=np.float64) + 0.5) / grid_h)[:, None]
    return out.reshape(-1, 2)


class DeformableCrossAttention:
    """Sampled cross-attention: K bilinear taps per head around each query."""

    def __init__(self, prefix: str, dim: int, heads: int, points: int, value_dim: int) -> None:
        self.prefix = prefix
        self.dim = dim
        self.heads = heads
        self.points = points
        self.value_dim = value_dim
        self.head_dim = value_dim // heads

    def declare(self, ps: ParamSpec) -> None:
        d, vd = self.dim, self.value_dim
        mk = self.heads * self.points
        pre = self.prefix
        ps.declare(f"{pre}.val_w", (d, vd))
        ps.declare(f"{pre}.val_b", (vd,), 0.0)
        ps.declare(f"{pre}.out_w", (vd, d))
        ps.declare(f"{pre}.out_b", (d,), 0.0)
        ps.declare(f"{pre}.off_w", (d, mk * 2))
        ps.declare(f"{pre}.off_b", (mk * 2,), 0.0)
        ps.declare(f"{pre}.wt_w", (d, mk))
        ps.declare(f"{pre}.wt_b", (mk,), 0.0)

    def forward(
        self,
        P: Params,
        query: Var,
        q_grid: tuple[int, int],
        value: Var,
        v_grid: tuple[int, int],
    ) -> Var:
        pre = self.prefix
        lead, nq = query.shape[:-2], query.shape[-2]
        nd = len(lead)
        gvh, gvw = v_grid
        m, k, hd = self.heads, self.points, self.head_dim

        # Heads become a leading axis of the value maps and the sampling
        # points, so one sampling call serves every head.
        vmap = ad.matmul(value, P[f"{pre}.val_w"], P[f"{pre}.val_b"])  # [..., Nv, vd]
        vmap = ad.reshape(vmap, lead + (gvh, gvw, m, hd))
        vmap = ad.transpose(vmap, tuple(range(nd)) + (nd + 2, nd, nd + 1, nd + 3))  # heads first

        off = ad.matmul(query, P[f"{pre}.off_w"], P[f"{pre}.off_b"])  # [..., Nq, m*k*2]
        off = ad.swapaxes(ad.reshape(off, lead + (nq, m, k, 2)), -4, -3)  # [..., m, Nq, k, 2]
        wts = ad.matmul(query, P[f"{pre}.wt_w"], P[f"{pre}.wt_b"])  # [..., Nq, m*k]
        wts = ad.softmax_op(ad.reshape(wts, lead + (nq, m, k)))  # softmax over K per head
        wts = ad.swapaxes(wts, -3, -2)  # [..., m, Nq, k]

        # Sampling locations: query-grid token centers plus offsets measured in
        # value-grid cells, all in normalized [0, 1]^2 coordinates.
        ref = reference_points(*q_grid)  # [Nq, 2]
        ref_b = ad.as_var(ref.reshape(nq, 1, 2))
        inv = ad.as_var(np.array([1.0 / gvw, 1.0 / gvh]))
        locs = ad.add(ref_b, ad.mul(off, inv))  # [..., m, Nq, k, 2]

        pts = ad.reshape(locs, lead + (m, nq * k, 2))
        sampled = ad.bilinear_sample_op(vmap, pts)  # [..., m, Nq*k, hd]
        sampled = ad.reshape(sampled, lead + (m, nq, k, hd))
        heads = ad.weighted_sum_op(sampled, wts)  # [..., m, Nq, hd]
        merged = ad.reshape(ad.swapaxes(heads, -3, -2), lead + (nq, self.value_dim))
        return ad.matmul(merged, P[f"{pre}.out_w"], P[f"{pre}.out_b"])


class RegularCrossAttention:
    """Dense multi-head cross-attention (every query attends to every value)."""

    def __init__(self, prefix: str, dim: int, heads: int) -> None:
        self.prefix = prefix
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads

    def declare(self, ps: ParamSpec) -> None:
        d = self.dim
        pre = self.prefix
        for name in ("q", "k", "v", "out"):
            ps.declare(f"{pre}.{name}_w", (d, d))
            ps.declare(f"{pre}.{name}_b", (d,), 0.0)

    def forward(
        self,
        P: Params,
        query: Var,
        q_grid: tuple[int, int],
        value: Var,
        v_grid: tuple[int, int],
    ) -> Var:
        pre = self.prefix
        lead, nq, nv = query.shape[:-2], query.shape[-2], value.shape[-2]
        m, hd = self.heads, self.head_dim

        def heads(x: Var, n: int, name: str) -> Var:  # [..., n, D] -> [..., m, n, hd]
            x = ad.matmul(x, P[f"{pre}.{name}_w"], P[f"{pre}.{name}_b"])
            return ad.swapaxes(ad.reshape(x, lead + (n, m, hd)), -3, -2)

        q, k, v = heads(query, nq, "q"), heads(value, nv, "k"), heads(value, nv, "v")
        out = attend(q, k, v, hd)  # [..., m, Nq, hd]
        out = ad.reshape(ad.swapaxes(out, -3, -2), lead + (nq, self.dim))
        return ad.matmul(out, P[f"{pre}.out_w"], P[f"{pre}.out_b"])


class InteractionDirection:
    """Learnable state for one ``src -> dst`` update at one interaction point.

    Its parameters are named ``interaction{point}.pair{lo}_{hi}.to{dst}.*``,
    where ``lo < hi`` are the two branches it links.
    """

    def __init__(
        self, point: int, src: int, dst: int, dims: list[int], schedule: InteractionSchedule
    ) -> None:
        self.src = src
        self.dst = dst
        lo, hi = sorted((src, dst))
        self.prefix = f"interaction{point}.pair{lo}_{hi}.to{dst}"
        self.dst_dim = dst_dim = dims[dst - 1]
        self.src_dim = dims[src - 1]
        self.hidden = ffn_hidden(dst_dim, schedule.ffn_ratio)
        if schedule.attention_impl is AttentionImpl.DEFORMABLE:
            self.attn: DeformableCrossAttention | RegularCrossAttention = (
                DeformableCrossAttention(
                    f"{self.prefix}.attn",
                    dst_dim,
                    deform_heads_for(dst_dim, schedule),
                    schedule.deform_points,
                    deform_value_dim(dst_dim, schedule),
                )
            )
        else:
            self.attn = RegularCrossAttention(
                f"{self.prefix}.attn", dst_dim, deform_heads_for(dst_dim, schedule)
            )

    def declare(self, ps: ParamSpec) -> None:
        d, s, h = self.dst_dim, self.src_dim, self.hidden
        pre = self.prefix
        ps.declare(f"{pre}.fc_w", (s, d))
        ps.declare(f"{pre}.fc_b", (d,), 0.0)
        ps.declare(f"{pre}.qln_g", (d,), 1.0)
        ps.declare(f"{pre}.qln_b", (d,), 0.0)
        ps.declare(f"{pre}.vln_g", (d,), 1.0)
        ps.declare(f"{pre}.vln_b", (d,), 0.0)
        self.attn.declare(ps)
        ps.declare(f"{pre}.fln_g", (d,), 1.0)
        ps.declare(f"{pre}.fln_b", (d,), 0.0)
        ps.declare(f"{pre}.ffn1_w", (d, h))
        ps.declare(f"{pre}.ffn1_b", (h,), 0.0)
        ps.declare(f"{pre}.ffn2_w", (h, d))
        ps.declare(f"{pre}.ffn2_b", (d,), 0.0)
        ps.declare(f"{pre}.gamma", (d,), 0.0)
        ps.declare(f"{pre}.tau", (d,), 0.0)

    def forward(self, P: Params, dst: FeatureMap, src: FeatureMap) -> Var:
        """The update ``gamma * attn + tau * FFN(LN(F + gamma * attn))`` to ``dst.tokens``."""
        pre = self.prefix
        reconciled = ad.matmul(src.tokens, P[f"{pre}.fc_w"], P[f"{pre}.fc_b"])
        qn = ad.layer_norm_op(dst.tokens, P[f"{pre}.qln_g"], P[f"{pre}.qln_b"])
        vn = ad.layer_norm_op(reconciled, P[f"{pre}.vln_g"], P[f"{pre}.vln_b"])
        attn_out = self.attn.forward(
            P, qn, (dst.grid_h, dst.grid_w), vn, (src.grid_h, src.grid_w)
        )
        attn_update = ad.mul(attn_out, P[f"{pre}.gamma"])
        fn = ad.layer_norm_op(ad.add(dst.tokens, attn_update), P[f"{pre}.fln_g"], P[f"{pre}.fln_b"])
        fn = ad.matmul(fn, P[f"{pre}.ffn1_w"], P[f"{pre}.ffn1_b"])
        fn = ad.gelu_op(fn)
        fn = ad.matmul(fn, P[f"{pre}.ffn2_w"], P[f"{pre}.ffn2_b"])
        return ad.add(attn_update, ad.mul(fn, P[f"{pre}.tau"]))


def build_interaction_directions(
    point_index: int,
    dims: list[int],
    schedule: InteractionSchedule,
) -> list[InteractionDirection]:
    """The directions of one interaction point, in declaration order.

    Pairs come in ascending order, and within a pair ``lo -> hi`` comes
    before ``hi -> lo``.
    """
    order = sorted(schedule.directions, key=lambda sd: (min(sd), max(sd), sd[0] > sd[1]))
    return [InteractionDirection(point_index, src, dst, dims, schedule) for src, dst in order]


def apply_interaction_point(
    P: Params, states: list[FeatureMap], directions: list[InteractionDirection]
) -> list[FeatureMap]:
    """Run every direction against the incoming states and add their updates.

    ``states[i - 1]`` is branch ``i``, the numbering of ``src`` and ``dst``.
    Each direction sees the features as they were *before* this interaction
    point; a branch updated by several directions adds the updates to its
    original tokens in list order.
    """
    new_tokens = [s.tokens for s in states]
    for d in directions:
        update = d.forward(P, states[d.dst - 1], states[d.src - 1])
        new_tokens[d.dst - 1] = ad.add(new_tokens[d.dst - 1], update)
    return [replace(s, tokens=t) for s, t in zip(states, new_tokens)]
