"""Cross-branch interaction units.

A direction ``src -> dst`` lets the destination branch query the source
branch's tokens: the source features are linearly reconciled to the
destination width, both sides are layer-normalized, and a deformable
cross-attention gathers K sampled values per head around each query token's
grid position. The result enters through a per-channel zero-initialized gate
followed by a gated thin FFN, so a freshly built model is exactly the stack
of its isolated branches.

All units at one interaction point read the *pre-update* features; a branch
receiving several updates (e.g. the middle branch of a three-level pyramid)
accumulates them additively in pair order.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .branches import FeatureMap, Params
from .config import (
    AttentionImpl,
    InteractionSchedule,
    deform_heads_for,
    deform_value_dim,
    ffn_hidden,
)
from .params import ParamSpec
from .primitives import reference_points


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
        ps.declare(f"{pre}.val_w", (d, vd), "trunc_normal")
        ps.declare(f"{pre}.val_b", (vd,), "zeros")
        ps.declare(f"{pre}.out_w", (vd, d), "trunc_normal")
        ps.declare(f"{pre}.out_b", (d,), "zeros")
        ps.declare(f"{pre}.off_w", (d, mk * 2), "trunc_normal")
        ps.declare(f"{pre}.off_b", (mk * 2,), "zeros")
        ps.declare(f"{pre}.wt_w", (d, mk), "trunc_normal")
        ps.declare(f"{pre}.wt_b", (mk,), "zeros")

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
        vmap = ad.linear_op(value, P[f"{pre}.val_w"], P[f"{pre}.val_b"])  # [..., Nv, vd]
        vmap = ad.reshape(vmap, lead + (gvh, gvw, m, hd))
        vmap = ad.transpose(vmap, tuple(range(nd)) + (nd + 2, nd, nd + 1, nd + 3))  # heads first

        off = ad.linear_op(query, P[f"{pre}.off_w"], P[f"{pre}.off_b"])  # [..., Nq, m*k*2]
        off = ad.swapaxes(ad.reshape(off, lead + (nq, m, k, 2)), -4, -3)  # [..., m, Nq, k, 2]
        wts = ad.linear_op(query, P[f"{pre}.wt_w"], P[f"{pre}.wt_b"])  # [..., Nq, m*k]
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
        return ad.linear_op(merged, P[f"{pre}.out_w"], P[f"{pre}.out_b"])


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
            ps.declare(f"{pre}.{name}_w", (d, d), "trunc_normal")
            ps.declare(f"{pre}.{name}_b", (d,), "zeros")

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
            x = ad.linear_op(x, P[f"{pre}.{name}_w"], P[f"{pre}.{name}_b"])
            return ad.swapaxes(ad.reshape(x, lead + (n, m, hd)), -3, -2)

        q, k, v = heads(query, nq, "q"), heads(value, nv, "k"), heads(value, nv, "v")
        scores = ad.matmul(ad.scale(q, 1.0 / math.sqrt(hd)), ad.swapaxes(k, -1, -2))
        out = ad.matmul(ad.softmax_op(scores), v)  # [..., m, Nq, hd]
        out = ad.reshape(ad.swapaxes(out, -3, -2), lead + (nq, self.dim))
        return ad.linear_op(out, P[f"{pre}.out_w"], P[f"{pre}.out_b"])


class InteractionDirection:
    """Learnable state for one ``src -> dst`` update at one interaction point."""

    def __init__(
        self, prefix: str, dst_dim: int, src_dim: int, schedule: InteractionSchedule
    ) -> None:
        self.prefix = prefix
        self.dst_dim = dst_dim
        self.src_dim = src_dim
        self.hidden = ffn_hidden(dst_dim, schedule.ffn_ratio)
        if schedule.attention_impl is AttentionImpl.DEFORMABLE:
            self.attn: DeformableCrossAttention | RegularCrossAttention = (
                DeformableCrossAttention(
                    f"{prefix}.attn",
                    dst_dim,
                    deform_heads_for(dst_dim, schedule),
                    schedule.deform_points,
                    deform_value_dim(dst_dim, schedule),
                )
            )
        else:
            self.attn = RegularCrossAttention(
                f"{prefix}.attn", dst_dim, deform_heads_for(dst_dim, schedule)
            )

    def declare(self, ps: ParamSpec) -> None:
        d, s, h = self.dst_dim, self.src_dim, self.hidden
        pre = self.prefix
        ps.declare(f"{pre}.fc_w", (s, d), "trunc_normal")
        ps.declare(f"{pre}.fc_b", (d,), "zeros")
        ps.declare(f"{pre}.qln_g", (d,), "ones")
        ps.declare(f"{pre}.qln_b", (d,), "zeros")
        ps.declare(f"{pre}.vln_g", (d,), "ones")
        ps.declare(f"{pre}.vln_b", (d,), "zeros")
        self.attn.declare(ps)
        ps.declare(f"{pre}.fln_g", (d,), "ones")
        ps.declare(f"{pre}.fln_b", (d,), "zeros")
        ps.declare(f"{pre}.ffn1_w", (d, h), "trunc_normal")
        ps.declare(f"{pre}.ffn1_b", (h,), "zeros")
        ps.declare(f"{pre}.ffn2_w", (h, d), "trunc_normal")
        ps.declare(f"{pre}.ffn2_b", (d,), "zeros")
        ps.declare(f"{pre}.gamma", (d,), "zeros")
        ps.declare(f"{pre}.tau", (d,), "zeros")

    def forward(self, P: Params, dst: FeatureMap, src: FeatureMap) -> Var:
        """New tokens for the destination branch (same shape as dst.tokens)."""
        pre = self.prefix
        reconciled = ad.linear_op(src.tokens, P[f"{pre}.fc_w"], P[f"{pre}.fc_b"])
        qn = ad.layer_norm_op(dst.tokens, P[f"{pre}.qln_g"], P[f"{pre}.qln_b"])
        vn = ad.layer_norm_op(reconciled, P[f"{pre}.vln_g"], P[f"{pre}.vln_b"])
        attn_out = self.attn.forward(
            P, qn, (dst.grid_h, dst.grid_w), vn, (src.grid_h, src.grid_w)
        )
        gated = ad.add(dst.tokens, ad.mul(attn_out, P[f"{pre}.gamma"]))
        fn = ad.layer_norm_op(gated, P[f"{pre}.fln_g"], P[f"{pre}.fln_b"])
        fn = ad.linear_op(fn, P[f"{pre}.ffn1_w"], P[f"{pre}.ffn1_b"])
        fn = ad.gelu_op(fn)
        fn = ad.linear_op(fn, P[f"{pre}.ffn2_w"], P[f"{pre}.ffn2_b"])
        return ad.add(gated, ad.mul(fn, P[f"{pre}.tau"]))


class InteractionUnit:
    """Both directions between one branch pair at one interaction point."""

    def __init__(
        self,
        prefix: str,
        pair: tuple[int, int],  # 1-based (low, high), low < high
        dims: dict[int, int],
        directions: tuple[tuple[int, int], ...],
        schedule: InteractionSchedule,
    ) -> None:
        self.pair = pair
        lo, hi = pair
        self.directions: list[tuple[int, InteractionDirection]] = []
        for src, dst in ((lo, hi), (hi, lo)):
            if (src, dst) in directions:
                self.directions.append(
                    (
                        dst,
                        InteractionDirection(
                            f"{prefix}.to{dst}", dims[dst], dims[src], schedule
                        ),
                    )
                )

    def declare(self, ps: ParamSpec) -> None:
        for _, direction in self.directions:
            direction.declare(ps)

    def forward(
        self, P: Params, states: dict[int, FeatureMap]
    ) -> list[tuple[int, Var]]:
        """Per-direction updated tokens, computed from pre-update states."""
        out = []
        lo, hi = self.pair
        for dst, direction in self.directions:
            src = hi if dst == lo else lo
            out.append((dst, direction.forward(P, states[dst], states[src])))
        return out


def build_interaction_units(
    point_index: int,
    dims: dict[int, int],
    schedule: InteractionSchedule,
) -> list[InteractionUnit]:
    """Units for one interaction point, one per linked branch pair, ordered."""
    pairs = sorted({(min(s, d), max(s, d)) for s, d in schedule.directions})
    units = []
    for lo, hi in pairs:
        prefix = f"interaction{point_index}.pair{lo}_{hi}"
        units.append(InteractionUnit(prefix, (lo, hi), dims, schedule.directions, schedule))
    return units


def apply_interaction_point(
    P: Params, states: list[FeatureMap], units: list[InteractionUnit]
) -> list[FeatureMap]:
    """Run every unit against the incoming states, then apply all updates.

    Each unit sees the features as they were *before* this interaction point;
    a branch updated by several units accumulates the per-unit deltas in pair
    order on top of its original tokens.
    """
    by_id = {s.branch_id: s for s in states}
    new_tokens: dict[int, Var] = {s.branch_id: s.tokens for s in states}
    for unit in units:
        for dst, updated in unit.forward(P, by_id):
            delta = ad.sub(updated, by_id[dst].tokens)
            new_tokens[dst] = ad.add(new_tokens[dst], delta)
    return [replace(s, tokens=new_tokens[s.branch_id]) for s in states]
