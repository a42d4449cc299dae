"""Closed-form parameter and compute counts for any pyramid config.

Conventions (documented in the README):

  * 1 MAC = 1 FLOP; a linear layer of shape ``[a, b]`` applied to ``N`` rows
    costs ``N*a*b``.
  * FLOPs are one forward pass at the configured branch resolutions.
  * Normalizations, softmax, activations, gates, padding, pooling and the
    positional-embedding add are excluded (each is sub-percent).
  * Windowed attention prices its qkv projection and its quadratic term on
    the zero-padded token count, as the model runs them (identical to the
    true count whenever the window tiles the grid); the output projection
    and the MLP run on the true tokens.

Parameter totals agree *exactly* with the instantiated registry for every
config; the test-suite pins this for all presets and for off-preset variants
with padded windows, regular attention and dense merges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (
    AttentionImpl,
    AttentionKind,
    BranchSpec,
    MergeMode,
    ProjStyle,
    PyramidConfig,
    deform_heads_for,
    deform_value_dim,
    ffn_hidden,
    validate,
    window_side,
)


@dataclass(frozen=True)
class CostEntry:
    name: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    entries: tuple[CostEntry, ...]

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    def entry(self, name: str) -> CostEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no cost entry named {name!r}")

    def as_dict(self) -> dict:
        return {
            "entries": [
                {"name": e.name, "params": e.params, "flops": e.flops} for e in self.entries
            ],
            "total_params": self.total_params,
            "total_flops": self.total_flops,
        }

    def render(self) -> str:
        width = max(len(e.name) for e in self.entries) if self.entries else 10
        lines = [f"{'component':<{width}}  {'params':>14}  {'flops':>16}"]
        for e in self.entries:
            lines.append(f"{e.name:<{width}}  {e.params:>14,}  {e.flops:>16,}")
        lines.append(
            f"{'total':<{width}}  {self.total_params:>14,}  {self.total_flops:>16,}"
        )
        return "\n".join(lines) + "\n"


def _branch_params(b: BranchSpec) -> int:
    d = b.dim
    g = b.resolution // b.patch_size
    h = ffn_hidden(d, b.mlp_ratio)
    embed = b.patch_size * b.patch_size * 3 * d + d + g * g * d  # patchify, positional
    block = (
        (d * 3 * d + 3 * d)  # qkv
        + (d * d + d)  # proj
        + 4 * d  # two layer norms
        + (d * h + h)
        + (h * d + d)
    )
    return embed + b.depth * block


def _branch_flops(b: BranchSpec) -> int:
    d = b.dim
    g = b.resolution // b.patch_size
    n = g * g
    h = ffn_hidden(d, b.mlp_ratio)
    patchify = n * d * 3 * b.patch_size * b.patch_size
    padded, t = n, n  # tokens through qkv, tokens one attention spans
    if b.attention_mode is AttentionKind.WINDOWED:
        side = window_side(b.window_tokens)
        t = side * side
        padded = -(-g // side) * (-(-g // side)) * t
    block = 3 * padded * d * d + 2 * padded * t * d + n * d * d + 2 * n * d * h
    return patchify + b.depth * block


def _direction_cost(
    cfg: PyramidConfig, src: int, dst: int
) -> tuple[int, int]:
    """(params, flops) of one interaction direction at one point."""
    sched = cfg.interactions
    bd = cfg.branches[dst - 1]
    bs = cfg.branches[src - 1]
    d, s = bd.dim, bs.dim
    nq, nv = bd.tokens, bs.tokens
    h = ffn_hidden(d, sched.ffn_ratio)
    m = deform_heads_for(d, sched)
    k = sched.deform_points

    params = (s * d + d) + 6 * d  # reconciling FC + three pre-norms
    params += (d * h + h) + (h * d + d) + 2 * d  # FFN + both gates
    flops = nv * s * d + 2 * nq * d * h  # FC + FFN

    if sched.attention_impl is AttentionImpl.DEFORMABLE:
        v = deform_value_dim(d, sched)
        params += (d * v + v) + (v * d + d)  # value/output projections
        params += (d * 2 * m * k + 2 * m * k) + (d * m * k + m * k)  # offset/weight heads
        flops += nv * d * v  # value projection
        flops += nq * v * d  # output projection
        flops += 3 * nq * d * m * k  # offset + weight heads
        flops += 8 * nq * m * k * (v // m)  # bilinear taps
    else:
        params += 4 * (d * d + d)  # q/k/v/out projections
        flops += nq * d * d + 2 * nv * d * d + nq * d * d  # projections
        flops += 2 * nq * nv * d  # dense score + mix
    return params, flops


def _interaction_cost(cfg: PyramidConfig) -> tuple[int, int]:
    sched = cfg.interactions
    if sched.count == 0:  # directions of a config without points need not be priceable
        return 0, 0
    params = 0
    flops = 0
    for src, dst in sched.directions:
        p, f = _direction_cost(cfg, src, dst)
        params += p
        flops += f
    return params * sched.count, flops * sched.count


def _merge_cost(cfg: PyramidConfig) -> tuple[int, int]:
    if cfg.merge_mode is MergeMode.CLASSIFICATION:
        params = 0
        flops = 0
        for b in cfg.branches:
            params += 2 * b.dim + b.dim * cfg.classes + cfg.classes
            flops += b.dim * cfg.classes
        return params, flops
    d1 = cfg.branches[0].dim
    gt = cfg.branches[-1].resolution // cfg.branches[-1].patch_size
    target_n = gt * gt
    params = len(cfg.branches)  # merge weights
    flops = len(cfg.branches) * target_n * d1  # weighted sum
    for j, b in enumerate(cfg.branches, start=1):
        g = b.resolution // b.patch_size
        if j > 1:
            if cfg.merge_proj is ProjStyle.CONV3X3:
                params += (9 * b.dim * d1 + d1) + 2 * d1 + (9 * d1 * d1 + d1)
                flops += g * g * 9 * b.dim * d1 + g * g * 9 * d1 * d1
            else:
                params += (b.dim * d1 + d1) + 2 * d1
                flops += g * g * b.dim * d1
        if g != gt:
            flops += target_n * d1 * 4  # bilinear upsample, 4 taps per output
    return params, flops


def cost_report(cfg: PyramidConfig) -> CostReport:
    """Per-component parameter and FLOP counts for one config."""
    validate(cfg)
    entries = []
    for i, b in enumerate(cfg.branches, start=1):
        entries.append(CostEntry(f"branch{i}", _branch_params(b), _branch_flops(b)))
    ip, if_ = _interaction_cost(cfg)
    entries.append(CostEntry("interactions", ip, if_))
    mp, mf = _merge_cost(cfg)
    entries.append(CostEntry("merging", mp, mf))
    return CostReport(tuple(entries))

