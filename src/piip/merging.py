"""Combining the final per-branch features.

Dense mode projects every branch except the first to the first branch's
width, bilinearly upsamples all maps to the largest branch's grid, and takes
a learned weighted sum — a single feature map suitable for dense heads.

Classification mode gives each branch its own pooled head (global average ->
LayerNorm -> linear) and averages the per-branch logits.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Var
from .branches import FeatureMap, Params
from .config import ProjStyle, PyramidConfig
from .params import ParamSpec


def group_count(channels: int) -> int:
    """Largest divisor of ``channels`` that does not exceed 32."""
    return max(g for g in range(1, min(32, channels) + 1) if channels % g == 0)


class MergeModule:
    """Project -> upsample -> weighted sum over branches (dense output)."""

    def __init__(self, cfg: PyramidConfig) -> None:
        self.style = cfg.merge_proj
        self.dims = [b.dim for b in cfg.branches]
        self.out_dim = self.dims[0]
        last = cfg.branches[-1]
        g = last.resolution // last.patch_size
        self.target_grid = (g, g)
        self.n = len(cfg.branches)

    def declare(self, ps: ParamSpec) -> None:
        d1 = self.out_dim
        for j, dj in enumerate(self.dims[1:], start=2):
            pre = f"merge.proj{j}"
            if self.style is ProjStyle.CONV3X3:
                ps.declare(f"{pre}.conv1_k", (3, 3, dj, d1))
                ps.declare(f"{pre}.conv1_b", (d1,), 0.0)
                ps.declare(f"{pre}.gn_g", (d1,), 1.0)
                ps.declare(f"{pre}.gn_b", (d1,), 0.0)
                ps.declare(f"{pre}.conv2_k", (3, 3, d1, d1))
                ps.declare(f"{pre}.conv2_b", (d1,), 0.0)
            else:
                ps.declare(f"{pre}.lin_w", (dj, d1))
                ps.declare(f"{pre}.lin_b", (d1,), 0.0)
                ps.declare(f"{pre}.gn_g", (d1,), 1.0)
                ps.declare(f"{pre}.gn_b", (d1,), 0.0)
        ps.declare("merge.w", (self.n,), 1.0 / self.n)

    def _project(self, P: Params, j: int, grid: Var) -> Var:
        if j == 1:
            return grid  # branch 1 is already at the output width
        pre = f"merge.proj{j}"
        groups = group_count(self.out_dim)
        if self.style is ProjStyle.CONV3X3:
            y = ad.conv2d_op(grid, P[f"{pre}.conv1_k"], P[f"{pre}.conv1_b"], padding=1)
            y = ad.group_norm_op(y, groups, P[f"{pre}.gn_g"], P[f"{pre}.gn_b"])
            y = ad.gelu_op(y)
            return ad.conv2d_op(y, P[f"{pre}.conv2_k"], P[f"{pre}.conv2_b"], padding=1)
        y = ad.matmul(grid, P[f"{pre}.lin_w"], P[f"{pre}.lin_b"])
        return ad.group_norm_op(y, groups, P[f"{pre}.gn_g"], P[f"{pre}.gn_b"])

    def forward(self, P: Params, states: list[FeatureMap]) -> Var:
        """Merged [..., H, W, D] map on the largest grid at the widest branch's width."""
        th, tw = self.target_grid
        total: Var | None = None
        for j, state in enumerate(states, start=1):
            proj = self._project(P, j, state.as_grid())
            if (state.grid_h, state.grid_w) != (th, tw):
                proj = ad.bilinear_resize_op(proj, th, tw)
            w_j = ad.take_index(P["merge.w"], j - 1, 0)  # scalar
            contrib = ad.mul(proj, w_j)
            total = contrib if total is None else ad.add(total, contrib)
        assert total is not None
        return total


class ClassificationHead:
    """Per-branch pooled heads; the model's logits are their mean."""

    def __init__(self, cfg: PyramidConfig) -> None:
        self.dims = [b.dim for b in cfg.branches]
        self.classes = cfg.classes

    def declare(self, ps: ParamSpec) -> None:
        for j, d in enumerate(self.dims, start=1):
            pre = f"head{j}"
            ps.declare(f"{pre}.ln_g", (d,), 1.0)
            ps.declare(f"{pre}.ln_b", (d,), 0.0)
            # zero-init classifier: training starts from uniform logits
            ps.declare(f"{pre}.w", (d, self.classes), 0.0)
            ps.declare(f"{pre}.b", (self.classes,), 0.0)

    def branch_logits(self, P: Params, j: int, state: FeatureMap) -> Var:
        """Logits of branch ``j`` (1-based) from its final ``state``."""
        pre = f"head{j}"
        pooled = ad.mean_op(state.tokens, axis=-2)  # [..., D]
        pooled = ad.layer_norm_op(pooled, P[f"{pre}.ln_g"], P[f"{pre}.ln_b"])
        return ad.matmul(pooled, P[f"{pre}.w"], P[f"{pre}.b"])  # [..., classes]

    def forward(self, P: Params, states: list[FeatureMap]) -> tuple[list[Var], Var]:
        per_branch = [self.branch_logits(P, j, s) for j, s in enumerate(states, start=1)]
        return per_branch, classify(per_branch)


def classify(branch_logits: list[Var]) -> Var:
    """Mean of per-branch logits."""
    total = branch_logits[0]
    for more in branch_logits[1:]:
        total = ad.add(total, more)
    return ad.scale(total, 1.0 / len(branch_logits))
