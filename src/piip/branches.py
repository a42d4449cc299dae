"""Per-branch backbones: patch embedding and block stacks.

Transformer branches are standard pre-norm blocks (token + attention, then
token + MLP); attention is either global over all tokens or windowed over
non-overlapping square windows. Convolutional branches use depthwise-7x7
blocks with channel LayerNorm, 4x pointwise expansion and a zero-initialized
residual scale, so they start as the identity.

A branch forward is exposed in *segments* (block ranges) so interaction
points can be spliced between blocks; composing segments is exactly
equivalent to one uninterrupted forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .config import Arch, AttentionKind, BranchSpec, ffn_hidden, window_side
from .params import ParamSpec

Params = dict[str, Var]


@dataclass(frozen=True)
class FeatureMap:
    """Tokens of one branch, or of the merged map, and their grid.

    ``tokens`` is ``[..., grid_h * grid_w, dim]`` in row-major grid order: a
    ``Var`` inside ``PiipModel.graph_forward``, an array in ``forward``'s output.
    A branch's map is known by its position: in a list of states, branch
    ``i`` is ``states[i - 1]``.
    """

    tokens: Var | np.ndarray
    grid_h: int
    grid_w: int

    @property
    def dim(self) -> int:
        return self.tokens.shape[-1]

    def as_grid(self) -> Var | np.ndarray:
        """The tokens reshaped to ``[..., grid_h, grid_w, dim]``."""
        shape = self.tokens.shape[:-2] + (self.grid_h, self.grid_w, self.dim)
        if isinstance(self.tokens, Var):
            return ad.reshape(self.tokens, shape)
        return self.tokens.reshape(shape)


class PatchEmbed:
    """Patchify conv + learned positional embedding (transformer branches)."""

    def __init__(self, prefix: str, spec: BranchSpec) -> None:
        self.prefix = prefix
        self.patch = spec.patch_size
        self.dim = spec.dim
        g = spec.resolution // spec.patch_size
        self.base_grid = (g, g)

    def declare(self, ps: ParamSpec) -> None:
        p, d = self.patch, self.dim
        ps.declare(f"{self.prefix}.kernel", (p, p, 3, d))
        ps.declare(f"{self.prefix}.bias", (d,), 0.0)
        ps.declare(f"{self.prefix}.pos", (*self.base_grid, d))

    def forward(self, P: Params, image: Var) -> tuple[Var, int, int]:
        grid = ad.conv2d_op(
            image, P[f"{self.prefix}.kernel"], P[f"{self.prefix}.bias"], stride=self.patch
        )  # [..., gh, gw, D]
        gh, gw = grid.shape[-3:-1]
        grid = ad.add(grid, P[f"{self.prefix}.pos"])
        return ad.reshape(grid, grid.shape[:-3] + (gh * gw, self.dim)), gh, gw


class ConvStem:
    """Patchify conv + channel LayerNorm (convolutional branches, no pos)."""

    def __init__(self, prefix: str, spec: BranchSpec) -> None:
        self.prefix = prefix
        self.patch = spec.patch_size
        self.dim = spec.dim

    def declare(self, ps: ParamSpec) -> None:
        p, d = self.patch, self.dim
        ps.declare(f"{self.prefix}.kernel", (p, p, 3, d))
        ps.declare(f"{self.prefix}.bias", (d,), 0.0)
        ps.declare(f"{self.prefix}.ln_g", (d,), 1.0)
        ps.declare(f"{self.prefix}.ln_b", (d,), 0.0)

    def forward(self, P: Params, image: Var) -> tuple[Var, int, int]:
        grid = ad.conv2d_op(
            image, P[f"{self.prefix}.kernel"], P[f"{self.prefix}.bias"], stride=self.patch
        )
        gh, gw = grid.shape[-3:-1]
        grid = ad.layer_norm_op(grid, P[f"{self.prefix}.ln_g"], P[f"{self.prefix}.ln_b"])
        return ad.reshape(grid, grid.shape[:-3] + (gh * gw, self.dim)), gh, gw


def attend(q: Var, k: Var, v: Var, head_dim: int) -> Var:
    """Scaled dot-product over the last two axes: [..., N, hd] -> [..., N, hd]."""
    q = ad.scale(q, 1.0 / math.sqrt(head_dim))
    weights = ad.softmax_op(ad.matmul(q, ad.swapaxes(k, -1, -2)))
    return ad.matmul(weights, v)


class TransformerBlock:
    def __init__(self, prefix: str, spec: BranchSpec) -> None:
        self.prefix = prefix
        self.dim = spec.dim
        self.heads = spec.heads
        self.head_dim = spec.dim // spec.heads
        self.hidden = ffn_hidden(spec.dim, spec.mlp_ratio)
        self.windowed = spec.attention_mode is AttentionKind.WINDOWED
        self.window_side = window_side(spec.window_tokens) if self.windowed else 0

    def declare(self, ps: ParamSpec) -> None:
        d, h = self.dim, self.hidden
        pre = self.prefix
        ps.declare(f"{pre}.ln1_g", (d,), 1.0)
        ps.declare(f"{pre}.ln1_b", (d,), 0.0)
        ps.declare(f"{pre}.qkv_w", (d, 3 * d))
        ps.declare(f"{pre}.qkv_b", (3 * d,), 0.0)
        ps.declare(f"{pre}.proj_w", (d, d))
        ps.declare(f"{pre}.proj_b", (d,), 0.0)
        ps.declare(f"{pre}.ln2_g", (d,), 1.0)
        ps.declare(f"{pre}.ln2_b", (d,), 0.0)
        ps.declare(f"{pre}.mlp1_w", (d, h))
        ps.declare(f"{pre}.mlp1_b", (h,), 0.0)
        ps.declare(f"{pre}.mlp2_w", (h, d))
        ps.declare(f"{pre}.mlp2_b", (d,), 0.0)

    def _mix(self, P: Params, x: Var) -> Var:
        """Multi-head self-attention over the token axis, before the output projection.

        x: [..., T, D] -> [..., T, D]; every leading index attends on its own.
        """
        lead, (t, d) = x.shape[:-2], x.shape[-2:]
        nd = len(lead)
        qkv = ad.matmul(x, P[f"{self.prefix}.qkv_w"], P[f"{self.prefix}.qkv_b"])
        qkv = ad.reshape(qkv, lead + (t, 3, self.heads, self.head_dim))
        # [..., T, 3, heads, hd] -> [..., 3, heads, T, hd]
        qkv = ad.transpose(qkv, tuple(range(nd)) + (nd + 1, nd + 2, nd, nd + 3))
        q, k, v = (ad.take_index(qkv, i, nd) for i in range(3))
        out = attend(q, k, v, self.head_dim)  # [..., heads, T, hd]
        return ad.reshape(ad.swapaxes(out, -2, -3), lead + (t, d))

    def _windowed_mix(self, P: Params, x: Var, gh: int, gw: int) -> Var:
        side = self.window_side
        lead, (n, d) = x.shape[:-2], x.shape[-2:]
        nd = len(lead)
        grid = ad.reshape(x, lead + (gh, gw, d))
        pad_h = (-gh) % side
        pad_w = (-gw) % side
        if pad_h or pad_w:
            grid = ad.pad_grid(grid, pad_h, pad_w)
        hp, wp = gh + pad_h, gw + pad_w
        nh, nw = hp // side, wp // side
        # [..., nh, side, nw, side, D] <-> [..., nh, nw, side, side, D]; self-inverse
        perm = tuple(range(nd)) + (nd, nd + 2, nd + 1, nd + 3, nd + 4)
        win = ad.transpose(ad.reshape(grid, lead + (nh, side, nw, side, d)), perm)
        out = self._mix(P, ad.reshape(win, lead + (nh * nw, side * side, d)))
        out = ad.transpose(ad.reshape(out, lead + (nh, nw, side, side, d)), perm)
        out = ad.reshape(out, lead + (hp, wp, d))
        if pad_h or pad_w:
            out = ad.crop_grid(out, gh, gw)
        return ad.reshape(out, lead + (n, d))

    def forward(self, P: Params, state: FeatureMap) -> FeatureMap:
        pre = self.prefix
        x = state.tokens
        h = ad.layer_norm_op(x, P[f"{pre}.ln1_g"], P[f"{pre}.ln1_b"])
        if self.windowed:
            attn = self._windowed_mix(P, h, state.grid_h, state.grid_w)
        else:
            attn = self._mix(P, h)
        attn = ad.matmul(attn, P[f"{pre}.proj_w"], P[f"{pre}.proj_b"])
        x = ad.add(x, attn)
        m = ad.layer_norm_op(x, P[f"{pre}.ln2_g"], P[f"{pre}.ln2_b"])
        m = ad.matmul(m, P[f"{pre}.mlp1_w"], P[f"{pre}.mlp1_b"])
        m = ad.gelu_op(m)
        m = ad.matmul(m, P[f"{pre}.mlp2_w"], P[f"{pre}.mlp2_b"])
        return replace(state, tokens=ad.add(x, m))


class ConvBlock:
    """Depthwise 7x7 -> channel LN -> 4x pointwise MLP, zero-scaled residual."""

    KERNEL = 7
    EXPAND = 4

    def __init__(self, prefix: str, spec: BranchSpec) -> None:
        self.prefix = prefix
        self.dim = spec.dim

    def declare(self, ps: ParamSpec) -> None:
        d = self.dim
        pre = self.prefix
        k = self.KERNEL
        ps.declare(f"{pre}.dw_k", (k, k, d))
        ps.declare(f"{pre}.dw_b", (d,), 0.0)
        ps.declare(f"{pre}.ln_g", (d,), 1.0)
        ps.declare(f"{pre}.ln_b", (d,), 0.0)
        ps.declare(f"{pre}.pw1_w", (d, self.EXPAND * d))
        ps.declare(f"{pre}.pw1_b", (self.EXPAND * d,), 0.0)
        ps.declare(f"{pre}.pw2_w", (self.EXPAND * d, d))
        ps.declare(f"{pre}.pw2_b", (d,), 0.0)
        ps.declare(f"{pre}.scale", (d,), 0.0)

    def forward(self, P: Params, state: FeatureMap) -> FeatureMap:
        pre = self.prefix
        x = state.tokens
        y = ad.depthwise_conv_op(state.as_grid(), P[f"{pre}.dw_k"], P[f"{pre}.dw_b"])
        y = ad.layer_norm_op(y, P[f"{pre}.ln_g"], P[f"{pre}.ln_b"])
        y = ad.matmul(y, P[f"{pre}.pw1_w"], P[f"{pre}.pw1_b"])
        y = ad.gelu_op(y)
        y = ad.matmul(y, P[f"{pre}.pw2_w"], P[f"{pre}.pw2_b"])
        y = ad.mul(y, P[f"{pre}.scale"])
        return replace(state, tokens=ad.add(x, ad.reshape(y, x.shape)))


class Branch:
    """One pyramid branch: embedding plus ``depth`` blocks."""

    def __init__(self, index: int, spec: BranchSpec) -> None:
        self.index = index  # 1-based
        self.spec = spec
        prefix = f"branch{index}"
        if spec.arch is Arch.TRANSFORMER:
            self.embed: PatchEmbed | ConvStem = PatchEmbed(f"{prefix}.embed", spec)
            self.blocks: list[TransformerBlock | ConvBlock] = [
                TransformerBlock(f"{prefix}.block{j + 1}", spec) for j in range(spec.depth)
            ]
        else:
            self.embed = ConvStem(f"{prefix}.embed", spec)
            self.blocks = [ConvBlock(f"{prefix}.block{j + 1}", spec) for j in range(spec.depth)]

    def declare(self, ps: ParamSpec) -> None:
        self.embed.declare(ps)
        for block in self.blocks:
            block.declare(ps)

    def embed_forward(self, P: Params, image: Var) -> FeatureMap:
        """Tokens of ``image`` [..., H, W, 3], resized to this branch's resolution."""
        res = self.spec.resolution
        if image.shape[-3:-1] != (res, res):
            image = ad.bilinear_resize_op(image, res, res)
        tokens, gh, gw = self.embed.forward(P, image)
        return FeatureMap(tokens, gh, gw)

    def segment(self, P: Params, state: FeatureMap, from_block: int, to_block: int) -> FeatureMap:
        """Apply blocks [from_block, to_block), 0-based over the stack."""
        if not 0 <= from_block <= to_block <= len(self.blocks):
            raise ValueError(
                f"segment [{from_block}, {to_block}) out of range for depth {len(self.blocks)}"
            )
        for j in range(from_block, to_block):
            state = self.blocks[j].forward(P, state)
        return state
