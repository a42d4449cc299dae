"""Independent reference forward pass, written in plain NumPy.

This module shares no kernel with ``piip``: every operation below is a
fresh vectorised transcription of the rules the package documents
(pixel-centre bilinear resampling with edge clamping, zero-padded bilinear
sampling, pre-norm transformer blocks, gated deformable cross-attention,
dense merge, classification head). It reads parameters by their registry
names from any mapping (the benchmark passes the ``.npz`` container it wrote)
and takes structure from the config's branch and schedule fields; head
counts, value widths and FFN widths are read from the parameter shapes.

Only transformer branches with the linear merge projection are covered,
which is what the benchmark's workloads use.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """[n_out, n_in] weights of pixel-centre linear interpolation, edge-clamped."""
    src = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
    lo = np.floor(src)
    t = src - lo
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, np.clip(lo, 0, n_in - 1).astype(int)), 1.0 - t)
    np.add.at(m, (rows, np.clip(lo + 1, 0, n_in - 1).astype(int)), t)
    return m


def resize(grid, out_h: int, out_w: int):
    """Bilinear resize of an [H, W, C] grid as two interpolation matrices."""
    h, w, _ = grid.shape
    rows = np.einsum("ai,ijc->ajc", interp_matrix(out_h, h), grid, optimize=True)
    return np.einsum("bj,ajc->abc", interp_matrix(out_w, w), rows, optimize=True)


def group_norm(grid, groups: int, g, b):
    h, w, c = grid.shape
    x = grid.reshape(h * w, groups, c // groups)
    mu = x.mean(axis=(0, 2), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2), keepdims=True)
    return ((x - mu) / np.sqrt(var + LN_EPS)).reshape(h, w, c) * g + b


def largest_divisor_upto(n: int, cap: int) -> int:
    return max(k for k in range(1, min(n, cap) + 1) if n % k == 0)


def patchify(image, kernel, bias):
    """Non-overlapping stride-p patch embedding: [R, R, 3] -> [g, g, D]."""
    p, _, cin, d = kernel.shape
    g = image.shape[0] // p
    patches = image[: g * p, : g * p].reshape(g, p, g, p, cin).transpose(0, 2, 1, 3, 4)
    return patches.reshape(g, g, p * p * cin) @ kernel.reshape(p * p * cin, d) + bias


def attention(x, heads: int):
    """Multi-head self-attention over the token axis of x: [..., N, 3D] qkv."""
    *lead, n, three_d = x.shape
    d = three_d // 3
    hd = d // heads
    qkv = x.reshape(*lead, n, 3, heads, hd)
    q, k, v = (np.moveaxis(qkv[..., i, :, :], -2, -3) for i in range(3))  # [..., h, N, hd]
    w = softmax(q @ np.swapaxes(k, -1, -2) / np.sqrt(hd))
    return np.moveaxis(w @ v, -3, -2).reshape(*lead, n, d)


def transformer_block(W, pre: str, grid, heads: int, window_side: int | None):
    gh, gw, d = grid.shape
    h = layer_norm(grid, W[f"{pre}.ln1_g"], W[f"{pre}.ln1_b"])
    qkv_w, qkv_b = W[f"{pre}.qkv_w"], W[f"{pre}.qkv_b"]
    if window_side is None:
        attn = attention(h.reshape(gh * gw, d) @ qkv_w + qkv_b, heads).reshape(gh, gw, d)
    else:
        s = window_side
        ph, pw = -(-gh // s) * s, -(-gw // s) * s
        padded = np.zeros((ph, pw, d))
        padded[:gh, :gw] = h
        win = padded.reshape(ph // s, s, pw // s, s, d).transpose(0, 2, 1, 3, 4)
        win = win.reshape(-1, s * s, d)
        out = attention(win @ qkv_w + qkv_b, heads)
        out = out.reshape(ph // s, pw // s, s, s, d).transpose(0, 2, 1, 3, 4)
        attn = out.reshape(ph, pw, d)[:gh, :gw]
    grid = grid + attn @ W[f"{pre}.proj_w"] + W[f"{pre}.proj_b"]
    m = layer_norm(grid, W[f"{pre}.ln2_g"], W[f"{pre}.ln2_b"])
    m = gelu(m @ W[f"{pre}.mlp1_w"] + W[f"{pre}.mlp1_b"]) @ W[f"{pre}.mlp2_w"]
    return grid + m + W[f"{pre}.mlp2_b"]


def deformable_attention(W, pre: str, query, value, points: int):
    """Zero-padded deformable cross-attention of query grid [qh, qw, D] on value grid."""
    qh, qw, d = query.shape
    vh, vw, _ = value.shape
    vdim = W[f"{pre}.val_w"].shape[1]
    heads = W[f"{pre}.wt_w"].shape[1] // points
    hd = vdim // heads
    vmap = (value @ W[f"{pre}.val_w"] + W[f"{pre}.val_b"]).reshape(vh, vw, heads, hd)
    off = (query @ W[f"{pre}.off_w"] + W[f"{pre}.off_b"]).reshape(qh, qw, heads, points, 2)
    attn = softmax((query @ W[f"{pre}.wt_w"] + W[f"{pre}.wt_b"]).reshape(qh, qw, heads, points))
    # Continuous value-grid pixel coordinates: query centre plus offset in value cells.
    cx = ((np.arange(qw) + 0.5) / qw)[None, :, None, None] * vw + off[..., 0] - 0.5
    cy = ((np.arange(qh) + 0.5) / qh)[:, None, None, None] * vh + off[..., 1] - 0.5
    x0, y0 = np.floor(cx), np.floor(cy)
    fx, fy = cx - x0, cy - y0
    head = np.arange(heads)[None, None, :, None]
    sampled = np.zeros((qh, qw, heads, points, hd))
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            yi, xi = (y0 + dy).astype(int), (x0 + dx).astype(int)
            valid = (yi >= 0) & (yi < vh) & (xi >= 0) & (xi < vw)
            taps = vmap[np.clip(yi, 0, vh - 1), np.clip(xi, 0, vw - 1), head]
            sampled += (np.where(valid, wy * wx, 0.0))[..., None] * taps
    mixed = np.einsum("yxhk,yxhkc->yxhc", attn, sampled).reshape(qh, qw, vdim)
    return mixed @ W[f"{pre}.out_w"] + W[f"{pre}.out_b"]


def interaction_direction(W, pre: str, dst, src, points: int):
    rec = src @ W[f"{pre}.fc_w"] + W[f"{pre}.fc_b"]
    qn = layer_norm(dst, W[f"{pre}.qln_g"], W[f"{pre}.qln_b"])
    vn = layer_norm(rec, W[f"{pre}.vln_g"], W[f"{pre}.vln_b"])
    gated = dst + W[f"{pre}.gamma"] * deformable_attention(W, f"{pre}.attn", qn, vn, points)
    f = layer_norm(gated, W[f"{pre}.fln_g"], W[f"{pre}.fln_b"])
    f = gelu(f @ W[f"{pre}.ffn1_w"] + W[f"{pre}.ffn1_b"]) @ W[f"{pre}.ffn2_w"] + W[f"{pre}.ffn2_b"]
    return gated + W[f"{pre}.tau"] * f


def forward(cfg, W, image) -> dict:
    """Reference outputs for one image at the largest branch resolution.

    Returns ``tokens`` (final [N, D] tokens per branch) plus ``merged``
    ([H, W, D] map, dense mode) or ``logits`` (classification mode).
    """
    if cfg.merge_mode.value == "dense" and cfg.merge_proj.value != "linear":
        raise NotImplementedError("reference covers the linear merge projection only")
    grids = []
    for i, b in enumerate(cfg.branches, start=1):
        if b.arch.value != "transformer":
            raise NotImplementedError("reference covers transformer branches only")
        x = image if image.shape[0] == b.resolution else resize(image, b.resolution, b.resolution)
        grid = patchify(x, W[f"branch{i}.embed.kernel"], W[f"branch{i}.embed.bias"])
        pos = W[f"branch{i}.embed.pos"]
        if pos.shape[:2] != grid.shape[:2]:
            pos = resize(pos, *grid.shape[:2])
        grids.append(grid + pos)

    depth = cfg.branches[0].depth
    sched = cfg.interactions
    stops = [(k * depth) // sched.count for k in range(1, sched.count + 1)]

    def run_blocks(start: int, stop: int) -> None:
        for i, b in enumerate(cfg.branches, start=1):
            side = round(b.window_tokens**0.5) if b.attention_mode.value == "windowed" else None
            for j in range(start, stop):
                grids[i - 1] = transformer_block(W, f"branch{i}.block{j + 1}", grids[i - 1], b.heads, side)

    cursor = 0
    pairs = sorted({(min(s, d), max(s, d)) for s, d in sched.directions})
    for p, stop in enumerate(stops, start=1):
        run_blocks(cursor, stop)
        before = list(grids)
        for lo, hi in pairs:
            for src, dst in ((lo, hi), (hi, lo)):
                if (src, dst) in sched.directions:
                    pre = f"interaction{p}.pair{lo}_{hi}.to{dst}"
                    new = interaction_direction(
                        W, pre, before[dst - 1], before[src - 1], sched.deform_points
                    )
                    grids[dst - 1] = grids[dst - 1] + (new - before[dst - 1])
        cursor = stop
    run_blocks(cursor, depth)

    out = {"tokens": [g.reshape(-1, g.shape[-1]) for g in grids]}
    if cfg.merge_mode.value == "dense":
        th, tw, d1 = grids[-1].shape[0], grids[-1].shape[1], grids[0].shape[-1]
        groups = largest_divisor_upto(d1, 32)
        merged = np.zeros((th, tw, d1))
        for j, grid in enumerate(grids, start=1):
            if j > 1:
                grid = grid @ W[f"merge.proj{j}.lin_w"] + W[f"merge.proj{j}.lin_b"]
                grid = group_norm(grid, groups, W[f"merge.proj{j}.gn_g"], W[f"merge.proj{j}.gn_b"])
            if grid.shape[:2] != (th, tw):
                grid = resize(grid, th, tw)
            merged += W["merge.w"][j - 1] * grid
        out["merged"] = merged
    else:
        per_branch = []
        for j, grid in enumerate(grids, start=1):
            pooled = layer_norm(grid.mean(axis=(0, 1)), W[f"head{j}.ln_g"], W[f"head{j}.ln_b"])
            per_branch.append(pooled @ W[f"head{j}.w"] + W[f"head{j}.b"])
        out["logits"] = np.mean(per_branch, axis=0)
    return out
