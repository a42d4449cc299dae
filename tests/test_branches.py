"""Branch backbones: embeddings, blocks, segmenting, attention variants."""

import numpy as np

from piip import autodiff as ad
from piip.branches import Branch, FeatureMap
from piip.config import AttentionKind, BranchSpec
from piip.params import ParamSpec, allocate

RNG = np.random.default_rng(31337)


def build(spec, index=1, seed=0):
    branch = Branch(index, spec)
    ps = ParamSpec()
    branch.declare(ps)
    params = allocate(ps, seed)
    P = {k: ad.leaf(v) for k, v in params.items()}
    return branch, P


def tf_spec(**kw):
    base = dict(depth=3, dim=16, heads=4, patch_size=4, resolution=16)
    base.update(kw)
    return BranchSpec(**base)


def test_embed_shapes_and_grid():
    branch, P = build(tf_spec())
    img = ad.leaf(RNG.random((16, 16, 3)))
    state = branch.embed_forward(P, img)
    assert (state.grid_h, state.grid_w) == (4, 4)
    assert state.tokens.shape == (16, 16)


def test_embed_resizes_input_to_branch_resolution():
    branch, P = build(tf_spec())
    big = ad.leaf(RNG.random((32, 32, 3)))
    state = branch.embed_forward(P, big)
    assert (state.grid_h, state.grid_w) == (4, 4)

    # feeding the pre-resized image directly gives the identical embedding
    small = ad.bilinear_resize_op(big, 16, 16)
    state2 = branch.embed_forward(P, small)
    assert np.array_equal(state.tokens.value, state2.tokens.value)


def test_segment_composition_is_exact():
    branch, P = build(tf_spec())
    img = ad.leaf(RNG.random((16, 16, 3)))
    state = branch.embed_forward(P, img)
    full = branch.segment(P, state, 0, 3)
    split = branch.segment(P, branch.segment(P, state, 0, 2), 2, 3)
    assert np.array_equal(full.tokens.value, split.tokens.value)


def test_segment_bounds_checked():
    branch, P = build(tf_spec())
    img = ad.leaf(RNG.random((16, 16, 3)))
    state = branch.embed_forward(P, img)
    import pytest

    with pytest.raises(ValueError):
        branch.segment(P, state, 0, 4)
    with pytest.raises(ValueError):
        branch.segment(P, state, -1, 2)


def test_windowed_equals_global_when_window_covers_grid():
    # same params, same input; window of 16 tokens over a 4x4 grid is global
    g_spec = tf_spec(depth=1)
    w_spec = tf_spec(depth=1, attention_mode=AttentionKind.WINDOWED, window_tokens=16)
    g_branch, P = build(g_spec)
    w_branch = Branch(1, w_spec)  # same parameter names; reuse P
    img = ad.leaf(RNG.random((16, 16, 3)))
    out_g = g_branch.segment(P, g_branch.embed_forward(P, img), 0, 1)
    out_w = w_branch.segment(P, w_branch.embed_forward(P, img), 0, 1)
    assert np.abs(out_g.tokens.value - out_w.tokens.value).max() <= 1e-9


def test_windowed_partition_restricts_attention():
    # two windows: tokens in window A must not see window B. Build a state
    # where window B differs and check window A's output is unchanged.
    spec = tf_spec(depth=1, resolution=32, attention_mode=AttentionKind.WINDOWED,
                   window_tokens=16)  # 8x8 grid -> four 4x4 windows
    branch, P = build(spec)
    tok_a = RNG.standard_normal((64, 16))
    tok_b = tok_a.copy()
    tok_b[32:] += 1.0  # bottom half: different windows
    sa = FeatureMap(ad.leaf(tok_a), 8, 8)
    sb = FeatureMap(ad.leaf(tok_b), 8, 8)
    out_a = branch.blocks[0].forward(P, sa).tokens.value
    out_b = branch.blocks[0].forward(P, sb).tokens.value
    assert np.array_equal(out_a[:32], out_b[:32])
    assert not np.array_equal(out_a[32:], out_b[32:])


def test_windowed_pads_non_divisible_grid():
    spec = BranchSpec(depth=1, dim=8, heads=2, patch_size=4, resolution=24,
                      attention_mode=AttentionKind.WINDOWED, window_tokens=16)
    branch, P = build(spec)
    img = ad.leaf(RNG.random((24, 24, 3)))
    out = branch.segment(P, branch.embed_forward(P, img), 0, 1)
    assert out.tokens.shape == (36, 8)  # 6x6 grid survives the pad/crop


def test_single_token_grid_attention_is_wellformed():
    # 1x1 grid: softmax over a single key must be exactly 1
    spec = tf_spec(depth=1, patch_size=16, resolution=16)
    branch, P = build(spec)
    img = ad.leaf(RNG.random((16, 16, 3)))
    out = branch.segment(P, branch.embed_forward(P, img), 0, 1)
    assert out.tokens.shape == (1, 16)
    assert np.isfinite(out.tokens.value).all()


def test_gradients_flow_through_branch():
    branch, P = build(tf_spec())
    for v in P.values():
        v.needs_grad = True
    img = ad.leaf(RNG.random((16, 16, 3)))
    out = branch.segment(P, branch.embed_forward(P, img), 0, 3)
    ad.backward(ad.sum_op(out.tokens))
    qkv = P["branch1.block1.qkv_w"].grad
    assert qkv is not None and np.abs(qkv).max() > 0
    assert P["branch1.embed.kernel"].grad is not None
