"""Merging: dense projection/upsample/weighted-sum and classification heads."""

import numpy as np

from piip import autodiff as ad
from piip.branches import FeatureMap
from piip.config import (
    BranchSpec,
    InteractionSchedule,
    MergeMode,
    ProjStyle,
    PyramidConfig,
)
from piip.merging import ClassificationHead, MergeModule, classify, group_count
from piip.params import ParamSpec, allocate

import scalar_oracles as ref

RNG = np.random.default_rng(4242)


def dense_cfg(style=ProjStyle.LINEAR):
    return PyramidConfig(
        branches=(
            BranchSpec(depth=1, dim=12, heads=2, patch_size=4, resolution=8),
            BranchSpec(depth=1, dim=8, heads=1, patch_size=4, resolution=16),
        ),
        interactions=InteractionSchedule(count=0, directions=()),
        merge_mode=MergeMode.DENSE,
        merge_proj=style,
    )


def build_merge(style=ProjStyle.LINEAR, seed=3):
    cfg = dense_cfg(style)
    merge = MergeModule(cfg)
    ps = ParamSpec()
    merge.declare(ps)
    P = {k: ad.leaf(v) for k, v in allocate(ps, seed).items()}
    states = [
        FeatureMap(ad.leaf(RNG.standard_normal((4, 12))), 2, 2),
        FeatureMap(ad.leaf(RNG.standard_normal((16, 8))), 4, 4),
    ]
    return merge, P, states


def test_group_count_prefers_32_divisor():
    assert group_count(640) == 32
    assert group_count(160) == 32
    assert group_count(48) == 24
    assert group_count(7) == 7
    assert group_count(13) == 13  # prime: falls back to 13 <= 32
    assert group_count(1) == 1


def test_merged_shape_is_largest_grid_widest_dim():
    merge, P, states = build_merge()
    out = merge.forward(P, states)
    assert out.shape == (4, 4, 12)


def test_merge_is_linear_in_branch_weights():
    merge, P, states = build_merge()
    w = P["merge.w"].value.copy()

    def run(wv):
        P["merge.w"] = ad.leaf(wv)
        return merge.forward(P, states).value

    base = run(w)
    double = run(2 * w)
    np.testing.assert_allclose(double, 2 * base, atol=1e-12)

    # zeroing one branch's weight removes exactly its contribution
    only1 = run(np.array([w[0], 0.0]))
    only2 = run(np.array([0.0, w[1]]))
    np.testing.assert_allclose(only1 + only2, base, atol=1e-12)


def test_branch_one_passes_through_identity():
    merge, P, states = build_merge()
    P["merge.w"] = ad.leaf(np.array([1.0, 0.0]))
    out = merge.forward(P, states)
    grid = states[0].tokens.value.reshape(2, 2, 12)
    want = ad.bilinear_resize_op(ad.leaf(grid), 4, 4).value
    np.testing.assert_allclose(out.value, want, atol=1e-12)


def test_conv3x3_projection_path_runs():
    merge, P, states = build_merge(style=ProjStyle.CONV3X3)
    out = merge.forward(P, states)
    assert out.shape == (4, 4, 12)
    assert np.isfinite(out.value).all()


def test_merge_weights_init_uniform():
    merge, P, _ = build_merge()
    np.testing.assert_allclose(P["merge.w"].value, [0.5, 0.5])


def class_cfg():
    return PyramidConfig(
        branches=(
            BranchSpec(depth=1, dim=12, heads=2, patch_size=4, resolution=8),
            BranchSpec(depth=1, dim=8, heads=1, patch_size=4, resolution=16),
        ),
        interactions=InteractionSchedule(count=0, directions=()),
        merge_mode=MergeMode.CLASSIFICATION,
        classes=5,
    )


def test_classification_head_averages_branch_logits():
    cfg = class_cfg()
    head = ClassificationHead(cfg)
    ps = ParamSpec()
    head.declare(ps)
    P = {k: ad.leaf(v) for k, v in allocate(ps, 1).items()}
    # give the zero-init classifiers arbitrary weights so logits are nonzero
    P["head1.w"] = ad.leaf(RNG.standard_normal((12, 5)))
    P["head2.w"] = ad.leaf(RNG.standard_normal((8, 5)))
    states = [
        FeatureMap(ad.leaf(RNG.standard_normal((4, 12))), 2, 2),
        FeatureMap(ad.leaf(RNG.standard_normal((16, 8))), 4, 4),
    ]
    per_branch, logits = head.forward(P, states)
    assert logits.shape == (5,)
    np.testing.assert_allclose(
        logits.value, (per_branch[0].value + per_branch[1].value) / 2, atol=1e-12
    )


def test_branch_logits_hand_computed():
    cfg = class_cfg()
    head = ClassificationHead(cfg)
    ps = ParamSpec()
    head.declare(ps)
    P = {k: ad.leaf(v) for k, v in allocate(ps, 1).items()}
    w = RNG.standard_normal((12, 5))
    P["head1.w"] = ad.leaf(w)
    tokens = RNG.standard_normal((4, 12))
    state = FeatureMap(ad.leaf(tokens), 2, 2)
    got = head.branch_logits(P, 1, state).value

    pooled = tokens.mean(axis=0, keepdims=True)
    normed = np.array(ref.layer_norm_ref(pooled, P["head1.ln_g"].value, P["head1.ln_b"].value))
    want = normed @ w + P["head1.b"].value
    np.testing.assert_allclose(got, want.reshape(5), atol=1e-12)


def test_classify_is_plain_mean():
    a = ad.leaf(np.array([1.0, 2.0]))
    b = ad.leaf(np.array([3.0, 6.0]))
    np.testing.assert_allclose(classify([a, b]).value, [2.0, 4.0])
    np.testing.assert_allclose(classify([a]).value, a.value)
