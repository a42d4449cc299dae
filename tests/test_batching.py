"""A leading batch axis: every layer kind maps a [B, ...] stack to the stack
of its single-sample outputs and gradients, and ``train_step`` equals the
per-sample composition it replaced."""

import numpy as np
import pytest

from piip import autodiff as ad
from piip import harness
from piip.branches import Branch, FeatureMap
from piip.config import (
    Arch,
    AttentionKind,
    BranchSpec,
    InteractionSchedule,
    MergeMode,
    ProjStyle,
    PyramidConfig,
    preset,
)
from piip.interaction import DeformableCrossAttention, RegularCrossAttention
from piip.merging import ClassificationHead, MergeModule
from piip.model import PiipModel
from piip.params import ParamSpec

RNG = np.random.default_rng(2024)
B = 3
REL = 1e-12  # batched vs per-sample, relative to the largest reference entry


def rel_err(got, want):
    scale = np.abs(want).max()
    err = np.abs(got - want).max()
    return err / scale if scale else err


def random_params(declare, seed):
    """Leaves for every declared parameter, all drawn at random so no gate is zero."""
    ps = ParamSpec()
    declare(ps)
    rng = np.random.default_rng(seed)
    return {k: rng.standard_normal(decl.shape) * 0.3 for k, decl in ps.decls.items()}


def run(layer, params, inputs, proj=None):
    """Output, parameter gradients and input gradients of a fixed projection."""
    P = {k: ad.leaf(v, needs_grad=True) for k, v in params.items()}
    xs = [ad.leaf(x, needs_grad=True) for x in inputs]
    out = layer(P, xs)
    if proj is None:
        proj = np.cos(np.arange(out.value.size)).reshape(out.shape)
    ad.backward(ad.sum_op(ad.mul(out, ad.leaf(proj))))
    grads = {k: v.grad if v.grad is not None else np.zeros_like(v.value) for k, v in P.items()}
    return out.value, grads, [x.grad for x in xs]


def assert_batch_equals_singles(layer, params, batched_inputs):
    out, grads, in_grads = run(layer, params, batched_inputs)
    proj = np.cos(np.arange(out.size)).reshape(out.shape)
    singles = [run(layer, params, [x[b] for x in batched_inputs], proj[b]) for b in range(B)]
    assert rel_err(out, np.stack([s[0] for s in singles])) <= REL
    # parameter gradients as one vector: a gradient that is zero in exact
    # arithmetic (a bias ahead of a norm) is compared at the vector's scale
    want = {name: sum(s[1][name] for s in singles) for name in grads}
    scale = max(np.abs(w).max() for w in want.values())
    for name, g in grads.items():
        assert np.abs(g - want[name]).max() <= REL * scale, name
    for i, g in enumerate(in_grads):
        assert rel_err(g, np.stack([s[2][i] for s in singles])) <= REL


def branch_case(spec, grid):
    branch = Branch(1, spec)
    params = random_params(branch.declare, 5)
    gh, gw = grid

    def block(P, xs):
        state = FeatureMap(xs[0], gh, gw)
        return branch.segment(P, state, 0, spec.depth).tokens

    return block, params


@pytest.mark.parametrize(
    "spec, grid",
    [
        (BranchSpec(depth=1, dim=8, heads=2, patch_size=4, resolution=16), (4, 4)),
        (
            BranchSpec(depth=1, dim=8, heads=2, patch_size=4, resolution=24,
                       attention_mode=AttentionKind.WINDOWED, window_tokens=16),
            (6, 6),  # padded to 8x8, four windows
        ),
        (BranchSpec(depth=1, dim=8, heads=1, patch_size=4, resolution=16, arch=Arch.CONVNET),
         (4, 4)),
    ],
    ids=["global-attention", "windowed-attention", "conv-block"],
)
def test_blocks_batch(spec, grid):
    layer, params = branch_case(spec, grid)
    tokens = RNG.standard_normal((B, grid[0] * grid[1], spec.dim))
    assert_batch_equals_singles(layer, params, [tokens])


@pytest.mark.parametrize("arch", [Arch.TRANSFORMER, Arch.CONVNET], ids=["patch-embed", "conv-stem"])
def test_stems_batch(arch):
    # a 24 px input is resized to the branch's 16 px before the stride-4 conv
    spec = BranchSpec(depth=1, dim=8, heads=2, patch_size=4, resolution=16, arch=arch)
    branch = Branch(1, spec)
    params = random_params(branch.declare, 6)
    images = RNG.random((B, 24, 24, 3))
    layer = lambda P, xs: branch.embed_forward(P, xs[0]).tokens  # noqa: E731
    assert_batch_equals_singles(layer, params, [images])


@pytest.mark.parametrize("kind", ["deformable", "regular"])
def test_cross_attention_batch(kind):
    if kind == "deformable":
        attn = DeformableCrossAttention("a", 16, 2, 3, 8)
        params = random_params(attn.declare, 7)
        params["a.off_b"] *= 5  # some taps leave the value map
    else:
        attn = RegularCrossAttention("a", 16, 2)
        params = random_params(attn.declare, 7)
    query = RNG.standard_normal((B, 6, 16))
    value = RNG.standard_normal((B, 12, 16))

    def layer(P, xs):
        return attn.forward(P, xs[0], (2, 3), xs[1], (4, 3))

    assert_batch_equals_singles(layer, params, [query, value])


def two_branch_cfg(mode, style=ProjStyle.LINEAR):
    return PyramidConfig(
        branches=(
            BranchSpec(depth=1, dim=12, heads=2, patch_size=4, resolution=8),
            BranchSpec(depth=1, dim=8, heads=1, patch_size=4, resolution=16),
        ),
        interactions=InteractionSchedule(count=0, directions=()),
        merge_mode=mode,
        merge_proj=style,
    )


@pytest.mark.parametrize("style", [ProjStyle.LINEAR, ProjStyle.CONV3X3])
def test_merge_batch(style):
    # projection (linear or 3x3 conv), GroupNorm, upsampling and the weighted sum
    merge = MergeModule(two_branch_cfg(MergeMode.DENSE, style))
    params = random_params(merge.declare, 8)

    def layer(P, xs):
        states = [FeatureMap(xs[0], 2, 2), FeatureMap(xs[1], 4, 4)]
        return merge.forward(P, states)

    inputs = [RNG.standard_normal((B, 4, 12)), RNG.standard_normal((B, 16, 8))]
    assert_batch_equals_singles(layer, params, inputs)


def test_classification_heads_batch():
    head = ClassificationHead(two_branch_cfg(MergeMode.CLASSIFICATION))
    params = random_params(head.declare, 9)

    def layer(P, xs):
        states = [FeatureMap(xs[0], 2, 2), FeatureMap(xs[1], 4, 4)]
        return head.forward(P, states)[1]

    inputs = [RNG.standard_normal((B, 4, 12)), RNG.standard_normal((B, 16, 8))]
    assert_batch_equals_singles(layer, params, inputs)


class RecordingOptimizer:
    lr = 1e-3

    def step(self, params, grads):
        self.grads = grads


def test_train_step_equals_per_sample_composition():
    model = PiipModel(preset("piip-tiny-test"))
    rng = np.random.default_rng(11)
    harness.randomize_gates(model, rng, scale=0.3)
    images = rng.random((5, 64, 64, 3))
    labels = np.array([0, 3, 3, 7, 9])

    losses, grads, hits = [], [], 0
    for image, label in zip(images, labels):
        loss, g = model.parameter_gradients(
            image, lambda graph: ad.cross_entropy_op(graph.logits, int(label))
        )
        losses.append(loss)
        grads.append(g)
        hits += int(np.argmax(model.forward(image).logits)) == label

    opt = RecordingOptimizer()
    loss, acc = model.train_step(images, labels, opt)
    assert abs(loss - np.mean(losses)) <= 1e-14 * abs(loss)
    assert acc == hits / len(labels)
    for name, g in opt.grads.items():
        assert rel_err(g, sum(s[name] for s in grads) / len(labels)) <= REL, name


def test_batched_graph_forward_matches_forward():
    model = PiipModel(preset("piip-tiny-test"))
    rng = np.random.default_rng(12)
    harness.randomize_gates(model, rng, scale=0.3)
    images = rng.random((2, 64, 64, 3))
    stacked = model.forward(images)
    for b, image in enumerate(images):
        single = model.forward(image)
        assert rel_err(stacked.logits[b], single.logits) <= REL
        for feat_b, feat in zip(stacked.branch_features, single.branch_features):
            assert rel_err(feat_b.tokens[b], feat.tokens) <= REL
