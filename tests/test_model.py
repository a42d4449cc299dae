"""Model-level checks: registry consistency, forward determinism, weights IO."""

import dataclasses
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import variants

from piip import autodiff as ad
from piip import harness, merging
from piip.config import PRESET_NAMES, preset
from piip.costmodel import cost_report
from piip.model import AdamW, PiipModel

RNG = np.random.default_rng(77011)

TINY = preset("piip-tiny-test")


def tiny_image(rng=RNG):
    r = TINY.branches[-1].resolution
    return rng.random((r, r, 3))


# the variants reach the cost model's lines for padded windows, regular
# attention and dense merges, which no preset does
REGISTRY_CONFIGS = {name: preset(name) for name in PRESET_NAMES} | {
    "padded-window": variants.PADDED_WINDOW,
    "regular-attention": variants.REGULAR_ATTENTION,
    "dense-linear": variants.DENSE_LINEAR,
    "dense-conv3x3": variants.DENSE_CONV3X3,
}


@pytest.mark.parametrize("name", REGISTRY_CONFIGS)
def test_registry_matches_cost_model(name):
    cfg = REGISTRY_CONFIGS[name]
    model = PiipModel(cfg, materialize=False)
    assert model.param_count() == cost_report(cfg).total_params


@pytest.mark.parametrize("name", ["piip-tiny-test", "piip-tsb-toy", "piip-sbl-toy"])
def test_materialized_registry_matches_declarations(name):
    cfg = preset(name)
    model = PiipModel(cfg)
    assert sum(v.size for v in model.params.values()) == model.param_count()
    for pname, decl in model.param_spec.decls.items():
        assert model.params[pname].shape == decl.shape
        assert model.params[pname].dtype == np.float64


def test_allocation_deterministic_in_seed():
    a = PiipModel(TINY)
    b = PiipModel(TINY)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    other = PiipModel(dataclasses.replace(TINY, seed=5))
    assert any(
        not np.array_equal(a.params[name], other.params[name]) for name in a.params
    )


def test_forward_is_deterministic():
    model = PiipModel(TINY)
    image = tiny_image()
    r1 = model.forward(image)
    r2 = model.forward(image)
    assert np.array_equal(r1.logits, r2.logits)
    for f1, f2 in zip(r1.branch_features, r2.branch_features):
        assert np.array_equal(f1.tokens, f2.tokens)


def test_forward_shapes():
    model = PiipModel(TINY)
    result = model.forward(tiny_image())
    grids = [(f.grid_h, f.grid_w, f.dim) for f in result.branch_features]
    assert grids == [(1, 1, 32), (2, 2, 16), (4, 4, 8)]
    assert result.logits.shape == (10,)
    assert len(result.branch_logits) == 3
    assert all(bl.shape == (10,) for bl in result.branch_logits)
    assert result.merged is None


def test_input_shape_validation():
    model = PiipModel(TINY)
    with pytest.raises(ValueError, match=r"\(64, 64, 3\)"):
        model.forward(np.zeros((32, 32, 3)))
    with pytest.raises(ValueError, match="expected input"):
        model.forward(np.zeros((64, 64)))
    with pytest.raises(ValueError, match="or a stack of them"):
        model.forward(np.zeros((1, 2, 64, 64, 3)))


def test_image_needs_a_real_dtype():
    # a complex image ran on its real part with only a ComplexWarning
    model = PiipModel(TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for image, dtype in [
            (np.zeros((64, 64, 3)) + 1j, "complex128"),
            (np.full((64, 64, 3), "0.5"), "<U3"),
            (np.full((64, 64, 3), None), "object"),
        ]:
            with pytest.raises(ValueError, match=f"input image has dtype {dtype},"):
                model.forward(image)
    ones = model.forward(np.ones((64, 64, 3))).logits
    for dtype in (bool, np.uint8, int):
        assert np.array_equal(model.forward(np.ones((64, 64, 3), dtype)).logits, ones)


def test_forward_without_materialized_parameters_raises():
    model = PiipModel(TINY, materialize=False)
    with pytest.raises(RuntimeError, match="model was built without materialized parameters"):
        model.forward(tiny_image(np.random.default_rng(0)))


def test_non_finite_image_raises_instead_of_propagating():
    model = PiipModel(TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ValueError, match="non-finite"):
            model.forward(np.full((64, 64, 3), np.nan))
    stack = np.random.default_rng(0).random((2, 64, 64, 3))  # module RNG left as it was
    stack[1, 5, 7, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        model.train_step(stack, np.array([0, 1]), AdamW(model.params))


def test_save_load_round_trip(tmp_path):
    model = PiipModel(TINY)
    image = tiny_image()
    before = model.forward(image)
    path = str(tmp_path / "weights.npz")
    model.save_weights(path)

    fresh = PiipModel(dataclasses.replace(TINY, seed=9))
    assert not np.array_equal(
        fresh.forward(image).branch_features[0].tokens, before.branch_features[0].tokens
    )
    fresh.load_weights(path)
    after = fresh.forward(image)
    assert np.array_equal(after.logits, before.logits)
    for f1, f2 in zip(after.branch_features, before.branch_features):
        assert np.array_equal(f1.tokens, f2.tokens)


def test_load_rejects_bad_containers(tmp_path):
    model = PiipModel(TINY)
    path = str(tmp_path / "weights.npz")
    model.save_weights(path)

    partial = dict(model.params)
    partial.pop("head1.w")
    missing = str(tmp_path / "missing.npz")
    np.savez(missing, **partial)
    with pytest.raises(ValueError, match="mismatch"):
        PiipModel(TINY).load_weights(missing)

    extra = dict(model.params)
    extra["bogus"] = np.zeros(3)
    extra_path = str(tmp_path / "extra.npz")
    np.savez(extra_path, **extra)
    with pytest.raises(ValueError, match="bogus"):
        PiipModel(TINY).load_weights(extra_path)

    bad_shape = dict(model.params)
    bad_shape["head1.w"] = np.zeros((2, 2))
    shape_path = str(tmp_path / "shape.npz")
    np.savez(shape_path, **bad_shape)
    with pytest.raises(ValueError, match="head1.w"):
        PiipModel(TINY).load_weights(shape_path)

    # a complex or string tensor is rejected, not cast; int and float load as float64
    for value, dtype in ((1 + 2j, "complex128"), ("1.0", "<U3")):
        bad_dtype = dict(model.params)
        bad_dtype["head1.ln_g"] = np.full(model.params["head1.ln_g"].shape, value)
        dtype_path = str(tmp_path / "dtype.npz")
        np.savez(dtype_path, **bad_dtype)
        with pytest.raises(ValueError, match=f"'head1.ln_g' has dtype {dtype}"):
            PiipModel(TINY).load_weights(dtype_path)
    as_int = dict(model.params)
    as_int["head1.ln_g"] = np.full(model.params["head1.ln_g"].shape, 2, dtype=np.int32)
    int_path = str(tmp_path / "int.npz")
    np.savez(int_path, **as_int)
    loaded = PiipModel(TINY)
    loaded.load_weights(int_path)
    assert loaded.params["head1.ln_g"].dtype == np.float64
    assert (loaded.params["head1.ln_g"] == 2.0).all()

    npy_path = str(tmp_path / "one.npy")
    np.save(npy_path, model.params["head1.w"])
    with pytest.raises(ValueError, match="not an .npz archive"):
        PiipModel(TINY).load_weights(npy_path)


def test_load_rejects_non_finite_weights(tmp_path):
    model = PiipModel(TINY)
    names = list(model.param_spec.decls)
    model.params[names[9]][...] = np.nan
    model.params[names[4]].reshape(-1)[-1] = -np.inf  # the first non-finite tensor
    path = str(tmp_path / "weights.npz")
    model.save_weights(path)
    with pytest.raises(ValueError, match=f"{names[4]!r} has non-finite values"):
        PiipModel(TINY).load_weights(path)


def test_train_step_with_zero_lr_keeps_params():
    model = PiipModel(TINY)
    snapshot = {name: v.copy() for name, v in model.params.items()}
    opt = AdamW(model.params, lr=0.0)
    images = RNG.random((4, 64, 64, 3))
    labels = np.array([0, 1, 2, 3])
    loss, acc = model.train_step(images, labels, opt)
    assert np.isfinite(loss)
    assert 0.0 <= acc <= 1.0
    for name, v in model.params.items():
        assert np.array_equal(v, snapshot[name])


@pytest.mark.parametrize(
    "n_images, labels, message",
    [
        (0, [], "one label per image"),
        (2, [0], "one label per image"),
        (2, [0, 1, 2], "one label per image"),
        (2, [1, -1], "train_step needs integer labels in [0, 10), got -1"),
        (2, [1, 10], "train_step needs integer labels in [0, 10), got 10"),
        (2, [1.7, 2.2], "train_step needs integer labels in [0, 10), got 1.7"),
        (2, ["1", "2"], "train_step needs numeric labels, got dtype <U1"),
    ],
    ids=["empty", "one-label-for-two", "three-labels-for-two", "negative-label", "label-10",
         "fractional-labels", "string-labels"],
)
def test_train_step_rejects_empty_or_mislabelled_batch(n_images, labels, message):
    # an empty batch used to step AdamW on a NaN loss; one label was broadcast;
    # -1 trained on class 9, 10 raised a bare IndexError and 1.7 was cut to 1
    model = PiipModel(TINY)
    snapshot = {name: v.copy() for name, v in model.params.items()}
    r = TINY.branches[-1].resolution
    images = np.zeros((n_images, r, r, 3))
    with pytest.raises(ValueError, match=re.escape(message)):
        model.train_step(images, np.array(labels), AdamW(model.params))
    for name, v in model.params.items():
        assert np.array_equal(v, snapshot[name])


def test_dense_model_is_rejected_by_train_step_and_train_accuracy():
    # train_step used to raise RuntimeError here, train_accuracy ValueError
    model = PiipModel(variants.DENSE_LINEAR)
    images, labels = np.random.default_rng(3).random((2, 64, 64, 3)), np.array([0, 1])
    for caller, call in (
        ("train_step", lambda: model.train_step(images, labels, AdamW(model.params))),
        ("train_accuracy", lambda: harness.train_accuracy(model, images, labels)),
    ):
        with pytest.raises(ValueError, match=f"^{caller} needs a classification-mode config"):
            call()


def test_train_step_learns_a_fixed_batch():
    model = PiipModel(TINY)
    opt = AdamW(model.params, lr=1e-3)
    images = RNG.random((4, 64, 64, 3))
    labels = np.array([1, 3, 5, 7])
    first, _ = model.train_step(images, labels, opt)
    for _ in range(29):
        last, _ = model.train_step(images, labels, opt)
    assert last < first


def test_zero_gates_block_cross_branch_gradients():
    # With gamma = tau = 0 a loss on branch 1's tokens can reach branch 1's
    # own weights but not branch 3's, and untouched heads get zero-filled
    # gradients rather than None.
    model = PiipModel(TINY)

    def loss_fn(graph):
        t = graph.branch_features[0].tokens
        return ad.mean_op(ad.mul(t, t))

    loss, grads = model.parameter_gradients(tiny_image(), loss_fn)
    assert np.isfinite(loss)
    assert grads["branch1.block1.qkv_w"].shape == model.params["branch1.block1.qkv_w"].shape
    assert np.abs(grads["branch1.block1.qkv_w"]).max() > 0
    assert np.abs(grads["branch1.embed.kernel"]).max() > 0
    assert np.abs(grads["branch3.block1.qkv_w"]).max() == 0
    assert np.abs(grads["branch3.embed.kernel"]).max() == 0
    assert np.abs(grads["head1.w"]).max() == 0
    gamma_names = [
        n for n in grads if ".to1." in n and n.endswith(".gamma")
    ]
    assert gamma_names
    assert any(np.abs(grads[n]).max() > 0 for n in gamma_names)


def test_adamw_decay_mask():
    model = PiipModel(TINY)
    opt = AdamW(model.params)
    assert opt.decayed["branch1.block1.qkv_w"]
    assert opt.decayed["branch1.embed.kernel"]
    assert not opt.decayed["branch1.embed.pos"]
    assert not opt.decayed["branch1.block1.qkv_b"]
    assert not opt.decayed["branch1.block1.ln1_g"]
    assert not opt.decayed["merge.w"] if "merge.w" in opt.decayed else True


def test_weights_doc_names_exist_in_registry():
    text = (Path(__file__).resolve().parents[1] / "docs" / "weights-format.md").read_text()
    pattern = r'[`"]((?:branch|interaction|head|merge)[\w.]*)[`"]'
    names = {n.removesuffix(".npy") for n in re.findall(pattern, text)}
    assert {"branch1.block1.qkv_w", "interaction1.pair1_2.to2.gamma"} <= names
    tiny = set(PiipModel(TINY, materialize=False).param_spec.decls)
    dense = set(PiipModel(preset("piip-b"), materialize=False).param_spec.decls)  # merge.*
    assert [n for n in names if n not in (dense if n.startswith("merge.") else tiny)] == []


def test_no_grad_forward_frees_intermediates_as_it_goes(monkeypatch):
    # Layer-norm outputs of the blocks are dead by the time the heads run when
    # no gradient is needed; with gradients the tape keeps them alive.
    model = PiipModel(TINY)
    refs = []
    alive_at_head = []
    layer_norm, head_forward = ad.layer_norm_op, merging.ClassificationHead.forward

    def recording_layer_norm(*args, **kwargs):
        out = layer_norm(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    def counting_head_forward(self, P, states):
        alive_at_head.append(sum(r() is not None for r in refs))
        return head_forward(self, P, states)

    monkeypatch.setattr(ad, "layer_norm_op", recording_layer_norm)
    monkeypatch.setattr(merging.ClassificationHead, "forward", counting_head_forward)
    model.forward(tiny_image())
    assert refs and alive_at_head == [0]
    assert all(r() is None for r in refs)

    refs.clear()
    model.parameter_gradients(tiny_image(), lambda graph: ad.sum_op(graph.logits))
    assert alive_at_head[1] == len(refs) - 3  # all but the three heads' own norms
