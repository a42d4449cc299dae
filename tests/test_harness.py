"""Harness self-checks: oracles, FD machinery, glyph task, spectra, battery."""

import re

import numpy as np
import pytest

from piip import harness
from piip.branches import FeatureMap
from piip.config import BranchSpec, InteractionSchedule, MergeMode, PyramidConfig, preset
from piip.model import PiipModel

TINY = preset("piip-tiny-test")


def test_deform_oracle_zero_offsets():
    rng = np.random.default_rng(41)
    q, v, weights = harness.deform_instance(rng, 16, 8, 2, 4, (3, 3), (3, 3))
    weights["off_w"][:] = 0.0
    weights["off_b"][:] = 0.0
    assert harness.deform_oracle_gap(q, (3, 3), v, (3, 3), weights, 2, 4) <= 1e-10


def test_deform_oracle_single_point():
    rng = np.random.default_rng(42)
    q, v, weights = harness.deform_instance(rng, 12, 6, 2, 1, (2, 3), (4, 4))
    assert harness.deform_oracle_gap(q, (2, 3), v, (4, 4), weights, 2, 1) <= 1e-10


def test_deform_oracle_out_of_bounds():
    rng = np.random.default_rng(43)
    q, v, weights = harness.deform_instance(rng, 16, 8, 2, 3, (3, 3), (4, 4))
    weights["off_w"][:] = 0.0
    weights["off_b"][:] = 50.0  # every tap lands far outside the value grid
    assert harness.deform_oracle_gap(q, (3, 3), v, (4, 4), weights, 2, 3) <= 1e-10
    out = harness.brute_force_deform_attn(q, (3, 3), v, (4, 4), weights, 2, 3)
    # zero padding means the gather is empty and only the output bias remains
    assert np.allclose(out, weights["out_b"][None, :], atol=1e-12)


def test_fd_gradient_check_linear_function():
    x = np.array([0.3, -1.2, 2.0, 0.05, -0.7])
    params = {"w": np.array([1.0, 2.0, -0.5, 0.0, 3.0])}

    def value_fn():
        return float(params["w"] @ x)

    analytic = {"w": x.copy()}
    coords = [("w", i) for i in range(5)]
    records = harness.fd_gradient_check(value_fn, params, analytic, coords)
    assert all(r.rel_err <= 1e-9 for r in records)
    assert np.array_equal(params["w"], [1.0, 2.0, -0.5, 0.0, 3.0])  # restored

    planted = {"w": x + 0.5}
    bad = harness.fd_gradient_check(value_fn, params, planted, coords)
    assert max(r.rel_err for r in bad) > 1e-2


def test_fd_floor_semantics():
    params = {"w": np.zeros(1)}

    def tiny_slope():
        return 5e-9 * float(params["w"][0])

    rec = harness.fd_gradient_check(
        tiny_slope, params, {"w": np.zeros(1)}, [("w", 0)]
    )[0]
    assert rec.below_floor
    assert rec.rel_err == 0.0

    def unit_slope():
        return 1.1 * float(params["w"][0])

    rec = harness.fd_gradient_check(
        unit_slope, params, {"w": np.ones(1)}, [("w", 0)]
    )[0]
    assert not rec.below_floor
    assert rec.rel_err == pytest.approx(0.1 / 1.1, rel=1e-3)


def test_sample_family_coords_covers_every_family():
    model = PiipModel(TINY)
    rng = np.random.default_rng(7)
    coords = harness.sample_family_coords(model.params, rng, 200)
    assert len(coords) == 200
    names = [name for name, _ in coords]
    for family, pattern in harness.PARAM_FAMILIES.items():
        present = [n for n in model.params if pattern in n]
        if present:
            assert any(pattern in n for n in names), family
    for name, index in coords:
        assert 0 <= index < model.params[name].size


def test_randomize_gates_touches_only_gates_and_heads():
    model = PiipModel(TINY)
    qkv_before = model.params["branch1.block1.qkv_w"].copy()
    gammas = [n for n in model.params if n.endswith(".gamma")]
    assert gammas and all(np.all(model.params[n] == 0) for n in gammas)
    assert np.all(model.params["head1.w"] == 0)

    harness.randomize_gates(model, np.random.default_rng(3))
    assert all(np.any(model.params[n] != 0) for n in gammas)
    assert np.any(model.params["head1.w"] != 0)
    assert np.array_equal(model.params["branch1.block1.qkv_w"], qkv_before)


def test_glyphs_distinct():
    task = harness.SyntheticTask(canvas=64, glyph_size=8)
    glyphs = harness.glyph_bitmaps(task)
    assert glyphs.shape == (10, 8, 8)
    assert set(np.unique(glyphs)) <= {0.0, 1.0}
    for i in range(10):
        for j in range(i + 1, 10):
            assert not np.array_equal(glyphs[i], glyphs[j]), (i, j)
    with pytest.raises(ValueError, match="at most"):
        harness.glyph_bitmaps(harness.SyntheticTask(canvas=64, glyph_size=8, classes=11))


def test_task_for_derives_canvas_from_largest_branch():
    task = harness.task_for(TINY)
    assert task.canvas == 64
    assert task.glyph_size == 8
    assert task.classes == 10


def test_make_dataset_deterministic():
    task = harness.task_for(TINY)
    images_a, labels_a = harness.make_dataset(task, 6)
    images_b, labels_b = harness.make_dataset(task, 6)
    assert np.array_equal(images_a, images_b)
    assert np.array_equal(labels_a, labels_b)
    images_c, labels_c = harness.make_dataset(task, 6, seed=99)
    assert not np.array_equal(images_a, images_c)

    assert images_a.shape == (6, 64, 64, 3)
    assert labels_a.dtype == np.int64
    assert labels_a.min() >= 0 and labels_a.max() < 10
    assert images_a.min() >= 0.0 and images_a.max() == 1.0
    for img in images_a:
        bright = (img > 0.5).any(axis=2).sum()
        assert 0 < bright <= task.glyph_size**2


def test_make_dataset_rejects_a_glyph_larger_than_its_canvas():
    cfg = PyramidConfig(
        (BranchSpec(1, 8, 1, 2, 2),), InteractionSchedule(), MergeMode.CLASSIFICATION
    )
    task = harness.task_for(cfg)  # a 2-px canvas, 4-px glyphs
    with pytest.raises(ValueError, match="4-px glyph does not fit a 2-px canvas"):
        harness.make_dataset(task, 4)
    with pytest.raises(ValueError, match="4-px glyph does not fit a 2-px canvas"):
        harness.train_toy(cfg, steps=1, n_samples=4, batch_size=4)


def test_make_dataset_empty():
    task = harness.task_for(TINY)
    images, labels = harness.make_dataset(task, 0)
    assert images.shape == (0, 64, 64, 3)
    assert labels.shape == (0,)
    with pytest.raises(ValueError, match=re.escape("make_dataset: n must be >= 0, got -1")):
        harness.make_dataset(task, -1)


def test_high_freq_fraction_needs_a_grid():
    fmap = FeatureMap(np.ones((4, 1)), 2, 2)
    with pytest.raises(ValueError, match="4x4"):
        harness.high_freq_fraction(fmap)


def test_high_freq_fraction_rejects_a_stacked_map():
    images, _ = harness.make_dataset(harness.task_for(TINY), 2, seed=3)
    fmap = PiipModel(TINY).forward(images).branch_features[2]
    assert fmap.tokens.shape[0] == 2
    with pytest.raises(ValueError, match=r"one map's \[N, D\] tokens"):
        harness.high_freq_fraction(fmap)
    single = FeatureMap(fmap.tokens[0], fmap.grid_h, fmap.grid_w)
    assert 0.0 <= harness.high_freq_fraction(single) <= 1.0


def test_high_freq_fraction_extremes():
    const = FeatureMap(np.full((64, 2), 3.5), 8, 8)
    assert harness.high_freq_fraction(const) == 0.0

    i, j = np.mgrid[0:8, 0:8]
    checker = np.where((i + j) % 2 == 0, 1.0, -1.0)
    fmap = FeatureMap(checker.reshape(64, 1), 8, 8)
    assert harness.high_freq_fraction(fmap) == pytest.approx(1.0)

    zero = FeatureMap(np.zeros((64, 1)), 8, 8)
    assert harness.high_freq_fraction(zero) == 0.0


def test_pareto_oracle_basics():
    rows = [
        {"flops": 1.0, "acc": 0.5},
        {"flops": 2.0, "acc": 0.6},
        {"flops": 3.0, "acc": 0.4},
        {"flops": 2.0, "acc": 0.6},
    ]
    front = harness.pareto_oracle(rows, "flops", "acc")
    assert front == [rows[0], rows[1], rows[3]]


def test_train_toy_smoke():
    model, metrics = harness.train_toy(TINY, steps=4, n_samples=12, batch_size=4)
    assert isinstance(model, PiipModel)
    assert [m["step"] for m in metrics] == [1, 2, 3, 4]
    assert all(m["config-id"] == "r16-32-64" for m in metrics)
    assert all(np.isfinite(m["loss"]) for m in metrics)
    assert all(0.0 <= m["acc"] <= 1.0 for m in metrics)


def test_train_toy_early_stop_checks_every_100_steps():
    _, metrics = harness.train_toy(TINY, steps=120, n_samples=4, batch_size=2, stop_acc=0.0)
    assert len(metrics) == 100


@pytest.mark.parametrize(
    "bad, name",
    [
        (dict(steps=0), "steps"),
        (dict(batch_size=0), "batch_size"),
        (dict(batch_size=5), "batch_size"),
        (dict(lr=float("nan")), "lr"),
        (dict(lr=float("inf")), "lr"),
        (dict(lr=-1e-3), "lr"),
    ],
    ids=["no-steps", "empty-batch", "batch-over-pool", "nan-lr", "inf-lr", "negative-lr"],
)
def test_train_toy_rejects_bad_arguments(bad, name):
    # these used to end in an empty metrics list, NaN losses or a numpy error
    with pytest.raises(ValueError, match=f"^{name} must"):
        harness.train_toy(TINY, **{"steps": 2, "n_samples": 4, "batch_size": 2, **bad})


def test_train_accuracy_matches_argmax():
    model = PiipModel(TINY)  # zero heads -> every prediction is class 0
    task = harness.task_for(TINY)
    images, labels = harness.make_dataset(task, 8, seed=3)
    acc = harness.train_accuracy(model, images, labels)
    assert acc == float(np.mean(labels == 0))


@pytest.mark.parametrize(
    "n_images, labels, message",
    [
        (0, [], "non-empty batch and one label per image"),
        (8, [1], "non-empty batch and one label per image"),
        (8, [1, 2, 3, 4], "non-empty batch and one label per image"),
        (2, [1, -1], "train_accuracy needs integer labels in [0, 10), got -1"),
        (2, [1, 10], "train_accuracy needs integer labels in [0, 10), got 10"),
        (2, [1.7, 2.2], "train_accuracy needs integer labels in [0, 10), got 1.7"),
    ],
    ids=["0-0", "8-1", "8-4", "negative-label", "label-10", "fractional-labels"],
)
def test_train_accuracy_rejects_a_bad_batch(n_images, labels, message):
    # labels of -1 and 10 used to count as misses, and 1.7 was cut to 1
    images, _ = harness.make_dataset(harness.task_for(TINY), 8, seed=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        harness.train_accuracy(PiipModel(TINY), images[:n_images], np.array(labels))


def test_train_accuracy_equals_per_image_loop():
    # heads and gates away from zero so predictions spread over the classes;
    # 100 images leave a partial last stack
    model = PiipModel(TINY)
    rng = np.random.default_rng(4)
    for name, value in model.params.items():
        if name.startswith("head") or name.endswith((".gamma", ".tau")):
            model.params[name] = rng.normal(0.0, 0.5, value.shape)
    images, labels = harness.make_dataset(harness.task_for(TINY), 100, seed=5)
    preds = [int(np.argmax(model.forward(im).logits)) for im in images]
    assert len(set(preds)) > 1
    hits = sum(p == int(y) for p, y in zip(preds, labels))
    assert harness.train_accuracy(model, images, labels) == hits / len(images)


def test_verify_own_checks_pass():
    # the five criterion checks run in tests/test_acceptance.py; these two only here
    assert len(harness.CHECKS) == 7
    for check in (harness.check_config_round_trip, harness.check_sampling_grid_centers):
        assert check in harness.CHECKS
        assert check().ok
