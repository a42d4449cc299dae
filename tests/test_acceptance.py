"""Acceptance gate: one test per shipped criterion, ordered and numbered.

Each test measures its wall time, records a single PASS/FAIL line via the
``criterion`` fixture (reprinted in the terminal summary), and then asserts.
Criteria 3, 4, 5, 6 and 8 call the check functions of ``piip.harness``'s
verification battery, which hold their protocols (wall-clock bounds
included) and are what ``piip verify`` runs. Criterion 10 is soft: its line reports the
observed spectral split but never fails the suite.

Pinned thresholds for criterion 7, from the first full 2000-step run:
batch accuracy reached 1.0 (target >= 0.90), and the twenty 100-step loss
window means decreased strictly through step 1900 with a single 5e-4 uptick
in the converged tail (loss floor ~0.04). The 0.01 window slack absorbs
that float-level wobble; training stops early once the last hundred batch
accuracies average STOP_ACC, which in that run happened well before the
noisy tail.
"""

import time

import numpy as np

import scalar_oracles as ref
from piip import autodiff as ad
from piip import harness
from piip.config import (
    BranchSpec,
    InteractionSchedule,
    MergeMode,
    ProjStyle,
    PyramidConfig,
    default_directions,
    preset,
)
from piip.costmodel import cost_report

TINY = preset("piip-tiny-test")

ACC_THRESHOLD = 0.90
WINDOW_SLACK = 0.01
STOP_ACC = 0.98
MAX_STEPS = 2000

# two branches whose token grids are both big enough for a radial spectrum
SPECTRAL_CFG = PyramidConfig(
    branches=(
        BranchSpec(depth=2, dim=24, heads=4, patch_size=8, resolution=32),
        BranchSpec(depth=2, dim=12, heads=2, patch_size=8, resolution=64),
    ),
    interactions=InteractionSchedule(count=2, directions=default_directions(2)),
    merge_mode=MergeMode.CLASSIFICATION,
    merge_proj=ProjStyle.LINEAR,
    classes=10,
    seed=0,
)
SPECTRAL_STEPS = 2000  # same cap as criterion 7; length chosen on accuracy only


def test_criterion_01_piip_b_cost_reproduction(criterion):
    t0 = time.perf_counter()
    report = cost_report(preset("piip-b"))
    targets = [
        ("branch1", "params", 59.6e6, 0.03),
        ("branch2", "params", 15.1e6, 0.03),
        ("branch3", "params", 4.0e6, 0.03),
        ("branch1", "flops", 3.8e9, 0.05),
        ("branch2", "flops", 4.3e9, 0.05),
        ("branch3", "flops", 4.9e9, 0.05),  # windowed(256)
        ("interactions", "params", 21.2e6, 0.30),
        ("interactions", "flops", 5.1e9, 0.30),
        ("merging", "params", 0.3e6, 0.50),
        ("merging", "flops", 0.2e9, 0.50),
    ]
    worst = 0.0
    ok = True
    for name, field, want, tol in targets:
        got = getattr(report.entry(name), field)
        dev = abs(got - want) / want
        worst = max(worst, dev / tol)
        ok = ok and dev <= tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    detail = f"10 targets, worst at {worst:.2f} of its tolerance, {elapsed:.2f}s"
    assert criterion(1, "piip-b cost reproduction", ok, detail)


def test_criterion_02_vit_b_baseline(criterion):
    t0 = time.perf_counter()
    report = cost_report(preset("vit-b-baseline"))
    p_dev = abs(report.total_params - 86e6) / 86e6
    f_dev = abs(report.total_flops - 17.5e9) / 17.5e9
    elapsed = time.perf_counter() - t0
    ok = p_dev <= 0.03 and f_dev <= 0.05 and elapsed < 1.0
    detail = (
        f"{report.total_params / 1e6:.1f}M params ({p_dev:.2%} off), "
        f"{report.total_flops / 1e9:.2f}G MACs ({f_dev:.2%} off), {elapsed:.2f}s"
    )
    assert criterion(2, "ViT-B @224 baseline", ok, detail)


def test_criterion_03_zero_gate_identity(criterion):
    verdict = harness.check_zero_gate_identity()
    assert criterion(3, verdict.name, verdict.ok, verdict.detail)


def test_criterion_04_deform_attention_oracle(criterion):
    verdict = harness.check_deform_oracle()
    assert criterion(4, verdict.name, verdict.ok, verdict.detail)


def test_criterion_05_gradient_correctness(criterion):
    verdict = harness.check_fd_gradients()
    assert criterion(5, verdict.name, verdict.ok, verdict.detail)


def test_criterion_06_registry_self_consistency(criterion):
    verdict = harness.check_cost_registry()
    assert criterion(6, verdict.name, verdict.ok, verdict.detail)


def test_criterion_07_toy_trainability(criterion):
    t0 = time.perf_counter()
    model, metrics = harness.train_toy(TINY, steps=MAX_STEPS, stop_acc=STOP_ACC)
    task = harness.task_for(TINY)
    images, labels = harness.make_dataset(task, 512)
    acc = harness.train_accuracy(model, images, labels)

    losses = [m["loss"] for m in metrics]
    windows = [
        float(np.mean(losses[i : i + 100])) for i in range(0, len(losses) - 99, 100)
    ]
    worst_rise = max(
        (b - a for a, b in zip(windows, windows[1:])), default=float("-inf")
    )
    elapsed = time.perf_counter() - t0
    ok = (
        acc >= ACC_THRESHOLD
        and worst_rise <= WINDOW_SLACK
        and len(metrics) <= MAX_STEPS
        and elapsed < 600.0
    )
    detail = (
        f"train acc {acc:.3f} after {len(metrics)} steps, "
        f"{len(windows)} loss windows, worst rise {worst_rise:+.4f}, {elapsed:.0f}s"
    )
    assert criterion(7, "glyph task trainability", ok, detail)


def test_criterion_08_explorer_correctness(criterion):
    verdict = harness.check_pareto_and_sweep()
    assert criterion(8, verdict.name, verdict.ok, verdict.detail)


def test_criterion_09_kernel_oracles(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31_337)
    worst = {}
    row_sum_err = 0.0  # softmax rows must sum to 1

    def gap(name, got, want):
        got, want = np.asarray(got), np.asarray(want)
        err = float(np.abs(got - want).max()) if got.shape == want.shape else np.inf
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(100):
        n = int(rng.integers(1, 9))
        din = int(rng.integers(1, 9))
        dout = int(rng.integers(1, 9))
        x = rng.standard_normal((n, din))
        w = rng.standard_normal((din, dout))
        b = rng.standard_normal(dout)
        gap("linear", ad.matmul(ad.leaf(x), ad.leaf(w), ad.leaf(b)).value,
            ref.linear_ref(x, w, b))

        g = rng.standard_normal(din)
        bb = rng.standard_normal(din)
        xs = x * rng.uniform(0.1, 10)
        gap("layer_norm", ad.layer_norm_op(ad.leaf(xs), ad.leaf(g), ad.leaf(bb)).value,
            ref.layer_norm_ref(xs, g, bb))
        logits = x * rng.uniform(0.5, 30)
        probs = ad.softmax_op(ad.leaf(logits)).value
        gap("softmax", probs, ref.softmax_ref(logits))
        row_sum_err = max(row_sum_err, float(np.abs(probs.sum(axis=-1) - 1.0).max()))
        vec = rng.standard_normal(int(rng.integers(1, 40))) * 3
        gap("gelu", ad.gelu_op(ad.leaf(vec)).value, ref.gelu_ref(vec))

        h, wd = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        groups = int(rng.integers(1, 4))
        c = groups * int(rng.integers(1, 4))
        grid = rng.standard_normal((h, wd, c))
        gg = rng.standard_normal(c)
        gb = rng.standard_normal(c)
        gap(
            "group_norm",
            ad.group_norm_op(ad.leaf(grid), groups, ad.leaf(gg), ad.leaf(gb)).value,
            ref.group_norm_ref(grid, groups, gg, gb),
        )

        oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        gap(
            "bilinear_resize",
            ad.bilinear_resize_op(ad.leaf(grid), oh, ow).value,
            ref.bilinear_resize_ref(grid, oh, ow),
        )
        pts = rng.uniform(-0.5, 1.5, (int(rng.integers(1, 12)), 2))
        gap(
            "bilinear_sample",
            ad.bilinear_sample_op(ad.leaf(grid), ad.leaf(pts)).value,
            ref.bilinear_sample_ref(grid, pts),
        )

        kh = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, kh]))
        pad = kh // 2 if stride == 1 else 0
        ch, cw = int(rng.integers(kh, 7)), int(rng.integers(kh, 7))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cx = rng.standard_normal((ch, cw, cin))
        ck = rng.standard_normal((kh, kh, cin, cout))
        cb = rng.standard_normal(cout)
        gap(
            "conv2d",
            ad.conv2d_op(ad.leaf(cx), ad.leaf(ck), ad.leaf(cb), stride, pad).value,
            ref.conv2d_ref(cx, ck, cb, stride, pad),
        )
        # the patch-embedding layout: an RGB image in whole 2- or 4-px patches
        p = int(rng.choice([2, 4]))
        px = rng.standard_normal((int(rng.integers(1, 4)) * p, int(rng.integers(1, 4)) * p, 3))
        pk = rng.standard_normal((p, p, 3, cout))
        gap(
            "conv2d",
            ad.conv2d_op(ad.leaf(px), ad.leaf(pk), ad.leaf(cb), p).value,
            ref.conv2d_ref(px, pk, cb, p, 0),
        )

    elapsed = time.perf_counter() - t0
    worst_err = max(worst.values())
    ok = len(worst) == 8 and worst_err <= 1e-9 and row_sum_err <= 1e-12 and elapsed < 120.0
    detail = (
        f"{len(worst)} kernels x 100 cases, max |Δ| {worst_err:.1e}, "
        f"softmax row sums off by {row_sum_err:.0e}, {elapsed:.1f}s"
    )
    assert criterion(9, "numeric kernels match scalar oracles", ok, detail)


def test_criterion_10_spectral_split_soft(criterion):
    t0 = time.perf_counter()
    model, metrics = harness.train_toy(
        SPECTRAL_CFG, steps=SPECTRAL_STEPS, n_samples=256, stop_acc=0.95
    )
    task = harness.task_for(SPECTRAL_CFG)
    train_images, train_labels = harness.make_dataset(task, 256)
    acc = harness.train_accuracy(model, train_images, train_labels)
    test_images, _ = harness.make_dataset(task, 64, seed=777)
    fractions = [[], []]
    for image in test_images:
        for idx, fmap in enumerate(model.forward(image).branch_features):
            fractions[idx].append(harness.high_freq_fraction(fmap))
    low = float(np.mean(fractions[0]))
    high = float(np.mean(fractions[1]))
    elapsed = time.perf_counter() - t0

    held = high > low
    detail = (
        f"soft, non-gating: high-res branch {high:.3f} vs low-res {low:.3f} "
        f"(train acc {acc:.2f} after {len(metrics)} steps), {elapsed:.0f}s"
    )
    criterion(10, "high-res branch carries more high-frequency energy", held, detail)
    assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0  # sanity only; reported above
