"""Verification harness: independent oracles, gradient checks, toy training.

The deformable-attention oracle below is a deliberate scalar-loop
transcription of the published sampling rule; it shares no code with the
vectorized implementation it checks. The finite-difference checker treats
the model as a black-box function of its flat parameter registry.

The synthetic glyph task gives the toy trainer something whose label lives
in small-scale shape detail: a tiny binary glyph stamped at a random
position over a smooth low-frequency background. Telling the ten glyphs
apart requires resolving structure near the patch scale, which is exactly
what the high-resolution/narrow branch of a pyramid is there to provide.

The verification battery (``CHECKS``) holds the protocols of acceptance
criteria 3, 4, 5, 6 and 8 beside two checks of its own; ``piip verify`` runs
all seven and the acceptance tests call the same functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import explorer
from .branches import FeatureMap
from .config import PRESET_NAMES, PyramidConfig, parse_config, preset, render_config
from .costmodel import cost_report
from .interaction import DeformableCrossAttention, reference_points
from .model import AdamW, PiipModel, classification_labels


# ---------------------------------------------------------------------------
# brute-force deformable attention (scalar loops only)
# ---------------------------------------------------------------------------


def brute_force_deform_attn(
    query: np.ndarray,
    q_grid: tuple[int, int],
    value: np.ndarray,
    v_grid: tuple[int, int],
    weights: dict[str, np.ndarray],
    heads: int,
    points: int,
) -> np.ndarray:
    """Scalar-loop reference for deformable cross-attention.

    query: [Nq, D] tokens on q_grid; value: [Nv, D] tokens on v_grid;
    weights: val_w/val_b/out_w/out_b/off_w/off_b/wt_w/wt_b arrays.
    """
    qh, qw = q_grid
    vh, vw = v_grid
    nq, d = query.shape
    nv = value.shape[0]
    vdim = weights["val_w"].shape[1]
    hd = vdim // heads

    # value projection, one scalar accumulation per output cell
    vproj = [[0.0] * vdim for _ in range(nv)]
    for t in range(nv):
        for c in range(vdim):
            acc = float(weights["val_b"][c])
            for i in range(d):
                acc += float(value[t, i]) * float(weights["val_w"][i, c])
            vproj[t][c] = acc

    def sample(hi: int, x: float, y: float) -> list[float]:
        """Bilinear tap of head hi's channels at normalized (x, y), zero-padded."""
        xp = x * vw - 0.5
        yp = y * vh - 0.5
        x0 = math.floor(xp)
        y0 = math.floor(yp)
        tx = xp - x0
        ty = yp - y0
        out = [0.0] * hd
        for dy in (0, 1):
            for dx in (0, 1):
                yy = y0 + dy
                xx = x0 + dx
                if yy < 0 or yy >= vh or xx < 0 or xx >= vw:
                    continue
                wgt = (tx if dx else 1.0 - tx) * (ty if dy else 1.0 - ty)
                base = vproj[yy * vw + xx]
                for c in range(hd):
                    out[c] += wgt * base[hi * hd + c]
        return out

    result = np.zeros((nq, d))
    for q in range(nq):
        ref_x = ((q % qw) + 0.5) / qw
        ref_y = ((q // qw) + 0.5) / qh
        gathered = [0.0] * vdim
        for hi in range(heads):
            # raw offsets and sampling logits for this head
            logits = []
            taps = []
            for k in range(points):
                col = (hi * points + k) * 2
                off_x = float(weights["off_b"][col])
                off_y = float(weights["off_b"][col + 1])
                wcol = hi * points + k
                logit = float(weights["wt_b"][wcol])
                for i in range(d):
                    off_x += float(query[q, i]) * float(weights["off_w"][i, col])
                    off_y += float(query[q, i]) * float(weights["off_w"][i, col + 1])
                    logit += float(query[q, i]) * float(weights["wt_w"][i, wcol])
                logits.append(logit)
                taps.append(sample(hi, ref_x + off_x / vw, ref_y + off_y / vh))
            peak = max(logits)
            exps = [math.exp(l - peak) for l in logits]
            norm = sum(exps)
            for k in range(points):
                a = exps[k] / norm
                for c in range(hd):
                    gathered[hi * hd + c] += a * taps[k][c]
        for o in range(d):
            acc = float(weights["out_b"][o])
            for c in range(vdim):
                acc += gathered[c] * float(weights["out_w"][c, o])
            result[q, o] = acc
    return result


def deform_instance(
    rng: np.random.Generator, d: int, vdim: int, heads: int, points: int,
    q_grid: tuple[int, int], v_grid: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Random (query, value, weights) for one deformable-attention instance."""
    weights = {
        "val_w": rng.standard_normal((d, vdim)) * 0.2,
        "val_b": rng.standard_normal(vdim) * 0.1,
        "out_w": rng.standard_normal((vdim, d)) * 0.2,
        "out_b": rng.standard_normal(d) * 0.1,
        "off_w": rng.standard_normal((d, heads * points * 2)) * 0.3,
        "off_b": rng.standard_normal(heads * points * 2) * 0.3,
        "wt_w": rng.standard_normal((d, heads * points)) * 0.3,
        "wt_b": rng.standard_normal(heads * points) * 0.1,
    }
    query = rng.standard_normal((q_grid[0] * q_grid[1], d))
    value = rng.standard_normal((v_grid[0] * v_grid[1], d))
    return query, value, weights


def deform_oracle_gap(
    query: np.ndarray, q_grid: tuple[int, int], value: np.ndarray, v_grid: tuple[int, int],
    weights: dict[str, np.ndarray], heads: int, points: int,
) -> float:
    """Max |vectorized deformable attention - ``brute_force_deform_attn``| on one instance."""
    attn = DeformableCrossAttention(
        "probe", query.shape[1], heads, points, weights["val_w"].shape[1]
    )
    P = {f"probe.{k}": ad.leaf(v) for k, v in weights.items()}
    got = attn.forward(P, ad.leaf(query), q_grid, ad.leaf(value), v_grid).value
    want = brute_force_deform_attn(query, q_grid, value, v_grid, weights, heads, points)
    return float(np.abs(got - want).max())


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


FD_STEP = 1e-5  # central-difference step


@dataclass
class FdRecord:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float
    below_floor: bool  # |analytic - numeric| under the absolute floor


def fd_gradient_check(
    value_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    coords: list[tuple[str, int]],
) -> list[FdRecord]:
    """Central-difference check of ``analytic`` at the given flat coordinates.

    ``value_fn`` re-evaluates the scalar objective from the (temporarily
    perturbed) ``params`` dict. Central differences in double precision
    resolve a gradient only down to roughly eps*|f|/FD_STEP (~1e-11 here), so
    an absolute floor applies first: coordinates where analytic and numeric
    agree within 1e-8 count as exact and report rel_err 0; everything
    larger is scored relative to the bigger of the two magnitudes.
    """
    records = []
    for name, index in coords:
        flat = params[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + FD_STEP
        f_plus = value_fn()
        flat[index] = orig - FD_STEP
        f_minus = value_fn()
        flat[index] = orig
        numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
        a = float(analytic[name].reshape(-1)[index])
        diff = abs(a - numeric)
        below = diff <= 1e-8
        rel = 0.0 if below else diff / max(abs(a), abs(numeric))
        records.append(FdRecord(name, index, a, numeric, rel, below))
    return records


PARAM_FAMILIES: dict[str, str] = {
    "qkv": ".qkv_w",
    "attn-proj": ".proj_w",
    "block-mlp": ".mlp1_w",
    "patch-embed": ".embed.kernel",
    "pos-embed": ".embed.pos",
    "reconcile-fc": ".fc_w",
    "offset-head": ".attn.off_w",
    "weight-head": ".attn.wt_w",
    "value-proj": ".attn.val_w",
    "gamma": ".gamma",
    "tau": ".tau",
    "interaction-ffn": ".ffn1_w",
    "norm-gain": ".ln1_g",
    "merge-proj": "merge.proj",
    "merge-weights": "merge.w",
    "head": "head",
}


def sample_family_coords(
    params: dict[str, np.ndarray], rng: np.random.Generator, total: int
) -> list[tuple[str, int]]:
    """Coordinates spread over every parameter family present in the model, 3 per family."""
    coords: list[tuple[str, int]] = []
    names = list(params)
    for pattern in PARAM_FAMILIES.values():
        matching = [n for n in names if pattern in n]
        if not matching:
            continue
        for _ in range(3):
            name = matching[int(rng.integers(len(matching)))]
            coords.append((name, int(rng.integers(params[name].size))))
    while len(coords) < total:
        name = names[int(rng.integers(len(names)))]
        coords.append((name, int(rng.integers(params[name].size))))
    return coords[:total]


def randomize_gates(model: PiipModel, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Give every zero-init gate and classifier weight a small random value.

    At exact initialization the zero gates annihilate all gradients inside
    the interaction directions, and the zero classifier weights block gradients
    to everything upstream of the heads; a gradient check at that state
    would be vacuous for most parameter families.
    """
    for name, value in model.params.items():
        zeroed_gate = name.endswith((".gamma", ".tau"))
        classifier = name.startswith("head") and name.endswith(".w")
        if zeroed_gate or classifier:
            model.params[name] = rng.standard_normal(value.shape) * scale


FD_COORDS = 200  # coordinates per model gradient check


def model_gradient_check(
    model: PiipModel, image: np.ndarray, loss_fn, rng: np.random.Generator
) -> list[FdRecord]:
    """FD-check ``FD_COORDS`` coordinates of a model, covering every family."""
    _, analytic = model.parameter_gradients(image, loss_fn)
    coords = sample_family_coords(model.params, rng, FD_COORDS)

    def value_fn() -> float:
        graph = model.graph_forward(image, model._wrap(needs_grad=False))
        return float(loss_fn(graph).value)

    return fd_gradient_check(value_fn, model.params, analytic, coords)


# ---------------------------------------------------------------------------
# synthetic glyph task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    canvas: int
    glyph_size: int
    classes: int = 10
    seed: int = 0


def task_for(cfg: PyramidConfig) -> SyntheticTask:
    canvas = cfg.branches[-1].resolution
    return SyntheticTask(
        canvas=canvas, glyph_size=max(4, canvas // 8), classes=cfg.classes, seed=cfg.seed
    )


def glyph_bitmaps(task: SyntheticTask) -> np.ndarray:
    """[classes, g, g] binary masks, pairwise distinct.

    The glyphs are thick strokes and blobs rather than random bitmaps:
    their energy lives at coarse scales, so their patch statistics survive
    sub-patch translation and the task stays learnable for small models.
    """
    g = task.glyph_size
    i, j = np.mgrid[0:g, 0:g]
    q = max(1, g // 4)
    h = g // 2
    c = (g - 1) / 2
    shapes = [
        np.ones((g, g), dtype=bool),                # solid block
        abs(i - c) < q,                             # horizontal bar
        abs(j - c) < q,                             # vertical bar
        (abs(i - c) < q) | (abs(j - c) < q),        # plus
        (abs(i - j) < q) | (abs(i + j - (g - 1)) < q),  # diagonal cross
        (i < q) | (i >= g - q) | (j < q) | (j >= g - q),  # frame
        i < h,                                      # top half
        j < h,                                      # left half
        (i < h) == (j < h),                         # two-block checker
        (abs(i - c) < h / 2) & (abs(j - c) < h / 2),  # center dot
    ]
    glyphs = np.stack([s.astype(np.float64) for s in shapes[: task.classes]])
    if len(glyphs) < task.classes:
        raise ValueError(f"glyph task supports at most {len(shapes)} classes")
    return glyphs


def make_dataset(
    task: SyntheticTask, n: int, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """n images [canvas, canvas, 3] in [0, 1] plus integer labels."""
    if n < 0:
        raise ValueError(f"make_dataset: n must be >= 0, got {n}")
    if task.glyph_size > task.canvas:
        raise ValueError(f"a {task.glyph_size}-px glyph does not fit a {task.canvas}-px canvas")
    rng = np.random.default_rng(task.seed if seed is None else seed)
    glyphs = glyph_bitmaps(task)
    c, g = task.canvas, task.glyph_size
    images = np.empty((n, c, c, 3))
    labels = rng.integers(0, task.classes, size=n)
    for i in range(n):
        base = rng.random((4, 4, 3)) * 0.15  # background level, well below the glyph's 1.0
        img = ad.bilinear_resize_op(ad.leaf(base), c, c).value  # smooth low-frequency field
        y0 = int(rng.integers(0, c - g + 1))
        x0 = int(rng.integers(0, c - g + 1))
        mask = glyphs[labels[i]][:, :, None]
        img[y0 : y0 + g, x0 : x0 + g, :] = np.where(
            mask > 0, 1.0, img[y0 : y0 + g, x0 : x0 + g, :]
        )
        images[i] = img
    return images, labels.astype(np.int64)


def train_toy(
    cfg: PyramidConfig,
    steps: int = 2000,
    n_samples: int = 512,
    batch_size: int = 16,
    lr: float = 1e-3,
    stop_acc: float | None = None,
) -> tuple[PiipModel, list[dict]]:
    """Overfit the glyph task; returns the trained model and per-step metrics.

    Each metrics row carries the config's ``explorer.config_id``. ``stop_acc``
    ends the run once mean batch accuracy over the last 100 steps reaches it.
    The cosine schedule keeps its ``steps``-long shape, so a stopped run is
    bitwise a prefix of the full one.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 1 <= batch_size <= n_samples:
        raise ValueError(f"batch_size must lie in [1, n_samples={n_samples}], got {batch_size}")
    if not 0 <= lr < math.inf:
        raise ValueError(f"lr must be finite and non-negative, got {lr}")
    classification_labels(cfg, "train_toy")
    model = PiipModel(cfg)
    task = task_for(cfg)
    images, labels = make_dataset(task, n_samples)
    rng = np.random.default_rng(cfg.seed + 1)
    opt = AdamW(model.params, lr=lr)
    config_id = explorer.config_id(tuple(b.resolution for b in cfg.branches))
    metrics = []
    for step in range(1, steps + 1):
        idx = rng.choice(n_samples, size=batch_size, replace=False)
        opt.lr = lr * 0.5 * (1.0 + math.cos(math.pi * (step - 1) / steps))
        loss, acc = model.train_step(images[idx], labels[idx], opt)
        metrics.append({"config-id": config_id, "step": step, "loss": loss, "acc": acc})
        if stop_acc is not None and step % 100 == 0:
            recent = [m["acc"] for m in metrics[-100:]]
            if sum(recent) / len(recent) >= stop_acc:
                break
    return model, metrics


ACCURACY_BATCH = 64  # images per no-grad forward in train_accuracy


def train_accuracy(model: PiipModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of ``images`` [B, R, R, 3] whose top logit is the label.

    Runs no-grad forwards over stacks of ``ACCURACY_BATCH`` images.
    """
    labels = classification_labels(model.config, "train_accuracy", len(images), labels)
    correct = 0
    for start in range(0, len(images), ACCURACY_BATCH):
        stop = start + ACCURACY_BATCH
        logits = model.forward(images[start:stop]).logits
        correct += int(np.sum(np.argmax(logits, axis=-1) == labels[start:stop]))
    return correct / len(images)


# ---------------------------------------------------------------------------
# spectral energy split
# ---------------------------------------------------------------------------


def high_freq_fraction(fmap: FeatureMap) -> float:
    """Share of spectral energy above 0.25 cycles/sample (half-Nyquist)."""
    if len(fmap.tokens.shape) != 2:
        raise ValueError(
            f"high_freq_fraction takes one map's [N, D] tokens, got shape {fmap.tokens.shape}"
        )
    if fmap.grid_h < 4 or fmap.grid_w < 4:
        raise ValueError("high_freq_fraction needs a grid of at least 4x4")
    plane = fmap.as_grid().mean(axis=2)
    power = np.abs(np.fft.fft2(plane)) ** 2
    fy = np.fft.fftfreq(fmap.grid_h)[:, None]
    fx = np.fft.fftfreq(fmap.grid_w)[None, :]
    radius = np.hypot(fy, fx)
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[radius > 0.25].sum() / total)


# ---------------------------------------------------------------------------
# dominance oracle
# ---------------------------------------------------------------------------


def pareto_oracle(rows: list[dict], cost_col: str, quality_col: str) -> list[dict]:
    """Quadratic dominance filter; deliberately separate from the fast path.

    Cells are read as the fast path reads them, so a NaN raises the same
    ``NaNCellError``.
    """
    cost = explorer.numeric_column(rows, cost_col)
    quality = explorer.numeric_column(rows, quality_col)
    kept = []
    for i in range(len(rows)):
        dominated = False
        for j in range(len(rows)):
            if j == i:
                continue
            if (
                cost[j] <= cost[i]
                and quality[j] >= quality[i]
                and (cost[j] < cost[i] or quality[j] > quality[i])
            ):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    kept.sort(key=lambda k: cost[k])
    return [rows[k] for k in kept]




# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    detail: str


def check_config_round_trip() -> Verdict:
    ok = all(parse_config(render_config(preset(n))) == preset(n) for n in PRESET_NAMES)
    return Verdict("config round-trip over presets", ok, f"{len(PRESET_NAMES)} presets")


def check_sampling_grid_centers() -> Verdict:
    fmap = np.random.default_rng(11).standard_normal((8, 8, 5))
    got = ad.bilinear_sample_op(ad.leaf(fmap), ad.leaf(reference_points(8, 8))).value
    err = float(np.abs(got - fmap.reshape(64, 5)).max())
    return Verdict("bilinear sampling exact at grid centers", err == 0.0, f"max err {err:g}")


def check_zero_gate_identity() -> Verdict:
    """Criterion 3: at init, every branch's tokens equal the branch run alone."""
    t0 = time.perf_counter()
    model = PiipModel(preset("piip-tiny-test"))
    P = model._wrap(needs_grad=False)
    depth = model.config.branches[0].depth
    rng = np.random.default_rng(1234)
    identical = 0
    for _ in range(10):
        image = rng.random((model.input_resolution,) * 2 + (3,))
        graph = model.graph_forward(image, P)
        img_var = ad.leaf(image)
        identical += all(
            np.array_equal(
                branch.segment(P, branch.embed_forward(P, img_var), 0, depth).tokens.value,
                state.tokens.value,
            )
            for branch, state in zip(model.branches, graph.branch_features)
        )
    elapsed = time.perf_counter() - t0
    ok = identical == 10 and elapsed < 30.0
    detail = f"{identical}/10 inputs bitwise identical per branch, {elapsed:.1f}s"
    return Verdict("zero-gate interactions are an exact identity", ok, detail)


# (d, vdim, heads, points, q_grid, v_grid) of criterion 4's instances
DEFORM_SHAPES = (
    (8, 4, 1, 2, (2, 2), (3, 3)),
    (16, 8, 2, 4, (3, 4), (5, 3)),
    (24, 12, 4, 3, (1, 6), (4, 4)),
    (8, 8, 2, 1, (4, 1), (2, 5)),   # K = 1
    (16, 6, 3, 2, (2, 3), (6, 2)),
    (12, 4, 2, 5, (5, 5), (1, 1)),
    (12, 6, 1, 1, (3, 3), (3, 3)),  # K = 1, single head
)


def check_deform_oracle() -> Verdict:
    """Criterion 4: 50 random instances against ``brute_force_deform_attn``."""
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(42_000 + trial)
        d, vdim, heads, points, qg, vg = DEFORM_SHAPES[trial % len(DEFORM_SHAPES)]
        q, v, weights = deform_instance(rng, d, vdim, heads, points, qg, vg)
        if trial % 5 == 3:  # exact zero offsets
            weights["off_w"][:] = 0.0
            weights["off_b"][:] = 0.0
        if trial % 7 == 5:  # every tap far out of bounds
            weights["off_w"][:] = 0.0
            weights["off_b"][:] = 30.0
        worst = max(worst, deform_oracle_gap(q, qg, v, vg, weights, heads, points))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    detail = f"50 instances, max |Δ| {worst:.2e}, {elapsed:.1f}s"
    return Verdict("deformable attention matches scalar oracle", ok, detail)


def check_fd_gradients() -> Verdict:
    """Criterion 5: 200 central differences covering every parameter family."""
    t0 = time.perf_counter()
    model = PiipModel(preset("piip-tiny-test"))
    rng = np.random.default_rng(77)
    randomize_gates(model, rng)
    image = rng.random((model.input_resolution,) * 2 + (3,))

    def loss_fn(graph):
        return ad.cross_entropy_op(graph.logits, 3)

    records = model_gradient_check(model, image, loss_fn, rng)
    worst = max(r.rel_err for r in records)
    max_abs = max(abs(r.analytic - r.numeric) for r in records)

    def families(names) -> set[str]:
        return {f for f, pattern in PARAM_FAMILIES.items() if any(pattern in n for n in names)}

    present = families(model.params)
    checked = families({r.name for r in records})
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and checked == present and elapsed < 300.0
    detail = (
        f"{FD_COORDS} coords over {len(checked)}/{len(present)} families, "
        f"max |analytic-numeric| {max_abs:.1e}, max rel err {worst:.1e}, {elapsed:.1f}s"
    )
    return Verdict("finite-difference gradient check", ok, detail)


def check_cost_registry() -> Verdict:
    """Criterion 6: ``cost_report`` counts every preset's registry exactly."""
    counts = [
        (cost_report(preset(n)).total_params, PiipModel(preset(n), materialize=False).param_count())
        for n in PRESET_NAMES
    ]
    ok = all(a == r for a, r in counts)
    detail = f"{len(counts)} presets equal exactly, largest {max(a for a, _ in counts):,} params"
    return Verdict("cost_report equals the parameter registry", ok, detail)


def check_pareto_and_sweep() -> Verdict:
    """Criterion 8: fast Pareto front equals the oracle; sweep FLOPs grow with resolution."""
    t0 = time.perf_counter()
    agree = 0
    for trial in range(100):
        rng = np.random.default_rng(5_000 + trial)
        rows = [
            {
                "config_id": f"r{i}",
                "flops": float(rng.integers(0, 10)),
                "acc": float(np.round(rng.random(), 1)),
            }
            for i in range(int(rng.integers(1, 40)))
        ]
        fast = explorer.pareto_front(rows, "flops", "acc")
        slow = pareto_oracle(rows, "flops", "acc")
        agree += [id(r) for r in fast] == [id(r) for r in slow]

    monotone = True
    candidates = {1: "32, 64, 96", 2: "64, 96, 128", 3: "160, 192, 224"}
    for j, values in candidates.items():
        spec = explorer.parse_sweep_spec(
            f"[sweep]\nbase = piip-tsb-toy\nresolutions.{j} = {values}\n"
        )
        flops = [row["flops"] for row in explorer.sweep(spec)]
        monotone = monotone and len(flops) == 3 and flops[0] < flops[1] < flops[2]

    elapsed = time.perf_counter() - t0
    ok = agree == 100 and monotone and elapsed < 30.0
    detail = (
        f"{agree}/100 tables match the dominance oracle, "
        f"per-branch FLOPs strictly increasing, {elapsed:.1f}s"
    )
    return Verdict("pareto front and sweep behavior", ok, detail)


CHECKS = (
    check_config_round_trip,
    check_sampling_grid_centers,
    check_zero_gate_identity,
    check_deform_oracle,
    check_fd_gradients,
    check_cost_registry,
    check_pareto_and_sweep,
)


def run_verification() -> int:
    """Print every check in ``CHECKS``, one line each; returns the number of failures."""
    failures = 0
    for check in CHECKS:
        verdict = check()
        failures += not verdict.ok
        print(f"{'PASS' if verdict.ok else 'FAIL'}  {verdict.name}  [{verdict.detail}]")
    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{len(CHECKS) - failures}/{len(CHECKS)} verification checks passed")
    return failures
