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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .config import PyramidConfig
from .model import AdamW, PiipModel
from .primitives import FeatureMap, bilinear_resize


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


def deform_attn_main_path(
    query: np.ndarray,
    q_grid: tuple[int, int],
    value: np.ndarray,
    v_grid: tuple[int, int],
    weights: dict[str, np.ndarray],
    heads: int,
    points: int,
) -> np.ndarray:
    """Run the vectorized deformable attention on explicit weight arrays."""
    from .interaction import DeformableCrossAttention

    attn = DeformableCrossAttention(
        "probe", query.shape[1], heads, points, weights["val_w"].shape[1]
    )
    P = {f"probe.{k}": ad.leaf(v) for k, v in weights.items()}
    out = attn.forward(P, ad.leaf(query), q_grid, ad.leaf(value), v_grid)
    return out.value


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


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
    step: float = 1e-5,
    floor: float = 1e-8,
) -> list[FdRecord]:
    """Central-difference check of ``analytic`` at the given flat coordinates.

    ``value_fn`` re-evaluates the scalar objective from the (temporarily
    perturbed) ``params`` dict. Central differences in double precision
    resolve a gradient only down to roughly eps*|f|/step (~1e-11 here), so
    an absolute floor applies first: coordinates where analytic and numeric
    agree within ``floor`` count as exact and report rel_err 0; everything
    larger is scored relative to the bigger of the two magnitudes.
    """
    records = []
    for name, index in coords:
        flat = params[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + step
        f_plus = value_fn()
        flat[index] = orig - step
        f_minus = value_fn()
        flat[index] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[name].reshape(-1)[index])
        diff = abs(a - numeric)
        below = diff <= floor
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
    params: dict[str, np.ndarray],
    rng: np.random.Generator,
    total: int,
    per_family: int = 3,
) -> list[tuple[str, int]]:
    """Coordinates spread over every parameter family present in the model."""
    coords: list[tuple[str, int]] = []
    names = list(params)
    for pattern in PARAM_FAMILIES.values():
        matching = [n for n in names if pattern in n]
        if not matching:
            continue
        for _ in range(per_family):
            name = matching[int(rng.integers(len(matching)))]
            coords.append((name, int(rng.integers(params[name].size))))
    while len(coords) < total:
        name = names[int(rng.integers(len(names)))]
        coords.append((name, int(rng.integers(params[name].size))))
    return coords[:total]


def randomize_gates(model: PiipModel, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Give every zero-init gate and classifier weight a small random value.

    At exact initialization the zero gates annihilate all gradients inside
    the interaction units, and the zero classifier weights block gradients
    to everything upstream of the heads; a gradient check at that state
    would be vacuous for most parameter families.
    """
    for name, value in model.params.items():
        zeroed_gate = name.endswith((".gamma", ".tau", ".scale"))
        classifier = name.startswith("head") and name.endswith(".w")
        if zeroed_gate or classifier:
            model.params[name] = rng.standard_normal(value.shape) * scale


def model_gradient_check(
    model: PiipModel,
    image: np.ndarray,
    loss_fn,
    rng: np.random.Generator,
    total: int = 200,
    step: float = 1e-5,
) -> list[FdRecord]:
    """FD-check ``total`` coordinates of a model, covering every family."""
    _, analytic = model.parameter_gradients(image, loss_fn)
    coords = sample_family_coords(model.params, rng, total)

    def value_fn() -> float:
        graph = model.graph_forward(image, model._wrap(needs_grad=False))
        return float(loss_fn(graph).value)

    return fd_gradient_check(value_fn, model.params, analytic, coords, step=step)


# ---------------------------------------------------------------------------
# synthetic glyph task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    canvas: int
    glyph_size: int
    classes: int = 10
    seed: int = 0
    background_level: float = 0.15


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
    rng = np.random.default_rng(task.seed if seed is None else seed)
    glyphs = glyph_bitmaps(task)
    c, g = task.canvas, task.glyph_size
    images = np.empty((n, c, c, 3))
    labels = rng.integers(0, task.classes, size=n)
    for i in range(n):
        base = rng.random((4, 4, 3)) * task.background_level
        img = bilinear_resize(base, c, c)  # smooth low-frequency field
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
    config_id: str,
    steps: int = 2000,
    n_samples: int = 512,
    batch_size: int = 16,
    lr: float = 1e-3,
    weight_decay: float = 0.05,
    stop_acc: float | None = None,
) -> tuple[PiipModel, list[dict]]:
    """Overfit the glyph task; returns the trained model and per-step metrics.

    ``stop_acc`` ends the run once mean batch accuracy over the last 100
    steps reaches it. The cosine schedule keeps its ``steps``-long shape, so
    a stopped run is bitwise a prefix of the full one.
    """
    model = PiipModel(cfg)
    task = task_for(cfg)
    images, labels = make_dataset(task, n_samples)
    rng = np.random.default_rng(cfg.seed + 1)
    opt = AdamW(model.params, lr=lr, weight_decay=weight_decay)
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
    if model.head is None:
        raise ValueError("train_accuracy needs a classification-mode model")
    P = model._wrap(needs_grad=False)
    correct = 0
    for start in range(0, len(images), ACCURACY_BATCH):
        stop = start + ACCURACY_BATCH
        logits = model.graph_forward(images[start:stop], P).logits
        correct += int(np.sum(np.argmax(logits.value, axis=-1) == labels[start:stop]))
    return correct / len(images)


# ---------------------------------------------------------------------------
# spectral profile
# ---------------------------------------------------------------------------


def spectral_profile(fmap: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Radially binned power spectrum of the channel-averaged feature grid.

    Returns (bin center frequency in cycles/sample, total power per bin).
    """
    if fmap.grid_h < 4 or fmap.grid_w < 4:
        raise ValueError(f"spectral_profile needs a grid of at least 4x4, got "
                         f"{fmap.grid_h}x{fmap.grid_w}")
    plane = fmap.as_grid().mean(axis=2)  # [H, W]
    power = np.abs(np.fft.fft2(plane)) ** 2
    fy = np.fft.fftfreq(fmap.grid_h)[:, None]
    fx = np.fft.fftfreq(fmap.grid_w)[None, :]
    radius = np.hypot(fy, fx)
    nbins = max(fmap.grid_h, fmap.grid_w) // 2 + 1
    edges = np.linspace(0.0, math.sqrt(0.5), nbins + 1)
    which = np.clip(np.digitize(radius.ravel(), edges) - 1, 0, nbins - 1)
    profile = np.bincount(which, weights=power.ravel(), minlength=nbins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, profile


def high_freq_fraction(fmap: FeatureMap, cutoff: float = 0.25) -> float:
    """Share of spectral energy above ``cutoff`` cycles/sample (half-Nyquist)."""
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
    return float(power[radius > cutoff].sum() / total)


# ---------------------------------------------------------------------------
# dominance oracle + verification battery
# ---------------------------------------------------------------------------


def pareto_oracle(rows: list[dict], cost_col: str, quality_col: str) -> list[dict]:
    """Quadratic dominance filter; deliberately separate from the fast path.

    Cells are read as the fast path reads them, so a NaN raises the same
    ``NaNCellError``.
    """
    from .explorer import numeric_column

    cost = numeric_column(rows, cost_col)
    quality = numeric_column(rows, quality_col)
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


def run_verification(report=print) -> int:
    """Battery of independent checks; returns the number of failures."""
    from . import explorer
    from .config import PRESET_NAMES, parse_config, preset, render_config
    from .costmodel import count_params
    from .primitives import bilinear_sample, reference_points

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f"  ({detail})" if detail and not ok else ""
        report(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")

    # 1. config round-trip
    ok = all(parse_config(render_config(preset(n))) == preset(n) for n in PRESET_NAMES)
    check("config round-trip over presets", ok)

    # 2. sampling at exact token centers reproduces the tokens
    rng = np.random.default_rng(11)
    fmap = rng.standard_normal((8, 8, 5))
    centers = reference_points(8, 8)
    err = float(np.abs(bilinear_sample(fmap, centers) - fmap.reshape(64, 5)).max())
    check("bilinear sampling exact at grid centers", err == 0.0, f"max err {err:g}")

    # 3. deformable attention against the scalar-loop oracle
    worst = 0.0
    for trial in range(6):
        r = np.random.default_rng(100 + trial)
        d, vdim, heads, points = 16, 8, 2, 3
        qg, vg = (3, 4), (5, 3)
        weights = {
            "val_w": r.standard_normal((d, vdim)) * 0.2,
            "val_b": r.standard_normal(vdim) * 0.1,
            "out_w": r.standard_normal((vdim, d)) * 0.2,
            "out_b": r.standard_normal(d) * 0.1,
            "off_w": r.standard_normal((d, heads * points * 2)) * 0.3,
            "off_b": r.standard_normal(heads * points * 2) * 0.3,
            "wt_w": r.standard_normal((d, heads * points)) * 0.3,
            "wt_b": r.standard_normal(heads * points) * 0.1,
        }
        q = r.standard_normal((qg[0] * qg[1], d))
        v = r.standard_normal((vg[0] * vg[1], d))
        got = deform_attn_main_path(q, qg, v, vg, weights, heads, points)
        want = brute_force_deform_attn(q, qg, v, vg, weights, heads, points)
        worst = max(worst, float(np.abs(got - want).max()))
    check("deformable attention matches scalar oracle", worst <= 1e-10,
          f"max err {worst:.2e}")

    # 4. zero-init gates leave branch features bitwise untouched
    from .config import preset as _preset

    model = PiipModel(_preset("piip-tiny-test"))
    image = np.random.default_rng(5).random((model.input_resolution,) * 2 + (3,))
    graph = model.graph_forward(image, model._wrap(needs_grad=False))
    P = model._wrap(needs_grad=False)
    from . import autodiff as _ad

    img_var = _ad.as_var(image)
    depth = model.config.branches[0].depth
    ok = True
    for branch, state in zip(model.branches, graph.branch_states):
        plain = branch.segment(P, branch.embed_forward(P, img_var), 0, depth)
        ok = ok and np.array_equal(plain.tokens.value, state.tokens.value)
    check("interactions with zero gates are an exact identity", ok)

    # 5. finite-difference gradient spot check
    model = PiipModel(_preset("piip-tiny-test"))
    rng = np.random.default_rng(23)
    randomize_gates(model, rng)

    def loss_fn(graph):
        assert graph.logits is not None
        return ad.cross_entropy_op(graph.logits, 3)

    records = model_gradient_check(model, image, loss_fn, rng, total=40)
    worst_rel = max(r.rel_err for r in records)
    check("finite-difference gradients", worst_rel <= 1e-4,
          f"max rel err {worst_rel:.2e} over {len(records)} coords")

    # 6. pareto fast path against the quadratic oracle
    ok = True
    for trial in range(20):
        r = np.random.default_rng(300 + trial)
        rows = [
            {"id": i, "flops": float(r.integers(1, 8)), "acc": float(r.integers(1, 8))}
            for i in range(r.integers(1, 30))
        ]
        fast = explorer.pareto_front(rows, "flops", "acc")
        slow = pareto_oracle(rows, "flops", "acc")
        ok = ok and [row["id"] for row in fast] == [row["id"] for row in slow]
    check("pareto front matches dominance oracle", ok)

    # 7. analytic parameter count equals the materialized registry
    ok = True
    for name in ("piip-tiny-test", "piip-tsb-toy", "piip-sbl-toy"):
        cfg = _preset(name)
        ok = ok and count_params(cfg).total_params == PiipModel(cfg, materialize=False).param_count()
    check("cost model agrees with parameter registry", ok)

    report(f"{'OK' if failures == 0 else 'FAILED'}: "
           f"{7 - failures}/7 verification checks passed")
    return failures
