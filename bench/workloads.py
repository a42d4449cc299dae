"""The benchmark's workloads: set-up, one operation, and the output checks.

Import this module only after the BLAS thread count is fixed in the
environment (``run.py`` does so), because it imports NumPy.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference
from piip import config, harness
from piip.model import AdamW, PiipModel

IMAGE_POOL = 4  # distinct seeded images cycled through by the inference loops
REFERENCE_RTOL = 1e-10  # max |program - reference| over max |reference|, per array
TRAIN_BATCH = 16
TRAIN_SAMPLES = 512
LN10_TOL = 1e-12
LOSS_TOL = 1e-12
FD_STEP = 1e-5
FD_RTOL = 1e-6


class Inference:
    """``forward`` of one preset on seeded random images with seeded weights."""

    samples_per_op = 1

    def __init__(self, preset: str, seed: int, out_dir: str) -> None:
        self.cfg = config.preset(preset)
        rng = np.random.default_rng(seed)
        self.model = PiipModel(self.cfg)
        weights = dict(self.model.params)
        for name, value in weights.items():
            if name.endswith((".gamma", ".tau")):
                weights[name] = rng.normal(0.0, 0.1, value.shape)
            elif name.startswith("head") and name.endswith(".w"):
                weights[name] = rng.normal(0.0, 0.02, value.shape)
            elif name == "merge.w":
                weights[name] = value + rng.normal(0.0, 0.1, value.shape)
        self.weights_path = os.path.join(out_dir, f"weights-{preset}-{os.getpid()}.npz")
        np.savez(self.weights_path, **weights)
        del weights
        self.model.params = {}  # release the allocated set before loading the seeded one
        self.model.load_weights(self.weights_path)
        r = self.model.input_resolution
        self.images = rng.random((IMAGE_POOL, r, r, 3))
        self.checked = None

    def op(self, i: int) -> bool:
        res = self.model.forward(self.images[i % IMAGE_POOL])
        arrays = [f.tokens for f in res.branch_features]
        if res.merged is not None:
            arrays.append(res.merged.tokens)
        if res.logits is not None:
            arrays.append(res.logits)
        ok = all(bool(np.isfinite(a).all()) for a in arrays)
        if ok and self.checked is None:
            self.checked = (i % IMAGE_POOL, res)
        return ok

    def warmup(self) -> None:
        self.op(0)
        self.checked = None

    def check(self) -> dict:
        """Program outputs on the loop's first image against the NumPy reference."""
        if self.checked is None:
            return {"reference": False}
        index, res = self.checked
        with np.load(self.weights_path) as data:
            weights = {name: data[name] for name in data.files}
        ref = reference.forward(self.cfg, weights, self.images[index])
        pairs = [(f.tokens, t) for f, t in zip(res.branch_features, ref["tokens"])]
        if res.merged is not None:
            pairs.append((res.merged.as_grid(), ref["merged"]))
        if res.logits is not None:
            pairs.append((res.logits, ref["logits"]))
        worst = max(float(np.abs(p - r).max() / np.abs(r).max()) for p, r in pairs)
        return {"reference": worst <= REFERENCE_RTOL, "reference_rel_err": worst}

    def close(self) -> None:
        if os.path.exists(self.weights_path):
            os.remove(self.weights_path)


class RecordingOptimizer:
    """Optimizer handed to ``train_step``: keeps the gradients, then delegates."""

    def __init__(self, inner: AdamW) -> None:
        self.inner = inner
        self.grads: dict | None = None

    @property
    def lr(self) -> float:
        return self.inner.lr

    def step(self, params: dict, grads: dict) -> None:
        self.grads = {name: g.copy() for name, g in grads.items()}
        self.inner.step(params, grads)


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Batch-mean cross-entropy and accuracy of [B, C] logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(len(labels)), labels].mean()
    return float(loss), float((logits.argmax(axis=1) == labels).mean())


class Training:
    """``train_step`` of ``piip-tiny-test`` on the glyph task from its preset init."""

    samples_per_op = TRAIN_BATCH

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.cfg = config.preset("piip-tiny-test")
        self.model = PiipModel(self.cfg)
        self.weights_path = os.path.join(out_dir, f"weights-piip-tiny-test-{os.getpid()}.npz")
        self.model.save_weights(self.weights_path)
        self.model.load_weights(self.weights_path)  # the preset init, round-tripped
        self.images, self.labels = harness.make_dataset(
            harness.task_for(self.cfg), TRAIN_SAMPLES, seed=seed
        )
        self.batches = np.random.default_rng(seed)
        self.optimizer = AdamW(self.model.params, lr=1e-3, weight_decay=0.05)
        self.first_loss = math.nan

    def _batch(self) -> tuple[np.ndarray, np.ndarray]:
        idx = self.batches.choice(TRAIN_SAMPLES, size=TRAIN_BATCH, replace=False)
        return self.images[idx], self.labels[idx]

    def op(self, i: int) -> bool:
        loss, _ = self.model.train_step(*self._batch(), self.optimizer)
        return math.isfinite(loss)

    def warmup(self) -> None:
        self.first_loss, _ = self.model.train_step(*self._batch(), self.optimizer)

    def check(self) -> dict:
        """First loss, loss/accuracy bookkeeping and a directional gradient check."""
        images, labels = self._batch()
        params = self.model.params
        before = {name: v.copy() for name, v in params.items()}
        logits = np.stack([self.model.forward(im).logits for im in images])
        want_loss, want_acc = mean_cross_entropy(logits, labels)
        recorder = RecordingOptimizer(self.optimizer)
        loss, acc = self.model.train_step(images, labels, recorder)

        rng = np.random.default_rng(self.seed + 1)
        direction = {name: rng.standard_normal(v.shape) for name, v in before.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((recorder.grads[n] * d).sum()) for n, d in direction.items()) / norm

        def loss_at(t: float) -> float:
            self.model.params = {n: before[n] + (t / norm) * direction[n] for n in before}
            batch_logits = np.stack([self.model.forward(im).logits for im in images])
            return mean_cross_entropy(batch_logits, labels)[0]

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
        self.model.params = params
        fd_err = abs(analytic - numeric) / max(abs(analytic), 1e-8)
        return {
            "first_loss_ln10": abs(self.first_loss - math.log(10.0)) <= LN10_TOL,
            "loss_matches_logits": abs(loss - want_loss) <= LOSS_TOL,
            "accuracy_matches_logits": acc == want_acc,
            "gradient_directional": fd_err <= FD_RTOL,
            "gradient_rel_err": fd_err,
        }

    def close(self) -> None:
        if os.path.exists(self.weights_path):
            os.remove(self.weights_path)


WORKLOADS = {
    "infer-piip-b": lambda seed, out_dir: Inference("piip-b", seed, out_dir),
    "infer-vit-b": lambda seed, out_dir: Inference("vit-b-baseline", seed, out_dir),
    "train-tiny": Training,
}
