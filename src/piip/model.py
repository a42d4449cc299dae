"""The full pyramid model: branches + interaction points + merge.

The model owns a flat parameter registry (name -> float64 array, every
learnable tensor exactly once). A forward pass takes one image at the
largest branch resolution, or a stack of them, resizes it per branch, runs
the shared-depth block stacks with interaction points spliced between
segments, and finishes with either a dense merged map or averaged
per-branch classification logits.

Gradients come from the reverse-mode tape in :mod:`piip.autodiff`; the
finite-difference harness validates them end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .branches import Branch, BranchState, Params
from .config import (
    MergeMode,
    PyramidConfig,
    interaction_positions,
    validate,
)
from .interaction import InteractionUnit, apply_interaction_point, build_interaction_units
from .merging import ClassificationHead, MergeModule
from .params import ParamSpec, allocate
from .primitives import FeatureMap


@dataclass
class ForwardGraph:
    """Differentiable handles of one forward pass."""

    branch_states: list[BranchState]
    merged: Var | None  # dense mode
    branch_logits: list[Var] | None  # classification mode
    logits: Var | None


@dataclass
class ForwardResult:
    """Plain-array view of one forward pass."""

    branch_features: list[FeatureMap]
    merged: FeatureMap | None
    branch_logits: list[np.ndarray] | None
    logits: np.ndarray | None


class PiipModel:
    def __init__(self, cfg: PyramidConfig, materialize: bool = True) -> None:
        validate(cfg)
        self.config = cfg
        self.branches = [Branch(i + 1, spec) for i, spec in enumerate(cfg.branches)]
        depth = cfg.branches[0].depth
        self.positions = interaction_positions(depth, cfg.interactions.count)
        dims = {i + 1: spec.dim for i, spec in enumerate(cfg.branches)}
        self.interaction_units: list[list[InteractionUnit]] = [
            build_interaction_units(p + 1, dims, cfg.interactions)
            for p in range(len(self.positions))
        ]
        self.merge: MergeModule | None = None
        self.head: ClassificationHead | None = None
        if cfg.merge_mode is MergeMode.DENSE:
            self.merge = MergeModule(cfg)
        else:
            self.head = ClassificationHead(cfg)

        self.param_spec = ParamSpec()
        for branch in self.branches:
            branch.declare(self.param_spec)
        for units in self.interaction_units:
            for unit in units:
                unit.declare(self.param_spec)
        if self.merge is not None:
            self.merge.declare(self.param_spec)
        if self.head is not None:
            self.head.declare(self.param_spec)

        self.params: dict[str, np.ndarray] = {}
        if materialize:
            self.params = allocate(self.param_spec, cfg.seed)

    # -- registry ----------------------------------------------------------

    def param_count(self) -> int:
        return self.param_spec.total()

    @property
    def input_resolution(self) -> int:
        return self.config.branches[-1].resolution

    def _wrap(self, needs_grad: bool) -> Params:
        if not self.params:
            raise RuntimeError("model was built without materialized parameters")
        return {name: ad.leaf(value, needs_grad) for name, value in self.params.items()}

    # -- forward -----------------------------------------------------------

    def _check_image(self, image: np.ndarray, stacked: bool = False) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        r = self.input_resolution
        if image.shape[-3:] != (r, r, 3) or image.ndim not in ((3, 4) if stacked else (3,)):
            raise ValueError(
                f"expected input of shape ({r}, {r}, 3) "
                f"(largest branch resolution){' or a stack of them' if stacked else ''}, "
                f"got {image.shape}"
            )
        return image

    def graph_forward(self, image: np.ndarray, P: Params) -> ForwardGraph:
        """Forward of one image [R, R, 3] or a batch [B, R, R, 3] on parameters ``P``.

        Every output carries the batch axis when the input does.
        """
        img_var = ad.as_var(self._check_image(image, stacked=True))
        depth = self.config.branches[0].depth
        states = [branch.embed_forward(P, img_var) for branch in self.branches]
        cursor = 0
        for units, pos in zip(self.interaction_units, self.positions):
            states = [
                branch.segment(P, state, cursor, pos)
                for branch, state in zip(self.branches, states)
            ]
            states = apply_interaction_point(P, states, units)
            cursor = pos
        states = [
            branch.segment(P, state, cursor, depth)
            for branch, state in zip(self.branches, states)
        ]
        merged = None
        branch_logits = None
        logits = None
        if self.merge is not None:
            merged = self.merge.forward(P, states)
        if self.head is not None:
            branch_logits, logits = self.head.forward(P, states)
        return ForwardGraph(states, merged, branch_logits, logits)

    def forward(self, image: np.ndarray) -> ForwardResult:
        """Plain-array outputs for one [R, R, 3] image; no tape is kept."""
        graph = self.graph_forward(self._check_image(image), self._wrap(needs_grad=False))
        return self._materialize_result(graph)

    def _materialize_result(self, graph: ForwardGraph) -> ForwardResult:
        feats = [
            FeatureMap(s.grid_h, s.grid_w, s.dim, s.branch_id, s.tokens.value)
            for s in graph.branch_states
        ]
        merged = None
        if graph.merged is not None:
            mh, mw, md = graph.merged.shape
            merged = FeatureMap(mh, mw, md, 0, graph.merged.value.reshape(mh * mw, md))
        branch_logits = (
            [v.value for v in graph.branch_logits] if graph.branch_logits is not None else None
        )
        logits = graph.logits.value if graph.logits is not None else None
        return ForwardResult(feats, merged, branch_logits, logits)

    # -- gradients ---------------------------------------------------------

    def parameter_gradients(
        self, image: np.ndarray, loss_fn
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Exact gradients of ``loss_fn(graph)`` w.r.t. every parameter.

        ``loss_fn`` maps a :class:`ForwardGraph` to a scalar ``Var`` built
        from :mod:`piip.autodiff` ops.
        """
        P = self._wrap(needs_grad=True)
        loss = loss_fn(self.graph_forward(image, P))
        ad.backward(loss)
        return float(loss.value), _leaf_grads(P)

    def train_step(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        optimizer: "AdamW",
    ) -> tuple[float, float]:
        """One optimizer update on a batch; returns (mean loss, accuracy).

        The whole batch runs as one graph: one forward over the [B, R, R, 3]
        stack, one mean cross-entropy and one backward.
        """
        if self.head is None:
            raise RuntimeError("train_step needs a classification-mode model")
        labels = np.asarray(labels, dtype=np.int64)
        P = self._wrap(needs_grad=True)
        logits = self.graph_forward(images, P).logits
        assert logits is not None
        loss = ad.cross_entropy_op(logits, labels)
        ad.backward(loss)
        if optimizer.lr != 0.0:
            optimizer.step(self.params, _leaf_grads(P))
        accuracy = float(np.mean(np.argmax(logits.value, axis=-1) == labels))
        return float(loss.value), accuracy

    # -- serialization -----------------------------------------------------

    def save_weights(self, path: str) -> None:
        np.savez(path, **self.params)

    def load_weights(self, path: str) -> None:
        with np.load(path) as data:
            names = set(data.files)
            expected = set(self.param_spec.decls)
            missing = expected - names
            extra = names - expected
            if missing or extra:
                raise ValueError(
                    f"weight container mismatch: missing {sorted(missing)[:3]}, "
                    f"unexpected {sorted(extra)[:3]}"
                )
            loaded = {}
            for name in self.param_spec.decls:
                arr = np.asarray(data[name], dtype=np.float64)
                want = self.param_spec.decls[name].shape
                if arr.shape != want:
                    raise ValueError(f"weight {name!r} has shape {arr.shape}, expected {want}")
                loaded[name] = arr
        self.params = loaded


def _leaf_grads(P: Params) -> dict[str, np.ndarray]:
    """Each parameter's gradient after a backward, zeros where none reached it."""
    return {
        name: (var.grad if var.grad is not None else np.zeros_like(var.value))
        for name, var in P.items()
    }


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Decay applies only to weight matrices/kernels (ndim >= 2, excluding
    positional embeddings); gates, norms, biases and merge weights are left
    undecayed.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.05,
    ) -> None:
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(v) for name, v in params.items()}
        self.v = {name: np.zeros_like(v) for name, v in params.items()}
        self.decayed = {
            name: (v.ndim >= 2 and not name.endswith(".pos")) for name, v in params.items()
        }

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.decayed[name] and self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.lr * update
