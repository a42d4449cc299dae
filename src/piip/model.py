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

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .branches import Branch, FeatureMap, Params
from .config import (
    MergeMode,
    PyramidConfig,
    interaction_positions,
    validate,
)
from .interaction import apply_interaction_point, build_interaction_directions
from .merging import ClassificationHead, MergeModule
from .params import ParamSpec, allocate


@dataclass
class Forward:
    """Outputs of one forward pass: ``Var``s from ``graph_forward``, arrays from ``forward``.

    ``merged`` is set in dense mode, ``branch_logits`` and ``logits`` in
    classification mode; the others are None.
    """

    branch_features: list[FeatureMap]
    merged: FeatureMap | None
    branch_logits: list[Var] | list[np.ndarray] | None
    logits: Var | np.ndarray | None


def classification_labels(cfg: PyramidConfig, caller: str, n_images: int = 0, labels=None):
    """The batch rule of training and scoring; returns ``labels`` as int64.

    ``cfg`` must be in classification mode (all that is checked without
    ``labels``), and a batch of ``n_images`` >= 1 needs one label per image.
    """
    if cfg.merge_mode is not MergeMode.CLASSIFICATION:
        raise ValueError(
            f"{caller} needs a classification-mode config, got mode = {cfg.merge_mode.value}"
        )
    if labels is None:
        return None
    labels = np.asarray(labels, dtype=np.int64)
    if n_images == 0 or labels.shape != (n_images,):
        raise ValueError(
            f"{caller} needs a non-empty batch and one label per image, got "
            f"{n_images} images and labels of shape {labels.shape}"
        )
    return labels


class PiipModel:
    def __init__(self, cfg: PyramidConfig, materialize: bool = True) -> None:
        validate(cfg)
        self.config = cfg
        self.branches = [Branch(i + 1, spec) for i, spec in enumerate(cfg.branches)]
        depth = cfg.branches[0].depth
        self.positions = interaction_positions(depth, cfg.interactions.count)
        dims = {i + 1: spec.dim for i, spec in enumerate(cfg.branches)}
        self.interaction_points = [  # one list of directions per point
            build_interaction_directions(p + 1, dims, cfg.interactions)
            for p in range(len(self.positions))
        ]
        self.output: MergeModule | ClassificationHead = (
            MergeModule(cfg) if cfg.merge_mode is MergeMode.DENSE else ClassificationHead(cfg)
        )

        self.param_spec = ParamSpec()  # declaration order fixes the seeded init
        directions = [d for point in self.interaction_points for d in point]
        for module in [*self.branches, *directions, self.output]:
            module.declare(self.param_spec)

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

    def _check_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        r = self.input_resolution
        if image.ndim not in (3, 4) or image.shape[-3:] != (r, r, 3):
            raise ValueError(
                f"expected input of shape ({r}, {r}, 3) (largest branch resolution) "
                f"or a stack of them, got {image.shape}"
            )
        if not np.isfinite(image).all():
            raise ValueError("input image has non-finite values (NaN or inf)")
        return image

    def graph_forward(self, image: np.ndarray, P: Params) -> Forward:
        """Forward of one image [R, R, 3] or a batch [B, R, R, 3] on parameters ``P``.

        Every output carries the batch axis when the input does.
        """
        img_var = ad.as_var(self._check_image(image))
        states = [branch.embed_forward(P, img_var) for branch in self.branches]
        cursor = 0
        # the last interaction point follows the final block; without one, a single stop there
        for p, stop in enumerate(self.positions or (self.config.branches[0].depth,)):
            states = [
                branch.segment(P, state, cursor, stop)
                for branch, state in zip(self.branches, states)
            ]
            if self.interaction_points:
                states = apply_interaction_point(P, states, self.interaction_points[p])
            cursor = stop
        if isinstance(self.output, MergeModule):
            grid = self.output.forward(P, states)
            th, tw = self.output.target_grid
            tokens = ad.reshape(grid, grid.shape[:-3] + (th * tw, grid.shape[-1]))
            return Forward(states, FeatureMap(tokens, th, tw), None, None)
        branch_logits, logits = self.output.forward(P, states)
        return Forward(states, None, branch_logits, logits)

    def forward(self, image: np.ndarray) -> Forward:
        """Plain-array outputs for one [R, R, 3] image or a [B, R, R, 3] stack; no tape is kept."""
        g = self.graph_forward(image, self._wrap(needs_grad=False))
        return Forward(
            [replace(f, tokens=f.tokens.value) for f in g.branch_features],
            replace(g.merged, tokens=g.merged.tokens.value) if g.merged is not None else None,
            [v.value for v in g.branch_logits] if g.branch_logits is not None else None,
            g.logits.value if g.logits is not None else None,
        )

    # -- gradients ---------------------------------------------------------

    def parameter_gradients(
        self, image: np.ndarray, loss_fn
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Exact gradients of ``loss_fn(graph)`` w.r.t. every parameter.

        ``loss_fn`` maps ``graph_forward``'s :class:`Forward` to a scalar
        ``Var`` built from :mod:`piip.autodiff` ops. A parameter the loss does
        not reach gets a zero gradient.
        """
        P = self._wrap(needs_grad=True)
        loss = loss_fn(self.graph_forward(image, P))
        ad.backward(loss)
        grads = {
            name: (var.grad if var.grad is not None else np.zeros_like(var.value))
            for name, var in P.items()
        }
        return float(loss.value), grads

    def train_step(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        optimizer: "AdamW",
    ) -> tuple[float, float]:
        """One optimizer update on a batch; returns (mean loss, accuracy).

        One ``parameter_gradients`` graph over the [B, R, R, 3] stack with the
        mean cross-entropy, then one ``optimizer.step`` (also at lr 0).
        """
        labels = classification_labels(self.config, "train_step", len(images), labels)
        logits: list[np.ndarray] = []

        def loss_fn(graph: Forward) -> Var:
            logits.append(graph.logits.value)
            return ad.cross_entropy_op(graph.logits, labels)

        loss, grads = self.parameter_gradients(images, loss_fn)
        optimizer.step(self.params, grads)
        accuracy = float(np.mean(np.argmax(logits[0], axis=-1) == labels))
        return loss, accuracy

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
                if not np.isfinite(arr).all():
                    raise ValueError(f"weight {name!r} has non-finite values (NaN or inf)")
                loaded[name] = arr
        self.params = loaded


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Decay applies only to weight matrices/kernels (ndim >= 2, excluding
    positional embeddings); gates, norms, biases and merge weights are left
    undecayed.

    A step is one pass over every parameter at once: parameters and gradients
    are gathered into flat buffers, updated there, and written back into the
    caller's arrays. The flat layout puts the decayed tensors first, so decay
    is one contiguous slice. Each element sees the same operations in the
    same order as a per-tensor loop, so the result is bitwise that loop's.
    """

    beta1 = 0.9  # moment decay rates
    beta2 = 0.999
    eps = 1e-8

    def __init__(
        self, params: dict[str, np.ndarray], lr: float = 1e-3, weight_decay: float = 0.05
    ) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.decayed = {
            name: (v.ndim >= 2 and not name.endswith(".pos")) for name, v in params.items()
        }
        layout = sorted(params, key=lambda name: not self.decayed[name])  # decayed first
        sizes = [params[name].size for name in layout]
        n = sum(sizes)
        self._n_decayed = sum(size for name, size in zip(layout, sizes) if self.decayed[name])
        self.m = np.zeros(n)  # first moments, flat in layout order
        self.v = np.zeros(n)  # second moments
        # flat parameters, flat gradients (later the update), and one temporary
        self._flat = np.empty((3, n))
        self._views = {  # name -> its parameters in the flat buffer
            name: self._flat[0, end - size : end].reshape(params[name].shape)
            for name, size, end in zip(layout, sizes, np.cumsum(sizes).tolist())
        }

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        p, g, tmp = self._flat
        m, v = self.m, self.v
        np.concatenate([grads[name] for name in self._views], axis=None, out=g)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update = np.divide(m, bc1, out=g)
        update /= tmp
        np.concatenate([params[name] for name in self._views], axis=None, out=p)
        if self.weight_decay:
            d = self._n_decayed
            np.multiply(p[:d], self.weight_decay, out=tmp[:d])
            update[:d] += tmp[:d]
        update *= self.lr
        p -= update
        for name, flat in self._views.items():
            params[name][...] = flat
