"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``piip`` from the outside (it patches
module and class attributes while installed and restores them afterwards),
so the program's own files carry no tracing code. It records:

* spans at layer boundaries (name, request, start, end, self time), where
  self time is the span's duration minus the spans directly inside it;
* MACs per component and op kind, counted from operand shapes at
  ``autodiff.matmul``, ``conv2d_op``, ``bilinear_sample_op`` and
  ``bilinear_resize_op``, plus the merge's weighted sum;
* tape nodes and the bytes of their values per component, and backward time
  per component, by wrapping each node's vjp when the node is created.

The component of a count is that of the innermost open span: ``branch<i>``,
``interactions``, ``merging`` or ``model`` (parameter wrapping, loss,
optimizer and everything outside a layer).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from piip import autodiff, branches, harness, interaction, merging, model

LAYERS = ("branches", "interaction", "merging", "model")


def layer_of(component: str) -> str:
    if component.startswith("branch"):
        return "branches"
    return "interaction" if component == "interactions" else component


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, component, start, child_time]
        self.request = -1
        self.reset()

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.spans: list[tuple[str, int, float, float, float]] = []
        self.macs: dict[tuple[str, str], int] = defaultdict(int)
        self.nodes: dict[str, int] = defaultdict(int)
        self.value_bytes: dict[str, int] = defaultdict(int)
        self.backward_s: dict[str, float] = defaultdict(float)

    # -- spans --------------------------------------------------------------

    @property
    def component(self) -> str:
        return self._stack[-1][1] if self._stack else "model"

    @contextmanager
    def span(self, name: str, component: str | None = None):
        entry = [name, component or self.component, time.perf_counter(), 0.0]
        self._stack.append(entry)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - entry[2]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans.append((name, self.request, entry[2], end, duration - entry[3]))

    def summary(self) -> dict[str, dict]:
        """Per span name: count, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for name, _, start, end, self_s in self.spans:
            row = out.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += self_s
        return out

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, owner, attr: str, name: str, component=None) -> None:
        tracer = self

        def make(fn):
            def wrapped(*args, **kwargs):
                comp = component(args) if component else None
                with tracer.span(name, comp):
                    return fn(*args, **kwargs)

            return wrapped

        self._patch(owner, attr, make)

    def _counted(self, attr: str, kind: str, macs, span: str | None = None) -> None:
        tracer = self

        def make(fn):
            def wrapped(*args, **kwargs):
                if span is None:
                    out = fn(*args, **kwargs)
                else:
                    with tracer.span(span):
                        out = fn(*args, **kwargs)
                tracer.macs[tracer.component, kind] += macs(args, out)
                return out

            return wrapped

        self._patch(autodiff, attr, make)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._spanned(model, "allocate", "params.allocate")
        self._spanned(model.PiipModel, "load_weights", "model.load_weights")
        self._spanned(harness, "make_dataset", "harness.make_dataset")
        self._spanned(model.PiipModel, "graph_forward", "model.forward", lambda a: "model")
        self._spanned(model.PiipModel, "train_step", "model.train_step", lambda a: "model")
        self._spanned(model.AdamW, "step", "model.adamw", lambda a: "model")
        self._spanned(autodiff, "backward", "autodiff.backward", lambda a: "model")
        branch_of = lambda a: f"branch{a[0].index}"  # noqa: E731
        self._spanned(branches.Branch, "embed_forward", "branches.embed", branch_of)
        self._spanned(branches.Branch, "segment", "branches.segment", branch_of)
        self._spanned(model, "apply_interaction_point", "interaction.point", lambda a: "interactions")
        self._spanned(interaction.DeformableCrossAttention, "forward", "interaction.deform_attn")
        self._spanned(merging.ClassificationHead, "forward", "merging.head", lambda a: "merging")
        self._merge_span()
        self._counted("matmul", "matmul", lambda a, out: out.value.size * a[0].shape[-1])
        self._counted(
            "conv2d_op", "conv", lambda a, out: out.value.size * a[1].shape[0] * a[1].shape[1] * a[1].shape[2]
        )
        # one bilinear tap is priced at 8 MACs per output channel
        self._counted(
            "bilinear_sample_op", "sample", lambda a, out: 8 * out.value.size, span="interaction.bilinear_sample"
        )
        self._counted("bilinear_resize_op", "resize", lambda a, out: 4 * out.value.size)
        self._node_counter()

    def _merge_span(self) -> None:
        tracer = self

        def make(fn):
            def wrapped(module, P, states):
                with tracer.span("merging.merge", "merging"):
                    out = fn(module, P, states)
                tracer.macs["merging", "weighted_sum"] += len(states) * out.value.size
                return out

            return wrapped

        self._patch(merging.MergeModule, "forward", make)

    def _node_counter(self) -> None:
        tracer = self

        def timed(vjp, component):
            def run(g):
                t0 = time.perf_counter()
                try:
                    return vjp(g)
                finally:
                    tracer.backward_s[component] += time.perf_counter() - t0

            return run

        def make(init):
            def wrapped(node, value, parents=(), vjp=None, needs_grad=False):
                comp = tracer.component
                if vjp is not None:
                    vjp = timed(vjp, comp)
                init(node, value, parents, vjp, needs_grad)
                tracer.nodes[comp] += 1
                tracer.value_bytes[comp] += node.value.nbytes

            return wrapped

        self._patch(autodiff.Var, "__init__", make)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def priced_macs(macs: dict[tuple[str, str], int], component: str) -> int:
    """Counted MACs of the op kinds ``costmodel.cost_report`` prices for a component.

    The cost model prices matmuls, convolutions, bilinear taps, the merge's
    upsampling and its weighted sum. It does not price the bilinear resize of
    the input image to each branch's resolution, so ``resize`` counts only
    inside the merge.
    """
    kinds = ["matmul", "conv", "sample", "weighted_sum"]
    if component == "merging":
        kinds.append("resize")
    return sum(macs.get((component, k), 0) for k in kinds)


def per_layer_metrics(tracer: Tracer, images: int) -> dict[str, float]:
    """Per-image layer metrics from one traced loop over ``images`` inputs."""
    s = tracer.summary()

    def incl(*names: str) -> float:
        return sum(s[n]["inclusive_s"] for n in names if n in s) / images

    def self_time(name: str) -> float:
        return s[name]["self_s"] / images if name in s else 0.0

    layer_macs: dict[str, int] = defaultdict(int)
    for (component, _), n in tracer.macs.items():
        layer_macs[layer_of(component)] += n
    total_macs = sum(layer_macs.values())
    forward_s = incl("model.forward")
    inter_s = incl("interaction.point")
    ratio = 0.0
    if layer_macs["interaction"] and forward_s:
        ratio = (inter_s / forward_s) / (layer_macs["interaction"] / total_macs)

    nodes: dict[str, int] = defaultdict(int)
    value_bytes: dict[str, int] = defaultdict(int)
    backward: dict[str, float] = defaultdict(float)
    for component, n in tracer.nodes.items():
        nodes[layer_of(component)] += n
        value_bytes[layer_of(component)] += tracer.value_bytes[component]
    for component, t in tracer.backward_s.items():
        backward[layer_of(component)] += t

    out = {
        "model.forward_s": forward_s,
        "branches.forward_s": incl("branches.embed", "branches.segment"),
        "branches.macs": layer_macs["branches"] / images,
        "interaction.forward_s": inter_s,
        "interaction.deform_attn_s": self_time("interaction.deform_attn"),
        "interaction.bilinear_sample_s": incl("interaction.bilinear_sample"),
        "interaction.bilinear_sample_calls": s.get("interaction.bilinear_sample", {}).get("count", 0)
        / images,
        "interaction.macs": layer_macs["interaction"] / images,
        "interaction.time_to_mac_ratio": ratio,
        "merging.forward_s": incl("merging.merge", "merging.head"),
        "merging.macs": layer_macs["merging"] / images,
        "autodiff.nodes": sum(nodes.values()) / images,
        "autodiff.value_bytes": sum(value_bytes.values()) / images,
        "autodiff.backward_s": incl("autodiff.backward"),
        "model.train_step_self_s": self_time("model.train_step"),
        "model.adamw_s": incl("model.adamw"),
    }
    for layer in LAYERS:
        out[f"autodiff.nodes.{layer}"] = nodes[layer] / images
        out[f"autodiff.value_bytes.{layer}"] = value_bytes[layer] / images
    for layer in LAYERS[:3]:
        out[f"autodiff.backward.{layer}_s"] = backward[layer] / images
    return out
