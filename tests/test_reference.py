"""Whole forward passes against the benchmark's independent NumPy reference.

``bench/reference.py`` shares no kernel with ``piip``. It is imported the way
``tests/test_tracing.py`` imports the benchmark's modules, and checked at the
benchmark's tolerance on configs beyond the benchmark's two presets: the toy
presets, a dense merge and windows that do not tile their grid.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
import variants

from piip import harness
from piip.config import preset
from piip.model import PiipModel

BENCH = Path(__file__).resolve().parents[1] / "bench"
RTOL = 1e-10  # the benchmark's reference tolerance

CONFIGS = {
    "piip-tiny-test": variants.TINY,
    "piip-tsb-toy": preset("piip-tsb-toy"),
    "piip-sbl-toy": preset("piip-sbl-toy"),
    "dense-linear": variants.DENSE_LINEAR,
    "padded-window": variants.PADDED_WINDOW,
}


@pytest.fixture
def reference(monkeypatch):
    """``bench/reference.py``, imported as ``bench/workloads.py`` imports it."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("reference")


def test_reference_imports_nothing_from_piip():
    tree = ast.parse((BENCH / "reference.py").read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [m for m in modules if m.split(".")[0] in ("piip", "")]


@pytest.mark.parametrize("name", CONFIGS)
def test_forward_matches_reference(reference, name):
    cfg = CONFIGS[name]
    model = PiipModel(cfg)
    rng = np.random.default_rng(4)
    harness.randomize_gates(model, rng)
    r = model.input_resolution
    images = rng.random((2, r, r, 3))
    single, stack = model.forward(images[0]), model.forward(images)
    for b in (None, 0, 1):  # the single image, then each image of the stack
        res = single if b is None else stack
        got = [f.tokens for f in res.branch_features]
        got.append(res.merged.as_grid() if res.merged is not None else res.logits)
        if b is not None:
            got = [a[b] for a in got]
        ref = reference.forward(cfg, model.params, images[b or 0])
        want = ref["tokens"] + [ref["merged"] if res.merged is not None else ref["logits"]]
        worst = max(float(np.abs(g - w).max() / np.abs(w).max()) for g, w in zip(got, want))
        assert worst <= RTOL, (b, worst)
