"""Whole forward passes against the benchmark's independent NumPy reference.

``bench/reference.py`` shares no kernel with ``piip``. It is imported the way
``tests/test_tracing.py`` imports the benchmark's modules, and checked at the
benchmark's tolerance on configs beyond the benchmark's two presets: the toy
presets, a dense merge and windows that do not tile their grid, and a
property over random small pyramids within the reference's coverage.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
import variants
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piip import harness
from piip.config import (
    AttentionKind,
    BranchSpec,
    InteractionSchedule,
    MergeMode,
    ProjStyle,
    PyramidConfig,
    preset,
)
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


def check_against_reference(reference, cfg, seed):
    """One image and a 2-image stack after ``randomize_gates``, per image at RTOL."""
    model = PiipModel(cfg)
    rng = np.random.default_rng(seed)
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


@pytest.mark.parametrize("name", CONFIGS)
def test_forward_matches_reference(reference, name):
    check_against_reference(reference, CONFIGS[name], 4)


@st.composite
def small_pyramids(draw):
    """1-3 transformer branches, global or windowed attention, 0-2 deformable
    interaction points over any valid directions, classification or dense
    linear merge: the configs ``bench/reference.py`` covers."""
    n = draw(st.integers(1, 3), label="branches")
    depth = draw(st.integers(1, 2), label="depth")
    # widths in multiples of 8 below 64: the automatic deformable heads
    # (dim // 8) always divide the value width dim / 2
    dims = sorted(draw(st.lists(st.sampled_from([8, 16, 24, 32]), min_size=n, max_size=n)),
                  reverse=True)
    branches, resolution = [], 1
    for dim in dims:
        patch = draw(st.sampled_from([2, 4, 8]), label="patch")
        least = -(-resolution // patch)  # non-decreasing resolutions
        grid = draw(st.integers(least, max(least, 6)), label="grid")
        resolution = patch * grid
        heads = draw(st.sampled_from([h for h in (1, 2, 4, 8) if dim % h == 0]), label="heads")
        side = draw(st.one_of(st.none(), st.integers(1, min(grid, 4))), label="window side")
        attention = {} if side is None else dict(
            attention_mode=AttentionKind.WINDOWED, window_tokens=side * side)
        branches.append(BranchSpec(depth, dim, heads, patch, resolution, **attention))
    nonadjacent = draw(st.booleans(), label="nonadjacent")
    pairs = [(s, d) for s in range(1, n + 1) for d in range(1, n + 1)
             if s != d and (nonadjacent or abs(s - d) == 1)]
    directions = []
    if pairs:
        directions = draw(st.lists(st.sampled_from(pairs), unique=True), label="directions")
    count = draw(st.integers(0, depth), label="count")
    return PyramidConfig(
        tuple(branches),
        InteractionSchedule(count, tuple(directions), allow_nonadjacent=nonadjacent),
        merge_mode=draw(st.sampled_from(MergeMode), label="merge"),
        merge_proj=ProjStyle.LINEAR,
        seed=draw(st.integers(0, 2**16), label="seed"),
    )


# the fixture only imports the reference module, which every example may share
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=small_pyramids(), seed=st.integers(0, 2**16))
def test_forward_matches_reference_property(reference, cfg, seed):
    check_against_reference(reference, cfg, seed)
