"""The benchmark's tracer still fits the program.

``bench/tracing.py`` patches ``piip`` from outside: ``model.apply_interaction_point``,
``Branch.segment``, ``autodiff.matmul`` and other names. A refactor that renames
one, or calls it some other way, would make the benchmark's traced runs fail
``macs_match_cost_model``, so this runs the same check on small models.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from piip import harness
from piip.config import MergeMode, preset
from piip.model import AdamW, PiipModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing`` and ``run`` modules, imported as ``bench/run.py`` does."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("run")


def test_traced_macs_match_cost_model(bench):
    tracing, run = bench
    tiny = preset("piip-tiny-test")
    dense = replace(tiny, merge_mode=MergeMode.DENSE)
    model, dense_model = PiipModel(tiny), PiipModel(dense)
    images, labels = harness.make_dataset(harness.task_for(tiny), 4)
    with tracing.Tracer().installed() as tracer:
        model.train_step(images, labels, AdamW(model.params))
        rows = run.mac_check(tracer, tiny, len(images))
        tracer.reset()
        dense_model.forward(images[:2])
        rows += run.mac_check(tracer, dense, 2)
    assert {c for c, _, _ in rows} >= {"branch1", "branch3", "interactions", "merging"}
    for component, counted, analytic in rows:
        assert counted == analytic > 0, component
