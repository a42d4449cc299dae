"""The benchmark's tracer still fits the program.

``bench/tracing.py`` patches ``piip`` from outside: ``model.apply_interaction_point``,
``Branch.segment``, ``autodiff.matmul`` and other names. A refactor that renames
one, or calls it some other way, would make the benchmark's traced runs fail
``macs_match_cost_model``, so this runs the same check on small models.
"""

import importlib
from pathlib import Path

import pytest
from variants import DENSE_CONV3X3, DENSE_LINEAR, PADDED_WINDOW, REGULAR_ATTENTION, TINY

from piip import harness
from piip.model import AdamW, PiipModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing`` and ``run`` modules, imported as ``bench/run.py`` does."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("run")


def test_traced_macs_match_cost_model(bench):
    tracing, run = bench
    model = PiipModel(TINY)
    images, labels = harness.make_dataset(harness.task_for(TINY), 4)
    forwards = (DENSE_LINEAR, PADDED_WINDOW, REGULAR_ATTENTION, DENSE_CONV3X3)
    with tracing.Tracer().installed() as tracer:
        model.train_step(images, labels, AdamW(model.params))
        rows = [(TINY, run.mac_check(tracer, TINY, len(images)))]
        for cfg in forwards:
            tracer.reset()
            PiipModel(cfg).forward(images[:2])
            rows.append((cfg, run.mac_check(tracer, cfg, 2)))
    for cfg, checked in rows:
        assert {c for c, _, _ in checked} >= {"branch1", "branch3", "interactions", "merging"}
        for component, counted, analytic in checked:
            assert counted == analytic > 0, (cfg, component)
