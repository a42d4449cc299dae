"""Bilinear sampling through one sparse plan: oracle, exactness, tape, gradients."""

import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from piip import autodiff as ad
from piip.interaction import reference_points

import scalar_oracles as ref


def coordinate(cells: int):
    """Normalized coordinates: anywhere in [-0.5, 1.5], or exactly on a cell
    center or edge (multiples of 1 / (2 * cells)), inside the map or out."""
    return st.one_of(
        st.floats(-0.5, 1.5, allow_nan=False),
        st.integers(-2, 2 * cells + 2).map(lambda j: j / (2 * cells)),
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sampling_matches_oracle_property(data):
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="lead"))
    h, w = data.draw(st.integers(1, 6), label="h"), data.draw(st.integers(1, 6), label="w")
    c = data.draw(st.integers(1, 4), label="channels")
    n = data.draw(st.integers(1, 6), label="points")
    count = int(np.prod(lead, dtype=np.int64)) * n
    xs = data.draw(st.lists(coordinate(w), min_size=count, max_size=count), label="x")
    ys = data.draw(st.lists(coordinate(h), min_size=count, max_size=count), label="y")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    maps = np.random.default_rng(seed).standard_normal(lead + (h, w, c))
    points = np.stack([xs, ys], axis=-1).reshape(lead + (n, 2))

    got = ad.bilinear_sample_op(ad.leaf(maps), ad.leaf(points)).value
    want = np.array(
        [
            ref.bilinear_sample_ref(m, p)
            for m, p in zip(maps.reshape(-1, h, w, c), points.reshape(-1, n, 2))
        ]
    ).reshape(got.shape)
    assert np.abs(got - want).max() <= 1e-12


def test_grid_centers_exact_batched_with_exact_map_gradient():
    # power-of-two grids make every center exactly representable; each point
    # then reads one cell with weight 1, forward and backward
    rng = np.random.default_rng(1)
    for h, w in ((4, 8), (2, 16)):
        maps = rng.standard_normal((2, 3, h, w, 5))
        points = np.broadcast_to(reference_points(h, w), (2, 3, h * w, 2))
        img = ad.leaf(maps, needs_grad=True)
        out = ad.bilinear_sample_op(img, ad.leaf(points))
        assert np.array_equal(out.value, maps.reshape(2, 3, h * w, 5))
        g = rng.standard_normal(out.shape)
        ad.backward(ad.sum_op(ad.mul(out, ad.leaf(g))))
        assert np.array_equal(img.grad, g.reshape(maps.shape))


def test_no_grad_sampling_keeps_no_plan(monkeypatch):
    plans = []  # a weak reference to each plan's CSR operator
    build = ad._sampling_plan

    def spy(*args):
        plan = build(*args)
        plans.append(weakref.ref(plan[0]))
        return plan

    monkeypatch.setattr(ad, "_sampling_plan", spy)
    rng = np.random.default_rng(2)
    maps = rng.standard_normal((2, 4, 5, 3))
    points = rng.uniform(-0.2, 1.2, (2, 6, 2))

    out = ad.bilinear_sample_op(ad.leaf(maps), ad.leaf(points))
    assert out.vjp is None and plans[-1]() is None

    img = ad.leaf(maps, needs_grad=True)
    out = ad.bilinear_sample_op(img, ad.leaf(points))
    assert plans[-1]() is not None  # the vjp holds it until backward runs
    ad.backward(ad.sum_op(out))
    assert plans[-1]() is None and img.grad is not None

