"""Interaction directions: gating, deformable attention behavior, simultaneity."""

import numpy as np

from piip import autodiff as ad
from piip.branches import FeatureMap
from piip.config import AttentionImpl, InteractionSchedule, preset
from piip.interaction import (
    DeformableCrossAttention,
    apply_interaction_point,
    build_interaction_directions,
    reference_points,
)
from piip.model import PiipModel
from piip.params import ParamSpec, allocate

RNG = np.random.default_rng(99)


def make_states(dims=(16, 8), grids=((2, 2), (4, 4))):
    states = []
    for d, (gh, gw) in zip(dims, grids):
        tokens = RNG.standard_normal((gh * gw, d))
        states.append(FeatureMap(ad.leaf(tokens), gh, gw))
    return states


def build_point(schedule, dims=(16, 8), grids=((2, 2), (4, 4)), seed=0):
    directions = build_interaction_directions(1, {i + 1: d for i, d in enumerate(dims)}, schedule)
    ps = ParamSpec()
    for d in directions:
        d.declare(ps)
    P = {k: ad.leaf(v) for k, v in allocate(ps, seed).items()}
    return directions, P, make_states(dims, grids)


def test_zero_gates_are_identity():
    sched = InteractionSchedule(count=1, directions=((1, 2), (2, 1)))
    directions, P, states = build_point(sched)
    out = apply_interaction_point(P, states, directions)
    for before, after in zip(states, out):
        assert np.array_equal(before.tokens.value, after.tokens.value)


def test_unidirectional_leaves_source_untouched():
    sched = InteractionSchedule(count=1, directions=((1, 2),))  # only 1 -> 2
    directions, P, states = build_point(sched)
    # open the gates so the destination actually changes
    for name in list(P):
        if name.endswith((".gamma", ".tau")):
            P[name] = ad.leaf(np.full(P[name].shape, 0.3))
    out = apply_interaction_point(P, states, directions)
    assert np.array_equal(out[0].tokens.value, states[0].tokens.value)  # src: branch 1
    assert not np.array_equal(out[1].tokens.value, states[1].tokens.value)


def test_middle_branch_accumulates_both_pair_deltas():
    sched = InteractionSchedule(count=1, directions=((1, 2), (2, 1), (2, 3), (3, 2)))
    dims = (16, 12, 8)
    grids = ((2, 2), (2, 2), (4, 4))
    directions, P, states = build_point(sched, dims, grids)
    for name in list(P):
        if name.endswith((".gamma", ".tau")):
            P[name] = ad.leaf(np.full(P[name].shape, 0.25))
    out = apply_interaction_point(P, states, directions)

    # apply each pair alone; branch 2's total update is the sum of both deltas
    only_a = apply_interaction_point(P, states, directions[:2])  # pair 1-2
    only_b = apply_interaction_point(P, states, directions[2:])  # pair 2-3
    delta_a = only_a[1].tokens.value - states[1].tokens.value
    delta_b = only_b[1].tokens.value - states[1].tokens.value
    combined = out[1].tokens.value - states[1].tokens.value
    np.testing.assert_allclose(combined, delta_a + delta_b, atol=1e-12)


def deform_setup(dim=16, vdim=8, heads=2, points=4, q_grid=(2, 3), v_grid=(3, 4), seed=1):
    attn = DeformableCrossAttention("a", dim, heads, points, vdim)
    ps = ParamSpec()
    attn.declare(ps)
    P = {k: ad.leaf(v) for k, v in allocate(ps, seed).items()}
    nq = q_grid[0] * q_grid[1]
    nv = v_grid[0] * v_grid[1]
    q = RNG.standard_normal((nq, dim))
    v = RNG.standard_normal((nv, dim))
    return attn, P, q, v, q_grid, v_grid


def test_single_point_weights_are_exactly_one():
    # K = 1: the softmax over sampling points is a single 1.0 weight, so the
    # output is one bilinear tap per head passed through the projections
    attn, P, q, v, qg, vg = deform_setup(points=1)
    out = attn.forward(P, ad.leaf(q), qg, ad.leaf(v), vg)

    vmap = (v @ P["a.val_w"].value + P["a.val_b"].value).reshape(*vg, 8)
    off = (q @ P["a.off_w"].value + P["a.off_b"].value).reshape(-1, 2, 1, 2)
    ref = reference_points(*qg)
    per_head = []
    for hi in range(2):
        pts = ref + off[:, hi, 0, :] / np.array([vg[1], vg[0]])
        head_map = ad.leaf(vmap[:, :, hi * 4 : (hi + 1) * 4])
        per_head.append(ad.bilinear_sample_op(head_map, ad.leaf(pts)).value)
    want = np.concatenate(per_head, axis=1) @ P["a.out_w"].value + P["a.out_b"].value
    np.testing.assert_allclose(out.value, want, atol=1e-12)


def test_zero_offsets_constant_value_closed_form():
    # zero offset weights + constant value map: every tap hits the same
    # constant, so out = (c @ val_w + val_b) @ out_w + out_b for every query
    attn, P, q, v, qg, vg = deform_setup()
    P["a.off_w"] = ad.leaf(np.zeros_like(P["a.off_w"].value))
    P["a.off_b"] = ad.leaf(np.zeros_like(P["a.off_b"].value))
    const = np.full((vg[0] * vg[1], 16), 0.7)
    out = attn.forward(P, ad.leaf(q), qg, ad.leaf(const), vg)
    row = (const[0] @ P["a.val_w"].value + P["a.val_b"].value) @ P["a.out_w"].value + P[
        "a.out_b"
    ].value
    np.testing.assert_allclose(out.value, np.tile(row, (q.shape[0], 1)), atol=1e-10)


def test_sampling_weights_sum_to_one_per_head():
    attn, P, q, v, qg, vg = deform_setup()
    wts = (q @ P["a.wt_w"].value + P["a.wt_b"].value).reshape(-1, 2, 4)
    probs = ad.softmax_op(ad.leaf(wts)).value
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_offsets_shift_sampling_locations():
    # a +1-cell x offset on an x-ramp map adds exactly 1 for interior queries
    attn, P, q, v, qg, vg = deform_setup(heads=1, points=1, vdim=4,
                                         q_grid=(3, 4), v_grid=(3, 4))
    P["a.off_w"] = ad.leaf(np.zeros_like(P["a.off_w"].value))
    P["a.off_b"] = ad.leaf(np.zeros(2))
    P["a.val_w"] = ad.leaf(np.eye(16)[:, :4])
    P["a.val_b"] = ad.leaf(np.zeros(4))
    P["a.out_w"] = ad.leaf(np.eye(4))
    P["a.out_b"] = ad.leaf(np.zeros(4))
    # value map: first channel increases linearly along x (in cell units)
    grid = np.zeros((3, 4, 16))
    grid[:, :, 0] = np.arange(4)[None, :]
    vtok = grid.reshape(-1, 16)

    zero = attn.forward(P, ad.leaf(q), qg, ad.leaf(vtok), vg).value
    cols = np.arange(12) % 4
    np.testing.assert_allclose(zero[:, 0], cols, atol=1e-9)  # taps hit centers

    P["a.off_b"] = ad.leaf(np.array([1.0, 0.0]))  # +1 value-grid cell in x
    one = attn.forward(P, ad.leaf(q), qg, ad.leaf(vtok), vg).value
    interior = cols <= 2  # the last column's shifted tap leaves the map
    np.testing.assert_allclose(one[interior, 0] - zero[interior, 0], 1.0, atol=1e-9)


def test_deform_cost_linear_in_queries():
    # doubling the query grid doubles the work estimate (no quadratic term)
    from piip.config import BranchSpec, MergeMode, PyramidConfig
    from piip.costmodel import cost_report

    def cfg_with_grid(resolution):
        return PyramidConfig(
            branches=(
                BranchSpec(depth=1, dim=16, heads=2, patch_size=4, resolution=16),
                BranchSpec(depth=1, dim=8, heads=1, patch_size=4, resolution=resolution),
            ),
            interactions=InteractionSchedule(count=1, directions=((1, 2),)),
            merge_mode=MergeMode.CLASSIFICATION,
            classes=10,
        )

    # query-token counts 16, 64, 144 at a fixed source: the cost is affine in
    # Nq (the ramp-up per query token is constant; no quadratic term appears)
    f16 = cost_report(cfg_with_grid(16)).entry("interactions").flops
    f64 = cost_report(cfg_with_grid(32)).entry("interactions").flops
    f144 = cost_report(cfg_with_grid(48)).entry("interactions").flops
    assert (f64 - f16) * (144 - 64) == (f144 - f64) * (64 - 16)
    assert f144 > f64 > f16


def test_regular_impl_attends_densely():
    sched = InteractionSchedule(
        count=1, directions=((1, 2), (2, 1)), attention_impl=AttentionImpl.REGULAR,
        deform_heads=2,
    )
    directions, P, states = build_point(sched)
    for name in list(P):
        if name.endswith((".gamma", ".tau")):
            P[name] = ad.leaf(np.full(P[name].shape, 0.2))
    out = apply_interaction_point(P, states, directions)
    assert not np.array_equal(out[0].tokens.value, states[0].tokens.value)
    assert out[0].tokens.shape == states[0].tokens.shape


def test_direction_forward_matches_gate_composition():
    # F-hat = F + gamma * attn(...); F-tilde = F-hat + tau * ffn(F-hat)
    sched = InteractionSchedule(count=1, directions=((2, 1),))
    directions, P, states = build_point(sched)
    gamma = RNG.standard_normal(16) * 0.1
    tau = RNG.standard_normal(16) * 0.1
    pre = "interaction1.pair1_2.to1"
    P[f"{pre}.gamma"] = ad.leaf(gamma)
    P[f"{pre}.tau"] = ad.leaf(np.zeros(16))
    (direction,) = directions
    half = direction.forward(P, states[0], states[1]).value
    attn_term = (half - states[0].tokens.value) / gamma  # recover raw attention

    P[f"{pre}.tau"] = ad.leaf(tau)
    full = direction.forward(P, states[0], states[1]).value
    ffn_term = (full - half) / tau
    # reapplying the algebra: full == F + gamma*attn + tau*ffn(F-hat)
    recon = states[0].tokens.value + gamma * attn_term + tau * ffn_term
    np.testing.assert_allclose(full, recon, atol=1e-10)


def test_interaction_directions_sorted_by_pair():
    sched = InteractionSchedule(count=1, directions=((3, 2), (1, 2), (2, 3)))
    directions = build_interaction_directions(4, {1: 16, 2: 12, 3: 8}, sched)
    # pairs ascending, and lo -> hi before hi -> lo within a pair
    assert [(d.src, d.dst) for d in directions] == [(1, 2), (2, 3), (3, 2)]
    names = ParamSpec()
    for d in directions:
        d.declare(names)
    assert any(n.startswith("interaction4.pair1_2.to2.") for n in names.names())
    assert any(n.startswith("interaction4.pair2_3.to") for n in names.names())
    # no 2 -> 1 direction was requested, so no .to1 parameters exist
    assert not any(".to1." in n for n in names.names())


def test_tiny_preset_declares_directions_in_pair_order():
    # params.allocate draws initial values in declaration order, so this
    # order fixes every seeded initialization
    spec = PiipModel(preset("piip-tiny-test"), materialize=False).param_spec
    prefixes = [".".join(n.split(".")[:3]) for n in spec.names() if n.startswith("interaction")]
    want = [f"interaction{p}.pair{pair}.to{dst}"
            for p in (1, 2) for pair, dst in (("1_2", 2), ("1_2", 1), ("2_3", 3), ("2_3", 2))]
    assert list(dict.fromkeys(prefixes)) == want
