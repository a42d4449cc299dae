"""Whole-model gradients by the Taylor remainder test.

For a loss ``f`` with gradient ``g`` at parameters ``x`` and a direction
``v`` through every parameter at once, ``|f(x + h v) - f(x) - h <g, v>|``
is O(h^2) when ``g`` is right: it shrinks about 100x for each 10x smaller
step. A wrong gradient leaves an O(h) term that shrinks only 10x. The test
is scale-free, so one bound serves every config, including the paths that
criterion 5 does not reach: dense merges, regular attention, a padded
window, non-adjacent directions and no interactions. A ``hypothesis``
property runs it over the forward property's random pyramids as well.
"""

from dataclasses import replace

import numpy as np
import pytest
import variants
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reference import small_pyramids

from piip import autodiff as ad
from piip import harness
from piip.config import AttentionImpl, ProjStyle, preset
from piip.model import PiipModel

# the last step makes a zeroed sampling-point gradient show: its missing
# first-order term is below the second-order one down to h = 1e-5
STEPS = (1e-3, 1e-4, 1e-5, 1e-6)
MIN_SHRINK = 50.0  # per 10x step; a first-order remainder shrinks 10x
# a random pyramid may not be second-order yet at h = 1e-3, so the property
# starts one step later and goes one further; a remainder below
# ROUNDOFF * sum(|W * output|) may be rounding error and is not judged
PROPERTY_STEPS = (1e-4, 1e-5, 1e-6, 1e-7)
ROUNDOFF = 1e-13

CONFIGS = {
    "tiny": variants.TINY,
    "padded-window": variants.PADDED_WINDOW,
    "regular-attention": variants.REGULAR_ATTENTION,
    "dense-linear": variants.DENSE_LINEAR,
    "dense-conv3x3": variants.DENSE_CONV3X3,
    "piip-tsb-toy": preset("piip-tsb-toy"),
    "no-interactions": replace(
        variants.TINY, interactions=replace(variants.TINY.interactions, count=0)
    ),
    "nonadjacent-1-3": replace(
        variants.TINY,
        interactions=replace(
            variants.TINY.interactions, directions=((1, 3),), allow_nonadjacent=True
        ),
    ),
}


def output(res):
    """Merged tokens in dense mode, logits in classification mode."""
    return res.merged.tokens if res.merged is not None else res.logits


def taylor_remainders(cfg, seed=0, steps=STEPS):
    """Remainders at each of ``steps`` for the loss ``<W, output>`` on a 2-image
    stack, and the loss's round-off floor."""
    model = PiipModel(cfg)
    rng = np.random.default_rng(seed)
    harness.randomize_gates(model, rng)
    r = model.input_resolution
    images = rng.random((2, r, r, 3))
    out0 = output(model.forward(images))
    W = rng.standard_normal(out0.shape)

    def loss():
        return float(np.vdot(W, output(model.forward(images))))

    _, grads = model.parameter_gradients(
        images, lambda graph: ad.sum_op(ad.mul(output(graph), ad.leaf(W)))
    )
    v = {name: rng.standard_normal(p.shape) for name, p in model.params.items()}
    slope = sum(float(np.vdot(grads[name], v[name])) for name in v)
    base, f0 = model.params, loss()
    out = []
    for h in steps:
        model.params = {name: p + h * v[name] for name, p in base.items()}
        out.append(abs(loss() - f0 - h * slope))
    return out, ROUNDOFF * float(np.abs(W * out0).sum())


@pytest.mark.parametrize("name", CONFIGS)
def test_gradient_taylor_remainder_is_second_order(name):
    rem, _ = taylor_remainders(CONFIGS[name])
    shrink = [a / b for a, b in zip(rem, rem[1:])]
    assert min(shrink) >= MIN_SHRINK, (rem, shrink)


@st.composite
def gradient_pyramids(draw):
    """The forward property's pyramids, also with regular cross-attention and
    the dense ``conv3x3`` merge, which ``bench/reference.py`` does not cover."""
    cfg = draw(small_pyramids())
    impl = draw(st.sampled_from(AttentionImpl), label="attention_impl")
    proj = draw(st.sampled_from(ProjStyle), label="merge_proj")
    return replace(cfg, interactions=replace(cfg.interactions, attention_impl=impl),
                   merge_proj=proj)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=gradient_pyramids(), seed=st.integers(0, 2**16))
def test_gradient_taylor_remainder_property(cfg, seed):
    rem, floor = taylor_remainders(cfg, seed, PROPERTY_STEPS)
    shrink = [a / b for a, b in zip(rem, rem[1:]) if b > floor]
    assert len(shrink) >= 2 and min(shrink) >= MIN_SHRINK, (rem, floor, shrink)
