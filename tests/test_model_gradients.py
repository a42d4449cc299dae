"""Whole-model gradients by the Taylor remainder test.

For a loss ``f`` with gradient ``g`` at parameters ``x`` and a direction
``v`` through every parameter at once, ``|f(x + h v) - f(x) - h <g, v>|``
is O(h^2) when ``g`` is right: it shrinks about 100x for each 10x smaller
step. A wrong gradient leaves an O(h) term that shrinks only 10x. The test
is scale-free, so one bound serves every config, including the paths that
criterion 5 does not reach: dense merges, a convnet branch, regular
attention, a padded window, non-adjacent directions and no interactions.
"""

from dataclasses import replace

import numpy as np
import pytest
import variants

from piip import autodiff as ad
from piip import harness
from piip.config import preset
from piip.model import PiipModel

# the last step makes a zeroed sampling-point gradient show: its missing
# first-order term is below the second-order one down to h = 1e-5
STEPS = (1e-3, 1e-4, 1e-5, 1e-6)
MIN_SHRINK = 50.0  # per 10x step; a first-order remainder shrinks 10x

CONFIGS = {
    "tiny": variants.TINY,
    "padded-window": variants.PADDED_WINDOW,
    "regular-attention": variants.REGULAR_ATTENTION,
    "dense-linear": variants.DENSE_LINEAR,
    "dense-conv3x3": variants.DENSE_CONV3X3,
    "convnet-branch": variants.CONVNET_BRANCH,
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


def taylor_remainders(cfg, seed=0):
    """Remainders at each of STEPS for the loss ``<W, output>`` on a 2-image stack."""
    model = PiipModel(cfg)
    rng = np.random.default_rng(seed)
    harness.randomize_gates(model, rng)
    r = model.input_resolution
    images = rng.random((2, r, r, 3))
    W = rng.standard_normal(output(model.forward(images)).shape)

    def loss():
        return float(np.vdot(W, output(model.forward(images))))

    _, grads = model.parameter_gradients(
        images, lambda graph: ad.sum_op(ad.mul(output(graph), ad.as_var(W)))
    )
    v = {name: rng.standard_normal(p.shape) for name, p in model.params.items()}
    slope = sum(float(np.vdot(grads[name], v[name])) for name in v)
    base, f0 = model.params, loss()
    out = []
    for h in STEPS:
        model.params = {name: p + h * v[name] for name, p in base.items()}
        out.append(abs(loss() - f0 - h * slope))
    return out


@pytest.mark.parametrize("name", CONFIGS)
def test_gradient_taylor_remainder_is_second_order(name):
    rem = taylor_remainders(CONFIGS[name])
    shrink = [a / b for a, b in zip(rem, rem[1:])]
    assert min(shrink) >= MIN_SHRINK, (rem, shrink)
