"""Parameter initialization against the re-scan rejection sampler."""

import numpy as np
import pytest

from piip.params import ParamSpec, trunc_normal


def trunc_normal_rescan(rng, shape, std=0.02):
    """Reference: re-scan the whole tensor after every rejection round."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_trunc_normal_bitwise_equals_rescan(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for shape, std in (((1,), 0.02), ((5,), 0.02), ((3, 4), 1.0), ((64, 96), 0.02),
                       ((2, 3, 4, 5), 0.5), ((20000,), 0.02)):
        got, want = trunc_normal(fast, shape, std), trunc_normal_rescan(slow, shape, std)
        assert got.shape == shape
        assert np.array_equal(got, want)
        assert np.abs(got).max() <= 2.0 * std
    # both consumed the same draws, so later tensors stay equal too
    assert fast.bit_generator.state == slow.bit_generator.state


def test_declaring_a_name_twice_raises():
    spec = ParamSpec()
    spec.declare("branch1.embed.bias", (4,), "zeros")
    with pytest.raises(ValueError, match="parameter 'branch1.embed.bias' declared twice"):
        spec.declare("branch1.embed.bias", (4,), "zeros")
