import numpy as np
import pytest

from spinmech.rng import particle_stream

MASK64 = (1 << 64) - 1


def fresh(seed, index):
    """A newly built generator for the stream: the oracle for re-keying."""
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def next_draws(gen):
    """Draws of every kind the program uses, plus a 32-bit one."""
    return (
        gen.random(3),
        gen.standard_normal(5),
        gen.integers(0, 1 << 32, size=3, dtype=np.uint32),
        gen.random(),
        gen.standard_normal(),
    )


def assert_same_draws(a, b):
    for x, y in zip(next_draws(a), next_draws(b)):
        assert np.array_equal(x, y)


KEYS = [(7, 0), (7, 1), (7, 2**63), (7, 2**64 - 1), (-3, 5), (-(2**63), 2**64 - 1)]

# Partial use that leaves the stream mid-buffer or with a cached uint32 half.
PARTIAL_USE = {
    "random": lambda g: g.random(),
    "odd_normals": lambda g: g.standard_normal(7),
    "uint32": lambda g: g.integers(0, 10, dtype=np.uint32),
}


class TestParticleStream:
    @pytest.mark.parametrize("x0_draw", [None, lambda g: 2.0 * g.standard_normal() + g.random()])
    def test_block_draws_equal_one_long_draw(self, x0_draw):
        # The integrator draws a stream's step normals in blocks into out= slices.
        whole, blocked = particle_stream(5, 17), particle_stream(5, 17)
        if x0_draw is not None:
            assert x0_draw(whole) == x0_draw(blocked)
        expected = whole.standard_normal(1001)
        got = np.empty(1001)
        for a, b in [(0, 334), (334, 668), (668, 1001)]:
            blocked.standard_normal(b - a, out=got[a:b])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed, index", KEYS)
    def test_new_stream_matches_fresh_philox(self, seed, index):
        assert_same_draws(particle_stream(seed, index), fresh(seed, index))

    @pytest.mark.parametrize("use", sorted(PARTIAL_USE))
    @pytest.mark.parametrize("seed, index", KEYS)
    def test_rekeyed_stream_matches_fresh_philox(self, seed, index, use):
        gen = particle_stream(11, 3)
        PARTIAL_USE[use](gen)
        again = particle_stream(seed, index, gen)
        assert again is gen
        assert_same_draws(gen, fresh(seed, index))
