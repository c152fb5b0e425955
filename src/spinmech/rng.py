"""Deterministic per-particle random streams.

Every particle owns a Philox counter-based stream keyed by
``(seed, particle_index)``.  A particle's draws depend only on that key and
on the draw position within the stream (initial-condition draws first, then
one increment per step, none when ``sigma == 0``), so an ensemble split
across any number of workers or chunk sizes reproduces the serial result bit
for bit.  The integrator stores the increments step-major, one column per
particle.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def particle_stream(seed: int, particle_index: int) -> np.random.Generator:
    """Independent generator for one particle of one seeded ensemble."""
    key = np.array(
        [int(seed) & _MASK64, int(particle_index) & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))
