"""Deterministic per-particle random streams.

Every particle owns a Philox counter-based stream keyed by
``(seed, particle_index)``.  A particle's draws depend only on that key and
on the draw position within the stream (initial-condition draws first, then
one normal per step, none when ``sigma == 0``), so an ensemble split across
any number of workers, chunks or step blocks reproduces the serial result
bit for bit.

:func:`particle_stream` keys every stream one way: it sets the whole Philox
state -- counter, output buffer and cached 32-bit half -- to that of a fresh
``Philox(key=(seed, i))``, so a re-keyed stream draws exactly what a fresh
one draws.  Building a ``Generator`` costs over ten times as much as
re-keying one, so an ensemble run builds one pool of generators, one per
stream of a chunk, and re-keys it chunk by chunk.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def particle_stream(
    seed: int, particle_index: int, gen: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent generator for one particle of one seeded ensemble.

    Re-keys and returns ``gen`` (from an earlier call; its stream is gone),
    or builds a new generator and keys it the same way.
    """
    if gen is None:
        gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {  # tuples of ints: the setter reads them faster than arrays
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (int(seed) & _MASK64, int(particle_index) & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
