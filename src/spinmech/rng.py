"""Deterministic per-particle random streams.

Every particle owns a Philox counter-based stream keyed by
``(seed, particle_index)``.  A particle's draws depend only on that key and
on the draw position within the stream (initial-condition draws first, then
one normal per step, none when ``sigma == 0``), so an ensemble split across
any number of workers, chunk sizes or step blocks reproduces the serial
result bit for bit.  The integrator draws in blocks of steps, step-major.

Building a ``Generator`` costs far more than the few draws a particle makes,
so a chunk drawn in one block builds one and re-keys it for every particle
(``particle_stream(seed, i, gen)``); a chunk drawn in several step blocks
keeps one generator per particle alive between blocks.  Re-keying resets the
whole Philox state -- counter, output buffer and cached 32-bit half -- to
that of a fresh ``Philox(key=(seed, i))``, so the draws are the same as from
a newly built generator.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Counter and output buffer of a fresh stream.  The state setter reads the
# words one by one into its own storage, so immutable Python ints serve (and
# are read faster than a uint64 array).
_ZEROS4 = (0, 0, 0, 0)


def particle_stream(
    seed: int, particle_index: int, gen: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent generator for one particle of one seeded ensemble.

    With ``gen`` (a generator returned by an earlier call) the same object is
    re-keyed to the fresh stream of ``(seed, particle_index)`` and returned;
    any stream it held before is gone.
    """
    key = (int(seed) & _MASK64, int(particle_index) & _MASK64)
    if gen is None:
        philox = np.random.Philox(key=np.array(key, dtype=np.uint64))
        return np.random.Generator(philox)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
