"""Deterministic, language-independent random streams.

Every stochastic draw in this package comes from the SplitMix64 generator so
that fixtures are reproducible bit-for-bit from a 64-bit seed alone, in any
implementation language.  The normative definition:

    GOLDEN = 0x9E3779B97F4A7C15
    finalize(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
                 z ^= z >> 27; z *= 0x94D049BB133111EB
                 z ^= z >> 31                      (all mod 2**64)
    output k of stream(s) = finalize(s + (k + 1) * GOLDEN)

Derived values:

    uniform:  u_k = (output_k >> 11) * 2**-53              in [0, 1)
    normals:  pairs (z_2m, z_2m+1) by Box-Muller from (u_2m, u_2m+1),
              r = sqrt(-2 ln(1 - u_2m)), angle = 2 pi u_2m+1
    mix(a, b) = finalize(a + (b + 1) * GOLDEN)             substream seeding

Outputs are a pure function of (seed, index), so a stream is computed only
in batches of its first outputs, vectorized.  mix(a, b) is output 0 of the
stream seeded a + b * GOLDEN, which is also output b of stream(a).  The
generator is the only user; k-Means draws no random numbers.  The scalar
form of the definition is kept in tests/test_rng.py as the reference the
batches are checked against.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U53 = 2.0**-53


def mix(seed: int, stream_id: int) -> int:
    """Derive an independent substream seed from (seed, stream_id)."""
    return int(SplitMix64(seed + stream_id * GOLDEN).raw_batch(1)[0])


class SplitMix64:
    """The stream of one seed (taken mod 2**64); each call returns its first
    `count` values."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK

    def raw_batch(self, count: int) -> np.ndarray:
        """Outputs 0..count-1 as uint64."""
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = (np.uint64(self._seed) + idx * np.uint64(GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))

    def uniform_batch(self, count: int) -> np.ndarray:
        return (self.raw_batch(count) >> np.uint64(11)).astype(np.float64) * _U53

    def normal_batch(self, count: int) -> np.ndarray:
        pairs = (count + 1) // 2
        u = self.uniform_batch(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(angle)
        out[1::2] = r * np.sin(angle)
        return out[:count]
