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

Because outputs are a pure function of (seed, index), batches may be computed
in any order or in parallel and still equal the sequential stream.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U53 = 2.0**-53


def finalize(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def mix(seed: int, stream_id: int) -> int:
    """Derive an independent substream seed from (seed, stream_id)."""
    return finalize((seed + (stream_id + 1) * GOLDEN) & _MASK)


class SplitMix64:
    """Sequential view of the stream; ``nth`` and batch calls are positional."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._index = 0

    def next_raw(self) -> int:
        value = finalize((self._seed + (self._index + 1) * GOLDEN) & _MASK)
        self._index += 1
        return value

    def next_uniform(self) -> float:
        return (self.next_raw() >> 11) * _U53

    def next_normal_pair(self) -> tuple[float, float]:
        u1 = self.next_uniform()
        u2 = self.next_uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = 2.0 * math.pi * u2
        return r * math.cos(angle), r * math.sin(angle)

    # Batch forms: identical values to repeated sequential calls, computed
    # vectorized.  They advance the stream position.

    def raw_batch(self, count: int) -> np.ndarray:
        idx = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
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
