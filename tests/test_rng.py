"""SplitMix64 against its normative definition (README "Deterministic
randomness"), written here in plain Python one output at a time: the scalar
form that src/ no longer carries."""

import math

import numpy as np

from uled_inspect.rng import SplitMix64, mix

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1

# A negative seed (`analyze --seed -1` is accepted) and one >= 2**64 are
# taken mod 2**64.
SEEDS = [0, 8, 1234, -1, 2**64 + 5]


def finalize(z):
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_raw(seed, count):
    """Outputs 0..count-1 of stream(seed): finalize(seed + (k + 1) * GOLDEN)."""
    return [finalize((seed + (k + 1) * GOLDEN) & MASK) for k in range(count)]


def reference_uniforms(seed, count):
    return [(out >> 11) * 2.0**-53 for out in reference_raw(seed, count)]


def reference_normals(seed, count):
    """Box-Muller pairs from consecutive uniforms; an odd count drops the
    last pair's second value."""
    u = reference_uniforms(seed, count + count % 2)
    out = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = 2.0 * math.pi * u2
        out += [r * math.cos(angle), r * math.sin(angle)]
    return out[:count]


def reference_mix(a, b):
    return finalize((a + (b + 1) * GOLDEN) & MASK)


def test_known_splitmix_vectors():
    # First outputs of the published SplitMix64 stream for seed 0.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert reference_raw(0, 3) == expected
    assert SplitMix64(0).raw_batch(3).tolist() == expected


def test_batch_equals_sequential():
    for seed in SEEDS:
        assert SplitMix64(seed).raw_batch(257).tolist() == reference_raw(seed, 257), seed


def test_uniform_batch_matches_scalar():
    for seed in SEEDS:
        batch = SplitMix64(seed).uniform_batch(257).tolist()
        assert batch == reference_uniforms(seed, 257), seed
        assert all(0.0 <= u < 1.0 for u in batch)


def test_normal_batch_matches_pairs():
    # Every generated frame depends on these normals, so one batch is pinned
    # bit for bit.
    assert np.array_equal(SplitMix64(77).normal_batch(16), np.array(reference_normals(77, 16)))
    # Over longer batches, 1 - u is exact for every uniform, but numpy's
    # log1p(-u) and libm's log(1 - u) differ in the last bit for about 0.3% of
    # draws, so the normals agree to a few ulp rather than bit for bit.
    for seed in SEEDS:
        batch = SplitMix64(seed).normal_batch(1001)
        np.testing.assert_allclose(batch, reference_normals(seed, 1001), rtol=1e-15, atol=0.0)
        # A shorter batch is a prefix of a longer one, odd counts included.
        assert np.array_equal(SplitMix64(seed).normal_batch(1000), batch[:1000])


def test_mix_definition():
    for seed in SEEDS:
        mixed = [mix(seed, r) for r in range(100)]
        assert mixed == [reference_mix(seed, r) for r in range(100)], seed
        # Output r of a stream is its restart-r substream seed (ml.kmeans_fit).
        assert mixed == SplitMix64(seed).raw_batch(100).tolist(), seed
    assert mix(8, 0) != mix(8, 1) != mix(9, 0)


def test_stream_has_no_position():
    stream = SplitMix64(5)
    first = stream.uniform_batch(10)
    assert np.array_equal(stream.uniform_batch(10), first)
    assert np.array_equal(stream.normal_batch(20), SplitMix64(5).normal_batch(20))
