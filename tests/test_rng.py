"""The counter-based generator of the path noise: known answers and moments."""

import math

import numpy as np
import pytest

from levyint import rng
from levyint.errors import LevyintError
from levyint.processes import JUMP, PathSampler, normalize_drivers

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _key(seed, purpose, component, path):
    """The documented key of an address, in plain Python integers."""
    head = _mix((seed + GAMMA) & MASK)
    comp = _mix(head ^ ((purpose << 32) | component))
    return _mix((comp + (path + 1) * GAMMA) & MASK)


def _word(key, i):
    return _mix((key + (i + 1) * GAMMA) & MASK)


def _u64(*values):
    return np.array(values, dtype=np.uint64)


# ---------------------------------------------------------------------------
# known answers


def test_words_are_splitmix64():
    # the published SplitMix64 sequence of state 1234567
    assert rng.words(np.uint64(1234567), _u64(0, 1, 2)).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


@pytest.mark.parametrize("address, key, draws", [
    ((20260816, rng.BROWNIAN, 0, 0), 0x9B2DAE8CF4130BAB,
     (0x2ACF622E7564092E, 0xD80ED91997FB8A35, 0xFCE3115CCA10FB74)),
    ((7, rng.JUMPS, 5, 12345), 0xB4556EF94608DE38,
     (0x0D46DE9B93FBE3A8, 0x50D26A017C65EDB4, 0x31453B478602EFB2)),
    ((2 ** 64 - 1, rng.BROWNIAN, 3, 2 ** 40), 0x1EBCBA2C4ACC677E,
     (0x49A2AE58A97370CB, 0xFDC07602EE802454, 0xC40172F3D728B410)),
])
def test_keys_and_words_at_fixed_addresses(address, key, draws):
    seed, purpose, component, path = address
    assert _key(*address) == key
    got = rng.keys(seed, purpose, [component], [path])
    assert got.shape == (1, 1) and int(got[0, 0]) == key
    index = (0, 1, 2 ** 32 + 1)
    assert tuple(_word(key, i) for i in index) == draws
    assert rng.words(got[0, 0], _u64(*index)).tolist() == list(draws)


def test_keys_of_a_block_are_the_keys_of_its_addresses():
    block = rng.keys(9, rng.JUMPS, [4, 0, 2], range(5, 9))
    assert block.shape == (4, 3)
    for r, p in enumerate(range(5, 9)):
        for c, comp in enumerate((4, 0, 2)):
            assert int(block[r, c]) == _key(9, rng.JUMPS, comp, p)
    with pytest.raises(LevyintError, match="path_index must be nonnegative"):
        rng.keys(9, rng.JUMPS, [0], [3, -1])


def test_normals_uniforms_counts_and_times_at_fixed_addresses():
    w = _word(_key(20260816, rng.BROWNIAN, 0, 0), 0)
    z = rng.normal_pairs(_u64(w))
    assert z.shape == (1, 2)
    # Box-Muller from the documented bit split, in plain Python
    radius = math.sqrt(-2.0 * math.log(((w >> 32) + 1) * 2.0 ** -32))
    cos = math.cos((((w >> 1) & 0x7FFFFFFF) + 0.5) * math.pi * 2.0 ** -31)
    sin = (-1.0 if w & 1 else 1.0) * math.sqrt(1.0 - cos * cos)
    pinned = (0.24553539519047599, 1.8752385246612757)
    for got, oracle, pin in zip(z[0], (radius * cos, radius * sin), pinned):
        assert abs(got - oracle) <= 1e-15 and abs(got - pin) <= 1e-15

    assert rng.uniforms(_u64(0, 2 ** 11 - 1, 2 ** 11, MASK)).tolist() == [
        0.0, 0.0, 2.0 ** -53, 1.0 - 2.0 ** -53]

    key = rng.keys(20260816, rng.JUMPS, [0], range(3))
    table = rng.PoissonTable([0.5, 4.0, 16.0, 52.0])
    counts = table.counts(rng.words(key, _u64(0, 1, 2, 3) << np.uint64(32)))
    assert counts.tolist() == [[0, 4, 10, 60], [3, 5, 15, 49], [0, 7, 10, 47]]
    times = rng.uniforms(rng.words(key[0, 0], _u64(1, 2, 3)))
    assert times.tolist() == [0.244466488784572, 0.09120138189377247,
                              0.7532044790453011]


def test_poisson_table_edges():
    table = rng.PoissonTable([3.0])
    # the smallest uniform gives 0 unless P(N = 0) is below 2**-53
    assert table.counts(_u64(0)[:, None]).tolist() == [[0]]
    # the largest stays inside the tabulated tail
    top = int(table.counts(_u64(MASK)[:, None])[0, 0])
    assert 15 < top <= 3 + 12 * math.sqrt(3) + 31
    huge = rng.PoissonTable([4000.0])
    assert huge.counts(_u64(1 << 63)[:, None])[0, 0] in (3999, 4000)


# ---------------------------------------------------------------------------
# moments; the seeds were fixed before the first run


def test_normal_moments():
    key = rng.keys(8128, rng.BROWNIAN, [0], range(256))
    z = rng.normal_pairs(rng.words(key, np.arange(128, dtype=np.uint64)))
    z = z.ravel()
    n = z.size
    assert n == 2 ** 16
    assert np.all(np.abs(z) <= math.sqrt(64.0 * math.log(2.0)))
    assert abs(z.mean()) <= 4.0 / math.sqrt(n)
    assert abs(np.mean(z * z) - 1.0) <= 4.0 * math.sqrt(2.0 / n)
    assert abs(np.mean(z ** 4) - 3.0) <= 4.0 * math.sqrt(96.0 / n)
    # the two normals of a word are uncorrelated
    pairs = z.reshape(-1, 2)
    assert abs(np.mean(pairs[:, 0] * pairs[:, 1])) <= 4.0 / math.sqrt(n / 2)


@pytest.mark.parametrize("mean", [0.5, 4.0, 16.0, 52.0])
def test_poisson_moments(mean):
    n = 2 ** 14
    key = rng.keys(8129, rng.JUMPS, [0], range(n))
    counts = rng.PoissonTable([mean]).counts(
        rng.words(key, np.zeros(1, dtype=np.uint64)))[:, 0]
    assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / n)
    var = counts.var(ddof=1)
    assert abs(var - mean) <= 4.0 * math.sqrt((mean + 2 * mean * mean) / n)


def test_sampled_jump_times_are_uniform():
    # a compensated Poisson driver with intensity 4 on [0, 2]
    sampler = PathSampler(normalize_drivers({"preset": "poisson", "a": 0.5}),
                          2.0, 1)
    block = sampler.sample_block(8130, range(4096))
    jumps = block.grid.times[block.grid.kind == JUMP]
    n = 4096
    assert abs(jumps.size / n - 8.0) <= 4.0 * math.sqrt(8.0 / n)
    bins = np.bincount((jumps * 8.0).astype(int), minlength=16)
    assert bins.size == 16
    p = 1.0 / 16
    sd = math.sqrt(jumps.size * p * (1 - p))
    assert np.all(np.abs(bins - jumps.size * p) <= 4.0 * sd)


def test_poisson_table_keeps_one_table_per_distinct_mean():
    # repeated means share a table; every count is the one a table of its
    # mean alone gives, from the same uniform
    means = [4.0, 0.5, 4.0, 52.0, 0.5, 4.0]
    key = rng.keys(20260816, rng.JUMPS, range(len(means)), range(256))
    w = rng.words(key, np.zeros(len(means), dtype=np.uint64))
    counts = rng.PoissonTable(means).counts(w)
    for t, mean in enumerate(means):
        alone = rng.PoissonTable([mean]).counts(w[:, t:t + 1])[:, 0]
        assert np.array_equal(counts[:, t], alone)
    # a thousand terms of one mean are one table
    same = rng.PoissonTable([0.5] * 2000)
    assert np.array_equal(same.counts(np.repeat(w[:, 1:2], 2000, axis=1)),
                          np.repeat(counts[:, 1:2], 2000, axis=1))
    with pytest.raises(LevyintError, match="distinct Poisson means"):
        rng.PoissonTable(1.0 + np.arange(rng.MAX_POISSON_MEANS + 1) / 4096)
