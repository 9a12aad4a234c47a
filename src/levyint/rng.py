"""Counter-based random draws.

Every random draw in this package is a pure function of its address
(seed, path index, component, purpose) and of a draw index within that
address, so paths are reproducible and may be generated in any order, in
any block, or split across processes, with bit-identical results.

Path noise: SplitMix64 words
----------------------------
The driver paths draw 64-bit words from a counter-based SplitMix64
generator (Steele, Lea and Flood, OOPSLA 2014), a whole block of addresses
per array operation.  :func:`keys` mixes an address into a 64-bit key:

    head   = mix(seed + G)
    comp   = mix(head ^ (purpose << 32 | component))
    key    = mix(comp + (path_index + 1) * G)

and :func:`words` gives draw ``i`` of an address as
``mix(key + (i + 1) * G)``, where ``mix`` is the SplitMix64 finalizer and
``G`` its increment ``0x9E3779B97F4A7C15``, all modulo 2**64.  Draws of one
address are therefore one SplitMix64 sequence, and any draw can be read
without the ones before it.  Path indices and components are
nonnegative, components below 2**32, and the seed is taken modulo 2**64.

A word becomes

* a uniform on [0, 1) by :func:`uniforms`: its top 53 bits times 2**-53;
* two standard normals by :func:`normal_pairs` (Box-Muller): the top 32
  bits give the radius ``sqrt(-2 log u)`` with ``u = (bits + 1) * 2**-32``
  in (0, 1], the next 31 bits an angle on (0, pi), and the lowest bit the
  sign of the sine, taken as ``+-sqrt(1 - cos**2)``.  The radius is at most
  ``sqrt(64 log 2)``, so normals are cut at |z| ~ 6.66; an exact pair's
  radius exceeds that with probability 2**-32;
* a Poisson count by :meth:`PoissonTable.counts`, the inverse CDF of its
  uniform over a table built once per distinct mean.

Draw-index layout of a driver path (:mod:`levyint.processes`):

* BROWNIAN, per component with a Brownian part: draw ``i`` gives the
  normals of cells ``2i`` and ``2i + 1`` of the path's own refined grid.
* JUMPS, per component with jump terms: for the component's jump term
  ``t`` (in spec order), draw ``t << 32`` gives its Poisson count and
  draw ``(t << 32) + 1 + k`` the time of its k-th jump, ``horizon`` times
  the uniform.

Set-up draws: Philox streams
----------------------------
Integrand coefficients, random bases and test cases (INTEGRAND, BASIS,
CASE) are drawn from :func:`stream`, a Philox generator (Salmon et al.,
SC 2011) whose 128-bit key encodes (seed, purpose, component) and whose
256-bit counter starts at path_index * 2**128.
"""
from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import LevyintError

# purpose codes; keep stable, they are part of the reproducibility contract
BROWNIAN = 0
JUMPS = 1
INTEGRAND = 2
BASIS = 3
CASE = 4

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S11, _S32, _ONE = np.uint64(11), np.uint64(32), np.uint64(1)
_ANGLE = np.uint64(0x7FFFFFFF)
_POISSON_SIGMAS = 12       # a Poisson table reaches mean + 12 sd (+ 30)
MAX_POISSON_MEANS = 1023   # distinct means of one PoissonTable


def stream(seed: int, path_index: int, component: int = 0,
           purpose: int = 0) -> np.random.Generator:
    """The Philox generator of (seed, path_index, component, purpose)."""
    if path_index < 0:
        raise LevyintError("path_index must be nonnegative")
    key = [seed & _MASK64,
           ((purpose << 48) | (component & 0xFFFFFFFF)) & _MASK64]
    counter = [0, 0, path_index & _MASK64, path_index >> 64]
    return Generator(Philox(key=np.array(key, dtype=np.uint64),
                            counter=np.array(counter, dtype=np.uint64)))


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array."""
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def keys(seed: int, purpose: int, components, paths) -> np.ndarray:
    """The (len(paths), len(components)) keys of the addresses of a block.

    ``paths`` and ``components`` are sequences of nonnegative integers.
    """
    paths = np.asarray(paths)
    if paths.size and paths.min() < 0:
        raise LevyintError("path_index must be nonnegative")
    head = _mix(np.array([seed & _MASK64], dtype=np.uint64) + _GAMMA)
    comp = _mix(head ^ (np.asarray(components, dtype=np.uint64)
                        | np.uint64(purpose << 32)))
    return _mix(comp + (paths.astype(np.uint64)[:, None] + _ONE) * _GAMMA)


def words(key: np.ndarray, index) -> np.ndarray:
    """Draw ``index`` of the addresses ``key``, broadcast together."""
    return _mix(key + (index + _ONE) * _GAMMA)


def uniforms(w: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) with 53 bits: a uniform of exactly 0.0 can occur."""
    return (w >> _S11) * 2.0 ** -53


def normal_pairs(w: np.ndarray) -> np.ndarray:
    """Two standard normals per word, shape ``w.shape + (2,)``."""
    radius = np.sqrt(-2.0 * np.log(((w >> _S32) + _ONE) * 2.0 ** -32))
    cos = np.cos((((w >> _ONE) & _ANGLE) + 0.5) * (np.pi * 2.0 ** -31))
    out = np.empty(w.shape + (2,))
    np.multiply(radius, cos, out=out[..., 0])
    np.multiply(radius * (1.0 - 2.0 * (w & _ONE)),
                np.sqrt(1.0 - cos * cos), out=out[..., 1])
    return out


class PoissonTable:
    """Inverse-CDF Poisson sampling for a fixed list of means.

    The CDF of mean ``mu`` is tabulated from 0 to ``mu + 12 sqrt(mu) + 30``
    in log space, so large means neither underflow nor take a loop over
    counts, and scaled to integers on the 53-bit grid of :func:`uniforms`.
    Each distinct mean has one table, and the tables sit in one sorted
    array, the t-th offset by ``t << 53``, so one ``searchsorted`` serves
    every mean of a block; with at most ``MAX_POISSON_MEANS`` tables the
    offset entries stay inside int64.  A count is the number of CDF
    entries not above its uniform, exactly as for the float CDF, so it
    does not depend on which other means share the array.
    """

    def __init__(self, means):
        table = {}
        which = [table.setdefault(float(mu), len(table)) for mu in means]
        if len(table) > MAX_POISSON_MEANS:
            raise LevyintError(f"{len(table)} distinct Poisson means; at most "
                               f"{MAX_POISSON_MEANS} fit one table")
        flat, start = [], []
        n = 0
        for t, mu in enumerate(table):
            k = np.arange(int(mu + _POISSON_SIGMAS * np.sqrt(mu)) + 31)
            log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
            cdf = np.cumsum(np.exp(k * np.log(mu) - mu - log_fact))
            grid = np.ceil(cdf * 2.0 ** 53)
            grid = grid[grid < 2.0 ** 53].astype(np.int64)
            flat.append(grid + (t << 53))
            start.append(n)
            n += grid.size
        self._flat = np.concatenate(flat) if flat else np.zeros(0, np.int64)
        which = np.array(which, dtype=np.int64)
        self._offset = which << 53
        self._start = np.array(start, dtype=np.int64)[which]

    def counts(self, w: np.ndarray) -> np.ndarray:
        """Counts from words whose last axis runs over the means."""
        u53 = (w >> _S11).astype(np.int64)
        return (np.searchsorted(self._flat, u53 + self._offset, side="right")
                - self._start)
