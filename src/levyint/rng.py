"""Counter-based random streams.

Every random draw in this package comes from a Philox stream addressed by
the tuple (seed, path_index, component, purpose).  The 128-bit Philox key
encodes (seed, purpose, component) and the 256-bit counter starts at
path_index * 2**128, so any stream can be opened directly without touching
its neighbours.  Paths are therefore reproducible and may be generated in
any order, or split across processes, with bit-identical results.

Two ways to open an address, both built on :func:`_address`:
:func:`stream` constructs a fresh generator, and a :class:`StreamOpener`
resets the state of the one generator it owns to the same key and counter,
which gives the same draws at a fraction of the construction cost.  Each
path sampler opens its streams through the one opener it owns.
"""
from __future__ import annotations

import numpy as np

# purpose codes; keep stable, they are part of the reproducibility contract
BROWNIAN = 0
JUMPS = 1
INTEGRAND = 2
BASIS = 3
CASE = 4

_MASK64 = (1 << 64) - 1


def _address(seed: int, path_index: int, component: int,
             purpose: int) -> tuple:
    """The Philox (key, counter) words of a stream address."""
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    key = [seed & _MASK64,
           ((purpose << 48) | (component & 0xFFFFFFFF)) & _MASK64]
    counter = [0, 0, path_index & _MASK64, path_index >> 64]
    return key, counter


def stream(seed: int, path_index: int, component: int = 0,
           purpose: int = 0) -> np.random.Generator:
    """Open the generator addressed by (seed, path_index, component, purpose)."""
    key, counter = _address(seed, path_index, component, purpose)
    return np.random.Generator(np.random.Philox(
        key=np.array(key, dtype=np.uint64),
        counter=np.array(counter, dtype=np.uint64)))


class StreamOpener:
    """One reusable Philox generator, re-addressed for every stream.

    ``opener(seed, path_index, component, purpose)`` puts the generator in
    the state a fresh :func:`stream` of that address starts in and returns
    it, so the draws are the same bit for bit.  Every call re-addresses
    the same generator: finish drawing from one stream before opening the
    next.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)

    def __call__(self, seed: int, path_index: int, component: int = 0,
                 purpose: int = 0) -> np.random.Generator:
        key, counter = _address(seed, path_index, component, purpose)
        # the state of a freshly constructed Philox: empty output buffer
        self._bits.state = {"bit_generator": "Philox",
                            "state": {"counter": counter, "key": key},
                            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
        return self._gen
