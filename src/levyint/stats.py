"""Streaming moment accumulation with a deterministic reduction order.

Monte Carlo estimates are accumulated per fixed-size chunk of paths and
the chunk accumulators are merged along a fixed pairwise tree.  Chunk
boundaries depend only on path indices, never on scheduling, so the final
float results are bit-identical no matter how the chunks were computed or
distributed.

Within a chunk, the statistic is computed a block of paths at a time:
:func:`accumulate_paths` hands the statistic callable a ``range`` of at
most ``BLOCK_PATHS`` consecutive path indices, which never straddles a
chunk boundary, and stores the ``(n, n_stats)`` rows it returns in path
order.  Each row depends only on its own path, so blocking changes no
row and no chunk, and the reduction is the same as for one path at a
time.  The exact checks walk the same ranges (:func:`path_blocks`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK_SIZE = 4096

# Paths per statistic call.  A block's per-node arrays are padded to its
# longest grid, so the bound that matters is padded cells per block: an
# operator-valued per-node array on 6 modes and 4 dimensions takes 192 B per
# node, and 16 paths of the longest grids met in practice (about 400 nodes)
# keep it near 1.2 MB.  Larger blocks measured no faster.
BLOCK_PATHS = 16


@dataclass
class MomentAccumulator:
    """Count, mean and centered second moment of a vector statistic."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MomentAccumulator":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be (n, n_stats)")
        mean = samples.mean(axis=0)
        m2 = np.einsum("ij,ij->j", samples - mean, samples - mean)
        return cls(samples.shape[0], mean, m2)

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return MomentAccumulator(n, mean, m2)

    @property
    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.m2)
        return self.m2 / (self.count - 1)

    @property
    def se(self) -> np.ndarray:
        """Standard error of the mean."""
        return np.sqrt(self.variance / max(self.count, 1))


def pairwise_merge(accumulators) -> MomentAccumulator:
    """Merge accumulators along a fixed pairwise tree (order-independent)."""
    accs = list(accumulators)
    if not accs:
        raise ValueError("nothing to merge")
    while len(accs) > 1:
        merged = []
        for i in range(0, len(accs) - 1, 2):
            merged.append(accs[i].merge(accs[i + 1]))
        if len(accs) % 2:
            merged.append(accs[-1])
        accs = merged
    return accs[0]


def path_blocks(n_paths: int, chunk_size: int = CHUNK_SIZE):
    """Per chunk of ``chunk_size`` path indices, the ranges a statistic sees.

    Each range holds at most ``BLOCK_PATHS`` consecutive indices and never
    straddles a chunk boundary.
    """
    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        yield [range(lo, min(lo + BLOCK_PATHS, stop))
               for lo in range(start, stop, BLOCK_PATHS)]


def accumulate_paths(n_paths: int, stat_fn, n_stats: int,
                     chunk_size: int = CHUNK_SIZE) -> MomentAccumulator:
    """Evaluate ``stat_fn(paths) -> (len(paths), n_stats)`` over all paths.

    ``paths`` is a range of :func:`path_blocks`.  Chunking is by path
    index with a fixed chunk size, so the reduction tree, and therefore
    every output bit, is independent of how the work is scheduled.
    """
    accs = []
    for blocks in path_blocks(n_paths, chunk_size):
        start = blocks[0].start
        buf = np.empty((blocks[-1].stop - start, n_stats))
        for paths in blocks:
            buf[paths.start - start:paths.stop - start] = stat_fn(paths)
        accs.append(MomentAccumulator.from_samples(buf))
    return pairwise_merge(accs)
