"""Streaming moment accumulation with a deterministic reduction order.

Monte Carlo estimates are accumulated per fixed-size chunk of paths and
the chunk accumulators are merged along a fixed pairwise tree.  Chunk
boundaries depend only on path indices, never on scheduling, so the final
float results are bit-identical no matter how the chunks were computed or
distributed.

Within a chunk, the statistic is computed a block of paths at a time:
:func:`accumulate_paths` hands the statistic callable a ``range`` of at
most ``width`` consecutive path indices, which never straddles a chunk
boundary, and concatenates the rows it returns in path order; the row
length is the number of statistics.  Each row depends only on its own
path, so blocking changes no row and no chunk, and the reduction is the
same as for one path at a time.  The width is :func:`block_paths` of the
grid nodes a path is expected to hold, so a block holds about
``BLOCK_CELLS`` cells whatever the scenario.

The two drivers of :mod:`levyint.checks` are the callers: the statistical
driver hands :func:`accumulate_paths` a callable that samples the range
as one block and lays out its rows, and the exact driver walks the same
ranges (:func:`path_blocks`) and reduces its rows to their maximum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK_SIZE = 4096

# Grid cells per statistic call.  Per-block work is mostly a fixed number
# of numpy calls, so wider blocks cost less per path; the cell budget bounds
# the per-node arrays, which take 192 B per node for an operator on 6 modes
# and 4 dimensions, about 0.8 MB at 4096 cells.  The floor applies to
# jump-dense grids (about 300 nodes per path), where 4096-cell blocks of 13
# paths measured more calls per path than blocks of 16.
BLOCK_CELLS = 4096
MIN_BLOCK_PATHS = 16


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


def block_paths(expected_nodes: float) -> int:
    """Paths per block: ``BLOCK_CELLS`` cells, at least ``MIN_BLOCK_PATHS``."""
    return max(MIN_BLOCK_PATHS, int(BLOCK_CELLS // expected_nodes))


def path_blocks(n_paths: int, width: int, chunk_size: int = CHUNK_SIZE):
    """Per chunk of ``chunk_size`` path indices, the ranges a statistic sees.

    Each range holds at most ``width`` consecutive indices and never
    straddles a chunk boundary.
    """
    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        yield [range(lo, min(lo + width, stop))
               for lo in range(start, stop, width)]


def accumulate_paths(n_paths: int, stat_fn, width: int,
                     chunk_size: int = CHUNK_SIZE) -> MomentAccumulator:
    """Evaluate ``stat_fn(paths) -> (len(paths), n_stats)`` over all paths.

    ``paths`` is a range of :func:`path_blocks` of the given ``width``.
    Chunking is by path index with a fixed chunk size, so the reduction
    tree, and therefore every output bit, is independent of how the work
    is scheduled.
    """
    accs = [MomentAccumulator.from_samples(
                np.concatenate([stat_fn(paths) for paths in blocks]))
            for blocks in path_blocks(n_paths, width, chunk_size)]
    return pairwise_merge(accs)
