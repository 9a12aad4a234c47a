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
path, but not bit for bit on the block: rows are padded to the block's
longest grid, and a batched product may add in an order that depends on
the block's shape, so another width can move a row at rounding level
(widths of 2048 and 8192 cells moved report floats by up to about
1e-15).  For a fixed width the rows, and so every chunk and the
reduction, are bit-stable.  That is why the width depends only on the
path law: it is :func:`block_paths` of the grid nodes a path is expected
to hold, so a block holds about ``BLOCK_CELLS`` cells whatever the
scenario.

Several statistics share one walk over the blocks, each reading the
first paths of the walk: the callable returns one row array per
statistic, and each statistic gets its own accumulator per chunk and its
own merge, exactly those of a walk over its paths alone.
:func:`levyint.checks.run_suite` walks once per path law this way: its
callable samples each block once and hands it to every check that reads
it.  An accumulator also keeps the column maxima, which is all that the
exact checks reduce their rows to.
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
# The most bytes one per-node array of a block may take.  At the floor a
# block grows with the nodes a path is expected to hold, and wide spaces
# multiply the values per node: a 16-path block of configs/default.json at
# space.J 2048 holds about 130000 nodes of 8192 operator entries, 7.9 GiB.
# A check whose block would exceed this fails closed before it samples.
MAX_BLOCK_BYTES = 1 << 28


@dataclass
class MomentAccumulator:
    """Count, mean, centered second moment and maximum of a vector statistic.

    The maximum is NaN in a column that holds a NaN.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray
    peak: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MomentAccumulator":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be (n, n_stats)")
        mean = samples.mean(axis=0)
        m2 = np.einsum("ij,ij->j", samples - mean, samples - mean)
        return cls(samples.shape[0], mean, m2, samples.max(axis=0))

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return MomentAccumulator(n, mean, m2, np.maximum(self.peak, other.peak))

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
                     chunk_size: int = CHUNK_SIZE) -> tuple:
    """Accumulate the statistics that share a walk over all paths.

    ``stat_fn(paths)`` gets a range of :func:`path_blocks` of the given
    ``width`` and returns a tuple with one entry per statistic: the rows,
    (n, n_stats), of the first n paths of the range that the statistic
    reads, or None when it reads none of them.  The result is a tuple
    with one accumulator per statistic.  Chunking is by path index with a
    fixed chunk size, so the reduction tree, and therefore every output
    bit, is independent of how the work is scheduled.  A statistic that
    reads the first m paths gets the chunk accumulators and the tree of a
    walk over m paths: its rows alone make each of them.
    """
    chunks = []
    for blocks in path_blocks(n_paths, width, chunk_size):
        outs = [stat_fn(paths) for paths in blocks]
        chunks.append([MomentAccumulator.from_samples(np.concatenate(rows))
                       if rows else None for rows in
                       ([r for r in col if r is not None]
                        for col in zip(*outs))])
    if not chunks:
        raise ValueError("no paths to accumulate")
    return tuple(pairwise_merge(acc for acc in col if acc is not None)
                 for col in zip(*chunks))
