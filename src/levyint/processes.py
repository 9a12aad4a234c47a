"""Simulation of the driving noise.

A driver is a finite family of independent square-integrable martingales,
each normalized so its predictable bracket is t.  Every component is a
Brownian motion plus independent compensated Poisson terms; the
normalization ``sigma**2 + sum(a**2 * nu) == 1`` makes the family
standard, so brackets between distinct components vanish and every
isometry below holds without driver-dependent constants.

Sampling is event-driven: jump times are drawn first and inserted into
the scheduled grid as exact nodes, Brownian increments are then generated
per refined cell, and each cell subtracts the compensator ``a * nu * dt``.
Pathwise identities for piecewise-constant integrands are therefore exact
up to float rounding, not discretization error.

Parameters
----------
Grids store node times and a per-node kind flag (scheduled or jump).
A path is a grid and per-component increments over its cells, nothing
more: the jump draws are not kept, their times are the JUMP nodes and
their sizes are in the increments.  Cumulative values carry a leading
zero column so index k is the value at node k.

Assembled paths
---------------
A :class:`LevyPath` stores a U-valued path through its standard
components, the driver.  Its reference coordinates are their image under
Phi_lambda^-1, and :func:`project_standard` takes the path back through
Phi_lambda (both maps from :mod:`levyint.spaces`).

Blocks
------
:meth:`PathSampler.sample_block` samples several paths at once into a
:class:`PathBlock`, whose arrays carry a leading path axis.  Each row is
padded to the block's longest grid with nodes at the horizon: padding
cells have zero length and zero increments, so they add nothing to any
increment, cumulative sum or quadrature.  Only the random draws run path
by path, each from its own (seed, path, component, purpose) stream
opened through one reused generator (:class:`levyint.rng.StreamOpener`);
a path's bits are therefore the same whether it is sampled alone, with
:meth:`PathSampler.sample`, or in any block.  A block assembles, projects,
transports and views like a path, with the path axis in front.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import rng as _rng
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    GridMismatch,
    IndexOutOfRange,
    NonNormalizable,
    SpecMismatch,
    ZeroJumpSize,
    expect_number,
)
from .spaces import CovarianceSpec, phi_lambda_apply, phi_lambda_invert

SCHEDULED = 0
JUMP = 1
KIND_NAMES = ("scheduled", "jump")
# a replayed kind flag is one of KIND_NAMES or its index
_KIND_CODES = {key: code for code, name in enumerate(KIND_NAMES)
               for key in (name, code)}

# construction-time tolerance on the variance-rate normalization
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class StandardLevySpec:
    """One driver component: Brownian weight plus compensated jump terms.

    ``jumps`` is a tuple of (size, intensity) pairs.  The variance rate
    ``sigma**2 + sum(size**2 * intensity)`` must equal one; use
    :func:`make_standard_specs` to build normalized specs from presets.
    """

    sigma: float
    jumps: tuple = ()

    def __post_init__(self):
        for size, intensity in self.jumps:
            if size == 0.0:
                raise ZeroJumpSize("jump sizes must be nonzero")
            if intensity <= 0.0:
                raise NonNormalizable("jump intensities must be positive")
        rate = self.sigma ** 2 + sum(a * a * nu for a, nu in self.jumps)
        if abs(rate - 1.0) > NORMALIZATION_TOL:
            raise NonNormalizable(
                f"variance rate {rate!r} differs from 1 by more than "
                f"{NORMALIZATION_TOL:.0e}")


def _normalize_spec(sigma: float, jumps) -> StandardLevySpec:
    """Rescale jump intensities so the variance rate is exactly one."""
    try:
        jumps = [(float(a), float(nu)) for a, nu in jumps]
    except (TypeError, ValueError):
        raise ConfigInvalid("drivers entry key 'jumps' must be a list of "
                            "[size, intensity] number pairs")
    for a, _ in jumps:
        if a == 0.0:
            raise ZeroJumpSize("jump sizes must be nonzero")
    if sigma < 0:
        raise NonNormalizable("sigma must be nonnegative")
    budget = 1.0 - sigma * sigma
    if not jumps:
        if abs(budget) > NORMALIZATION_TOL:
            raise NonNormalizable(
                "a driver without jumps must have sigma == 1")
        return StandardLevySpec(sigma=float(sigma))
    if budget <= 0:
        raise NonNormalizable(
            "sigma leaves no variance budget for the requested jumps")
    mass = sum(a * a * nu for a, nu in jumps)
    if mass <= 0:
        raise NonNormalizable("jump terms carry no variance")
    scale = budget / mass
    return StandardLevySpec(
        sigma=float(sigma),
        jumps=tuple((a, nu * scale) for a, nu in jumps))


def _entry_number(entry: dict, key: str, default=None) -> float:
    return expect_number(entry.get(key, default),
                         f"drivers entry {entry!r} key {key!r}")


def spec_from_preset(entry) -> StandardLevySpec:
    """Build one normalized component spec from a preset description.

    Accepted forms: the string ``"brownian"``; mappings
    ``{"preset": "brownian"}``, ``{"preset": "poisson", "a": size}``,
    ``{"preset": "mixed", "sigma": s, "a": size}``; or an explicit
    ``{"sigma": s, "jumps": [[size, intensity], ...]}`` whose intensities
    are rescaled to meet the normalization.
    """
    if entry == "brownian":
        return StandardLevySpec(sigma=1.0)
    if not isinstance(entry, dict):
        raise NonNormalizable(f"unrecognized driver entry {entry!r}")
    if "preset" in entry:
        preset = entry["preset"]
        if preset == "brownian":
            return StandardLevySpec(sigma=1.0)
        if preset == "poisson":
            a = _entry_number(entry, "a")
            if a == 0.0:
                raise ZeroJumpSize("jump sizes must be nonzero")
            return StandardLevySpec(sigma=0.0, jumps=((a, 1.0 / (a * a)),))
        if preset == "mixed":
            sigma = _entry_number(entry, "sigma")
            a = _entry_number(entry, "a")
            if not 0 <= sigma < 1:
                raise NonNormalizable("mixed preset needs 0 <= sigma < 1")
            if a == 0.0:
                raise ZeroJumpSize("jump sizes must be nonzero")
            return StandardLevySpec(
                sigma=sigma, jumps=((a, (1.0 - sigma * sigma) / (a * a)),))
        raise NonNormalizable(f"unknown driver preset {preset!r}")
    return _normalize_spec(_entry_number(entry, "sigma", 0.0),
                           entry.get("jumps", ()))


def make_standard_specs(n: int, recipe) -> tuple:
    """Normalized specs for n components.

    ``recipe`` is a single preset applied to every index or a list of
    per-index presets (cycled when shorter than n).
    """
    if n < 1:
        raise DimensionMismatch("component count must be at least 1")
    if isinstance(recipe, (list, tuple)):
        if not recipe:
            raise NonNormalizable("driver recipe list is empty")
        return tuple(spec_from_preset(recipe[i % len(recipe)]) for i in range(n))
    return tuple(spec_from_preset(recipe) for _ in range(n))


@dataclass
class TimeGrid:
    """Strictly increasing node times from 0 to the horizon with kind flags.

    A block of paths stores one padded grid per row: ``times`` and ``kind``
    are then (n_paths, n_nodes), and node counts refer to the last axis.
    """

    times: np.ndarray                # (n_nodes,) or (n_paths, n_nodes)
    kind: np.ndarray                 # same shape, uint8, SCHEDULED or JUMP

    @property
    def n_nodes(self) -> int:
        return self.times.shape[-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    def node_at(self, t: float) -> int:
        """Index of the last node not after t (step-function semantics)."""
        if t < self.times[0] or t > self.times[-1]:
            raise IndexOutOfRange(f"time {t} outside [0, {self.horizon}]")
        return int(np.searchsorted(self.times, t, side="right") - 1)


def _cumulate(increments: np.ndarray) -> np.ndarray:
    """Running sums over the last (cell) axis, with a leading zero node."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


@dataclass
class SamplePath:
    """Realized driver components on a shared refined grid.

    ``increments[c, k]`` is the increment of component c over the cell
    ending at node k+1; a jump at a node belongs to the cell that ends
    there, and its time is a JUMP node of the grid.  The grid and the
    increments are the whole path: sampled, replayed and derived paths
    look alike.
    """

    grid: TimeGrid
    increments: np.ndarray           # (n_components, n_cells)

    @property
    def n_components(self) -> int:
        return self.increments.shape[0]

    @cached_property
    def cumulative(self) -> np.ndarray:
        return _cumulate(self.increments)


@dataclass
class PathBlock:
    """Paths sampled together, each padded to the block's longest grid.

    Row i holds the i-th sampled path: its grid is
    ``grid.times[i, :n_nodes[i]]`` and its increments are
    ``increments[i, :, :n_nodes[i] - 1]``.  Padding nodes repeat the
    horizon, so padding cells have zero length and zero increments: they
    add nothing to any increment, cumulative sum or quadrature, and every
    running value past a path's last node stays at its terminal value.
    """

    grid: TimeGrid                   # times, kind: (n_paths, n_nodes)
    increments: np.ndarray           # (n_paths, n_components, n_cells)
    n_nodes: np.ndarray              # (n_paths,) unpadded node counts

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_components(self) -> int:
        return self.increments.shape[1]

    @cached_property
    def cumulative(self) -> np.ndarray:
        """(n_paths, n_components, n_nodes); constant on padding nodes."""
        return _cumulate(self.increments)

    def node_at(self, t: float) -> np.ndarray:
        """Per path, the index of the last node not after t."""
        if t < 0.0 or t > self.grid.times[0, -1]:
            raise IndexOutOfRange(f"time {t} outside [0, "
                                  f"{self.grid.times[0, -1]}]")
        return np.count_nonzero(self.grid.times <= t, axis=1) - 1

    def path(self, i: int) -> SamplePath:
        """Row i as an unpadded path."""
        n = int(self.n_nodes[i])
        grid = TimeGrid(self.grid.times[i, :n], self.grid.kind[i, :n])
        return SamplePath(grid, self.increments[i, :, :n - 1])


@dataclass(frozen=True)
class PathSampler:
    """Reusable sampler: fixed driver specs, horizon and scheduled grid.

    ``extra_times`` are deterministic refinement nodes; they join the
    scheduled grid so pathwise identities at those times are exact
    (:func:`levyint.scenarios.make_sampler` passes a simple integrand's
    breakpoints).

    :meth:`sample` and :meth:`sample_block` share one draw routine, and
    each path draws from its own (seed, path, component, purpose) streams,
    so a path is the same bit for bit whichever way, in whichever block,
    it is sampled.  The sampler opens those streams through the one
    :class:`levyint.rng.StreamOpener` it owns.
    """

    specs: tuple
    horizon: float
    n_scheduled: int
    extra_times: tuple = ()
    _base_times: np.ndarray = field(init=False, repr=False, compare=False)
    _opener: _rng.StreamOpener = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_scheduled < 1:
            raise DimensionMismatch("n_scheduled must be at least 1")
        if not self.horizon > 0:
            raise DimensionMismatch("horizon must be positive")
        base = np.linspace(0.0, self.horizon, self.n_scheduled + 1)
        if self.extra_times:
            extra = np.asarray(self.extra_times, dtype=float)
            if np.any(extra < 0) or np.any(extra > self.horizon):
                raise DimensionMismatch("extra_times must lie in [0, horizon]")
            base = np.unique(np.concatenate([base, extra]))
        base.setflags(write=False)
        object.__setattr__(self, "_base_times", base)
        object.__setattr__(self, "_opener", _rng.StreamOpener())
        object.__setattr__(self, "specs", tuple(self.specs))

    def sample(self, seed: int, path_index: int) -> SamplePath:
        return self.sample_block(seed, (path_index,)).path(0)

    def sample_block(self, seed: int, indices) -> PathBlock:
        """Sample the paths ``indices`` of the seeded family as one block.

        Row i of the block is path ``indices[i]``.

        Per path, each jump component draws a Poisson count and uniform
        times per jump term from its JUMPS stream, and each component with
        a Brownian part draws one normal per cell of the path's own
        refined grid from its BROWNIAN stream.  Everything else (merging
        the jump times into the grids, increments, compensators, jump
        attribution) runs once for the whole block.
        """
        indices = tuple(indices)
        opener = self._opener
        horizon = self.horizon
        base = self._base_times
        n_paths = len(indices)

        fired = []                   # (row, component, size, times)
        for row, p in enumerate(indices):
            for c, spec in enumerate(self.specs):
                if not spec.jumps:
                    continue
                gen = opener(seed, p, c, _rng.JUMPS)
                for size, intensity in spec.jumps:
                    count = int(gen.poisson(intensity * horizon))
                    if count:
                        fired.append((row, c, size,
                                      gen.uniform(0.0, horizon, count)))

        # merge each path's jump times into the scheduled grid: one row per
        # path, sorted, equal times collapsed to one node, padded with inf
        width = [base.size] * n_paths
        for row, _, _, times in fired:
            width[row] += times.size
        merged = np.full((n_paths, max(width)), np.inf)
        merged[:, :base.size] = base
        term = np.full(merged.shape, -1)        # which fired term, or -1
        col = [base.size] * n_paths
        for k, (row, _, _, times) in enumerate(fired):
            merged[row, col[row]:col[row] + times.size] = times
            term[row, col[row]:col[row] + times.size] = k
            col[row] += times.size
        # a uniform draw of exactly 0.0 is not a jump: it sorts last
        drawn = merged[:, base.size:]
        drawn[drawn == 0.0] = np.inf
        # stable, so equal times keep the draw order of their terms
        order = np.argsort(merged, axis=1, kind="stable")
        by_row = np.arange(n_paths)[:, None]
        ordered = merged[by_row, order]
        fresh = np.ones(ordered.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=fresh[:, 1:])
        node = np.cumsum(fresh, axis=1) - 1
        real = ordered < np.inf
        n_nodes = np.count_nonzero(fresh & real, axis=1)
        times = np.full((n_paths, int(n_nodes.max())), horizon)
        # the inf entries land on the horizon: the last real node or padding
        times[by_row, np.minimum(node, times.shape[1] - 1)] = np.where(
            real, ordered, horizon)
        kind = np.zeros(times.shape, dtype=np.uint8)
        if fired:
            term = term[by_row, order]
            ev_row, cols = np.nonzero(real & (term >= 0))
            term = term[ev_row, cols]
            ev_node = node[ev_row, cols]
            kind[ev_row, ev_node] = JUMP
            ev_comp = np.array([c for _, c, _, _ in fired])[term]
            ev_size = np.array([float(s) for _, _, s, _ in fired])[term]
        grid = TimeGrid(times, kind)
        dt = grid.dt

        inc = np.zeros((n_paths, len(self.specs), dt.shape[1]))
        if any(spec.sigma != 0.0 for spec in self.specs):
            sqrt_dt = np.sqrt(dt)
            normals = np.zeros(dt.shape)     # zero on padding cells
            for c, spec in enumerate(self.specs):
                if spec.sigma == 0.0:
                    continue
                for row, p in enumerate(indices):
                    opener(seed, p, c, _rng.BROWNIAN).standard_normal(
                        out=normals[row, :n_nodes[row] - 1])
                np.multiply(spec.sigma, sqrt_dt, out=inc[:, c])
                inc[:, c] *= normals
        for c, spec in enumerate(self.specs):
            for size, intensity in spec.jumps:
                inc[:, c] -= size * intensity * dt
        if fired:
            # in time order, and equal times in term order, as drawn
            np.add.at(inc, (ev_row, ev_comp, ev_node - 1), ev_size)
        return PathBlock(grid, inc, n_nodes)


def replay_path(times, increments, kinds=None) -> SamplePath:
    """Rebuild a driver path from recorded node times and increments.

    Accepts kind flags as the names in KIND_NAMES or their indices; without
    them every node counts as scheduled.  A replayed path is its grid and
    increments, like a sampled one.
    """
    try:
        times = np.asarray(times, dtype=float)
        increments = np.atleast_2d(np.asarray(increments, dtype=float))
    except (TypeError, ValueError) as exc:
        raise GridMismatch(f"replay times and increments must be numbers "
                           f"({exc})")
    if times.ndim != 1 or times.size < 2:
        raise GridMismatch("replay needs at least two node times")
    if times[0] != 0.0 or not np.all(np.diff(times) > 0):
        raise GridMismatch("replay times must increase strictly from 0")
    if increments.shape[1] != times.size - 1:
        raise GridMismatch(
            f"replay increments have {increments.shape[1]} cells for "
            f"{times.size - 1} grid cells")
    if kinds is None:
        kind = np.zeros(times.size, dtype=np.uint8)
    else:
        try:
            kind = np.array([_KIND_CODES[k] for k in kinds], dtype=np.uint8)
        except (KeyError, TypeError):
            raise GridMismatch(f"replay kinds must be names in {KIND_NAMES} "
                               f"or their indices, got {kinds!r}")
        if kind.size != times.size:
            raise GridMismatch("replay kinds must match node count")
    return SamplePath(TimeGrid(times, kind), increments)


@dataclass
class LevyPath:
    """A spectrally assembled path with values in U, or a block of them.

    The path is stored through its standard components, the driver (a
    :class:`SamplePath` or a :class:`PathBlock`): component j scaled by
    ``sqrt(eigenvalues[j])`` rides the j-th unit eigenvector, which is
    Phi_lambda^-1; :func:`project_standard` goes back through Phi_lambda.
    """

    spec: CovarianceSpec
    driver: SamplePath

    def __post_init__(self):
        if self.driver.n_components != self.spec.n_modes:
            raise DimensionMismatch(
                f"driver has {self.driver.n_components} components, "
                f"spec has {self.spec.n_modes} modes")

    @property
    def grid(self) -> TimeGrid:
        return self.driver.grid

    @cached_property
    def coords(self) -> np.ndarray:
        """Reference coordinates in U at every node, shape (dim_u, n_nodes)."""
        return phi_lambda_invert(self.spec, self.driver.cumulative)


def assemble_levy(spec: CovarianceSpec, driver: SamplePath) -> LevyPath:
    """Assemble the U-valued path carried by a driver under a covariance spec."""
    return LevyPath(spec, driver)


def project_standard(path: LevyPath) -> np.ndarray:
    """Increments of all standard components of an assembled path or block.

    Phi_lambda of its reference-coordinate increments; with the identity
    basis, the stored driver increments themselves.
    """
    if path.spec.identity_basis:
        return path.driver.increments
    return phi_lambda_apply(path.spec, phi_lambda_invert(
        path.spec, path.driver.increments))


def coordinate_view(path: LevyPath):
    """Reference-coordinate increments of the assembled path or block.

    Packages the U coordinates as a plain component path, of the driver's
    kind (a :class:`SamplePath` or a :class:`PathBlock` on the same
    grid), so adapted integrand evaluators can consume the observable
    path itself rather than a specific spectral decomposition of it.
    """
    return replace(path.driver, increments=phi_lambda_invert(
        path.spec, path.driver.increments))


def transport_levy(path: LevyPath, iso) -> LevyPath:
    """Carry a path, or a block of paths, through a weighted-sequence isometry.

    The transported path lives in the target weighted picture (identity
    eigenbasis, target eigenvalue order) on the same grid, and its driver
    is of the source driver's kind.  Because the isometry is supported on
    equal-eigenvalue blocks, the standard components of the image are
    plain orthogonal mixes of the source components: its increments are
    ``coord_map @ increments``.
    """
    if not np.array_equal(iso.source_eigenvalues, path.spec.eigenvalues):
        raise SpecMismatch("isometry source does not match the path spec")
    target = CovarianceSpec(iso.target_eigenvalues,
                            np.eye(iso.target_eigenvalues.size),
                            path.spec.tail_mass)
    return LevyPath(target, replace(
        path.driver, increments=iso.coord_map @ path.driver.increments))
