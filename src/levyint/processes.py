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

Paths
-----
There is one path type, :class:`PathBlock`: paths sampled together, with
a leading path axis on every array.  A single path is a block of one:
:meth:`PathSampler.sample` and :func:`replay_path` return one, and the
integral layers return one row per path of whatever block they are given.
Grids store node times and a per-node kind flag (scheduled or jump).  A
path is a grid and per-component increments over its cells, nothing more:
the jump draws are not kept, their times are the JUMP nodes and their
sizes are in the increments.  Cumulative values carry a leading zero
column so index k is the value at node k; they are a transposed view of
the node inputs, node-major rows of a one and every component's value,
so that one cumsum serves both.

Each row of a block is padded to the block's longest grid with nodes at
the horizon: padding cells have zero length and zero increments, so they
add nothing to any increment, cumulative sum or quadrature.  Sampling a
block is a fixed number of array operations, whatever its size: every
draw is a counter-based word addressed by (seed, path, component,
purpose, draw index), as :mod:`levyint.rng` lays out, so each kind of
draw (jump counts, jump times, normals) is one hash over the block's
addresses.  A path's bits are therefore the same whether it is sampled
alone or in any block, and :meth:`PathBlock.head` cuts a block's first
paths to the block that sampling them alone gives.  Several checks read
one sampled block, so its arrays are read-only.

Assembled paths
---------------
A :class:`LevyPath` stores a U-valued block through its standard
components, the driver.  Its reference coordinates are their image under
Phi_lambda^-1, and :func:`project_standard` takes the path back through
Phi_lambda (both maps from :mod:`levyint.spaces`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .errors import ConfigInvalid, LevyintError, expect_number
from .spaces import CovarianceSpec, phi_lambda_apply, phi_lambda_invert

SCHEDULED = 0
JUMP = 1
KIND_NAMES = ("scheduled", "jump")
# a replayed kind flag is one of KIND_NAMES or its index
_KIND_CODES = {key: code for code, name in enumerate(KIND_NAMES)
               for key in (name, code)}

# construction-time tolerance on the variance-rate normalization
NORMALIZATION_TOL = 1e-12
# most jumps one jump term may expect per path; a block holds its jumps
MAX_MEAN_JUMPS = 1e5


@dataclass(frozen=True)
class StandardLevySpec:
    """One driver component: Brownian weight plus compensated jump terms.

    ``jumps`` is a tuple of (size, intensity) pairs.  The variance rate
    ``sigma**2 + sum(size**2 * intensity)`` must equal one; use
    :func:`normalize_drivers` to build normalized specs from a recipe of
    presets, each of which goes through :func:`_normalize_spec`.
    """

    sigma: float
    jumps: tuple = ()

    def __post_init__(self):
        for size, intensity in self.jumps:
            if size == 0.0:
                raise ConfigInvalid("jump sizes must be nonzero")
            if not 0.0 < intensity < math.inf:
                raise ConfigInvalid("jump intensities must be positive "
                                    "and finite")
        rate = self.sigma ** 2 + sum(a * a * nu for a, nu in self.jumps)
        if not abs(rate - 1.0) <= NORMALIZATION_TOL:
            raise ConfigInvalid(
                f"variance rate {rate!r} differs from 1 by more than "
                f"{NORMALIZATION_TOL:.0e}")


def _normalize_spec(sigma: float, jumps) -> StandardLevySpec:
    """Rescale jump intensities so the variance rate is exactly one."""
    try:
        jumps = [(float(a), float(nu)) for a, nu in jumps]
        finite = all(map(math.isfinite, sum(jumps, ())))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigInvalid("drivers entry key 'jumps' must be a list of "
                            "[size, intensity] pairs of finite numbers")
    for a, _ in jumps:
        if a == 0.0:
            raise ConfigInvalid("jump sizes must be nonzero")
    if sigma < 0:
        raise ConfigInvalid("sigma must be nonnegative")
    budget = 1.0 - sigma * sigma
    if not jumps:
        if abs(budget) > NORMALIZATION_TOL:
            raise ConfigInvalid(
                "a driver without jumps must have sigma == 1")
        return StandardLevySpec(sigma=float(sigma))
    if budget <= 0:
        raise ConfigInvalid(
            "sigma leaves no variance budget for the requested jumps")
    mass = sum(a * a * nu for a, nu in jumps)
    if mass <= 0:
        raise ConfigInvalid("jump terms carry no variance")
    scale = budget / mass
    return StandardLevySpec(
        sigma=float(sigma),
        jumps=tuple((a, nu * scale) for a, nu in jumps))


def _entry_number(entry: dict, key: str, default=None) -> float:
    where = f"drivers entry {entry!r} key {key!r}"
    value = expect_number(entry.get(key, default), where)
    if not math.isfinite(value):
        raise ConfigInvalid(f"{where} must be finite, got {value!r}")
    return value


def spec_from_preset(entry) -> StandardLevySpec:
    """Build one normalized component spec from a preset description.

    Accepted forms: the string ``"brownian"``; mappings
    ``{"preset": "brownian"}``, ``{"preset": "poisson", "a": size}``,
    ``{"preset": "mixed", "sigma": s, "a": size}``; or an explicit
    ``{"sigma": s, "jumps": [[size, intensity], ...]}``.  A preset is one
    jump term of unit intensity, and every form goes through
    :func:`_normalize_spec`, which rescales the intensities to meet the
    normalization.  :func:`normalize_drivers` normalizes a whole recipe.
    """
    if entry == "brownian":
        return _normalize_spec(1.0, ())
    if not isinstance(entry, dict):
        raise ConfigInvalid(f"unrecognized driver entry {entry!r}")
    if "preset" not in entry:
        return _normalize_spec(_entry_number(entry, "sigma", 0.0),
                               entry.get("jumps", ()))
    preset = entry["preset"]
    if preset == "brownian":
        return _normalize_spec(1.0, ())
    if preset == "poisson":
        return _normalize_spec(0.0, ((_entry_number(entry, "a"), 1.0),))
    if preset == "mixed":
        return _normalize_spec(_entry_number(entry, "sigma"),
                               ((_entry_number(entry, "a"), 1.0),))
    raise ConfigInvalid(f"unknown driver preset {preset!r}")


def normalize_drivers(recipe) -> tuple:
    """The normalized specs of a recipe, a preset or a list of presets,
    one per entry; an error names its entry, ``drivers[i]`` (``drivers``
    for a lone preset)."""
    if isinstance(recipe, (list, tuple)):
        if not recipe:
            raise ConfigInvalid("drivers: the recipe list is empty")
        entries = [(f"drivers[{i}]", e) for i, e in enumerate(recipe)]
    else:
        entries = [("drivers", recipe)]
    specs = []
    for where, entry in entries:
        try:
            specs.append(spec_from_preset(entry))
        except LevyintError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    return tuple(specs)


@dataclass
class TimeGrid:
    """Per path, strictly increasing node times from 0 to the horizon with
    kind flags: ``times`` and ``kind`` are (n_paths, n_nodes), one padded
    row per path of a block, and node counts refer to the last axis.
    """

    times: np.ndarray                # (n_paths, n_nodes)
    kind: np.ndarray                 # same shape, uint8, SCHEDULED or JUMP

    @property
    def n_nodes(self) -> int:
        return self.times.shape[-1]

    @cached_property
    def dt(self) -> np.ndarray:
        return _frozen(np.diff(self.times))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` marked read-only, so that no reader can change it for another."""
    a.setflags(write=False)
    return a


def _node_inputs(increments: np.ndarray) -> np.ndarray:
    """A one, then every component's running sum, at every node.

    (..., n_nodes, 1 + n_components) from (..., n_components, n_cells) by
    one cumsum over the cells; the first node holds a one and zeros.
    """
    shape = increments.shape
    out = np.empty(shape[:-2] + (shape[-1] + 1, shape[-2] + 1))
    out[..., 0] = 1.0
    out[..., 0, 1:] = 0.0
    increments.mT.cumsum(axis=-2, out=out[..., 1:, 1:])
    return out


@dataclass
class PathBlock:
    """A block of paths, each padded to the block's longest grid; a single
    path is a block of one.

    Row i holds the i-th path: its grid is
    ``grid.times[i, :n_nodes[i]]`` and its increments are
    ``increments[i, :, :n_nodes[i] - 1]``, where ``increments[i, c, k]``
    is the increment of component c over the cell ending at node k + 1;
    a jump at a node belongs to the cell that ends there, and its time is
    a JUMP node of the grid.  Padding nodes repeat the horizon, so padding
    cells have zero length and zero increments: they add nothing to any
    increment, cumulative sum or quadrature, and every running value past
    a path's last node stays at its terminal value.

    A sampled block is read by every check on its path law, so its arrays,
    and the ``dt``, ``node_inputs`` and ``cumulative`` derived from them,
    are read-only.
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
    def node_inputs(self) -> np.ndarray:
        """(n_paths, n_nodes, 1 + n_components): at node k a one, then the
        value of every component; the affine evaluators contract it at
        once."""
        return _frozen(_node_inputs(self.increments))

    @cached_property
    def cumulative(self) -> np.ndarray:
        """(n_paths, n_components, n_nodes); constant on padding nodes.

        A transposed view of ``node_inputs``.
        """
        return self.node_inputs[..., 1:].mT

    def head(self, n: int) -> "PathBlock":
        """The first n rows, with the padding past their longest grid cut.

        It is bit for bit the block that sampling those n paths gives:
        rows do not depend on the block they are sampled in, and padding
        cells are zero.  A copy, laid out as a sampled block is.
        """
        if n >= self.n_paths:
            return self
        width = int(self.n_nodes[:n].max())
        times = self.grid.times[:n, :width].copy()
        kind = self.grid.kind[:n, :width].copy()
        return PathBlock(TimeGrid(_frozen(times), _frozen(kind)),
                         _frozen(self.increments[:n, :, :width - 1].copy()),
                         _frozen(self.n_nodes[:n].copy()))

    def node_at(self, t: float) -> np.ndarray:
        """Per path, the index of the last node not after t."""
        if t < 0.0 or t > self.grid.times[0, -1]:
            raise LevyintError(f"time {t} outside [0, "
                               f"{self.grid.times[0, -1]}]")
        return np.count_nonzero(self.grid.times <= t, axis=1) - 1


# ``perfbench/layers.py`` wraps ``SamplePath.cumulative`` by this name; only
# a change to the benchmark may retarget it to ``PathBlock.cumulative``.
SamplePath = PathBlock


def scheduled_nodes(horizon: float, n_scheduled: int,
                    extra_times=()) -> np.ndarray:
    """The nodes every path holds: ``n_scheduled`` equal cells on [0,
    horizon], refined by the deterministic ``extra_times``.  Read-only."""
    if n_scheduled < 1:
        raise LevyintError("n_scheduled must be at least 1")
    if not horizon > 0:
        raise LevyintError("horizon must be positive")
    base = np.linspace(0.0, horizon, n_scheduled + 1)
    if extra_times:
        extra = np.asarray(extra_times, dtype=float)
        if np.any(extra < 0) or np.any(extra > horizon):
            raise LevyintError("extra_times must lie in [0, horizon]")
        base = np.array(sorted(set(base.tolist() + extra.tolist())))
    return _frozen(base)


class _Plan(NamedTuple):
    """What a sampler draws, fixed when it is built.

    Jump terms are listed in (component, spec) order; a term's draws start
    at index ``t << 32`` of its component's JUMPS address, where t is its
    position among that component's terms.
    """

    term_comp: np.ndarray            # component of each term
    term_first: np.ndarray           # uint64 first draw index of each term
    term_size: np.ndarray
    poisson: _rng.PoissonTable       # counts at each term's mean nu * horizon
    brown: list                      # components with a Brownian part
    sigma: np.ndarray                # (len(brown), 1) their weights
    drift: np.ndarray                # (n_components, 1) compensator rates


@dataclass(frozen=True)
class PathSampler:
    """Reusable sampler: fixed driver specs, horizon and scheduled grid.

    ``extra_times`` are deterministic refinement nodes; they join the
    scheduled grid so pathwise identities at those times are exact
    (:func:`levyint.scenarios.make_sampler` passes a simple integrand's
    breakpoints).

    :meth:`sample` is :meth:`sample_block` on a block of one.  Every draw
    is addressed by (seed, path, component, purpose, draw index) as
    :mod:`levyint.rng` lays out, so a path is the same bit for bit
    whichever way, in whichever block, it is sampled.  The jump terms and
    their Poisson inverse CDFs are tabulated once, when the sampler is
    built.
    """

    specs: tuple
    horizon: float
    n_scheduled: int
    extra_times: tuple = ()
    _base_times: np.ndarray = field(init=False, repr=False, compare=False)
    _plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        specs = tuple(self.specs)
        object.__setattr__(self, "_base_times", scheduled_nodes(
            self.horizon, self.n_scheduled, self.extra_times))
        object.__setattr__(self, "specs", specs)
        comp, first, size, mean = np.array(
            [(c, t << 32, a, nu * self.horizon) for c, s in enumerate(specs)
             for t, (a, nu) in enumerate(s.jumps)]).reshape(-1, 4).T
        if mean.size and not mean.max() <= MAX_MEAN_JUMPS:
            raise ConfigInvalid(
                f"a jump term expects {mean.max():.3g} jumps per path "
                f"(intensity times space.T); drivers and space.T allow at "
                f"most {MAX_MEAN_JUMPS:.0e}")
        distinct = len(set(mean.tolist()))
        if distinct > _rng.MAX_POISSON_MEANS:
            raise ConfigInvalid(
                f"drivers give {distinct} jump terms with distinct expected "
                f"counts (intensity times space.T); at most "
                f"{_rng.MAX_POISSON_MEANS} are supported")
        brown = [c for c, s in enumerate(specs) if s.sigma != 0.0]
        object.__setattr__(self, "_plan", _Plan(
            comp.astype(np.intp), first.astype(np.uint64), size,
            _rng.PoissonTable(mean), brown,
            np.array([specs[c].sigma for c in brown])[:, None],
            np.array([sum(a * nu for a, nu in s.jumps)
                      for s in specs])[:, None]))

    @property
    def expected_nodes(self) -> float:
        """Mean nodes per path: the scheduled grid with its extra times,
        plus ``nu * horizon`` jump nodes per jump term."""
        rate = sum(nu for s in self.specs for _, nu in s.jumps)
        return self._base_times.size + rate * self.horizon

    def sample(self, seed: int, path_index: int) -> PathBlock:
        """Path ``path_index`` of the seeded family, as a block of one."""
        return self.sample_block(seed, (path_index,))

    def sample_block(self, seed: int, indices) -> PathBlock:
        """Sample the paths ``indices`` of the seeded family as one block.

        Row i of the block is path ``indices[i]``.  Every step is an array
        operation over the whole block.  Each jump term draws a Poisson
        count and that many uniform jump times from its component's JUMPS
        address; the times are merged into the scheduled grid, one padded
        row per path, and equal times collapse to one JUMP node.  Each
        component with a Brownian part then draws one normal per cell of
        the padded grid from its BROWNIAN address (padding cells draw, but
        their zero length zeroes them), each cell subtracts the
        compensator ``a * nu * dt``, and each jump adds its size to the
        cell that ends at its node.
        """
        plan = self._plan
        horizon = self.horizon
        base = self._base_times
        paths = np.asarray(indices)
        n_paths = paths.size
        n_terms = plan.term_comp.size

        total = 0
        if n_terms:
            # one count word per (path, term), then the jump times
            key = _rng.keys(seed, _rng.JUMPS, plan.term_comp, paths)
            counts = plan.poisson.counts(_rng.words(key, plan.term_first))
            per_row = counts.sum(axis=1)
            total = int(per_row.sum())
        width = base.size + (int(per_row.max()) if total else 0)
        merged = np.full((n_paths, width), np.inf)
        merged[:, :base.size] = base
        if total:
            slot = np.repeat(np.arange(counts.size), counts.ravel())
            k = np.arange(total) - (np.cumsum(counts) - counts.ravel())[slot]
            row, term = np.divmod(slot, n_terms)
            drawn = horizon * _rng.uniforms(_rng.words(
                key.ravel()[slot],
                plan.term_first[term] + (k + 1).astype(np.uint64)))
            # the jumps of a row follow its scheduled nodes, as drawn; a
            # uniform of exactly 0.0 is not a jump, its inf sorts last
            at = (row * width + base.size + np.arange(total)
                  - (np.cumsum(per_row) - per_row)[row])
            real = drawn > 0.0
            merged.ravel()[at] = np.where(real, drawn, np.inf)
        # sort each row and number its distinct times: the node of an entry
        # depends only on its value, so ties may sort either way
        flat = (np.argsort(merged, axis=1)
                + np.arange(0, merged.size, width)[:, None])
        ordered = merged.ravel()[flat]
        fresh = np.ones(ordered.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=fresh[:, 1:])
        node = np.cumsum(fresh, axis=1) - 1
        n_nodes = np.count_nonzero(fresh & (ordered < np.inf), axis=1)
        times = np.full((n_paths, int(n_nodes.max())), horizon)
        by_row = np.arange(n_paths)[:, None]
        # an inf entry lands on the horizon: the last real node or padding
        times[by_row, np.minimum(node, times.shape[1] - 1)] = np.minimum(
            ordered, horizon)
        kind = np.zeros(times.shape, dtype=np.uint8)
        if total:
            node_of = np.empty(merged.size, dtype=np.intp)
            node_of[flat] = node
            row, term, ev_node = row[real], term[real], node_of[at[real]]
            kind[row, ev_node] = JUMP
        grid = TimeGrid(_frozen(times), _frozen(kind))
        dt = grid.dt

        inc = np.zeros((n_paths, len(self.specs), dt.shape[1]))
        if plan.brown:
            # normals of cells 2i and 2i + 1 from draw i
            pairs = np.arange((dt.shape[1] + 1) // 2, dtype=np.uint64)
            key = _rng.keys(seed, _rng.BROWNIAN, plan.brown, paths)
            normals = _rng.normal_pairs(_rng.words(key[:, :, None], pairs))
            normals = normals.reshape(n_paths, len(plan.brown), -1)
            inc[:, plan.brown] = (plan.sigma * np.sqrt(dt)[:, None]
                                  * normals[..., :dt.shape[1]])
        inc -= plan.drift * dt[:, None]
        if total:
            # each jump adds its size to the cell that ends at its node;
            # jumps at one node add up in draw order
            cell = ((row * len(self.specs) + plan.term_comp[term])
                    * dt.shape[1] + ev_node - 1)
            inc += np.bincount(cell, plan.term_size[term],
                               minlength=inc.size).reshape(inc.shape)
        return PathBlock(grid, _frozen(inc), _frozen(n_nodes))


def replay_path(times, increments, kinds=None) -> PathBlock:
    """Rebuild a driver path from recorded node times and increments.

    Accepts kind flags as the names in KIND_NAMES or their indices; without
    them every node counts as scheduled.  A replayed path is a block of
    one, its grid and increments, like a sampled one.
    """
    try:
        times = np.asarray(times, dtype=float)
        increments = np.atleast_2d(np.asarray(increments, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"replay times and increments must be numbers "
                            f"({exc})")
    if times.ndim != 1 or times.size < 2:
        raise ConfigInvalid("replay needs at least two node times")
    if times[0] != 0.0 or not np.all(np.diff(times) > 0):
        raise ConfigInvalid("replay times must increase strictly from 0")
    if increments.shape[1] != times.size - 1:
        raise ConfigInvalid(
            f"replay increments have {increments.shape[1]} cells for "
            f"{times.size - 1} grid cells")
    if not np.all(np.isfinite(increments)):
        raise ConfigInvalid("replay increments must be finite")
    if kinds is None:
        kind = np.zeros(times.size, dtype=np.uint8)
    else:
        try:
            kind = np.array([_KIND_CODES[k] for k in kinds], dtype=np.uint8)
        except (KeyError, TypeError):
            raise ConfigInvalid(f"replay kinds must be names in {KIND_NAMES} "
                                f"or their indices, got {kinds!r}")
        if kind.size != times.size:
            raise ConfigInvalid("replay kinds must match node count")
    return PathBlock(TimeGrid(times[None], kind[None]), increments[None],
                     np.array([times.size]))


@dataclass
class LevyPath:
    """A block of spectrally assembled paths with values in U.

    The block is stored through its standard components, the driver
    :class:`PathBlock`: component j scaled by ``sqrt(eigenvalues[j])``
    rides the j-th unit eigenvector, which is Phi_lambda^-1;
    :func:`project_standard` goes back through Phi_lambda.
    """

    spec: CovarianceSpec
    driver: PathBlock

    def __post_init__(self):
        if self.driver.n_components != self.spec.n_modes:
            raise LevyintError(
                f"driver has {self.driver.n_components} components, "
                f"spec has {self.spec.n_modes} modes")

    @property
    def grid(self) -> TimeGrid:
        return self.driver.grid

    @cached_property
    def coords(self) -> np.ndarray:
        """Reference coordinates in U at every node, (n_paths, dim_u,
        n_nodes)."""
        return phi_lambda_invert(self.spec, self.driver.cumulative)


def assemble_levy(spec: CovarianceSpec, driver: PathBlock) -> LevyPath:
    """Assemble the U-valued paths a driver block carries under a covariance
    spec."""
    return LevyPath(spec, driver)


def project_standard(path: LevyPath) -> np.ndarray:
    """Increments of all standard components of an assembled block.

    Phi_lambda of its reference-coordinate increments; with the identity
    basis, the stored driver increments themselves.
    """
    if path.spec.identity_basis:
        return path.driver.increments
    return phi_lambda_apply(path.spec, phi_lambda_invert(
        path.spec, path.driver.increments))


def coordinate_view(path: LevyPath):
    """Reference-coordinate increments of the assembled block.

    Packages the U coordinates as a plain component block on the same
    grid, so adapted integrand evaluators can consume the observable path
    itself rather than a specific spectral decomposition of it.
    """
    return replace(path.driver, increments=phi_lambda_invert(
        path.spec, path.driver.increments))


def transport_levy(path: LevyPath, iso) -> LevyPath:
    """Carry a block of paths through a weighted-sequence isometry.

    The transported block lives in the weighted picture itself (identity
    eigenbasis, the same eigenvalues) on the same grid.  Because the
    isometry is supported on equal-eigenvalue blocks, the standard
    components of the image are plain orthogonal mixes of the source
    components: its increments are ``coord_map @ increments``.
    """
    lam = path.spec.eigenvalues
    if not np.array_equal(iso.eigenvalues, lam):
        raise LevyintError("isometry source does not match the path spec")
    target = CovarianceSpec(lam, np.eye(lam.size), path.spec.tail_mass)
    return LevyPath(target, replace(
        path.driver, increments=iso.coord_map @ path.driver.increments))
