"""Identity checks, the suite runner and report serialization.

Every check compares the two sides of an identity the integral layers
must satisfy and reduces the outcome to one report row.  Two regimes:

* Statistical checks estimate E[lhs - rhs] over Monte Carlo paths and
  pass when the estimate lies within ``SIGMAS`` standard errors of zero.
  ``margin`` is |mean difference| / (SIGMAS * se), so 1.0 is the edge of
  acceptance; with 4 sigmas a correct implementation fails a single
  statistic with probability about 6.3e-5.
* Exact checks compare two computations of the same pathwise quantity
  and pass when the worst relative deviation stays below ``REL_TOL``
  (margin is deviation / REL_TOL, again 1.0 at the edge).  Relative
  means against max(1, magnitude of the reference path).

Reports from multi-statistic checks carry the worst case.  A check's
report is a deterministic function of its own spec (scenario, seeds,
n_paths): path indices map to fixed counter-based streams and reductions
use a fixed chunked tree, so serialized outputs are byte-identical across
runs, worker counts and the other checks selected.

A check is its set-up and one function of a sampled
:class:`levyint.processes.PathBlock`, handed to one of two drivers that
own everything else:

* :func:`_statistical` takes ``stat(block) -> (lhs, rhs)``, where lhs is
  (n_paths, n_cases) and rhs broadcasts to it.  It checks the path
  count, lays out the rows [lhs..., rhs..., lhs - rhs...] and reports
  the worst case of their accumulator.
* :func:`_exact` takes ``per_block(block) -> (dev, ref)``, per path the
  largest deviation between the two computations and the magnitude of
  the reference.  Its rows are the absolute and the relative deviation,
  and :func:`_exact_loop` reports their maxima.

The suite runner owns the paths.  Checks whose paths have one law (driver
specs, horizon, grid) and one seed read the same paths: the default suite
draws every path under the config seed, while each entry keeps its own
seed for its set-up draws and its report.  :func:`run_suite` walks each
law's blocks once, with :func:`levyint.stats.accumulate_paths`, samples
each block once and hands it to every check of the law; a check of n
paths reads the first n, as the block it would sample alone.  Times at
which a check reads the path (``_PROBES``) join its grid, so each is a
node of every path, and on the desk they are scheduled nodes already.

The block width depends only on the law (:func:`levyint.stats.block_paths`
of the sampler's expected nodes).  A block costs one sampling call for
all the checks of its law, one evaluation per integrand shared by the
integrals and the quadrature, and one kernel call per route.  Checks that
read an integral only at the horizon take the kernels' terminal forms.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Literal, Optional

import numpy as np

from . import rng as _rng
from .errors import ConfigInvalid, UnknownCheck
from .integrators import (cell_values, integrate_cells, integrate_in_basis,
                          ito_h, node_values, side_cells, terminal_cells,
                          terminal_terms, time_quadrature)
from .processes import (SCHEDULED, SamplePath, TimeGrid, assemble_levy,
                        coordinate_view, make_standard_specs,
                        project_standard, transport_levy)
from .scenarios import (CovarianceConfig, IntegrandConfig, ScenarioConfig,
                        build_integrand, build_simple_integrand, make_sampler,
                        path_law, resolve_covariance, restrict_integrand,
                        value_shape)
from .spaces import (alternate_decomposition, build_eigen_isometry,
                     psi_lambda_apply, random_orthogonal)
from .stats import MAX_BLOCK_BYTES, accumulate_paths, block_paths

BASE_SEED = 20260816
SIGMAS = 4.0
REL_TOL = 1e-12

def _default_pairs(n_modes: int) -> tuple:
    """Adjacent component pairs plus the extreme pair; touches every component."""
    pairs = tuple((i, i + 1) for i in range(n_modes - 1))
    if n_modes > 2:
        pairs += ((0, n_modes - 1),)
    return pairs


def _component_pairs(spec: CheckSpec) -> tuple:
    """:func:`_default_pairs` of the scenario as two index lists."""
    _need_modes(spec, 2)
    pairs = _default_pairs(spec.scenario.n_modes)
    return tuple(list(col) for col in zip(*pairs))


@dataclass(frozen=True)
class CheckSpec:
    """One check invocation: which identity, on what scenario, how hard.

    ``seed`` keys the check's set-up draws and is its report's ``seed``;
    ``path_seed`` draws its paths, and defaults to ``seed``.  The default
    suite draws every path under the config seed, so that checks on one
    path law read the same paths.  Only ``isometry2`` reads ``route``; the
    default suite runs it on both.
    """

    name: str
    scenario: ScenarioConfig
    n_paths: int
    seed: int
    route: Literal["seq", "l2lambda"] = "seq"
    path_seed: Optional[int] = None


@dataclass
class Report:
    name: str
    lhs: float
    rhs: float
    se: float
    margin: float
    passed: bool
    n_paths: int
    seed: int
    wall_time: float = 0.0
    truncation_bound: Optional[float] = None


@dataclass
class _Member:
    """A check set up for a pass over the blocks of its path law."""

    spec: CheckSpec
    rows: Callable                   # block -> (n_paths, n_stats) rows
    finish: Callable                 # accumulator of the rows -> Report


def _need_paths(spec: CheckSpec, minimum: int) -> None:
    if spec.n_paths < minimum:
        raise ConfigInvalid(
            f"check {spec.name} needs at least {minimum} paths, "
            f"got {spec.n_paths}")


def _need_modes(spec: CheckSpec, minimum: int) -> None:
    if spec.scenario.n_modes < minimum:
        raise ConfigInvalid(
            f"check {spec.name} needs space.J of at least {minimum}, "
            f"got {spec.scenario.n_modes}")


def _need_block_memory(spec: CheckSpec, width: int, nodes: float) -> None:
    """Fail closed where one per-node array of a block would outgrow memory.

    A block holds ``width`` paths of ``nodes`` expected nodes each.  The
    largest per-node arrays are the integrand's values and the node
    inputs of the path.
    """
    sc = spec.scenario
    per_node = max(sc.n_modes + 1,
                   math.prod(value_shape(sc, sc.integrand.carrier)))
    size = 8 * width * nodes * per_node
    if size > MAX_BLOCK_BYTES:
        raise ConfigInvalid(
            f"check {spec.name}: a block of {width} paths holds about "
            f"{width * nodes:.0f} grid nodes of {per_node} values each, "
            f"{size / 2**30:.3g} GiB per array; space.J, space.dH, space.T "
            f"and the drivers' jump rates must keep it within "
            f"{MAX_BLOCK_BYTES / 2**30:.3g} GiB")


def _finish_statistical(spec: CheckSpec, acc) -> Report:
    """Reduce an accumulator laid out as [lhs..., rhs..., diff...]."""
    n_cases = acc.mean.size // 3
    mean = acc.mean
    se = acc.se
    margins = np.empty(n_cases)
    for i in range(n_cases):
        d = abs(float(mean[2 * n_cases + i]))
        s = float(se[2 * n_cases + i])
        if s == 0.0:
            margins[i] = 0.0 if d == 0.0 else float("inf")
        else:
            margins[i] = d / (SIGMAS * s)
    w = int(np.argmax(margins))
    margin = float(margins[w])
    return Report(spec.name, float(mean[w]), float(mean[n_cases + w]),
                  float(se[2 * n_cases + w]), margin, margin <= 1.0,
                  spec.n_paths, spec.seed)


def _statistical(spec: CheckSpec, stat, finish=None) -> _Member:
    """The statistical driver: ``stat(block) -> (lhs, rhs)`` to a member.

    Its rows are [lhs..., rhs..., lhs - rhs...]; ``finish`` reduces their
    accumulator to the report, by default the worst case.
    """
    _need_paths(spec, 2)

    def rows(block):
        lhs, rhs = stat(block)
        rhs = np.broadcast_to(rhs, lhs.shape)
        return np.concatenate([lhs, rhs, lhs - rhs], axis=1)

    return _Member(spec, rows, finish or partial(_finish_statistical, spec))


def _exact_loop(spec: CheckSpec, per_path) -> _Member:
    """The member that reduces ``per_path(block) -> (n_paths, 2)`` rows.

    A row holds the absolute and the relative deviation of one path, and
    the report carries their maxima over the spec's paths.  A NaN
    deviation propagates to the margin, and a margin that is not finite
    fails.  The parameter keeps its name ``per_path``, which the traced
    benchmark relies on (``tests/test_bench_targets.py``).
    """
    _need_paths(spec, 1)

    def finish(acc):
        worst_abs, worst_rel = (float(v) for v in acc.peak)
        margin = worst_rel / REL_TOL
        return Report(spec.name, worst_abs, 0.0, 0.0, margin,
                      bool(np.isfinite(margin) and margin <= 1.0),
                      spec.n_paths, spec.seed)

    return _Member(spec, per_path, finish)


def _exact(spec: CheckSpec, per_block) -> _Member:
    """The exact driver: ``per_block(block) -> (dev, ref)`` to a member."""
    def per_path(block):
        dev, ref = per_block(block)
        return np.stack([dev, dev / np.maximum(1.0, ref)], axis=1)

    return _exact_loop(spec, per_path)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Per path, the largest absolute entry (0 if none); NaN if any is NaN."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)), initial=0.0)


def _block_rotations_for(eigenvalues: np.ndarray,
                         gen: np.random.Generator) -> dict:
    """Haar rotation per repeated eigenvalue, keyed per the isometry builder."""
    out = {}
    for v in sorted(set(eigenvalues.tolist())):
        n = int(np.count_nonzero(eigenvalues == v))
        if n > 1:
            out[v] = random_orthogonal(n, gen)
    return out


# ---------------------------------------------------------------------------
# statistical checks


def _check_isometry1(spec: CheckSpec) -> _Member:
    """E ||(X . M)_T||^2 equals E of the squared-norm quadrature (one driver)."""
    side = spec.scenario.sample_side
    integrand = build_integrand(spec.scenario)

    def stat(block):
        node = node_values(integrand, block)
        vals = side_cells(node, side, 1)[:, :, None, :]
        z = terminal_cells(vals, block.increments[:, :1])
        return _isometry_sides(z, node, block)

    return _statistical(spec, stat)


def _isometry_sides(z: np.ndarray, node: np.ndarray, block) -> tuple:
    """||z_T||^2 against the left-point quadrature of ||X||^2."""
    left = side_cells(node, "left", 1)
    lhs = np.vecdot(z, z)
    rhs = time_quadrature(left, left, block.grid.dt)
    return lhs[:, None], rhs[:, None]


def _check_isometry2(spec: CheckSpec) -> _Member:
    """Isometry for a sequence integrand against the whole driver family.

    ``spec.route`` picks the computation: "seq" integrates the sampled
    family directly, "l2lambda" integrates against the standard
    components that Phi_lambda projects out of the assembled path.
    """
    sc = spec.scenario
    side = sc.sample_side
    if spec.route not in ("seq", "l2lambda"):
        raise ConfigInvalid(
            f"isometry2 route {spec.route!r} not one of seq, l2lambda")
    integrand = build_integrand(sc)
    cov = resolve_covariance(sc) if spec.route == "l2lambda" else None

    def stat(block):
        inc = (block.increments if cov is None
               else project_standard(assemble_levy(cov, block)))
        node = node_values(integrand, block)
        z = terminal_cells(side_cells(node, side, 1), inc)
        return _isometry_sides(z, node, block)

    return _statistical(spec, stat)


def _check_isometry4(spec: CheckSpec) -> _Member:
    """Isometry for an operator integrand against an assembled path."""
    sc = spec.scenario
    side = sc.sample_side
    cov = resolve_covariance(sc)
    restricted = restrict_integrand(build_integrand(sc), cov)

    def stat(block):
        levy = assemble_levy(cov, block)
        node = node_values(restricted, levy.driver)
        seq = psi_lambda_apply(cov, side_cells(node, side, 1))
        z = terminal_cells(seq, levy.driver.increments)
        return _isometry_sides(z, node, levy.driver)

    return _statistical(spec, stat)


def _check_orthogonality(spec: CheckSpec) -> _Member:
    """Integrals against distinct components are orthogonal in mean square."""
    sc = spec.scenario
    side = sc.sample_side
    first, second = _component_pairs(spec)
    integrand = build_integrand(sc)

    def stat(block):
        vals = side_cells(node_values(integrand, block), side, 1)
        terms = terminal_terms(vals, block.increments)
        return np.vecdot(terms[:, first], terms[:, second]), 0.0

    return _statistical(spec, stat)


def _check_covariance_recovery(spec: CheckSpec) -> _Member:
    """Sampled second moments match min(t, s) <Q u1, u2>.

    Probes pair reference directions with the leading intended
    eigendirections at fractions of the horizon; the analytic side always
    uses the intended covariance, so a corrupted sampling basis shows up
    here.
    """
    _need_modes(spec, 2)
    sc = spec.scenario
    clean = resolve_covariance(sc.with_fault(None))
    sim = resolve_covariance(sc)
    e = np.eye(clean.dim_u)
    b0 = clean.eigenbasis[:, 0]
    b1 = clean.eigenbasis[:, 1]
    quarter, half, h = _probes(spec)
    cases = ((e[0], e[0], h, h),
             (e[0], e[1], half, h),
             (e[1], e[1], quarter, half),
             (e[0], e[1], h, quarter),
             (b0, b0, half, half),
             (b0, b1, h, h),
             (b1, b1, h, half),
             (b0, b1, half, half))
    q = clean.eigenbasis @ np.diag(clean.eigenvalues) @ clean.eigenbasis.T
    targets = np.array([min(t, s) * float(u1 @ q @ u2)
                        for u1, u2, t, s in cases])
    # per-probe driver weights under the covariance actually sampled
    w1s = [(sim.eigenbasis.T @ u1) * sim.sqrt_eigenvalues for u1, _, _, _ in cases]
    w2s = [(sim.eigenbasis.T @ u2) * sim.sqrt_eigenvalues for _, u2, _, _ in cases]

    def stat(block):
        rows = np.arange(block.n_paths)
        at = {t: block.cumulative[rows, :, block.node_at(t)]
              for t in (quarter, half, h)}
        lhs = np.stack([np.vecdot(at[t], w1) * np.vecdot(at[s], w2)
                        for w1, w2, (_, _, t, s) in zip(w1s, w2s, cases)],
                       axis=1)
        return lhs, targets

    return _statistical(spec, stat)


def _check_bracket(spec: CheckSpec) -> _Member:
    """Bracket identities on two components and on their integrals.

    Realized quadratic variation against the predictable bracket,
    realized cross variation against zero, and the covariation of two
    integral processes against the time quadrature of the integrand
    inner product.
    """
    _need_modes(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    x = build_integrand(sc)
    y = build_integrand(sc, seed_offset=1000)

    def stat(block):
        dm0, dm1 = block.increments[:, 0], block.increments[:, 1]
        vx = side_cells(node_values(x, block), side, 1)
        vy = side_cells(node_values(y, block), side, 1)
        ip = np.einsum("...kd,...kd->...k", vx, vy)
        # the bracket of a standard component is t; it is 0 across components
        bracket_t = block.grid.times[:, -1]
        ci = np.vecdot(ip, block.grid.dt)
        zero = np.zeros(block.n_paths)
        lhs = np.stack([np.vecdot(dm0, dm0), np.vecdot(dm1, dm1),
                        np.vecdot(dm0, dm1), np.vecdot(ip, dm0 * dm0),
                        np.vecdot(ip, dm0 * dm1)], axis=1)
        rhs = np.stack([bracket_t, bracket_t, zero, ci, zero], axis=1)
        return lhs, rhs

    return _statistical(spec, stat)


def _check_martingale(spec: CheckSpec) -> _Member:
    """Zero mean of the integral at the horizon and at an interior time."""
    sc = spec.scenario
    side = sc.sample_side
    probe, = _probes(spec)
    integrand = build_integrand(sc)

    def stat(block):
        vals = side_cells(node_values(integrand, block), side, 1)
        z = integrate_cells(vals, block.increments)
        at_probe = z[np.arange(block.n_paths), block.node_at(probe)]
        lhs = np.concatenate([z[:, -1], at_probe, block.cumulative[:, :, -1]],
                             axis=1)
        return lhs, 0.0

    return _statistical(spec, stat)


def _check_series_orthogonality(spec: CheckSpec) -> _Member:
    """Per-mode terms of the operator integral are pairwise orthogonal.

    Includes the resulting additivity of squared norms across the series.
    """
    sc = spec.scenario
    side = sc.sample_side
    cov = resolve_covariance(sc)
    restricted = restrict_integrand(build_integrand(sc), cov)
    first, second = _component_pairs(spec)

    def stat(block):
        levy = assemble_levy(cov, block)
        node = node_values(restricted, levy.driver)
        seq = psi_lambda_apply(cov, side_cells(node, side, 1))
        tv = terminal_terms(seq, levy.driver.increments)
        total = tv.sum(axis=1)
        lhs = np.concatenate([np.vecdot(tv[:, first], tv[:, second]),
                              np.vecdot(total, total)[:, None]], axis=1)
        rhs = np.zeros(lhs.shape)
        rhs[:, -1] = np.einsum("bjd,bjd->b", tv, tv)
        return lhs, rhs

    return _statistical(spec, stat)


def _check_truncation_tail(spec: CheckSpec) -> _Member:
    """Dropping trailing modes loses exactly the dropped quadrature mass.

    Keeps the leading ``min(3, J - 1)`` modes, so at least one is dropped.
    Also reports the a priori tail bound (horizon times dropped column
    mass plus operator norm squared times unresolved tail mass) and
    fails if the sampled mean exceeds it.  Needs a constant integrand so
    the bound is a single number.
    """
    sc = spec.scenario
    if sc.integrand.evaluator != "constant":
        raise ConfigInvalid("truncation_tail needs a constant integrand")
    _need_modes(spec, 2)
    n_sub = min(3, sc.n_modes - 1)
    side = sc.sample_side
    cov = resolve_covariance(sc)
    raw = build_integrand(sc)
    restricted = restrict_integrand(raw, cov)

    # a constant integrand takes its value on any path, here a still one
    still = SamplePath(TimeGrid(np.array([0.0, sc.horizon]),
                                np.zeros(2, dtype=np.uint8)),
                       np.zeros((sc.n_modes, 1)))
    s0 = cell_values(restricted, still, "left")[0]
    raw0 = cell_values(raw, still, "left")[0]
    dropped = float(np.sum(s0[:, n_sub:] ** 2))
    # the SVD behind the operator norm fails on a non-finite probe value;
    # a NaN bound then fails the check below
    op_sq = (float(np.linalg.norm(raw0, 2)) ** 2
             if np.all(np.isfinite(raw0)) else math.nan)
    bound = sc.horizon * (dropped + op_sq * cov.tail_mass)

    def stat(block):
        vals = side_cells(node_values(restricted, block), side, 1)
        tail = psi_lambda_apply(cov, vals)[:, :, n_sub:]
        diff = terminal_cells(tail, block.increments[:, n_sub:])
        lhs = np.vecdot(diff, diff)
        rhs = time_quadrature(tail, tail, block.grid.dt)
        return lhs[:, None], rhs[:, None]

    def finish(acc):
        rep = _finish_statistical(spec, acc)
        excess = float(acc.mean[0]) - bound      # NaN if either side is
        se_lhs = float(acc.se[0])
        if se_lhs > 0.0:
            over = np.maximum(0.0, excess) / (SIGMAS * se_lhs)
        else:
            over = 0.0 if excess <= 0.0 else math.inf
        # np.maximum, unlike max, keeps a NaN from either side
        rep.margin = float(np.maximum(rep.margin, over))
        rep.passed = rep.margin <= 1.0
        rep.truncation_bound = bound
        return rep

    return _statistical(spec, stat, finish)


# ---------------------------------------------------------------------------
# exact checks


def _check_basis_invariance(spec: CheckSpec) -> _Member:
    """The integral does not depend on the orthonormal basis used to expand it."""
    sc = spec.scenario
    side = sc.sample_side
    integrand = build_integrand(sc)
    gen = _rng.stream(spec.seed, 0, 0, _rng.BASIS)
    q1 = random_orthogonal(sc.dim_h, gen)
    q2 = random_orthogonal(sc.dim_h, gen)

    def per_block(block):
        vals = cell_values(integrand, block, side)
        dm = block.increments[:, 0]
        z0 = integrate_cells(vals[:, :, None, :], dm[:, None, :])
        z1 = integrate_in_basis(vals, dm, q1)
        z2 = integrate_in_basis(vals, dm, q2)
        dev = np.max([_row_max(z1 - z0), _row_max(z2 - z0),
                      _row_max(z2 - z1)], axis=0)
        return dev, _row_max(z0)

    return _exact(spec, per_block)


def _check_isometry_invariance(spec: CheckSpec) -> _Member:
    """Transport by a component isometry preserves integrals and norms.

    Mixing equal-variance components by an orthogonal map, and the
    integrand coordinates by the same map, changes neither the integral
    path nor the squared-norm quadrature beyond rounding.  The driver
    attributes its jumps: a cell that ends at a SCHEDULED node holds no
    jump, so there a pure-jump component's increment is exactly minus its
    compensator ``sum(a * nu) * dt``.
    """
    sc = spec.scenario
    side = sc.sample_side
    cov = resolve_covariance(sc)
    gen = _rng.stream(spec.seed, 0, 0, _rng.BASIS)
    rotations = _block_rotations_for(cov.eigenvalues, gen)
    iso = build_eigen_isometry(cov, cov.eigenvalues, rotations)
    cmap = iso.coord_map
    driver_specs = make_standard_specs(sc.n_modes, sc.drivers)
    integrand = build_integrand(sc)
    pure = [c for c, s in enumerate(driver_specs) if s.sigma == 0.0]
    rate = np.array([sum(a * nu for a, nu in driver_specs[c].jumps)
                     for c in pure])[:, None]

    def per_block(driver):
        vals = cell_values(integrand, driver, side)
        z1 = integrate_cells(vals, driver.increments)
        levy2 = transport_levy(assemble_levy(cov, driver), iso)
        vals2 = cmap @ vals
        z2 = integrate_cells(vals2, levy2.driver.increments)
        q1 = time_quadrature(vals, vals, driver.grid.dt)
        q2 = time_quadrature(vals2, vals2, driver.grid.dt)
        dt = driver.grid.dt[:, None]
        jumpless = driver.grid.kind[:, None, 1:] == SCHEDULED
        stray = (driver.increments[:, pure] + rate * dt) * jumpless
        dev = np.max([_row_max(z1 - z2), np.abs(q1 - q2), _row_max(stray)],
                     axis=0)
        return dev, np.max([_row_max(z1), q1], axis=0)

    return _exact(spec, per_block)


def _check_well_defined(spec: CheckSpec) -> _Member:
    """Two eigendecompositions of one covariance give one integral.

    The integrand A is a function of the observable path (its reference
    coordinates), restricted per decomposition; integral paths and
    reconstructed path coordinates must agree to rounding.  A third route
    is the paper's main theorem on the truncation: the series
    sum_j (A e_j sqrt(lambda_j)) d beta_j equals the integral of A itself
    against the reference-coordinate increments dL at every node.
    """
    sc = spec.scenario
    side = sc.sample_side
    cov1 = resolve_covariance(sc)
    gen = _rng.stream(spec.seed, 0, 0, _rng.BASIS)
    rotations = _block_rotations_for(cov1.eigenvalues, gen)
    iso = build_eigen_isometry(cov1, cov1.eigenvalues, rotations)
    cov2 = alternate_decomposition(cov1, iso)
    cmap = iso.coord_map
    raw = build_integrand(sc, n_inputs=cov1.dim_u)
    r1 = restrict_integrand(raw, cov1)
    r2 = restrict_integrand(raw, cov2)

    def per_block(d1):
        levy1 = assemble_levy(cov1, d1)
        view = coordinate_view(levy1)
        inc2 = cmap @ d1.increments
        levy2 = assemble_levy(cov2, replace(d1, increments=inc2))
        # one integrand's cell values alive at a time
        z1 = integrate_cells(
            psi_lambda_apply(cov1, cell_values(r1, view, side)),
            d1.increments)
        z2 = integrate_cells(
            psi_lambda_apply(cov2, cell_values(r2, view, side)), inc2)
        # A dL: column u of A integrates reference coordinate u
        z3 = integrate_cells(cell_values(raw, view, side).swapaxes(-1, -2),
                             view.increments)
        dev = np.max([_row_max(z1 - z2), _row_max(z1 - z3),
                      _row_max(levy1.coords - levy2.coords)], axis=0)
        ref = np.max([_row_max(z1), _row_max(levy1.coords)], axis=0)
        return dev, ref

    return _exact(spec, per_block)


def _check_simple_exact(spec: CheckSpec) -> _Member:
    """Integrating a piecewise constant integrand telescopes exactly."""
    sc = spec.scenario
    side = sc.sample_side
    integrand = build_simple_integrand(sc)
    b, values = integrand.breakpoints, integrand.values

    def per_block(block):
        z = ito_h(integrand, block, 0, sample_side=side)
        rows = np.arange(block.n_paths)
        cum = block.cumulative[:, 0]
        nodes = [block.node_at(t) for t in b]
        partial = np.zeros((block.n_paths, sc.dim_h))
        dev = np.zeros(block.n_paths)
        ref = np.zeros(block.n_paths)
        for i in range(values.shape[0]):
            step = cum[rows, nodes[i + 1]] - cum[rows, nodes[i]]
            partial = partial + values[i] * step[:, None]
            dev = np.maximum(dev, _row_max(z[rows, nodes[i + 1]] - partial))
            ref = np.maximum(ref, _row_max(partial))
        return dev, ref

    return _exact(spec, per_block)


# ---------------------------------------------------------------------------
# registry, suite and serialization


CHECKS = {
    "isometry1": _check_isometry1,
    "isometry2": _check_isometry2,
    "isometry4": _check_isometry4,
    "orthogonality": _check_orthogonality,
    "basis_invariance": _check_basis_invariance,
    "isometry_invariance": _check_isometry_invariance,
    "well_defined": _check_well_defined,
    "covariance_recovery": _check_covariance_recovery,
    "bracket": _check_bracket,
    "martingale": _check_martingale,
    "simple_exact": _check_simple_exact,
    "series_orthogonality": _check_series_orthogonality,
    "truncation_tail": _check_truncation_tail,
}

# checks that must catch each injected fault: the sampling-side fault
# biases adapted integrands and breaks the telescoping identity; the
# basis fault changes what covariance is actually sampled
FAULT_CHECKS = {
    "right_point": ("simple_exact", "martingale", "isometry2"),
    "nonorthogonal_basis": ("covariance_recovery",),
}


# times, as fractions of the horizon, at which a check reads the path; they
# join its sampled grid, so each is a node of every path
_PROBES = {"covariance_recovery": (0.25, 0.5, 1.0), "martingale": (0.5,)}


def _probes(spec: CheckSpec) -> tuple:
    return tuple(f * spec.scenario.horizon for f in _PROBES.get(spec.name, ()))


def _path_seed(spec: CheckSpec) -> int:
    return spec.seed if spec.path_seed is None else spec.path_seed


def _run_pass(specs) -> list:
    """Reports of checks on one path law and seed, from one pass.

    Each block of the law's :func:`levyint.stats.path_blocks` is sampled
    once and handed to every check that reads it, a check of n paths
    reading the first n.  A check's rows and its accumulators are those
    of a pass on its own, so its report does not depend on the others.
    A pass whose blocks would hold a per-node array larger than
    ``MAX_BLOCK_BYTES`` fails before any check is set up.  A report's
    wall time is the check's own set-up, statistic and report time plus
    an equal share of the sampling and the walk.
    """
    start = time.perf_counter()
    first = specs[0]
    sampler = make_sampler(first.scenario, _probes(first))
    nodes = sampler.expected_nodes
    width = block_paths(nodes)
    for spec in specs:
        _need_block_memory(spec, width, nodes)
    own = []
    members = []
    for spec in specs:
        t0 = time.perf_counter()
        members.append(CHECKS[spec.name](spec))
        own.append(time.perf_counter() - t0)
    seed = _path_seed(first)

    def stat_fn(paths):
        block = sampler.sample_block(seed, paths)
        rows = []
        for i, m in enumerate(members):
            if paths.start >= m.spec.n_paths:
                rows.append(None)
                continue
            t0 = time.perf_counter()
            rows.append(m.rows(block.head(m.spec.n_paths - paths.start)))
            own[i] += time.perf_counter() - t0
        return tuple(rows)

    accs = accumulate_paths(max(s.n_paths for s in specs), stat_fn, width)
    reports = []
    for i, (m, acc) in enumerate(zip(members, accs)):
        t0 = time.perf_counter()
        reports.append(m.finish(acc))
        own[i] += time.perf_counter() - t0
    shared = (time.perf_counter() - start - sum(own)) / len(members)
    for report, t in zip(reports, own):
        report.wall_time = t + shared
    return reports


def run_check(spec: CheckSpec) -> Report:
    """Run one check on its own."""
    return run_suite([spec])[0]


def worker_count(parallelism: int, n_tasks: int) -> int:
    """Workers for ``n_tasks`` tasks: at most one per CPU and per task."""
    if parallelism < 1:
        raise ConfigInvalid(f"parallelism must be at least 1, got {parallelism}")
    return max(1, min(parallelism, os.cpu_count() or 1, n_tasks))


def run_suite(specs, parallelism: int = 1) -> list:
    """Run checks; reports in order, with bytes that depend on nothing else.

    Checks whose paths have one law and seed form a group, and each group
    is walked once (:func:`_run_pass`).  With several workers, a group's
    checks are dealt in order into at most one unit per worker, and each
    unit is a pass of its own; units start in the order of their path
    counts, largest first.
    """
    specs = list(specs)
    for s in specs:
        if s.name not in CHECKS:
            raise UnknownCheck(f"unknown check {s.name!r}; valid names: "
                               f"{', '.join(CHECKS)}")
    groups = {}
    for i, s in enumerate(specs):
        key = (path_law(s.scenario, _probes(s)), _path_seed(s))
        groups.setdefault(key, []).append(i)
    ways = worker_count(parallelism, len(specs))
    units = [group[k::ways] for group in groups.values()
             for k in range(min(ways, len(group)))]
    units.sort(key=lambda unit: -sum(specs[i].n_paths for i in unit))
    tasks = [[specs[i] for i in unit] for unit in units]
    workers = worker_count(parallelism, len(units))
    if workers == 1:
        done = map(_run_pass, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_pass, tasks))
    reports = [None] * len(specs)
    for unit, unit_reports in zip(units, done):
        for i, report in zip(unit, unit_reports):
            reports[i] = report
    return reports


_MIXED_SIGMA = 0.7071067811865476

_SINGLE_MIXED = ({"preset": "mixed", "sigma": _MIXED_SIGMA, "a": 1.0},)


def _block_spectrum(n_modes: int) -> tuple:
    """Dyadic eigenvalues with exact repeats, one pair per level."""
    return tuple(0.5 ** (2 + (j + 1) // 2) for j in range(n_modes))


def default_suite(n_paths: int = 100_000, n_exact: int = 64,
                  base_seed: int = BASE_SEED,
                  desk: Optional[ScenarioConfig] = None) -> list:
    """The standing battery: every check once, isometry2 on both routes.

    The l2lambda route runs under a random eigenbasis, so that its
    projection through Phi_lambda is a real change of coordinates.

    ``desk`` supplies the shared scale (dimensions, horizon, grid,
    covariance law, driver recipe, integrand scale); each entry swaps in
    the structure its identity needs.
    """
    desk = ScenarioConfig() if desk is None else desk
    evaluator = desk.integrand.evaluator
    if evaluator not in ("driver_linear", "driver_tanh"):
        evaluator = "driver_linear"
    scale = desk.integrand.scale
    one = replace(desk, n_modes=1, drivers=_SINGLE_MIXED,
                  covariance=CovarianceConfig(eigenvalues=(1.0,)))
    hvec = IntegrandConfig(carrier="hvector", evaluator=evaluator, scale=scale)
    seqh = IntegrandConfig(carrier="seqh", evaluator=evaluator, scale=scale)
    oper = IntegrandConfig(carrier="operator", evaluator=evaluator, scale=scale)
    rand_basis = CovarianceConfig(desk.covariance.eigenvalues, {"seed": 7},
                                  desk.covariance.tail_mass)
    blocks_id = CovarianceConfig(eigenvalues=_block_spectrum(desk.n_modes))
    blocks_rand = CovarianceConfig(eigenvalues=_block_spectrum(desk.n_modes),
                                   basis={"seed": 11})

    entries = [
        ("isometry1", replace(one, integrand=replace(hvec, seed=101)),
         n_paths),
        ("isometry2", replace(desk, integrand=replace(seqh, seed=102)),
         n_paths, "seq"),
        ("isometry2", replace(desk, covariance=rand_basis,
                              integrand=replace(seqh, seed=103)),
         n_paths, "l2lambda"),
        ("isometry4", replace(desk, covariance=rand_basis,
                              integrand=replace(oper, seed=104)),
         n_paths),
        ("orthogonality", replace(desk, integrand=replace(seqh, seed=105)),
         n_paths),
        ("basis_invariance", replace(one, integrand=replace(hvec, seed=106)),
         n_exact),
        ("isometry_invariance", replace(desk, covariance=blocks_id,
                                        integrand=replace(seqh, seed=107)),
         n_exact),
        ("well_defined", replace(desk, covariance=blocks_rand,
                                 integrand=replace(oper, seed=108)),
         n_exact),
        ("covariance_recovery", replace(desk, covariance=rand_basis),
         n_paths),
        ("bracket", replace(desk, n_modes=2,
                            integrand=replace(hvec, seed=110)),
         n_paths),
        ("martingale", replace(desk, integrand=replace(seqh, seed=111)),
         n_paths),
        ("simple_exact",
         replace(one, integrand=IntegrandConfig(
             family="simple", carrier="hvector", evaluator="constant",
             seed=112, scale=scale,
             breakpoints=(0.0, 0.3 * desk.horizon, 0.7 * desk.horizon,
                          desk.horizon))),
         n_exact),
        ("series_orthogonality", replace(desk, covariance=rand_basis,
                                         integrand=replace(oper, seed=113)),
         n_paths),
        ("truncation_tail",
         replace(desk, covariance=rand_basis,
                 integrand=replace(oper, evaluator="constant", seed=114)),
         n_paths),
    ]
    return [CheckSpec(name, scenario, paths, base_seed + i, *route,
                      path_seed=base_seed)
            for i, (name, scenario, paths, *route) in enumerate(entries, 1)]


def negative_control_suite(fault: str, n_paths: int = 100_000,
                           n_exact: int = 64,
                           base_seed: int = BASE_SEED,
                           desk: Optional[ScenarioConfig] = None) -> list:
    """The detection battery for one injected fault."""
    if fault not in FAULT_CHECKS:
        raise ConfigInvalid(f"fault {fault!r} not one of "
                            f"{', '.join(FAULT_CHECKS)}")
    names = FAULT_CHECKS[fault]
    return [replace(s, scenario=s.scenario.with_fault(fault))
            for s in default_suite(n_paths, n_exact, base_seed, desk)
            if s.name in names]


def fault_detected(reports) -> bool:
    return any(not r.passed for r in reports)


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


def report_to_dict(report: Report, include_timings: bool = False) -> dict:
    out = {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "se": report.se,
        "margin": report.margin,
        "pass": report.passed,
        "nPaths": report.n_paths,
        "seed": report.seed,
        "wallTime": report.wall_time if include_timings else 0.0,
    }
    if report.truncation_bound is not None:
        out["truncationBound"] = report.truncation_bound
    return out


def reports_to_json(reports, include_timings: bool = False) -> str:
    """The JSON report; a NaN or infinite value is written as null."""
    rows = [report_to_dict(r, include_timings) for r in reports]
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                row[key] = None
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


_CSV_COLUMNS = ("name", "lhs", "rhs", "se", "margin", "pass", "nPaths",
                "seed", "wallTime", "truncationBound")


def reports_to_csv(reports, include_timings: bool = False) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        d = report_to_dict(r, include_timings)
        row = [d["name"], repr(d["lhs"]), repr(d["rhs"]), repr(d["se"]),
               repr(d["margin"]), "true" if d["pass"] else "false",
               str(d["nPaths"]), str(d["seed"]), repr(d["wallTime"]),
               "" if r.truncation_bound is None else repr(r.truncation_bound)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
