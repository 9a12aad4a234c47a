"""Identity checks, the suite runner and report serialization.

Every check compares the two sides of an identity the integral layers
must satisfy and reduces the outcome to one report row.  Two regimes:

* Statistical checks estimate E[lhs - rhs] over Monte Carlo paths and
  pass when the estimate lies within ``sigmas`` standard errors of zero.
  ``margin`` is |mean difference| / (sigmas * se), so 1.0 is the edge of
  acceptance; with the default 4 sigmas a correct implementation fails a
  single statistic with probability about 6.3e-5.
* Exact checks compare two computations of the same pathwise quantity
  and pass when the worst relative deviation stays below ``rel_tol``
  (margin is deviation / rel_tol, again 1.0 at the edge).  Relative
  means against max(1, magnitude of the reference path).

Reports from multi-statistic checks carry the worst case.  Checks are
deterministic functions of (scenario, seed, n_paths): path indices map
to fixed counter-based streams and reductions use a fixed chunked tree,
so serialized outputs are byte-identical across runs and worker counts.

Every check computes its rows a block of paths at a time, over the
ranges of :func:`levyint.stats.path_blocks` at the width
:attr:`CheckSpec.block_width` gives its scenario: one sampling call, one
evaluation per integrand shared by the integrals and the quadrature, and
one kernel call per route and block.  Checks that read an integral only
at the horizon take the kernels' terminal forms.  Statistical rows feed
:func:`levyint.stats.accumulate_paths`; exact rows, each path's worst
absolute and relative deviation, reduce to their maximum.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import ConfigInvalid, UnknownCheck
from .integrators import (cell_values, integrate_cells, integrate_in_basis,
                          ito_h, node_values, side_cells, terminal_cells,
                          terminal_terms, time_quadrature)
from .processes import (SCHEDULED, PathSampler, assemble_levy,
                        coordinate_view, project_standard, transport_levy)
from .scenarios import (CovarianceConfig, IntegrandConfig, ScenarioConfig,
                        build_integrand, build_simple_integrand, make_sampler,
                        resolve_covariance, restrict_integrand)
from .spaces import (alternate_decomposition, build_eigen_isometry,
                     psi_lambda_apply, random_orthogonal)
from .stats import accumulate_paths, block_paths, path_blocks

BASE_SEED = 20260816

def _default_pairs(n_modes: int) -> tuple:
    """Adjacent component pairs plus the extreme pair; touches every component."""
    pairs = tuple((i, i + 1) for i in range(n_modes - 1))
    if n_modes > 2:
        pairs += ((0, n_modes - 1),)
    return pairs


def _component_pairs(spec: CheckSpec) -> tuple:
    """The ``pairs`` option (default :func:`_default_pairs`) as two lists."""
    _need_modes(spec, 2)
    n = spec.scenario.n_modes
    pairs = tuple(map(tuple, spec.options.get("pairs", _default_pairs(n))))
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n and a != b):
            raise ConfigInvalid(f"pair {(a, b)} invalid for {n} components")
    return tuple(list(col) for col in zip(*pairs))


@dataclass(frozen=True)
class CheckSpec:
    """One check invocation: which identity, on what scenario, how hard."""

    name: str
    scenario: ScenarioConfig
    n_paths: int
    seed: int
    rel_tol: float = 1e-12
    sigmas: float = 4.0
    options: dict = field(default_factory=dict)

    @cached_property
    def sampler(self) -> PathSampler:
        """The scenario's path sampler, built once per spec."""
        return make_sampler(self.scenario)

    @property
    def block_width(self) -> int:
        """Paths per block, from the paths' expected grid nodes alone."""
        return block_paths(self.sampler.expected_nodes)


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


def _finish_statistical(spec: CheckSpec, acc, n_cases: int) -> Report:
    """Reduce an accumulator laid out as [lhs..., rhs..., diff...]."""
    mean = acc.mean
    se = acc.se
    margins = np.empty(n_cases)
    for i in range(n_cases):
        d = abs(float(mean[2 * n_cases + i]))
        s = float(se[2 * n_cases + i])
        if s == 0.0:
            margins[i] = 0.0 if d == 0.0 else float("inf")
        else:
            margins[i] = d / (spec.sigmas * s)
    w = int(np.argmax(margins))
    margin = float(margins[w])
    return Report(spec.name, float(mean[w]), float(mean[n_cases + w]),
                  float(se[2 * n_cases + w]), margin, margin <= 1.0,
                  spec.n_paths, spec.seed)


def _rows(lhs: np.ndarray, rhs) -> np.ndarray:
    """Rows [lhs..., rhs..., lhs - rhs...] of a block; lhs is (n, cases)."""
    rhs = np.broadcast_to(rhs, lhs.shape)
    return np.concatenate([lhs, rhs, lhs - rhs], axis=1)


def _exact_loop(spec: CheckSpec, per_path) -> Report:
    """Reduce ``per_path(paths) -> (len(paths), 2)`` rows to a report.

    ``paths`` is a range of :func:`levyint.stats.path_blocks`, at most
    ``spec.block_width`` paths wide, and a row holds the absolute and the
    relative deviation of one path.  A NaN deviation propagates to the
    margin, and a margin that is not finite fails.  The parameter keeps
    its name ``per_path``, which the traced
    benchmark relies on (``tests/test_bench_targets.py``).
    """
    _need_paths(spec, 1)
    devs = np.concatenate([per_path(paths) for blocks in
                           path_blocks(spec.n_paths, spec.block_width)
                           for paths in blocks])
    worst_abs, worst_rel = (float(v) for v in np.max(devs, axis=0))
    margin = worst_rel / spec.rel_tol
    return Report(spec.name, worst_abs, 0.0, 0.0, margin,
                  bool(np.isfinite(margin) and margin <= 1.0),
                  spec.n_paths, spec.seed)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Per path, the largest absolute entry (0 if none); NaN if any is NaN."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)), initial=0.0)


def _exact_rows(dev: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows (absolute, relative) of per-path deviations against references."""
    return np.stack([dev, dev / np.maximum(1.0, ref)], axis=1)


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


def _check_isometry1(spec: CheckSpec) -> Report:
    """E ||(X . M)_T||^2 equals E of the squared-norm quadrature (one driver)."""
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    sampler = spec.sampler
    integrand = build_integrand(sc)

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        node = node_values(integrand, block)
        vals = side_cells(node, side, 1)[:, :, None, :]
        z = terminal_cells(vals, block.increments[:, :1])
        return _isometry_rows(z, node, block)

    acc = accumulate_paths(spec.n_paths, stat, 3, spec.block_width)
    return _finish_statistical(spec, acc, 1)


def _isometry_rows(z: np.ndarray, node: np.ndarray, block) -> np.ndarray:
    """Rows of ||z_T||^2 against the left-point quadrature of ||X||^2."""
    left = side_cells(node, "left", 1)
    lhs = np.vecdot(z, z)
    rhs = time_quadrature(left, left, block.grid.dt)
    return _rows(lhs[:, None], rhs[:, None])


def _check_isometry2(spec: CheckSpec) -> Report:
    """Isometry for a sequence integrand against the whole driver family.

    ``options["route"]`` picks the computation: "seq" integrates the
    sampled family directly, "l2lambda" integrates against the standard
    components that Phi_lambda projects out of the assembled path.
    """
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    route = spec.options.get("route", "seq")
    if route not in ("seq", "l2lambda"):
        raise ConfigInvalid(f"isometry2 route {route!r} not one of seq, l2lambda")
    sampler = spec.sampler
    integrand = build_integrand(sc)
    cov = resolve_covariance(sc) if route == "l2lambda" else None

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        inc = (block.increments if cov is None
               else project_standard(assemble_levy(cov, block)))
        node = node_values(integrand, block)
        z = terminal_cells(side_cells(node, side, 1), inc)
        return _isometry_rows(z, node, block)

    acc = accumulate_paths(spec.n_paths, stat, 3, spec.block_width)
    return _finish_statistical(spec, acc, 1)


def _check_isometry4(spec: CheckSpec) -> Report:
    """Isometry for an operator integrand against an assembled path."""
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    cov = resolve_covariance(sc)
    sampler = spec.sampler
    restricted = restrict_integrand(build_integrand(sc), cov)

    def stat(paths):
        levy = assemble_levy(cov, sampler.sample_block(spec.seed, paths))
        node = node_values(restricted, levy.driver)
        seq = psi_lambda_apply(cov, side_cells(node, side, 1))
        z = terminal_cells(seq, levy.driver.increments)
        return _isometry_rows(z, node, levy.driver)

    acc = accumulate_paths(spec.n_paths, stat, 3, spec.block_width)
    return _finish_statistical(spec, acc, 1)


def _check_orthogonality(spec: CheckSpec) -> Report:
    """Integrals against distinct components are orthogonal in mean square."""
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    first, second = _component_pairs(spec)
    m = len(first)
    sampler = spec.sampler
    integrand = build_integrand(sc)

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        vals = side_cells(node_values(integrand, block), side, 1)
        terms = terminal_terms(vals, block.increments)
        return _rows(np.vecdot(terms[:, first], terms[:, second]), 0.0)

    acc = accumulate_paths(spec.n_paths, stat, 3 * m, spec.block_width)
    return _finish_statistical(spec, acc, m)


def _check_covariance_recovery(spec: CheckSpec) -> Report:
    """Sampled second moments match min(t, s) <Q u1, u2>.

    Probes pair reference directions with the leading intended
    eigendirections at fractions of the horizon; the analytic side always
    uses the intended covariance, so a corrupted sampling basis shows up
    here.
    """
    _need_paths(spec, 2)
    _need_modes(spec, 2)
    sc = spec.scenario
    clean = resolve_covariance(sc.with_fault(None))
    sim = resolve_covariance(sc)
    sampler = spec.sampler
    e = np.eye(clean.dim_u)
    b0 = clean.eigenbasis[:, 0]
    b1 = clean.eigenbasis[:, 1]
    h = sc.horizon
    cases = ((e[0], e[0], h, h),
             (e[0], e[1], h / 2, h),
             (e[1], e[1], h / 4, h / 2),
             (e[0], e[1], h, h / 4),
             (b0, b0, h / 2, h / 2),
             (b0, b1, h, h),
             (b1, b1, h, h / 2),
             (b0, b1, h / 2, h / 2))
    q = clean.eigenbasis @ np.diag(clean.eigenvalues) @ clean.eigenbasis.T
    targets = np.array([min(t, s) * float(u1 @ q @ u2)
                        for u1, u2, t, s in cases])
    # per-probe driver weights under the covariance actually sampled
    w1s = [(sim.eigenbasis.T @ u1) * sim.sqrt_eigenvalues for u1, _, _, _ in cases]
    w2s = [(sim.eigenbasis.T @ u2) * sim.sqrt_eigenvalues for _, u2, _, _ in cases]
    times = sorted({t for _, _, t, s in cases} | {s for _, _, t, s in cases})
    m = len(cases)

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        rows = np.arange(block.n_paths)
        at = {t: block.cumulative[rows, :, block.node_at(t)] for t in times}
        lhs = np.stack([np.vecdot(at[t], w1) * np.vecdot(at[s], w2)
                        for w1, w2, (_, _, t, s) in zip(w1s, w2s, cases)],
                       axis=1)
        return _rows(lhs, targets)

    acc = accumulate_paths(spec.n_paths, stat, 3 * m, spec.block_width)
    return _finish_statistical(spec, acc, m)


def _check_bracket(spec: CheckSpec) -> Report:
    """Bracket identities on two components and on their integrals.

    Realized quadratic variation against the predictable bracket,
    realized cross variation against zero, and the covariation of two
    integral processes against the time quadrature of the integrand
    inner product.
    """
    _need_paths(spec, 2)
    _need_modes(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    sampler = spec.sampler
    x = build_integrand(sc)
    y = build_integrand(sc, seed_offset=1000)
    m = 5

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
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
        return _rows(lhs, rhs)

    acc = accumulate_paths(spec.n_paths, stat, 3 * m, spec.block_width)
    return _finish_statistical(spec, acc, m)


def _check_martingale(spec: CheckSpec) -> Report:
    """Zero mean of the integral at the horizon and at an interior time."""
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    probe = float(spec.options.get("probe_time", sc.horizon / 2))
    sampler = spec.sampler
    integrand = build_integrand(sc)
    m = 2 * sc.dim_h + sc.n_modes

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        vals = side_cells(node_values(integrand, block), side, 1)
        z = integrate_cells(vals, block.increments)
        at_probe = z[np.arange(block.n_paths), block.node_at(probe)]
        lhs = np.concatenate([z[:, -1], at_probe, block.cumulative[:, :, -1]],
                             axis=1)
        return _rows(lhs, 0.0)

    acc = accumulate_paths(spec.n_paths, stat, 3 * m, spec.block_width)
    return _finish_statistical(spec, acc, m)


def _check_series_orthogonality(spec: CheckSpec) -> Report:
    """Per-mode terms of the operator integral are pairwise orthogonal.

    Includes the resulting additivity of squared norms across the series.
    """
    _need_paths(spec, 2)
    sc = spec.scenario
    side = sc.sample_side
    cov = resolve_covariance(sc)
    sampler = spec.sampler
    restricted = restrict_integrand(build_integrand(sc), cov)
    first, second = _component_pairs(spec)
    m = len(first) + 1

    def stat(paths):
        levy = assemble_levy(cov, sampler.sample_block(spec.seed, paths))
        node = node_values(restricted, levy.driver)
        seq = psi_lambda_apply(cov, side_cells(node, side, 1))
        tv = terminal_terms(seq, levy.driver.increments)
        total = tv.sum(axis=1)
        lhs = np.concatenate([np.vecdot(tv[:, first], tv[:, second]),
                              np.vecdot(total, total)[:, None]], axis=1)
        rhs = np.zeros(lhs.shape)
        rhs[:, -1] = np.einsum("bjd,bjd->b", tv, tv)
        return _rows(lhs, rhs)

    acc = accumulate_paths(spec.n_paths, stat, 3 * m, spec.block_width)
    return _finish_statistical(spec, acc, m)


def _check_truncation_tail(spec: CheckSpec) -> Report:
    """Dropping trailing modes loses exactly the dropped quadrature mass.

    Also reports the a priori tail bound (horizon times dropped column
    mass plus operator norm squared times unresolved tail mass) and
    fails if the sampled mean exceeds it.  Needs a constant integrand so
    the bound is a single number.
    """
    _need_paths(spec, 2)
    sc = spec.scenario
    if sc.integrand.evaluator != "constant":
        raise ConfigInvalid("truncation_tail needs a constant integrand")
    n_sub = int(spec.options.get("n_sub", 3))
    if not 0 < n_sub < sc.n_modes:
        raise ConfigInvalid(f"truncation_tail option n_sub {n_sub} must lie "
                            f"strictly between 0 and space.J {sc.n_modes}")
    side = sc.sample_side
    cov = resolve_covariance(sc)
    sampler = spec.sampler
    raw = build_integrand(sc)
    restricted = restrict_integrand(raw, cov)

    probe = sampler.sample(spec.seed, 0)
    s0 = cell_values(restricted, probe, "left")[0]
    raw0 = cell_values(raw, probe, "left")[0]
    dropped = float(np.sum(s0[:, n_sub:] ** 2))
    # the SVD behind the operator norm fails on a non-finite probe value;
    # a NaN bound then fails the check below
    op_sq = (float(np.linalg.norm(raw0, 2)) ** 2
             if np.all(np.isfinite(raw0)) else math.nan)
    bound = sc.horizon * (dropped + op_sq * cov.tail_mass)

    def stat(paths):
        block = sampler.sample_block(spec.seed, paths)
        vals = side_cells(node_values(restricted, block), side, 1)
        tail = psi_lambda_apply(cov, vals)[:, :, n_sub:]
        diff = terminal_cells(tail, block.increments[:, n_sub:])
        lhs = np.vecdot(diff, diff)
        rhs = time_quadrature(tail, tail, block.grid.dt)
        return _rows(lhs[:, None], rhs[:, None])

    acc = accumulate_paths(spec.n_paths, stat, 3, spec.block_width)
    rep = _finish_statistical(spec, acc, 1)
    excess = float(acc.mean[0]) - bound          # NaN if either side is
    se_lhs = float(acc.se[0])
    if se_lhs > 0.0:
        over = np.maximum(0.0, excess) / (spec.sigmas * se_lhs)
    else:
        over = 0.0 if excess <= 0.0 else math.inf
    # np.maximum, unlike max, keeps a NaN from either side
    rep.margin = float(np.maximum(rep.margin, over))
    rep.passed = rep.margin <= 1.0
    rep.truncation_bound = bound
    return rep


# ---------------------------------------------------------------------------
# exact checks


def _check_basis_invariance(spec: CheckSpec) -> Report:
    """The integral does not depend on the orthonormal basis used to expand it."""
    sc = spec.scenario
    side = sc.sample_side
    sampler = spec.sampler
    integrand = build_integrand(sc)
    gen = _rng.stream(spec.seed, 0, 0, _rng.BASIS)
    q1 = random_orthogonal(sc.dim_h, gen)
    q2 = random_orthogonal(sc.dim_h, gen)

    def per_block(paths):
        block = sampler.sample_block(spec.seed, paths)
        vals = cell_values(integrand, block, side)
        dm = block.increments[:, 0]
        z0 = integrate_cells(vals[:, :, None, :], dm[:, None, :])
        z1 = integrate_in_basis(vals, dm, q1)
        z2 = integrate_in_basis(vals, dm, q2)
        dev = np.max([_row_max(z1 - z0), _row_max(z2 - z0),
                      _row_max(z2 - z1)], axis=0)
        return _exact_rows(dev, _row_max(z0))

    return _exact_loop(spec, per_block)


def _check_isometry_invariance(spec: CheckSpec) -> Report:
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
    sampler = spec.sampler
    integrand = build_integrand(sc)
    pure = [c for c, s in enumerate(sampler.specs) if s.sigma == 0.0]
    rate = np.array([sum(a * nu for a, nu in sampler.specs[c].jumps)
                     for c in pure])[:, None]

    def per_block(paths):
        driver = sampler.sample_block(spec.seed, paths)
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
        return _exact_rows(dev, np.max([_row_max(z1), q1], axis=0))

    return _exact_loop(spec, per_block)


def _check_well_defined(spec: CheckSpec) -> Report:
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
    sampler = spec.sampler
    raw = build_integrand(sc, n_inputs=cov1.dim_u)
    r1 = restrict_integrand(raw, cov1)
    r2 = restrict_integrand(raw, cov2)

    def per_block(paths):
        d1 = sampler.sample_block(spec.seed, paths)
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
        return _exact_rows(dev, ref)

    return _exact_loop(spec, per_block)


def _check_simple_exact(spec: CheckSpec) -> Report:
    """Integrating a piecewise constant integrand telescopes exactly."""
    sc = spec.scenario
    side = sc.sample_side
    integrand = build_simple_integrand(sc)
    b, values = integrand.breakpoints, integrand.values
    sampler = spec.sampler

    def per_block(paths):
        block = sampler.sample_block(spec.seed, paths)
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
        return _exact_rows(dev, ref)

    return _exact_loop(spec, per_block)


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


def run_check(spec: CheckSpec) -> Report:
    fn = CHECKS.get(spec.name)
    if fn is None:
        raise UnknownCheck(f"unknown check {spec.name!r}; valid names: "
                           f"{', '.join(CHECKS)}")
    t0 = time.perf_counter()
    report = fn(spec)
    report.wall_time = time.perf_counter() - t0
    return report


def worker_count(parallelism: int, n_tasks: int) -> int:
    """Workers for ``n_tasks`` checks: at most one per CPU and per check."""
    if parallelism < 1:
        raise ConfigInvalid(f"parallelism must be at least 1, got {parallelism}")
    return max(1, min(parallelism, os.cpu_count() or 1, n_tasks))


def run_suite(specs, parallelism: int = 1) -> list:
    """Run checks in order; results do not depend on ``parallelism``."""
    specs = list(specs)
    workers = worker_count(parallelism, len(specs))
    if workers == 1:
        return [run_check(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_check, specs))


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
         n_paths, {}),
        ("isometry2", replace(desk, integrand=replace(seqh, seed=102)),
         n_paths, {"route": "seq"}),
        ("isometry2", replace(desk, covariance=rand_basis,
                              integrand=replace(seqh, seed=103)),
         n_paths, {"route": "l2lambda"}),
        ("isometry4", replace(desk, covariance=rand_basis,
                              integrand=replace(oper, seed=104)),
         n_paths, {}),
        ("orthogonality", replace(desk, integrand=replace(seqh, seed=105)),
         n_paths, {}),
        ("basis_invariance", replace(one, integrand=replace(hvec, seed=106)),
         n_exact, {}),
        ("isometry_invariance", replace(desk, covariance=blocks_id,
                                        integrand=replace(seqh, seed=107)),
         n_exact, {}),
        ("well_defined", replace(desk, covariance=blocks_rand,
                                 integrand=replace(oper, seed=108)),
         n_exact, {}),
        ("covariance_recovery", replace(desk, covariance=rand_basis),
         n_paths, {}),
        ("bracket", replace(desk, n_modes=2,
                            integrand=replace(hvec, seed=110)),
         n_paths, {}),
        ("martingale", replace(desk, integrand=replace(seqh, seed=111)),
         n_paths, {}),
        ("simple_exact",
         replace(one, integrand=IntegrandConfig(
             family="simple", carrier="hvector", evaluator="constant",
             seed=112, scale=scale,
             breakpoints=(0.0, 0.3 * desk.horizon, 0.7 * desk.horizon,
                          desk.horizon))),
         n_exact, {}),
        ("series_orthogonality", replace(desk, covariance=rand_basis,
                                         integrand=replace(oper, seed=113)),
         n_paths, {}),
        ("truncation_tail",
         replace(desk, covariance=rand_basis,
                 integrand=replace(oper, evaluator="constant", seed=114)),
         n_paths, {"n_sub": 3}),
    ]
    return [CheckSpec(name, scenario, paths, base_seed + i, options=options)
            for i, (name, scenario, paths, options) in enumerate(entries, 1)]


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
