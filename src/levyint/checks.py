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
  means against the magnitude of the computation the term deviates from.

Reports from multi-statistic checks carry the worst case.  A check's
report is a deterministic function of its own spec (scenario, seeds,
n_paths): path indices map to fixed counter-based streams and reductions
use a fixed chunked tree, so serialized outputs are byte-identical across
runs, worker counts and the other checks selected.

A check is its set-up and one function of a sampled
:class:`levyint.processes.PathBlock`, which computes both sides with the
layers it certifies (:mod:`levyint.integrators`), one row per path.  It
evaluates each integrand once per block and hands the node values to
every layer that reads them, so an integral and its quadrature share one
evaluation; where a side needs an integral only at the horizon, it takes
the layer's terminal form.  One of two drivers owns everything else:

* :func:`_statistical` takes ``stat(block) -> (lhs, rhs)``, where lhs is
  (n_paths, n_cases) and rhs broadcasts to it, lays out the rows
  [lhs..., rhs..., lhs - rhs...] and reports the worst case of their
  accumulator.
* :func:`_exact` takes ``per_block(block) -> [(dev, ref), ...]``, per
  term and path the largest deviation between two computations and the
  magnitude of the reference, and :func:`_exact_loop` reports the maxima
  of the absolute and the relative deviation.

The suite runner owns the paths.  Checks whose paths have one law (driver
specs, horizon, grid) and one seed read the same paths: the default suite
draws every path under the config seed, while each entry keeps its own
seed for its set-up draws and its report.  :func:`run_suite` walks each
law's blocks once, with :func:`levyint.stats.accumulate_paths`, samples
each block once and hands it to every check of the law; a check of n
paths reads the first n, as the block it would sample alone.  Times at
which a check reads the path (``_PROBES``) join its grid, so each is a
node of every path.  The block width depends only on the law
(:func:`levyint.stats.block_paths` of the sampler's expected nodes).

Every entry of the default suite runs on the desk's drivers, so on a
grid that holds its probe times the suite samples one law.  The checks
of one or two driver components read them from the desk's blocks
(:func:`_components`): ``isometry1``, ``basis_invariance`` and
``simple_exact`` read :func:`_mixed_component`, ``bracket`` components 0
and 1.  The desk grid also holds the other components' jump times; they
are independent of the components read, so every identity holds on it.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Literal, Optional

import numpy as np

from . import rng as _rng
from .errors import ConfigInvalid
from .integrators import (angle_bracket, cell_values, covariation_integral,
                          integrate_in_basis, ito_general, ito_h,
                          ito_l2lambda, ito_seq, node_values,
                          quadrature_sq_norm, series_terms, terminal_cells)
from .processes import (SCHEDULED, PathBlock, TimeGrid, assemble_levy,
                        coordinate_view, transport_levy)
from .scenarios import (IntegrandConfig, ScenarioConfig, build_integrand,
                        driver_specs, make_sampler, path_law,
                        resolve_covariance, value_shape)
from .spaces import (alternate_decomposition, build_eigen_isometry,
                     make_covariance, random_orthogonal)
from .stats import MAX_BLOCK_BYTES, accumulate_paths, block_paths

BASE_SEED = 20260816
SIGMAS = 4.0
REL_TOL = 1e-12
_TINY = np.finfo(float).tiny

def _default_pairs(n_modes: int) -> tuple:
    """Adjacent component pairs plus the extreme pair; touches every component."""
    pairs = tuple((i, i + 1) for i in range(n_modes - 1))
    if n_modes > 2:
        pairs += ((0, n_modes - 1),)
    return pairs


def _mixed_component(sc: ScenarioConfig) -> int:
    """The component a one-driver check reads: the scenario's first with
    both a Brownian and a jump part, else component 0."""
    return next((c for c, s in enumerate(driver_specs(sc))
                 if s.sigma and s.jumps), 0)


def _components(block: PathBlock, first: int, n: int) -> PathBlock:
    """Components ``first`` to ``first + n - 1`` of a block, on its grid;
    the increments are a view, read-only as the block's are."""
    return PathBlock(block.grid, block.increments[:, first:first + n],
                     block.n_nodes)


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


def need_block_memory(sc: ScenarioConfig, width: int, nodes: float,
                      what: str) -> None:
    """Fail closed, before anything is allocated, where the largest array
    of a block of ``width`` paths of ``nodes`` nodes (the integrand's
    values or the path's node inputs) or the affine integrand's one plus
    one per input coefficient arrays would outgrow memory."""
    value = math.prod(value_shape(sc, sc.integrand.carrier))
    per_node = max(sc.n_modes + 1, value)
    inputs = 1 + max(sc.n_modes, sc.covariance.dim_u)
    size = 8 * max(width * nodes * per_node, inputs * value)
    if size > MAX_BLOCK_BYTES:
        raise ConfigInvalid(
            f"{what}: a block of {width} paths holds about "
            f"{width * nodes:.0f} grid nodes of {per_node} values each, the "
            f"integrand {inputs} coefficient arrays of {value} values; the "
            f"larger takes {size / 2**30:.3g} GiB, and space.J, space.dH, "
            f"space.T and the drivers' jump rates must keep it within "
            f"{MAX_BLOCK_BYTES / 2**30:.3g} GiB")


def _finish_statistical(spec: CheckSpec, acc) -> Report:
    """Reduce an accumulator laid out as [lhs..., rhs..., diff...]."""
    n = acc.mean.size // 3
    mean, se = acc.mean, acc.se
    # an infinite standard error (overflowing second moments) fails: NaN
    margins = [math.nan if s == math.inf
               else (0.0 if d == 0.0 else math.inf) if s == 0.0
               else d / (SIGMAS * s)
               for d, s in zip(np.abs(mean[2 * n:]).tolist(),
                               se[2 * n:].tolist())]
    w = int(np.argmax(margins))
    return Report(spec.name, float(mean[w]), float(mean[n + w]),
                  float(se[2 * n + w]), margins[w], margins[w] <= 1.0,
                  spec.n_paths, spec.seed)


def _statistical(spec: CheckSpec, stat, finish=None) -> _Member:
    """The statistical driver: ``stat(block) -> (lhs, rhs)`` to a member.

    Its rows are [lhs..., rhs..., lhs - rhs...]; ``finish`` reduces their
    accumulator to the report, by default the worst case.
    """
    _need_paths(spec, 2)

    def rows(block):
        lhs, rhs = stat(block)
        out = np.empty(lhs.shape[:1] + (3, lhs.shape[1]))
        out[:, 0], out[:, 1], out[:, 2] = lhs, rhs, lhs - rhs
        return out.reshape(lhs.shape[0], -1)

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
    """The exact driver: ``per_block(block) -> [(dev, ref), ...]`` to a member.

    Rounding scales with the computation, so each term deviates against
    its own reference, the magnitude of what it deviates from, and no
    margin depends on the integrand's scale.  The floor at the smallest
    normal float passes a zero deviation on a zero reference and fails
    any other: zeros round to zeros, so that deviation is no rounding.
    """
    def per_path(block):
        terms = np.array(per_block(block))       # (n_terms, 2, n_paths)
        # each term's reference becomes its relative deviation
        terms[:, 1] = terms[:, 0] / np.maximum(terms[:, 1], _TINY)
        return np.maximum.reduce(terms).T

    return _exact_loop(spec, per_path)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Per path, the largest absolute entry (0 if none); NaN if any is NaN."""
    return np.maximum.reduce(np.abs(a), axis=tuple(range(1, a.ndim)),
                             initial=0.0)


def _random_isometry(cov, seed: int):
    """The isometry of ``cov`` that mixes each repeated eigenvalue's block
    by a Haar rotation, drawn in eigenvalue order from the BASIS stream of
    ``seed``."""
    gen = _rng.stream(seed, 0, 0, _rng.BASIS)
    lam = cov.eigenvalues
    rotations = {}
    for v in sorted(set(lam.tolist())):
        n = int(np.count_nonzero(lam == v))
        if n > 1:
            rotations[v] = random_orthogonal(n, gen)
    return build_eigen_isometry(cov, rotations)


# ---------------------------------------------------------------------------
# statistical checks


def _check_isometry1(spec: CheckSpec) -> _Member:
    """E ||(X . M)_T||^2 equals E of the squared-norm quadrature, against
    the driver component :func:`_mixed_component`; X reads it alone."""
    c = _mixed_component(spec.scenario)
    integrand = build_integrand(spec.scenario, n_inputs=1)

    def stat(block):
        block = _components(block, c, 1)
        node = node_values(integrand, block)
        z = ito_h(node, block, 0, terminal=True)
        return _isometry_sides(z, node, block)

    return _statistical(spec, stat)


def _isometry_sides(z: np.ndarray, node: np.ndarray, block) -> tuple:
    """||z_T||^2 against the quadrature of ||X||^2, from one evaluation."""
    lhs = np.vecdot(z, z)
    rhs = quadrature_sq_norm(node, block)
    return lhs[:, None], rhs[:, None]


def _check_isometry2(spec: CheckSpec) -> _Member:
    """Isometry for a sequence integrand against the whole driver family.

    ``spec.route`` picks the layer: "seq" integrates the sampled family
    directly (:func:`ito_seq`), "l2lambda" integrates against the standard
    components that Phi_lambda projects out of the assembled path
    (:func:`ito_l2lambda`).
    """
    sc = spec.scenario
    if spec.route not in ("seq", "l2lambda"):
        raise ConfigInvalid(
            f"isometry2 route {spec.route!r} not one of seq, l2lambda")
    integrand = build_integrand(sc)
    cov = resolve_covariance(sc) if spec.route == "l2lambda" else None

    def stat(block):
        node = node_values(integrand, block)
        if cov is None:
            z = ito_seq(node, block, terminal=True)
        else:
            z = ito_l2lambda(node, assemble_levy(cov, block), terminal=True)
        return _isometry_sides(z, node, block)

    return _statistical(spec, stat)


def _check_isometry4(spec: CheckSpec) -> _Member:
    """Isometry for an operator integrand against an assembled path."""
    sc = spec.scenario
    cov = resolve_covariance(sc)
    restricted = build_integrand(sc, cov)

    def stat(block):
        node = node_values(restricted, block)
        z = ito_general(node, assemble_levy(cov, block), terminal=True)
        return _isometry_sides(z, node, block)

    return _statistical(spec, stat)


def _check_orthogonality(spec: CheckSpec) -> _Member:
    """Integrals against distinct components are orthogonal in mean square."""
    sc = spec.scenario
    first, second = _component_pairs(spec)
    integrand = build_integrand(sc)

    def stat(block):
        # one integral per component: the component axis is a batch axis
        vals = cell_values(integrand, block)
        terms = terminal_cells(vals.swapaxes(-2, -3)[..., None, :],
                               block.increments[..., None, :])
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
    clean, sim = sc.covariance, resolve_covariance(sc)
    e = np.eye(clean.dim_u)
    b0, b1 = clean.eigenbasis[:, 0], clean.eigenbasis[:, 1]
    quarter, half, h = _probes(spec)
    cases = ((e[0], e[0], h, h), (e[0], e[1], half, h),
             (e[1], e[1], quarter, half), (e[0], e[1], h, quarter),
             (b0, b0, half, half), (b0, b1, h, h),
             (b1, b1, h, half), (b0, b1, half, half))
    q = clean.eigenbasis @ np.diag(clean.eigenvalues) @ clean.eigenbasis.T
    targets = np.array([min(t, s) * float(u1 @ q @ u2)
                        for u1, u2, t, s in cases])
    # per-probe driver weights under the covariance actually sampled
    w1s = [u1 @ sim.synthesis for u1, _, _, _ in cases]
    w2s = [u2 @ sim.synthesis for _, u2, _, _ in cases]

    def stat(block):
        rows = np.arange(block.n_paths)
        at = {t: block.cumulative[rows, :, block.node_at(t)]
              for t in (quarter, half, h)}
        lhs = np.array([np.vecdot(at[t], w1) * np.vecdot(at[s], w2)
                        for w1, w2, (_, _, t, s) in zip(w1s, w2s, cases)]).T
        return lhs, targets

    return _statistical(spec, stat)


def _check_bracket(spec: CheckSpec) -> _Member:
    """Bracket identities on components 0 and 1 and on their integrals.

    Realized quadratic variation against the predictable bracket,
    realized cross variation against zero, and the covariation of two
    integral processes against the time quadrature of the integrand
    inner product.  The integrands read the two components alone.
    """
    _need_modes(spec, 2)
    sc = spec.scenario
    x = build_integrand(sc, n_inputs=2)
    y = build_integrand(sc, n_inputs=2, seed_offset=1000)

    def stat(block):
        block = _components(block, 0, 2)
        dm0, dm1 = block.increments[:, 0], block.increments[:, 1]
        nx, ny = node_values(x, block), node_values(y, block)
        ip = np.einsum("...kd,...kd->...k", cell_values(nx, block),
                       cell_values(ny, block))
        # realized brackets of M0, M1, of X . M0 with Y . M0 and with Y . M1
        lhs = np.array([np.vecdot(dm0, dm0), np.vecdot(dm1, dm1),
                        np.vecdot(dm0, dm1), np.vecdot(ip, dm0 * dm0),
                        np.vecdot(ip, dm0 * dm1)]).T
        t = angle_bracket(block.grid, 0, 0)
        zero = angle_bracket(block.grid, 0, 1)
        ci = covariation_integral(nx, ny, block, 0, 0)
        return lhs, np.array([t, t, zero, ci, zero]).T

    return _statistical(spec, stat)


def _check_martingale(spec: CheckSpec) -> _Member:
    """Zero mean of the integral at the horizon and at an interior time."""
    sc = spec.scenario
    probe, = _probes(spec)
    integrand = build_integrand(sc)

    def stat(block):
        z = ito_seq(integrand, block)
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
    cov = resolve_covariance(sc)
    restricted = build_integrand(sc, cov)
    first, second = _component_pairs(spec)

    def stat(block):
        tv = series_terms(restricted, assemble_levy(cov, block), terminal=True)
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
    cov = resolve_covariance(sc)
    raw = build_integrand(sc)
    restricted = build_integrand(sc, cov)

    # a constant integrand takes its value on any path, here a still one
    still = PathBlock(TimeGrid(np.array([[0.0, sc.horizon]]),
                               np.zeros((1, 2), dtype=np.uint8)),
                      np.zeros((1, sc.n_modes, 1)), np.array([2]))
    s0 = cell_values(restricted, still)[0, 0]
    raw0 = cell_values(raw, still)[0, 0]
    dropped = float(np.sum(s0[:, n_sub:] ** 2))
    # the SVD behind the operator norm fails on a non-finite probe value,
    # whose NaN bound fails below; op * op gives inf where op ** 2 raises
    op = (float(np.linalg.norm(raw0, 2)) if np.all(np.isfinite(raw0))
          else math.nan)
    bound = sc.horizon * (dropped + op * op * cov.tail_mass)

    def stat(block):
        node = node_values(restricted, block)
        terms = series_terms(node, assemble_levy(cov, block), terminal=True)
        # the dropped terms against the quadrature of the dropped columns
        return _isometry_sides(terms[:, n_sub:].sum(axis=1),
                               node[..., n_sub:], block)

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
    """The integral does not depend on the orthonormal basis used to expand it.

    Nor on the layer: an H-valued integrand is a one-column operator on a
    one-mode U, whose series (:func:`series_terms`) has one term, the
    integral against the one component read, :func:`_mixed_component`.
    The terminal forms of :func:`ito_h` and of the series, which the
    statistical checks read through every layer, must equal the last node
    of their running forms.
    """
    sc = spec.scenario
    c = _mixed_component(sc)
    integrand = build_integrand(sc, n_inputs=1)
    gen = _rng.stream(spec.seed, 0, 0, _rng.BASIS)
    q1, q2 = (random_orthogonal(sc.dim_h, gen) for _ in range(2))
    one_mode = make_covariance((1.0,))

    def per_block(block):
        block = _components(block, c, 1)
        node = node_values(integrand, block)
        vals = cell_values(node, block)
        dm = block.increments[:, 0]
        z0 = ito_h(node, block, 0)
        z1 = integrate_in_basis(vals, dm, q1)
        z2 = integrate_in_basis(vals, dm, q2)
        levy = assemble_levy(one_mode, block)
        terms = series_terms(node[..., None], levy)
        end = ito_h(node, block, 0, terminal=True)
        terms_end = series_terms(node[..., None], levy, terminal=True)
        dev = np.maximum.reduce([_row_max(z1 - z0), _row_max(z2 - z0),
                                 _row_max(z2 - z1), _row_max(terms[:, 0] - z0),
                                 _row_max(end - z0[:, -1]),
                                 _row_max(terms_end - terms[:, :, -1])])
        return [(dev, _row_max(z0))]

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
    cov = resolve_covariance(sc)
    iso = _random_isometry(cov, spec.seed)
    specs = driver_specs(sc)
    integrand = build_integrand(sc)
    pure = [c for c, s in enumerate(specs) if s.sigma == 0.0]
    rate = np.array([sum(a * nu for a, nu in specs[c].jumps)
                     for c in pure])[:, None]

    def per_block(driver):
        node = node_values(integrand, driver)
        z1 = ito_seq(node, driver)
        levy2 = transport_levy(assemble_levy(cov, driver), iso)
        node2 = iso.coord_map @ node
        z2 = ito_seq(node2, levy2.driver)
        q1 = quadrature_sq_norm(node, driver)
        q2 = quadrature_sq_norm(node2, driver)
        dt = driver.grid.dt[:, None]
        jumpless = driver.grid.kind[:, None, 1:] == SCHEDULED
        compensator = rate * dt
        stray = (driver.increments[:, pure] + compensator) * jumpless
        return [(_row_max(z1 - z2), _row_max(z1)), (np.abs(q1 - q2), q1),
                (_row_max(stray), _row_max(compensator))]

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
    cov1 = resolve_covariance(sc)
    iso = _random_isometry(cov1, spec.seed)
    cov2 = alternate_decomposition(cov1, iso)
    cmap = iso.coord_map
    r1 = build_integrand(sc, cov1, n_inputs=cov1.dim_u)
    r2 = build_integrand(sc, cov2, n_inputs=cov1.dim_u)
    raw = build_integrand(sc, n_inputs=cov1.dim_u)

    def per_block(d1):
        levy1 = assemble_levy(cov1, d1)
        view = coordinate_view(levy1)
        inc2 = cmap @ d1.increments
        levy2 = assemble_levy(cov2, replace(d1, increments=inc2))
        # one integrand's node values alive at a time, evaluated on the
        # observable path
        z1 = ito_general(node_values(r1, view), levy1)
        z2 = ito_general(node_values(r2, view), levy2)
        # A dL: column u of A integrates reference coordinate u
        z3 = ito_seq(node_values(raw, view).swapaxes(-1, -2), view)
        dev = np.maximum(_row_max(z1 - z2), _row_max(z1 - z3))
        return [(dev, _row_max(z1)),
                (_row_max(levy1.coords - levy2.coords), _row_max(levy1.coords))]

    return _exact(spec, per_block)


def _check_simple_exact(spec: CheckSpec) -> _Member:
    """Integrating a piecewise constant integrand telescopes exactly; the
    sum reads the clean intervals, so an injected fault is a deviation.
    The integral is against the component :func:`_mixed_component`."""
    sc = spec.scenario
    c = _mixed_component(sc)
    integrand = build_integrand(sc)
    clean = build_integrand(sc.with_fault(None))
    b, values = clean.breakpoints, clean.values

    def per_block(block):
        block = _components(block, c, 1)
        z = ito_h(integrand, block, 0)
        rows = np.arange(block.n_paths)
        cum = block.cumulative[:, 0]
        nodes = [block.node_at(t) for t in b]
        partial = np.zeros((block.n_paths, sc.dim_h))
        dev = ref = np.zeros(block.n_paths)
        for i in range(values.shape[0]):
            step = cum[rows, nodes[i + 1]] - cum[rows, nodes[i]]
            partial = partial + values[i] * step[:, None]
            dev = np.maximum(dev, _row_max(z[rows, nodes[i + 1]] - partial))
            ref = np.maximum(ref, _row_max(partial))
        return [(dev, ref)]

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

# checks that must catch each injected fault: the right-point fault, built
# into the integrand, biases adapted integrands and breaks the telescoping
# identity; the basis fault changes what covariance is actually sampled
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


def _pass_sampler(specs) -> tuple:
    """A pass's sampler and block width, after :func:`need_block_memory`."""
    first = specs[0]
    sampler = make_sampler(first.scenario, _probes(first))
    nodes = sampler.expected_nodes
    width = block_paths(nodes)
    for spec in specs:
        need_block_memory(spec.scenario, width, nodes, f"check {spec.name}")
    return sampler, width


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
    sampler, width = _pass_sampler(specs)
    own = []
    members = []
    for spec in specs:
        t0 = time.perf_counter()
        members.append(CHECKS[spec.name](spec))
        own.append(time.perf_counter() - t0)
    seed = _path_seed(specs[0])

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


# glibc's mallopt parameter for the free memory kept at the top of the heap
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


@cache
def _keep_freed_pages() -> None:
    """Keep up to 64 MiB of freed heap pages in this process, once.

    A pass allocates and frees the same per-block arrays (node values,
    node inputs, running integrals; 0.2 to 1 MB each on the desk) block
    after block.  By default glibc hands them back to the kernel on free
    and the next block faults them in again, page by page: about 26,000
    minor faults per round of the four exact checks at 1024 paths, a
    quarter of its CPU.  With ``M_TOP_PAD`` at 64 MiB the heap grows in
    64 MiB steps and keeps that much free memory at its top when it
    shrinks, so the arrays come from pages already mapped; every serial
    benchmark workload then takes under 40 faults per round.  On the
    desk 8 MiB also sufficed, but a block's arrays grow with ``space.dH``
    times ``space.J``, so the pad leaves eight times that room.  Raising
    ``M_MMAP_THRESHOLD`` instead keeps the arrays on the heap but still
    trims them, and took the same round to 36,000 faults.

    The pages kept are ones the process already used, so peak RSS moved
    by about 1 % at most on the benchmark workloads.  Where the C library
    has no ``mallopt`` (macOS, Windows) or ignores it (musl), this does
    nothing.  No arithmetic depends on where an array lives, so no report
    byte does.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def run_suite(specs, parallelism: int = 1) -> list:
    """Run checks; reports in order, with bytes that depend on nothing else.

    Checks whose paths have one law and seed form a group, and each group
    is walked once (:func:`_run_pass`).  With several workers, a group's
    checks are dealt in order into at most one unit per worker, and each
    unit is a pass of its own; units start in the order of their path
    counts, largest first.  Every process that runs a pass keeps its
    freed heap pages (:func:`_keep_freed_pages`).
    """
    _keep_freed_pages()
    specs = list(specs)
    for s in specs:
        if s.name not in CHECKS:
            raise ConfigInvalid(f"unknown check {s.name!r}; valid names: "
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
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_keep_freed_pages) as pool:
            done = list(pool.map(_run_pass, tasks))
    reports = [None] * len(specs)
    for unit, unit_reports in zip(units, done):
        for i, report in zip(unit, unit_reports):
            reports[i] = report
    return reports


def _block_spectrum(n_modes: int) -> tuple:
    """Dyadic eigenvalues with exact repeats, one pair per level."""
    return tuple(0.5 ** (2 + (j + 1) // 2) for j in range(n_modes))


def default_suite(n_paths: int = 100_000, n_exact: int = 64,
                  base_seed: int = BASE_SEED,
                  desk: Optional[ScenarioConfig] = None,
                  names=None) -> list:
    """The standing battery: every check once, isometry2 on both routes.

    The l2lambda route runs under a random eigenbasis, so that its
    projection through Phi_lambda is a real change of coordinates.

    ``desk`` supplies the shared scale (dimensions, horizon, grid,
    covariance, driver recipe, integrand scale); each entry swaps in the
    covariance and integrand its identity needs, never the drivers, so
    every entry reads the desk's paths (module docstring).  The breakpoints
    of ``simple_exact`` are the probe times of ``covariance_recovery``.

    ``names``, if given, selects the entries of those checks; each keeps
    its position's seed.  Covariances are built once, for the entries
    selected, and after the first entry is within the block bound of its
    pass: a space too large to check fails before a basis is drawn.
    """
    desk = ScenarioConfig() if desk is None else desk
    if isinstance(desk.drivers, dict):
        raise ConfigInvalid("drivers.replay: check samples its own paths, "
                            "so a replayed path can be simulated or "
                            "integrated but not checked")
    evaluator = desk.integrand.evaluator
    if evaluator not in ("driver_linear", "driver_tanh"):
        evaluator = "driver_linear"
    scale = desk.integrand.scale
    hvec = IntegrandConfig(carrier="hvector", evaluator=evaluator, scale=scale)
    seqh = IntegrandConfig(carrier="seqh", evaluator=evaluator, scale=scale)
    oper = IntegrandConfig(carrier="operator", evaluator=evaluator, scale=scale)
    const = replace(oper, evaluator="constant")
    simple = IntegrandConfig(
        family="simple", carrier="hvector", evaluator="constant",
        scale=scale, breakpoints=(0.0,) + tuple(
            f * desk.horizon for f in _PROBES["covariance_recovery"]))
    lam, tail = desk.covariance.eigenvalues, desk.covariance.tail_mass
    blocks = _block_spectrum(desk.n_modes)
    build = {"desk": lambda: desk.covariance,
             "rand_basis": lambda: make_covariance(lam, {"seed": 7}, tail),
             "blocks_id": lambda: make_covariance(blocks),
             "blocks_rand": lambda: make_covariance(blocks, {"seed": 11})}
    covariance = cache(lambda key: build[key]())

    entries = [
        ("isometry1", "desk", hvec, 101, n_paths),
        ("isometry2", "desk", seqh, 102, n_paths, "seq"),
        ("isometry2", "rand_basis", seqh, 103, n_paths, "l2lambda"),
        ("isometry4", "rand_basis", oper, 104, n_paths),
        ("orthogonality", "desk", seqh, 105, n_paths),
        ("basis_invariance", "desk", hvec, 106, n_exact),
        ("isometry_invariance", "blocks_id", seqh, 107, n_exact),
        ("well_defined", "blocks_rand", oper, 108, n_exact),
        ("covariance_recovery", "rand_basis", desk.integrand,
         desk.integrand.seed, n_paths),
        ("bracket", "desk", hvec, 110, n_paths),
        ("martingale", "desk", seqh, 111, n_paths),
        ("simple_exact", "desk", simple, 112, n_exact),
        ("series_orthogonality", "rand_basis", oper, 113, n_paths),
        ("truncation_tail", "rand_basis", const, 114, n_paths),
    ]
    specs = []
    for i, (name, cov, template, seed, paths, *route) in enumerate(entries, 1):
        if names is not None and name not in names:
            continue
        integrand = replace(template, seed=seed)
        if not specs and desk.covariance.dim_u == desk.n_modes:
            # only dim_u enters the bound: check it before a basis is drawn
            _pass_sampler([CheckSpec(name, replace(desk, integrand=integrand),
                                     paths, 0)])
        scenario = replace(desk, covariance=covariance(cov),
                           integrand=integrand)
        specs.append(CheckSpec(name, scenario, paths, base_seed + i, *route,
                               path_seed=base_seed))
    return specs


def negative_control_suite(fault: str, n_paths: int = 100_000,
                           n_exact: int = 64,
                           base_seed: int = BASE_SEED,
                           desk: Optional[ScenarioConfig] = None) -> list:
    """The detection battery for one injected fault."""
    if fault not in FAULT_CHECKS:
        raise ConfigInvalid(f"fault {fault!r} not one of "
                            f"{', '.join(FAULT_CHECKS)}")
    return [replace(s, scenario=s.scenario.with_fault(fault))
            for s in default_suite(n_paths, n_exact, base_seed, desk,
                                   FAULT_CHECKS[fault])]


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
