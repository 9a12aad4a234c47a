"""Stochastic integrals on refined grids, layer by layer.

All integrals are left-point Riemann-Stieltjes sums over grid cells.  The
integrand value attached to the cell (t_k, t_{k+1}] is the value of the
(left-continuous) integrand process just after t_k, so predictability is
built into the sampling rule.  ``sample_side="right"`` flips that rule;
it exists only as an injectable fault for the verification harness and
must never be used for real computations.

Layers (the maps are those of :mod:`levyint.spaces`):

* :func:`ito_h`: H-valued integrand against one real driver component.
* :func:`ito_seq`: sequence-of-H integrand against the whole driver
  family: per cell, the components are summed by one contraction, and
  the cells are summed in node order.
* :func:`ito_l2lambda`, the projected route: the same, against the
  standard components that Phi_lambda projects out of an assembled
  U-valued path.
* :func:`ito_general`: Hilbert-Schmidt integrand against an assembled
  path: Psi_lambda turns its values into sequences of columns, which are
  summed, or returned term by term by :func:`series_terms`.  A bounded
  operator on U is restricted to Hilbert-Schmidt form first.
* :func:`quadrature_sq_norm`, :func:`covariation_integral` and
  :func:`angle_bracket`: the time quadratures and brackets the isometry
  and covariation identities compare the integrals with.

Every layer takes a :class:`levyint.processes.PathBlock`, one path or
many, and returns one row per path.  The integral is an H-valued process,
and a layer returns it as a plain array: its running value at every grid
node, (n_paths, n_nodes, dim_h), with a zero first node, so ``z[i, -1]``
is the terminal value of path i and ``z[i, k]`` its value at node k.
:func:`series_terms` returns the series as (n_paths, n_modes, n_nodes,
dim_h), and the brackets and quadratures return (n_paths, n_nodes).  With
``terminal=True`` each layer returns only the value at the horizon, the
running form without its node axis, computed as one contraction.

An integrand is a :class:`SimpleIntegrand`, a :class:`GridIntegrand`, or
a grid integrand's values on the block at hand, as :func:`node_values`
returns them.  Passing the values lets an integral and a quadrature share
one evaluation, even when the integral samples the right cell end.

Every layer is a shape adapter around one kernel, :func:`integrate_cells`
(and its per-component form :func:`integrate_terms`, and the explicit
basis route :func:`integrate_in_basis`); the squared-norm quadrature is
:func:`time_quadrature`.  The kernel is two passes over a block: one
batched product contracts every cell's increments with its values over
the components, and one cumsum accumulates the cells.  The order in which
the product adds the components is the linear-algebra library's, so the
running sums are deterministic for given shapes but equal to a
component-by-component sum only up to rounding.  The terminal forms
:func:`terminal_cells` and :func:`terminal_terms` give the kernels' last
node as one contraction, without the running sums; they agree with it up
to rounding, which the ``basis_invariance`` check verifies on every path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMismatch,
    IndexOutOfRange,
    SpecMismatch,
)
from .processes import LevyPath, PathBlock, TimeGrid, project_standard
from .spaces import psi_lambda_apply


@dataclass(frozen=True)
class SimpleIntegrand:
    """Piecewise-constant integrand with declared breakpoints.

    ``values[i]`` is the value on the half-open interval
    (breakpoints[i], breakpoints[i+1]]; the value at time zero never
    enters an integral.  Values may be H vectors,
    sequences of H vectors, or Hilbert-Schmidt operators; randomized
    values must be built from path data available at the left breakpoint,
    which is the caller's adaptedness obligation.
    """

    breakpoints: np.ndarray          # (n+1,), 0 = b_0 < ... < b_n = horizon
    values: np.ndarray               # (n, ...) value per interval

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise DimensionMismatch("need at least two breakpoints")
        if b[0] != 0.0 or np.any(np.diff(b) <= 0):
            raise DimensionMismatch(
                "breakpoints must start at 0 and strictly increase")
        if v.shape[0] != b.size - 1:
            raise DimensionMismatch(
                f"{b.size - 1} intervals but {v.shape[0]} values")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GridIntegrand:
    """Integrand evaluated at every grid node of a given block of paths.

    ``evaluator(block)`` returns an array of per-node values, (n_paths,
    n_nodes, *value_shape).  Node k of a path may depend only on its data
    up to node k; the registry evaluators in :mod:`levyint.scenarios`
    respect that contract by construction.
    """

    evaluator: Callable[[PathBlock], np.ndarray]


def node_values(integrand, path: PathBlock) -> np.ndarray:
    """Per-node values of a grid integrand on a block, (n_paths, n_nodes,
    *value_shape).  Values already evaluated on the block pass through."""
    if isinstance(integrand, np.ndarray):
        per_node = integrand
    elif isinstance(integrand, GridIntegrand):
        per_node = np.asarray(integrand.evaluator(path), dtype=float)
    else:
        raise DimensionMismatch(
            f"unsupported integrand type {type(integrand)!r}")
    if per_node.shape[:2] != path.grid.times.shape:
        raise GridMismatch(
            f"integrand values of shape {per_node.shape} on a grid of "
            f"shape {path.grid.times.shape}")
    return per_node


def cell_values(integrand, path: PathBlock, sample_side: str = "left"
                ) -> np.ndarray:
    """Integrand value per grid cell under the given sampling rule.

    The result is (n_paths, n_cells, *value_shape); padding cells take
    the value of the last interval or node.  A grid integrand's cell takes
    its left node's value, or under the injectable right-point fault its
    right node's.  A simple integrand looks its values up row by row, and
    every breakpoint must be a node of every row.
    """
    if not isinstance(integrand, SimpleIntegrand):
        per_node = node_values(integrand, path)
        return per_node[:, :-1] if sample_side == "left" else per_node[:, 1:]
    times = path.grid.times
    b = integrand.breakpoints
    if np.any(times[:, -1] != b[-1]):
        raise GridMismatch("breakpoints do not end at the horizon")
    if not np.all(np.any(times[:, :, None] == b, axis=1)):
        raise GridMismatch(
            "every breakpoint must be a grid node; pass breakpoints as "
            "extra_times when sampling")
    lookup = times[:, :-1] if sample_side == "left" else times[:, 1:]
    idx = np.searchsorted(b, lookup, side="right") - 1
    np.clip(idx, 0, integrand.values.shape[0] - 1, out=idx)
    return integrand.values[idx]


def integrate_cells(vals: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The integration kernel: running left-point integral at every node.

    ``vals`` holds per-cell sequence values (..., n_cells, n_components,
    dim_h) and ``increments`` the matching driver increments (...,
    n_components, n_cells); leading axes, if any, are batch axes.  Each
    cell's contribution contracts its increments with its values over the
    components, all cells in one batched product, and the contributions
    are then accumulated over cells in node order, giving (..., n_nodes,
    dim_h) with a zero first node.
    """
    cells = increments.mT[..., None, :] @ vals
    shape = vals.shape
    out = np.zeros(shape[:-3] + (shape[-3] + 1, shape[-1]))
    cells[..., 0, :].cumsum(axis=-2, out=out[..., 1:, :])
    return out


def integrate_terms(vals: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Per-component running integrals, (..., n_components, n_nodes, dim_h).

    Term j integrates component j alone, exactly as :func:`integrate_cells`
    would; the terms add up to the full integral.
    """
    shape = vals.shape
    out = np.zeros(shape[:-3] + (shape[-2], shape[-3] + 1, shape[-1]))
    cells = out[..., 1:, :]
    np.multiply(np.swapaxes(vals, -2, -3), increments[..., None], out=cells)
    cells.cumsum(axis=-2, out=cells)
    return out


def terminal_cells(vals: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The kernel's terminal value: ``integrate_cells(...)[..., -1, :]``.

    One contraction over cells and components together, (..., dim_h),
    without the running sum; it agrees with the last node of
    :func:`integrate_cells` up to rounding.
    """
    lead = vals.shape[:-3]
    n = vals.shape[-3] * vals.shape[-2]
    flat = increments.swapaxes(-1, -2).reshape(lead + (1, n))
    return (flat @ vals.reshape(lead + (n, vals.shape[-1])))[..., 0, :]


def terminal_terms(vals: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The terms' terminal values: ``integrate_terms(...)[..., -1, :]``.

    One contraction over cells per component, (..., n_components, dim_h),
    as a batched product of each component's increments with its values.
    """
    per_term = increments[..., :, None, :] @ vals.swapaxes(-2, -3)
    return per_term[..., 0, :]


def integrate_in_basis(vals: np.ndarray, increments: np.ndarray,
                       basis: np.ndarray) -> np.ndarray:
    """The explicit route: the running integral through an orthonormal basis.

    ``vals`` holds H-valued cell values (..., n_cells, dim_h) and
    ``increments`` one component's increments (..., n_cells).  Each
    coefficient of the values against the columns of ``basis`` is
    integrated as a scalar, and the coefficient integrals are recombined
    into H, giving (..., n_nodes, dim_h) with a zero first node.
    """
    basis = np.asarray(basis, dtype=float)
    coeff = vals @ basis                 # per-cell coefficients against the basis
    cells = (coeff * increments[..., :, None]) @ basis.T
    shape = cells.shape
    out = np.zeros(shape[:-2] + (shape[-2] + 1, shape[-1]))
    cells.cumsum(axis=-2, out=out[..., 1:, :])
    return out


def time_quadrature(x_vals: np.ndarray, y_vals: np.ndarray,
                    dt: np.ndarray, terminal: bool = True) -> np.ndarray:
    """Left-point quadrature of <x, y> against time over all cells.

    ``dt`` is (..., n_cells); the value axes of ``x_vals`` and ``y_vals``
    after the cell axis are contracted as one inner product.  The result
    is the total, (...), or with ``terminal=False`` its running value at
    every node, (..., n_nodes), with a zero first node.
    """
    axes = "abc"[:x_vals.ndim - dt.ndim]
    per_cell = np.einsum(f"...k{axes},...k{axes}->...k", x_vals, y_vals)
    if terminal:
        return np.vecdot(per_cell, dt)
    out = np.zeros(dt.shape[:-1] + (dt.shape[-1] + 1,))
    (per_cell * dt).cumsum(axis=-1, out=out[..., 1:])
    return out


def ito_h(integrand, path: PathBlock, component: int, *,
          sample_side: str = "left", terminal: bool = False) -> np.ndarray:
    """Integrate an H-valued integrand against one driver component.

    Returns the running integral, (n_paths, n_nodes, dim_h), or its
    terminal value, (n_paths, dim_h).  Cell values are multiplied by the
    component increments coordinatewise.  The explicit route of
    :func:`integrate_in_basis` first integrates each coefficient against
    an orthonormal basis as a scalar and then recombines; the two routes
    agree up to rounding for any orthonormal basis, which is exactly the
    basis-independence of the construction.
    """
    if not 0 <= component < path.n_components:
        raise IndexOutOfRange(
            f"component {component} outside range(0, {path.n_components})")
    vals = cell_values(integrand, path, sample_side)
    if vals.ndim != 3:
        raise DimensionMismatch("H-valued integrand must have vector values")
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(vals[..., None, :], path.increments[:, component, None])


def ito_seq(integrand, path: PathBlock, *, sample_side: str = "left",
            terminal: bool = False) -> np.ndarray:
    """Integrate a sequence-of-H integrand against the driver family.

    Each cell sums its components in one contraction, and the cells are
    accumulated in node order (:func:`integrate_cells`); the result is the
    running integral, (n_paths, n_nodes, dim_h), or its terminal value,
    (n_paths, dim_h).
    """
    vals = cell_values(integrand, path, sample_side)
    if vals.ndim != 4 or vals.shape[2] != path.n_components:
        raise DimensionMismatch(
            f"sequence integrand has shape {vals.shape}, need "
            f"(paths, cells, {path.n_components}, dim_h)")
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(vals, path.increments)


def ito_l2lambda(integrand, path: LevyPath, *, sample_side: str = "left",
                 terminal: bool = False) -> np.ndarray:
    """Integrate a sequence-of-H integrand against an assembled path.

    :func:`ito_seq` on the standard components that Phi_lambda projects
    out of the path (:func:`project_standard`).
    """
    standard = PathBlock(path.grid, project_standard(path),
                         path.driver.n_nodes)
    return ito_seq(integrand, standard, sample_side=sample_side,
                   terminal=terminal)


def _operator_cells(integrand, path: LevyPath, sample_side: str
                    ) -> np.ndarray:
    """Hilbert-Schmidt cell values as sequences, through Psi_lambda."""
    vals = cell_values(integrand, path.driver, sample_side)
    if vals.ndim != 4:
        raise SpecMismatch(
            f"operator integrand has shape {vals.shape}, need "
            f"(paths, cells, dim_h, {path.spec.n_modes})")
    return psi_lambda_apply(path.spec, vals)


def ito_general(integrand, path: LevyPath, *, sample_side: str = "left",
                terminal: bool = False) -> np.ndarray:
    """Integrate a Hilbert-Schmidt integrand against an assembled path.

    Cell values are (dim_h, n_modes) operators in the weighted-column
    convention of :mod:`levyint.spaces`; Psi_lambda turns them into the
    sequence picture, which is then integrated component by component.
    The result is the running integral, (n_paths, n_nodes, dim_h), or its
    terminal value, (n_paths, dim_h).
    """
    seq_vals = _operator_cells(integrand, path, sample_side)
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(seq_vals, path.driver.increments)


def series_terms(integrand, path: LevyPath, *, sample_side: str = "left",
                 terminal: bool = False) -> np.ndarray:
    """Per-mode integrals whose fixed-order sum is the full integral.

    Term j, (n_paths, n_modes, n_nodes, dim_h)[:, j], integrates the j-th
    operator column against standard component j; the terminal form is
    (n_paths, n_modes, dim_h).  The terms are pairwise orthogonal in mean
    square, which the harness verifies.
    """
    seq_vals = _operator_cells(integrand, path, sample_side)
    kernel = terminal_terms if terminal else integrate_terms
    return kernel(seq_vals, path.driver.increments)


def angle_bracket(grid: TimeGrid, j: int, k: int, *, terminal: bool = False
                  ) -> np.ndarray:
    """Predictable bracket of standard components j and k at every node.

    It is t when j == k and 0 otherwise, (n_paths, n_nodes), or at the
    horizon, (n_paths,).
    """
    if j < 0 or k < 0:
        raise IndexOutOfRange("component indices must be nonnegative")
    times = grid.times[:, -1] if terminal else grid.times
    return times.copy() if j == k else np.zeros(times.shape)


def covariation_integral(x_integrand, y_integrand, path: PathBlock,
                         j: int, k: int, *, sample_side: str = "left",
                         terminal: bool = False) -> np.ndarray:
    """Pathwise integral of <X, Y> against the bracket of components j, k.

    The bracket of standard components is delta_{jk} t, so the result,
    (n_paths, n_nodes), or (n_paths,) at the horizon, is the running
    left-point quadrature of the H inner product of the two integrands
    when j == k and identically zero otherwise.
    """
    if j != k:
        return angle_bracket(path.grid, j, k, terminal=terminal)
    vx = cell_values(x_integrand, path, sample_side)
    vy = cell_values(y_integrand, path, sample_side)
    if vx.shape != vy.shape:
        raise DimensionMismatch(
            f"integrand shapes {vx.shape} and {vy.shape} differ")
    return time_quadrature(vx, vy, path.grid.dt, terminal)


def quadrature_sq_norm(integrand, path: PathBlock, *, terminal: bool = False
                       ) -> np.ndarray:
    """Left-point quadrature of the squared integrand norm against time.

    H vectors, sequences of H vectors and Hilbert-Schmidt values all
    reduce to a sum of squares per cell.  The result is the running
    quadrature, (n_paths, n_nodes), or its total, (n_paths,).
    """
    vals = cell_values(integrand, path, "left")
    return time_quadrature(vals, vals, path.grid.dt, terminal)
