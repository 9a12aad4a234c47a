"""Stochastic integrals on refined grids, layer by layer.

All integrals are left-point Riemann-Stieltjes sums over grid cells.  The
integrand value attached to the cell (t_k, t_{k+1}] is the value of the
(left-continuous) integrand process just after t_k, so predictability is
built into the sampling rule, the only one.  The harness's right-point
fault lives in the integrand: :mod:`levyint.scenarios` builds it so that
node k holds node k + 1's value.

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
dim_h).  With ``terminal=True`` an integral returns only its value at the
horizon, computed as one contraction.  The brackets and quadratures
return their totals, (n_paths,).

An integrand is a function of a block, returning its values at every
grid node, (n_paths, n_nodes, *value_shape), or those values already
evaluated on the block at hand, as :func:`node_values` returns them.
Passing the values lets an integral and a quadrature share one evaluation.

Every integral is a shape adapter around one kernel,
:func:`integrate_cells`, and its terminal form :func:`terminal_cells`; a
series term is the kernel on one component, which becomes a batch axis.
The kernel is two passes over a block: one batched product contracts
every cell's increments with its values over the components, and one
cumsum accumulates the cells.  The order in which the product adds the
components is the linear-algebra library's, so the running sums are
deterministic for given shapes but equal to a component-by-component sum
only up to rounding.  The terminal form gives the kernel's last node as
one contraction, without the running sums; it agrees with it up to
rounding, which the ``basis_invariance`` check verifies on every path.
:func:`integrate_in_basis` is the independent reference route through an
explicit orthonormal basis, with its own products and cumsum, and
:func:`time_quadrature` is the quadrature behind every bracket.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    def __call__(self, path: PathBlock) -> np.ndarray:
        """At each node, the value on the interval that follows; every
        breakpoint must be a node of every row."""
        times = path.grid.times
        b = self.breakpoints
        if np.any(times[:, -1] != b[-1]):
            raise GridMismatch("breakpoints do not end at the horizon")
        if not np.all(np.any(times[:, :, None] == b, axis=1)):
            raise GridMismatch(
                "every breakpoint must be a grid node; pass breakpoints as "
                "extra_times when sampling")
        idx = np.searchsorted(b, times, side="right") - 1
        np.clip(idx, 0, self.values.shape[0] - 1, out=idx)
        return self.values[idx]


def node_values(integrand, path: PathBlock) -> np.ndarray:
    """Per-node values of an integrand on a block, (n_paths, n_nodes,
    *value_shape): the integrand called on the block, or values already
    evaluated on it, which pass through.  Node k of a path may depend only
    on its data up to node k; the evaluators of :mod:`levyint.scenarios`
    respect that contract by construction.
    """
    if isinstance(integrand, np.ndarray):
        per_node = integrand
    elif callable(integrand):
        per_node = np.asarray(integrand(path), dtype=float)
    else:
        raise DimensionMismatch(
            f"unsupported integrand type {type(integrand)!r}")
    if per_node.shape[:2] != path.grid.times.shape:
        raise GridMismatch(
            f"integrand values of shape {per_node.shape} on a grid of "
            f"shape {path.grid.times.shape}")
    return per_node


def cell_values(integrand, path: PathBlock) -> np.ndarray:
    """Integrand value per grid cell, (n_paths, n_cells, *value_shape).

    A cell takes its left node's value (:func:`node_values`), so padding
    cells take the value of the last node.
    """
    return node_values(integrand, path)[:, :-1]


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
                    dt: np.ndarray) -> np.ndarray:
    """Left-point quadrature of <x, y> against time: the total, (...).

    ``dt`` is (..., n_cells); the value axes of ``x_vals`` and ``y_vals``
    after the cell axis are contracted as one inner product.
    """
    axes = "abc"[:x_vals.ndim - dt.ndim]
    per_cell = np.einsum(f"...k{axes},...k{axes}->...k", x_vals, y_vals)
    return np.vecdot(per_cell, dt)


def ito_h(integrand, path: PathBlock, component: int, *,
          terminal: bool = False) -> np.ndarray:
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
    vals = cell_values(integrand, path)
    if vals.ndim != 3:
        raise DimensionMismatch("H-valued integrand must have vector values")
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(vals[..., None, :], path.increments[:, component, None])


def ito_seq(integrand, path: PathBlock, *, terminal: bool = False
            ) -> np.ndarray:
    """Integrate a sequence-of-H integrand against the driver family.

    Each cell sums its components in one contraction, and the cells are
    accumulated in node order (:func:`integrate_cells`); the result is the
    running integral, (n_paths, n_nodes, dim_h), or its terminal value,
    (n_paths, dim_h).
    """
    vals = cell_values(integrand, path)
    if vals.ndim != 4 or vals.shape[2] != path.n_components:
        raise DimensionMismatch(
            f"sequence integrand has shape {vals.shape}, need "
            f"(paths, cells, {path.n_components}, dim_h)")
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(vals, path.increments)


def ito_l2lambda(integrand, path: LevyPath, *, terminal: bool = False
                 ) -> np.ndarray:
    """Integrate a sequence-of-H integrand against an assembled path.

    :func:`ito_seq` on the standard components that Phi_lambda projects
    out of the path (:func:`project_standard`).
    """
    standard = PathBlock(path.grid, project_standard(path),
                         path.driver.n_nodes)
    return ito_seq(integrand, standard, terminal=terminal)


def _operator_cells(integrand, path: LevyPath) -> np.ndarray:
    """Hilbert-Schmidt cell values as sequences, through Psi_lambda."""
    vals = cell_values(integrand, path.driver)
    if vals.ndim != 4:
        raise SpecMismatch(
            f"operator integrand has shape {vals.shape}, need "
            f"(paths, cells, dim_h, {path.spec.n_modes})")
    return psi_lambda_apply(path.spec, vals)


def ito_general(integrand, path: LevyPath, *, terminal: bool = False) -> np.ndarray:
    """Integrate a Hilbert-Schmidt integrand against an assembled path.

    Cell values are (dim_h, n_modes) operators in the weighted-column
    convention of :mod:`levyint.spaces`; Psi_lambda turns them into the
    sequence picture, which is then integrated component by component.
    The result is the running integral, (n_paths, n_nodes, dim_h), or its
    terminal value, (n_paths, dim_h).
    """
    seq_vals = _operator_cells(integrand, path)
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(seq_vals, path.driver.increments)


def series_terms(integrand, path: LevyPath, *, terminal: bool = False) -> np.ndarray:
    """Per-mode integrals whose fixed-order sum is the full integral.

    Term j, (n_paths, n_modes, n_nodes, dim_h)[:, j], integrates the j-th
    operator column against standard component j; the terminal form is
    (n_paths, n_modes, dim_h).  A term is the kernel on one component:
    the component axis becomes a batch axis.  The terms are pairwise
    orthogonal in mean square, which the harness verifies.
    """
    seq_vals = _operator_cells(integrand, path)
    kernel = terminal_cells if terminal else integrate_cells
    return kernel(seq_vals.swapaxes(-2, -3)[..., None, :],
                  path.driver.increments[..., None, :])


def angle_bracket(grid: TimeGrid, j: int, k: int) -> np.ndarray:
    """Predictable bracket of standard components j and k at the horizon,
    (n_paths,): the horizon when j == k and 0 otherwise."""
    if j < 0 or k < 0:
        raise IndexOutOfRange("component indices must be nonnegative")
    horizon = grid.times[:, -1]
    return horizon.copy() if j == k else np.zeros(horizon.shape)


def covariation_integral(x_integrand, y_integrand, path: PathBlock,
                         j: int, k: int) -> np.ndarray:
    """Pathwise integral of <X, Y> against the bracket of components j, k.

    The bracket of standard components is delta_{jk} t, so the result,
    (n_paths,), is the left-point quadrature of the H inner product of
    the two integrands when j == k and zero otherwise.
    """
    if j != k:
        return angle_bracket(path.grid, j, k)
    vx = cell_values(x_integrand, path)
    vy = cell_values(y_integrand, path)
    if vx.shape != vy.shape:
        raise DimensionMismatch(
            f"integrand shapes {vx.shape} and {vy.shape} differ")
    return time_quadrature(vx, vy, path.grid.dt)


def quadrature_sq_norm(integrand, path: PathBlock) -> np.ndarray:
    """Left-point quadrature of the squared integrand norm against time.

    H vectors, sequences of H vectors and Hilbert-Schmidt values all
    reduce to a sum of squares per cell.  The result is the total,
    (n_paths,).
    """
    vals = cell_values(integrand, path)
    return time_quadrature(vals, vals, path.grid.dt)
