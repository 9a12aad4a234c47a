"""Pathwise behavior of the integral layers against hand-computed sums.

A path is a block of one, so every layer returns one row, row 0.
"""

import math

import numpy as np
import pytest

from levyint import rng
from levyint.errors import ConfigInvalid, LevyintError
from levyint.integrators import (
    SimpleIntegrand,
    angle_bracket,
    cell_values,
    covariation_integral,
    integrate_in_basis,
    ito_general,
    ito_h,
    ito_l2lambda,
    ito_seq,
    quadrature_sq_norm,
    series_terms,
)
from levyint.processes import (PathSampler, assemble_levy, normalize_drivers,
                               project_standard, replay_path)
from levyint.scenarios import (
    IntegrandConfig,
    ScenarioConfig,
    _with_fault,
    build_integrand,
    make_sampler,
    restrict_integrand,
)
from levyint.spaces import make_covariance, random_orthogonal

TWO_CELL = replay_path([0.0, 0.5, 1.0], [[10.0, 20.0]])


def constant_integrand(value):
    value = np.asarray(value, dtype=float)
    return lambda path: np.broadcast_to(
        value, path.grid.times.shape + value.shape)


def node_rows():
    """The value k at node k, as a one-dimensional H vector."""
    return lambda p: np.arange(p.grid.n_nodes, dtype=float)[None, :, None]


# ---------------------------------------------------------------------------
# integrand containers and cell sampling


def test_simple_integrand_validation():
    with pytest.raises(ConfigInvalid, match="at least two breakpoints"):
        SimpleIntegrand(np.array([0.0]), np.zeros((0, 1)))
    with pytest.raises(ConfigInvalid, match="start at 0 and strictly"):
        SimpleIntegrand(np.array([0.1, 1.0]), np.zeros((1, 1)))
    with pytest.raises(ConfigInvalid, match="start at 0 and strictly"):
        SimpleIntegrand(np.array([0.0, 0.5, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ConfigInvalid, match="2 intervals but 1 values"):
        SimpleIntegrand(np.array([0.0, 0.5, 1.0]), np.zeros((1, 1)))


def _two_step(fault=None, breakpoints=(0.0, 0.5, 1.0)):
    """A scenario's simple integrand, 2 on (0, 0.5] and 3 on (0.5, 1]."""
    return build_integrand(ScenarioConfig(
        dim_h=1, n_modes=1, fault=fault, integrand=IntegrandConfig(
            family="simple", carrier="hvector", evaluator="constant",
            breakpoints=breakpoints, value=((2.0,), (3.0,)))))


def test_cell_values_simple_left_right():
    si = _two_step()
    grid4 = replay_path([0.0, 0.25, 0.5, 0.75, 1.0], [[1.0, 1.0, 1.0, 1.0]])
    left = cell_values(si, grid4)
    right = cell_values(_two_step("right_point"), grid4)
    assert left.ravel().tolist() == [2.0, 2.0, 3.0, 3.0]
    # the right-point fault pulls the value across the breakpoint
    assert right.ravel().tolist() == [2.0, 3.0, 3.0, 3.0]


def test_cell_values_requires_breakpoints_on_the_grid():
    si = SimpleIntegrand(np.array([0.0, 0.3, 1.0]), np.array([[2.0], [3.0]]))
    with pytest.raises(ConfigInvalid, match="must be a grid node"):
        cell_values(si, TWO_CELL)
    short = SimpleIntegrand(np.array([0.0, 0.5]), np.array([[2.0]]))
    with pytest.raises(ConfigInvalid, match="do not end at the horizon"):
        cell_values(short, TWO_CELL)
    # the faulted integrand keeps the check
    with pytest.raises(ConfigInvalid, match="must be a grid node"):
        cell_values(_two_step("right_point", (0.0, 0.3, 1.0)), TWO_CELL)


def test_cell_values_grid_integrand_slicing():
    rows = node_rows()
    assert cell_values(rows, TWO_CELL).ravel().tolist() == [0.0, 1.0]
    right = _with_fault(ScenarioConfig(fault="right_point"), rows)
    assert cell_values(right, TWO_CELL).ravel().tolist() == [1.0, 2.0]
    # node values evaluated beforehand are cut the same way
    node = rows(TWO_CELL)
    assert cell_values(node, TWO_CELL).ravel().tolist() == [0.0, 1.0]
    with pytest.raises(LevyintError, match="integrand values of shape"):
        cell_values(lambda path: np.zeros((1, path.grid.n_nodes + 1, 1)),
                    TWO_CELL)
    # values without their path axis
    with pytest.raises(LevyintError, match="integrand values of shape"):
        cell_values(np.zeros((3, 1)), TWO_CELL)
    with pytest.raises(LevyintError, match="unsupported integrand type"):
        cell_values([0.0, 1.0, 2.0], TWO_CELL)


# ---------------------------------------------------------------------------
# one component


def test_ito_h_frozen_case():
    driver = replay_path([0.0, 0.5, 1.0], [[0.5, -1.5]])
    si = SimpleIntegrand(np.array([0.0, 1.0]), np.array([[2.0, 3.0]]))
    z = ito_h(si, driver, 0)[0]
    assert z[0].tolist() == [0.0, 0.0]
    assert z[driver.node_at(0.5)[0]].tolist() == [1.0, 1.5]
    assert z[-1].tolist() == [-2.0, -3.0]


def test_ito_h_left_vs_right_attribution():
    left = ito_h(_two_step(), TWO_CELL, 0)
    # left-point integration of the faulted integrand samples the right end
    right = ito_h(_two_step("right_point"), TWO_CELL, 0)
    assert left[0, -1, 0] == 80.0
    assert right[0, -1, 0] == 90.0
    assert ito_h(_two_step(), TWO_CELL, 0, terminal=True).tolist() == [[80.0]]


def test_ito_h_component_selection_and_bounds():
    driver = replay_path([0.0, 1.0], [[1.0], [-2.0]])
    si = SimpleIntegrand(np.array([0.0, 1.0]), np.array([[1.0, 1.0]]))
    assert ito_h(si, driver, 1)[0, -1].tolist() == [-2.0, -2.0]
    with pytest.raises(LevyintError, match="component 2 outside"):
        ito_h(si, driver, 2)
    seq_shaped = constant_integrand(np.ones((2, 2)))
    with pytest.raises(LevyintError, match="must have vector values"):
        ito_h(seq_shaped, driver, 0)


def test_projection_route_identity_basis_is_bit_exact():
    sampler = PathSampler(normalize_drivers("brownian"), 1.0, 8)
    path = sampler.sample(4, 0)
    gen = rng.stream(4, 0, 0, rng.INTEGRAND)
    vals = gen.standard_normal((1, path.grid.n_nodes, 3))
    integrand = lambda p: vals
    plain = ito_h(integrand, path, 0)
    routed = integrate_in_basis(cell_values(integrand, path),
                                path.increments[:, 0], np.eye(3))
    assert np.array_equal(plain, routed)


def test_projection_route_any_orthonormal_basis_agrees():
    sampler = PathSampler(normalize_drivers("brownian"), 1.0, 16)
    path = sampler.sample(5, 0)
    gen = rng.stream(5, 0, 0, rng.INTEGRAND)
    vals = gen.standard_normal((1, path.grid.n_nodes, 4))
    integrand = lambda p: vals
    plain = ito_h(integrand, path, 0)
    for seed in range(3):
        q = random_orthogonal(4, rng.stream(seed, 0, 0, rng.BASIS))
        routed = integrate_in_basis(cell_values(integrand, path),
                                    path.increments[:, 0], q)
        dev = np.max(np.abs(routed - plain))
        assert dev <= 1e-12 * max(1.0, np.max(np.abs(plain)))


# ---------------------------------------------------------------------------
# component families and assembled paths


def test_ito_seq_frozen_case():
    driver = replay_path([0.0, 0.5, 1.0], [[0.5, 0.5], [1.0, -1.0]])
    value = np.array([[1.0, 0.0], [0.0, 2.0]])   # rows: one H vector per component
    z = ito_seq(constant_integrand(value), driver)[0]
    assert z[driver.node_at(0.5)[0]].tolist() == [0.5, 2.0]
    assert z[-1].tolist() == [1.0, 0.0]


def test_ito_seq_rejects_wrong_shapes():
    driver = replay_path([0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(LevyintError, match="sequence integrand has shape"):
        ito_seq(constant_integrand(np.ones(2)), driver)
    with pytest.raises(LevyintError, match="sequence integrand has shape"):
        ito_seq(constant_integrand(np.ones((3, 2))), driver)


def _permuted(integrand, path, perm):
    """The integrand values and driver components of ``path`` reordered."""
    node = integrand(path)
    moved = replay_path(path.grid.times[0], path.increments[0, perm])
    return (lambda p: node[:, :, perm]), moved


def test_summation_order_does_not_matter():
    scenario = ScenarioConfig(
        integrand=IntegrandConfig(carrier="seqh", evaluator="driver_linear", seed=8))
    sampler = make_sampler(scenario)
    path = sampler.sample(6, 1)
    integrand = build_integrand(scenario)
    forward = ito_seq(integrand, path)
    ref = max(1.0, float(np.max(np.abs(forward))))
    for perm in (list(range(scenario.n_modes - 1, -1, -1)), [3, 0, 5, 1, 4, 2]):
        reordered = ito_seq(*_permuted(integrand, path, perm))
        assert np.max(np.abs(reordered - forward)) <= 1e-12 * ref


def test_l2lambda_layer_is_the_seq_layer_on_the_driver():
    scenario = ScenarioConfig(
        integrand=IntegrandConfig(carrier="seqh", evaluator="driver_linear", seed=9))
    sampler = make_sampler(scenario)
    path = sampler.sample(7, 2)
    integrand = build_integrand(scenario)
    levy = assemble_levy(scenario.covariance, path)
    through_path = ito_l2lambda(integrand, levy)
    direct = ito_seq(integrand, path)
    assert np.array_equal(through_path, direct)


def test_l2lambda_layer_projects_through_a_random_basis():
    scenario = ScenarioConfig(
        integrand=IntegrandConfig(carrier="seqh", evaluator="driver_linear", seed=9))
    path = make_sampler(scenario).sample(7, 2)
    integrand = build_integrand(scenario)
    levy = assemble_levy(
        make_covariance(scenario.covariance.eigenvalues, {"seed": 5}), path)
    through_path = ito_l2lambda(integrand, levy)
    direct = ito_seq(integrand, path)
    assert project_standard(levy) is not path.increments   # a real projection
    ref = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(through_path - direct)) <= 1e-12 * ref


def test_ito_general_worked_example():
    spec = make_covariance((0.5, 0.25))
    driver = replay_path([0.0, 0.5, 1.0], [[0.6, 0.4], [1.5, 0.5]])
    levy = assemble_levy(spec, driver)
    raw = constant_integrand(np.array([[1.0, 3.0]]))
    restricted = restrict_integrand(raw, spec)
    z = ito_general(restricted, levy)[0]
    assert abs(z[-1, 0] - 3.7071067811865475) <= 1e-12
    terms = series_terms(restricted, levy)[0]
    assert terms.shape == (2,) + z.shape
    assert abs(terms[0, -1, 0] - math.sqrt(0.5)) <= 1e-15
    assert terms[1, -1, 0] == 3.0
    assert np.max(np.abs(terms[0] + terms[1] - z)) <= 1e-12
    # the terminal forms are the last nodes
    assert np.max(np.abs(ito_general(restricted, levy, terminal=True)[0]
                         - z[-1])) <= 1e-12
    assert np.max(np.abs(series_terms(restricted, levy, terminal=True)[0]
                         - terms[:, -1])) <= 1e-15


def test_ito_general_order_and_shape_checks():
    spec = make_covariance((0.5, 0.25))
    driver = replay_path([0.0, 0.5, 1.0], [[0.6, 0.4], [1.5, 0.5]])
    levy = assemble_levy(spec, driver)
    op = np.array([[1.0, 3.0], [2.0, -1.0]])
    forward = ito_general(constant_integrand(op), levy)
    # swapping the modes, the operator columns and the driver components
    swapped = assemble_levy(make_covariance((0.25, 0.5)),
                            replay_path([0.0, 0.5, 1.0], [[1.5, 0.5], [0.6, 0.4]]))
    backward = ito_general(constant_integrand(op[:, ::-1]), swapped)
    assert np.max(np.abs(forward - backward)) <= 1e-12
    with pytest.raises(LevyintError, match="operator must have 2 columns"):
        ito_general(constant_integrand(np.ones((2, 3))), levy)
    with pytest.raises(LevyintError, match="operator must have 2 columns"):
        series_terms(constant_integrand(np.ones((2, 3))), levy)


def test_constant_operator_integral_telescopes():
    # a constant integrand sees only the terminal driver values
    spec = make_covariance((0.5, 0.25), {"seed": 6})
    sampler = PathSampler(normalize_drivers(
        ("brownian", {"preset": "poisson", "a": 0.5})), 1.0, 16)
    driver = sampler.sample(8, 0)
    levy = assemble_levy(spec, driver)
    s = np.array([[1.0, 3.0], [0.5, -2.0]])
    z = ito_general(constant_integrand(s), levy)[0]
    oracle = s @ driver.cumulative[0, :, -1]
    assert np.max(np.abs(z[-1] - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


# ---------------------------------------------------------------------------
# brackets and quadratures


def test_angle_bracket_values():
    grid = TWO_CELL.grid
    assert angle_bracket(grid, 1, 1).tolist() == [1.0]
    assert angle_bracket(grid, 0, 1).tolist() == [0.0]
    with pytest.raises(LevyintError, match="indices must be nonnegative"):
        angle_bracket(grid, -1, 0)


def test_covariation_integral_frozen_case():
    x = constant_integrand(np.array([1.0, 0.0]))
    y = constant_integrand(np.array([3.0, 4.0]))
    assert covariation_integral(x, y, TWO_CELL, 0, 0).tolist() == [3.0]
    assert covariation_integral(x, y, TWO_CELL, 0, 1).tolist() == [0.0]
    mismatched = constant_integrand(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(LevyintError, match="integrand shapes"):
        covariation_integral(x, mismatched, TWO_CELL, 0, 0)


def test_quadrature_sq_norm_frozen_cases():
    v = constant_integrand(np.array([2.0, 3.0]))
    total = quadrature_sq_norm(v, TWO_CELL)
    assert total.shape == (1,) and abs(total[0] - 13.0) <= 1e-12
    op = constant_integrand(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(quadrature_sq_norm(op, TWO_CELL)[0] - 30.0) <= 1e-12
    fsum_oracle = math.fsum([4.0 * 0.5, 9.0 * 0.5, 4.0 * 0.5, 9.0 * 0.5])
    assert abs(total[0] - fsum_oracle) <= 1e-12


def test_quadrature_uses_left_sampling_always():
    # values at the left nodes are 0 and 1, so the quadrature is 0.5
    assert quadrature_sq_norm(node_rows(), TWO_CELL).tolist() == [0.5]


def test_integral_path_accessors():
    driver = replay_path([0.0, 0.5, 1.0], [[1.0, 1.0]])
    si = SimpleIntegrand(np.array([0.0, 1.0]), np.array([[1.0]]))
    z = ito_h(si, driver, 0)
    assert z.shape == (1, 3, 1)
    assert z[0, driver.node_at(0.75)[0]][0] == z[0, 1][0]
    assert z[0, -1][0] == 2.0
    with pytest.raises(LevyintError, match=r"time 2.0 outside \[0, 1.0\]"):
        driver.node_at(2.0)
