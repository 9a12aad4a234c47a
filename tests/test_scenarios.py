"""Scenario configs: covariance laws, integrand factories, fault injection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levyint import rng
from levyint.errors import ConfigInvalid
from levyint.integrators import SimpleIntegrand, cell_values
from levyint.processes import normalize_drivers, replay_path
from levyint.scenarios import (
    BASIS_FAULT_EPS,
    CovarianceConfig,
    IntegrandConfig,
    ScenarioConfig,
    build_grid_integrand,
    build_integrand,
    make_sampler,
    resolve_covariance,
    restrict_integrand,
)
from levyint.spaces import make_covariance


# ---------------------------------------------------------------------------
# covariance laws


def test_geometric_law_frozen_values():
    lam, tail = CovarianceConfig({"kind": "geometric", "c": 0.5, "r": 0.5}).resolve(6)
    assert list(lam) == [0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]
    # c * r^(J+1) / (1 - r) is exactly the dropped geometric mass
    assert tail == 0.0078125


def test_power_law_tail_matches_direct_series():
    lam, tail = CovarianceConfig({"kind": "power", "c": 1.0, "p": 2.0}).resolve(4)
    assert np.allclose(lam, [1.0, 0.25, 1.0 / 9.0, 0.0625], rtol=0, atol=1e-15)
    oracle = math.pi ** 2 / 6.0 - math.fsum(1.0 / k ** 2 for k in range(1, 5))
    assert abs(tail - oracle) <= 1e-12


def test_explicit_eigenvalues_and_tail_override():
    lam, tail = CovarianceConfig((0.5, 0.25)).resolve(2)
    assert list(lam) == [0.5, 0.25] and tail == 0.0
    _, forced = CovarianceConfig((0.5, 0.25), tail_mass=0.125).resolve(2)
    assert forced == 0.125
    _, capped = CovarianceConfig(
        {"kind": "geometric", "c": 0.5, "r": 0.5}, tail_mass=0.0).resolve(6)
    assert capped == 0.0


def test_covariance_law_validation():
    with pytest.raises(ConfigInvalid):
        CovarianceConfig({"kind": "power", "c": 1.0, "p": 1.0}).resolve(3)
    with pytest.raises(ConfigInvalid):
        CovarianceConfig({"kind": "geometric", "c": 1.0, "r": 1.0}).resolve(3)
    with pytest.raises(ConfigInvalid):
        CovarianceConfig({"kind": "geometric", "c": 1.0, "r": 0.0}).resolve(3)
    with pytest.raises(ConfigInvalid):
        CovarianceConfig({"kind": "harmonic", "c": 1.0}).resolve(3)
    # the resolved spectrum is finite and positive, its tail finite
    with pytest.raises(ConfigInvalid, match="covariance.eigenvalues: eigen"):
        CovarianceConfig({"kind": "geometric", "c": -1.0, "r": 0.5}).resolve(3)
    with pytest.raises(ConfigInvalid, match="covariance.eigenvalues: eigen"):
        CovarianceConfig((0.5, math.nan)).resolve(2)
    with pytest.raises(ConfigInvalid, match="covariance.tailMass"):
        CovarianceConfig((0.5,), tail_mass=math.inf).resolve(1)


# ---------------------------------------------------------------------------
# scenario plumbing


def test_scenario_validation_and_fault_helpers():
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(fault="slow_clock")
    base = ScenarioConfig()
    assert base.fault is None
    faulted = base.with_fault("right_point")
    assert faulted.fault == "right_point"
    assert faulted.with_fault(None).fault is None
    assert base.fault is None   # with_fault does not mutate


@pytest.mark.parametrize("drivers", [("brownian",), ()], ids=["raw", "empty"])
def test_a_recipe_not_normalized_is_rejected_when_built(drivers):
    # only config parsing normalizes, so a scenario built in Python checks
    # its recipe before a sampler or driver_specs reads it
    with pytest.raises(ConfigInvalid, match="drivers"):
        ScenarioConfig(drivers=drivers)
    assert ScenarioConfig(drivers=normalize_drivers("brownian")).drivers


def test_integrand_config_validation():
    with pytest.raises(ConfigInvalid):
        IntegrandConfig(carrier="matrix")
    with pytest.raises(ConfigInvalid):
        IntegrandConfig(family="adapted")


def test_resolve_covariance_clean_and_faulted():
    base = ScenarioConfig()
    clean = resolve_covariance(base)
    assert clean.gram_defect() <= 1e-10
    broken = resolve_covariance(base.with_fault("nonorthogonal_basis"))
    assert broken.gram_defect() > 0.01
    assert broken.eigenvalues.tolist() == clean.eigenvalues.tolist()
    one = ScenarioConfig(n_modes=1, covariance=CovarianceConfig((1.0,)),
                         drivers=normalize_drivers("brownian"))
    scaled = resolve_covariance(one.with_fault("nonorthogonal_basis"))
    # single column cannot tilt toward a neighbor, so it is stretched
    assert abs(scaled.gram_defect() - (1.05 ** 2 - 1.0)) <= 1e-12


def test_basis_fault_direction_matches_eps():
    broken = resolve_covariance(ScenarioConfig().with_fault("nonorthogonal_basis"))
    assert broken.eigenbasis[1, 0] == BASIS_FAULT_EPS


def test_make_sampler_cycles_the_driver_recipe():
    specs = make_sampler(ScenarioConfig()).specs
    assert len(specs) == 6
    assert specs[0].sigma == 1.0 and specs[0].jumps == ()
    assert specs[3].sigma == 1.0 and specs[3].jumps == ()
    assert specs[1].sigma == 0.0 and len(specs[1].jumps) == 1
    assert specs[2].jumps and 0.0 < specs[2].sigma < 1.0
    assert specs[1].jumps == specs[4].jumps


def test_make_sampler_honors_extras_and_component_override():
    # the component count follows the scenario's J, and a simple
    # integrand's interior breakpoints join the grid
    simple = IntegrandConfig(family="simple", carrier="hvector",
                             evaluator="constant", breakpoints=(0.0, 0.33, 1.0))
    sc = ScenarioConfig(n_scheduled=8, n_modes=2, integrand=simple)
    sampler = make_sampler(sc)
    assert len(sampler.specs) == 2
    assert sampler.extra_times == (0.33,)
    path = sampler.sample(3, 0)
    assert 0.33 in path.grid.times
    # a grid integrand, or a simple one without breakpoints, adds nothing
    for integrand in (IntegrandConfig(), replace(simple, breakpoints=None)):
        assert make_sampler(replace(sc, integrand=integrand)).extra_times == ()


# ---------------------------------------------------------------------------
# integrand factories


def test_constant_evaluator_broadcasts_explicit_value():
    cfg = IntegrandConfig(carrier="hvector", evaluator="constant",
                          value=(1.0, -2.0))
    integrand = build_grid_integrand(cfg, (2,), 1)
    path = replay_path([0.0, 0.5, 1.0], [[1.0, 1.0]])
    vals = cell_values(integrand, path)
    assert vals.tolist() == [[[1.0, -2.0], [1.0, -2.0]]]


def test_constant_evaluator_rejects_wrong_shape():
    cfg = IntegrandConfig(carrier="hvector", evaluator="constant",
                          value=(1.0, -2.0, 3.0))
    with pytest.raises(ConfigInvalid):
        build_grid_integrand(cfg, (2,), 1)


def test_unknown_evaluator_rejected():
    cfg = IntegrandConfig(carrier="hvector", evaluator="driver_cubic")
    with pytest.raises(ConfigInvalid):
        build_grid_integrand(cfg, (2,), 1)


def test_driver_linear_values_depend_only_on_the_path_so_far():
    cfg = IntegrandConfig(carrier="hvector", evaluator="driver_linear", seed=5)
    integrand = build_grid_integrand(cfg, (2,), 1)
    a = replay_path([0.0, 0.5, 1.0], [[1.0, 2.0]])
    b = replay_path([0.0, 0.5, 1.0], [[1.0, -3.0]])
    va = integrand(a)[0]
    vb = integrand(b)[0]
    assert np.array_equal(va[0], vb[0])
    assert np.array_equal(va[1], vb[1])
    assert not np.array_equal(va[2], vb[2])


def test_driver_linear_offset_is_the_value_at_time_zero():
    cfg = IntegrandConfig(carrier="hvector", evaluator="driver_linear", seed=5)
    integrand = build_grid_integrand(cfg, (3,), 2)
    flat = replay_path([0.0, 1.0], [[0.0], [0.0]])
    gen = rng.stream(5, 0, 0, rng.INTEGRAND)
    c0 = gen.standard_normal(3)
    assert np.max(np.abs(integrand(flat)[0, 0] - c0)) <= 1e-15


def test_driver_tanh_values_are_bounded():
    cfg = IntegrandConfig(carrier="hvector", evaluator="driver_tanh", seed=6,
                          scale=3.0)
    integrand = build_grid_integrand(cfg, (2,), 1)
    path = replay_path([0.0, 0.5, 1.0], [[4.0, -9.0]])
    vals = integrand(path)
    assert np.max(np.abs(vals)) <= 1.0
    assert np.array_equal(vals, integrand(path))


def test_build_integrand_shapes_follow_the_carrier():
    cases = {"hvector": (4,), "seqh": (6, 4), "operator": (4, 6)}
    sc = ScenarioConfig(n_scheduled=4)
    sampler = make_sampler(sc)
    path = sampler.sample(2, 0)
    for carrier, shape in cases.items():
        scenario = ScenarioConfig(
            n_scheduled=4,
            integrand=IntegrandConfig(carrier=carrier, evaluator="driver_linear"))
        integrand = build_integrand(scenario)
        assert integrand(path).shape == (
            (1, path.grid.n_nodes) + shape)


def test_seed_offset_changes_the_draw():
    scenario = ScenarioConfig(
        integrand=IntegrandConfig(carrier="hvector", evaluator="driver_linear",
                                  seed=9))
    sampler = make_sampler(scenario)
    path = sampler.sample(2, 0)
    base = build_integrand(scenario)(path)
    moved = build_integrand(scenario, seed_offset=1)(path)
    assert not np.array_equal(base, moved)


def test_build_simple_integrand_round_trip_and_validation():
    scenario = ScenarioConfig(
        dim_h=1,
        integrand=IntegrandConfig(family="simple", carrier="hvector",
                                  evaluator="constant",
                                  breakpoints=(0.0, 0.5, 1.0),
                                  value=((2.0,), (3.0,))))
    si = build_integrand(scenario)
    assert isinstance(si, SimpleIntegrand)
    assert si.values.tolist() == [[2.0], [3.0]]
    # without a value, scale times normals from the integrand seed's stream
    drawn = ScenarioConfig(integrand=IntegrandConfig(
        family="simple", carrier="hvector", evaluator="constant", seed=4,
        scale=0.5, breakpoints=(0.0, 0.25, 1.0)))
    oracle = 0.5 * rng.stream(4, 0, 0, rng.INTEGRAND).standard_normal((2, 4))
    assert np.array_equal(build_integrand(drawn).values, oracle)
    with pytest.raises(ConfigInvalid, match="breakpoints"):
        build_integrand(replace(drawn, integrand=replace(
            drawn.integrand, breakpoints=None)))


def test_restrict_integrand_identity_matches_explicit_eye():
    raw_vals = np.arange(12.0).reshape(3, 4) + 1.0
    path = replay_path([0.0, 0.5, 1.0],
                       [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    raw = lambda p: np.broadcast_to(raw_vals, (p.grid.n_nodes, 3, 4))
    lam = (0.5, 0.25, 0.125, 0.0625)
    implicit = restrict_integrand(raw, make_covariance(lam))
    explicit = restrict_integrand(raw, make_covariance(lam, np.eye(4)))
    assert np.array_equal(implicit(path), explicit(path))


def test_restrict_integrand_composes_basis_then_weights():
    raw_vals = np.arange(12.0).reshape(3, 4) + 1.0
    path = replay_path([0.0, 0.5, 1.0],
                       [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    raw = lambda p: np.broadcast_to(raw_vals, (p.grid.n_nodes, 3, 4))
    spec = make_covariance((0.5, 0.25, 0.125, 0.0625), {"seed": 3})
    vals = restrict_integrand(raw, spec)(path)
    expected = (raw_vals @ spec.eigenbasis) * np.sqrt(spec.eigenvalues)
    assert vals.shape == (3, 3, 4)
    assert np.max(np.abs(vals - expected[None])) <= 1e-13


def test_restrict_integrand_frozen_scaling():
    raw = lambda p: np.broadcast_to(
        np.array([[1.0, 3.0]]), (p.grid.n_nodes, 1, 2))
    spec = make_covariance((0.5, 0.25))
    path = replay_path([0.0, 1.0], [[1.0], [1.0]])
    vals = restrict_integrand(raw, spec)(path)
    assert abs(vals[0, 0, 0] - math.sqrt(0.5)) <= 1e-15
    assert vals[0, 0, 1] == 1.5
