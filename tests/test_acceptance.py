"""Acceptance battery at desk scale.

Eleven numbered criteria, one test each, every test printing a single
``criterion NN PASS/FAIL`` line with the measured margin.  The full
default suite (1e5 paths for statistical checks, 64 paths for exact
checks) runs once serially and backs criteria 2, 9 and 11; criterion 11
reruns it with two workers and compares report files byte for byte.
Statistical criteria use a four-sigma band around the Monte Carlo mean.
"""

import time

import numpy as np
import pytest

from levyint import rng
from levyint.checks import (
    BASE_SEED,
    CheckSpec,
    _random_isometry,
    default_suite,
    negative_control_suite,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
    suite_passed,
)
from levyint.integrators import (
    SimpleIntegrand,
    cell_values,
    integrate_in_basis,
    ito_general,
    ito_h,
    ito_seq,
    time_quadrature,
)
from levyint.processes import PathSampler, assemble_levy, normalize_drivers
from levyint.scenarios import (
    DESK_LAW,
    IntegrandConfig,
    ScenarioConfig,
    build_integrand,
    driver_specs,
    make_sampler,
    resolve_covariance,
    resolve_law,
)
from levyint.spaces import make_covariance, random_orthogonal
from levyint.stats import accumulate_paths, block_paths

pytestmark = pytest.mark.slow

N_PATHS = 100_000
MIXED_ONE = normalize_drivers(
    ({"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0},))


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _stat_margin(mean: float, target: float, se: float) -> float:
    dev = abs(mean - target)
    if se == 0.0:
        return 0.0 if dev == 0.0 else float("inf")
    return dev / (4.0 * se)


@pytest.fixture(scope="module")
def default_reports():
    t0 = time.perf_counter()
    reports = run_suite(default_suite())
    return reports, time.perf_counter() - t0


def test_c01_simple_process_exactness():
    t0 = time.perf_counter()
    carriers = ("hvector", "seqh", "operator")
    node_pool = np.linspace(0.0, 1.0, 17)
    worst = 0.0
    for case in range(100):
        gen = rng.stream(4000 + case, 0, 0, rng.CASE)
        dim_h = int(gen.integers(1, 4))
        n_modes = int(gen.integers(2, 5))
        carrier = carriers[case % 3]
        interior = np.sort(gen.choice(node_pool[1:-1],
                                      size=int(gen.integers(1, 4)),
                                      replace=False))
        breaks = np.concatenate([[0.0], interior, [1.0]])
        shape = {"hvector": (dim_h,), "seqh": (n_modes, dim_h),
                 "operator": (dim_h, n_modes)}[carrier]
        values = gen.standard_normal((breaks.size - 1,) + shape)
        integrand = SimpleIntegrand(breaks, values)
        sampler = PathSampler(driver_specs(ScenarioConfig(n_modes=n_modes)),
                              1.0, 16, extra_times=tuple(interior))
        path = sampler.sample(5000 + case, 0)
        if carrier == "hvector":
            z = ito_h(integrand, path, 0)
        elif carrier == "seqh":
            z = ito_seq(integrand, path)
        else:
            spec = make_covariance(tuple(0.5 ** np.arange(1, n_modes + 1)))
            z = ito_general(integrand, assemble_levy(spec, path))
        z, cum = z[0], path.cumulative[0]
        nodes = [path.node_at(t)[0] for t in breaks]
        partial = np.zeros(dim_h)
        for i in range(values.shape[0]):
            dcum = cum[:, nodes[i + 1]] - cum[:, nodes[i]]
            if carrier == "hvector":
                partial = partial + values[i] * dcum[0]
            elif carrier == "seqh":
                partial = partial + dcum @ values[i]
            else:
                partial = partial + values[i] @ dcum
            dev = float(np.max(np.abs(z[nodes[i + 1]] - partial)))
            worst = max(worst, dev / max(1.0, float(np.max(np.abs(partial)))))
    elapsed = time.perf_counter() - t0
    _criterion(1, worst <= 1e-12,
               f"100 layered simple integrals vs closed forms, worst "
               f"relative deviation {worst:.3e}, {elapsed:.1f}s")


def test_c02_isometry_all_layers(default_reports):
    reports, elapsed = default_reports
    four = reports[:4]
    names_ok = [r.name for r in four] == [
        "isometry1", "isometry2", "isometry2", "isometry4"]
    ok = names_ok and all(r.passed and r.n_paths == N_PATHS for r in four)
    margins = ", ".join(f"{r.name} {r.margin:.3f}" for r in four)
    wall = sum(r.wall_time for r in four)
    _criterion(2, ok, f"{margins} at {N_PATHS} paths, "
                      f"{wall:.0f}s of the {elapsed:.0f}s suite")


def test_c03_basis_independence():
    sc = ScenarioConfig(
        n_modes=1, drivers=MIXED_ONE, covariance=make_covariance((1.0,)),
        integrand=IntegrandConfig(carrier="hvector",
                                  evaluator="driver_linear", seed=301))
    sampler = make_sampler(sc)
    integrand = build_integrand(sc)
    gen = rng.stream(BASE_SEED + 303, 0, 0, rng.BASIS)
    rotations = [random_orthogonal(sc.dim_h, gen) for _ in range(10)]
    worst = 0.0
    for p in range(20):
        path = sampler.sample(BASE_SEED + 300, p)
        plain = ito_h(integrand, path, 0)
        ref = max(1.0, float(np.max(np.abs(plain))))
        for q in rotations:
            routed = integrate_in_basis(cell_values(integrand, path),
                                        path.increments[:, 0], q)
            dev = float(np.max(np.abs(routed - plain)))
            worst = max(worst, dev / ref)
    _criterion(3, worst <= 1e-12,
               f"10 rotations x 20 paths, worst relative deviation {worst:.3e}")


def test_c04_well_definedness():
    lam = (0.4, 0.3, 0.3, 0.15, 0.1, 0.05)
    sc = ScenarioConfig(
        covariance=make_covariance(lam, {"seed": 7}),
        integrand=IntegrandConfig(carrier="operator",
                                  evaluator="driver_linear", seed=401))
    # the check's isometry rotates the 0.3 pair, positions 1 and 2, alone
    iso = _random_isometry(resolve_covariance(sc), BASE_SEED + 401)
    moved = iso.coord_map != np.eye(len(lam))
    repeated_block = moved[1:3, 1:3].all() and moved.sum() == 4
    report = run_check(CheckSpec("well_defined", sc, 64, BASE_SEED + 401))
    _criterion(4, report.passed and repeated_block,
               f"two eigendecompositions with the 0.3 pair rotated in "
               f"block, margin {report.margin:.3e} over 64 paths")


def test_c05_component_orthogonality():
    sc = ScenarioConfig(integrand=IntegrandConfig(
        carrier="seqh", evaluator="driver_linear", seed=501))
    report = run_check(CheckSpec("orthogonality", sc, N_PATHS,
                                 BASE_SEED + 501))
    _criterion(5, report.passed,
               f"6 component pairs at {N_PATHS} paths, "
               f"worst margin {report.margin:.3f}")


def test_c06_covariance_recovery():
    lam, tail = resolve_law(DESK_LAW, 6)
    sc = ScenarioConfig(covariance=make_covariance(lam, {"seed": 7}, tail))
    spec = resolve_covariance(sc)
    sampler = make_sampler(sc)
    basis = spec.eigenbasis
    w = [(basis.T @ basis[:, i]) * np.sqrt(spec.eigenvalues) for i in range(2)]
    times = (0.25, 0.5, 1.0)
    combos = [(i, j, t, s) for (i, j) in ((0, 0), (1, 1), (0, 1))
              for t in times for s in times]

    def stat(paths):
        block = sampler.sample_block(BASE_SEED + 601, paths)
        rows = np.arange(block.n_paths)
        at = {t: block.cumulative[rows, :, block.node_at(t)] for t in times}
        return (np.stack([(at[t] @ w[i]) * (at[s] @ w[j])
                          for (i, j, t, s) in combos], axis=1),)

    acc, = accumulate_paths(N_PATHS, stat,
                            block_paths(sampler.expected_nodes))
    worst = 0.0
    for k, (i, j, t, s) in enumerate(combos):
        target = min(t, s) * float(spec.eigenvalues[i]) if i == j else 0.0
        worst = max(worst, _stat_margin(float(acc.mean[k]), target,
                                        float(acc.se[k])))
    _criterion(6, worst <= 1.0,
               f"3 eigen probes x 3x3 time grid at {N_PATHS} paths, "
               f"worst margin {worst:.3f}")


def test_c07_bracket_normalization():
    sampler = make_sampler(ScenarioConfig(n_modes=3))

    def stat(paths):
        m = sampler.sample_block(BASE_SEED + 701, paths).cumulative[:, :, -1]
        return (np.stack([m[:, 0] * m[:, 0], m[:, 1] * m[:, 1],
                          m[:, 2] * m[:, 2], m[:, 0] * m[:, 1],
                          m[:, 0] * m[:, 2], m[:, 1] * m[:, 2]], axis=1),)

    acc, = accumulate_paths(N_PATHS, stat,
                            block_paths(sampler.expected_nodes))
    targets = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    worst = max(_stat_margin(float(acc.mean[k]), targets[k],
                             float(acc.se[k])) for k in range(6))
    _criterion(7, worst <= 1.0,
               f"terminal variance of each preset vs horizon plus zero "
               f"cross moments at {N_PATHS} paths, worst margin {worst:.3f}")


def test_c08_quadratic_variation():
    sc = ScenarioConfig(
        n_modes=1, drivers=MIXED_ONE, covariance=make_covariance((1.0,)),
        integrand=IntegrandConfig(carrier="hvector",
                                  evaluator="driver_linear", seed=801))
    sampler = make_sampler(sc)
    x = build_integrand(sc)
    y = build_integrand(sc, seed_offset=1)

    def stat(paths):
        block = sampler.sample_block(BASE_SEED + 801, paths)
        zx = ito_h(x, block, 0)[:, -1]
        zy = ito_h(y, block, 0)[:, -1]
        vx = cell_values(x, block)
        vy = cell_values(y, block)
        # the bracket of the one standard component is t
        own = np.vecdot(zx, zx) - time_quadrature(vx, vx, block.grid.dt)
        cross = np.vecdot(zx, zy) - time_quadrature(vx, vy, block.grid.dt)
        return (np.stack([own, cross], axis=1),)

    acc, = accumulate_paths(N_PATHS, stat,
                            block_paths(sampler.expected_nodes))
    margins = [_stat_margin(float(acc.mean[k]), 0.0, float(acc.se[k]))
               for k in range(2)]
    _criterion(8, max(margins) <= 1.0,
               f"own and cross bracket compensation at {N_PATHS} paths, "
               f"margins {margins[0]:.3f} and {margins[1]:.3f}")


def test_c09_truncation_tail(default_reports):
    reports, _ = default_reports
    tail = next(r for r in reports if r.name == "truncation_tail")
    bounded = (tail.truncation_bound is not None
               and tail.truncation_bound > 0.0
               and tail.lhs <= tail.truncation_bound + 4.0 * tail.se)
    _criterion(9, tail.passed and bounded,
               f"dropped-mode mean square {tail.lhs:.5f} vs quadrature "
               f"{tail.rhs:.5f}, bound {tail.truncation_bound:.5f}, "
               f"margin {tail.margin:.3f}")


def test_c10_negative_controls():
    t0 = time.perf_counter()
    caught = {}
    for fault in ("right_point", "nonorthogonal_basis"):
        reports = run_suite(negative_control_suite(fault))
        caught[fault] = [r.name for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = bool(caught["right_point"]) and bool(caught["nonorthogonal_basis"])
    _criterion(10, ok,
               f"right_point caught by {sorted(set(caught['right_point']))}, "
               f"nonorthogonal_basis caught by "
               f"{sorted(set(caught['nonorthogonal_basis']))}, {elapsed:.0f}s")


def test_c11_determinism(default_reports, tmp_path):
    reports, _ = default_reports
    t0 = time.perf_counter()
    rerun = run_suite(default_suite(), parallelism=2)
    elapsed = time.perf_counter() - t0
    pairs = (("serial.json", reports_to_json(reports),
              "parallel.json", reports_to_json(rerun)),
             ("serial.csv", reports_to_csv(reports),
              "parallel.csv", reports_to_csv(rerun)))
    same = []
    for name_a, text_a, name_b, text_b in pairs:
        a = tmp_path / name_a
        b = tmp_path / name_b
        a.write_text(text_a, encoding="utf-8")
        b.write_text(text_b, encoding="utf-8")
        same.append(a.read_bytes() == b.read_bytes())
    _criterion(11, all(same),
               f"one-worker and two-worker report files byte-identical "
               f"(json and csv), rerun {elapsed:.0f}s")


def test_default_suite_passes_at_scale(default_reports):
    reports, elapsed = default_reports
    for r in reports:
        print(f"  {r.name:<22} margin {r.margin:10.3e}  "
              f"{'pass' if r.passed else 'FAIL'}  ({r.n_paths} paths)")
    print(f"  full suite wall time {elapsed:.0f}s")
    assert suite_passed(reports)
