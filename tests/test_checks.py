"""Check harness: accumulators, registry, suites, fault detection, reports."""

import functools
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from levyint import rng
from levyint.checks import (
    BASE_SEED,
    CHECKS,
    FAULT_CHECKS,
    CheckSpec,
    Report,
    _block_spectrum,
    _default_pairs,
    default_suite,
    fault_detected,
    negative_control_suite,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
    suite_passed,
)
from levyint.errors import ConfigInvalid, UnknownCheck
from levyint.scenarios import (CovarianceConfig, IntegrandConfig, ScenarioConfig,
                               make_sampler)
from levyint.stats import (CHUNK_SIZE, MIN_BLOCK_PATHS, MomentAccumulator,
                           accumulate_paths, block_paths, pairwise_merge,
                           path_blocks)

ONE_MODE = ScenarioConfig(
    n_modes=1, drivers=("brownian",), covariance=CovarianceConfig((1.0,)),
    integrand=IntegrandConfig(carrier="hvector", evaluator="driver_linear"))
# integrand scales at which an exact check must still see its faults
SCALES = pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])


def _scaled(desk: ScenarioConfig, scale: float) -> ScenarioConfig:
    return replace(desk, integrand=replace(desk.integrand, scale=scale))


def _samples(seed: int, n: int, k: int) -> np.ndarray:
    return rng.stream(seed, 0).standard_normal((n, k))


# ---------------------------------------------------------------------------
# moment accumulation


def test_accumulator_matches_numpy_moments():
    x = _samples(1, 400, 3)
    acc = MomentAccumulator.from_samples(x)
    assert acc.count == 400
    assert np.max(np.abs(acc.mean - x.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(acc.variance - x.var(axis=0, ddof=1))) <= 1e-12
    assert np.max(np.abs(acc.se - np.sqrt(x.var(axis=0, ddof=1) / 400))) <= 1e-12


def test_accumulator_rejects_flat_samples_and_degenerate_counts():
    with pytest.raises(ValueError):
        MomentAccumulator.from_samples(np.zeros(5))
    single = MomentAccumulator.from_samples(np.array([[1.0, 2.0]]))
    assert single.variance.tolist() == [0.0, 0.0]
    assert single.se.tolist() == [0.0, 0.0]


def test_merge_agrees_with_whole_sample():
    x = _samples(2, 513, 4)
    whole = MomentAccumulator.from_samples(x)
    merged = MomentAccumulator.from_samples(x[:200]).merge(
        MomentAccumulator.from_samples(x[200:]))
    assert merged.count == whole.count
    assert np.max(np.abs(merged.mean - whole.mean)) <= 1e-12
    assert np.max(np.abs(merged.variance - whole.variance)) <= 1e-12
    assert np.array_equal(merged.peak, whole.peak)
    assert np.array_equal(whole.peak, x.max(axis=0))


def test_pairwise_merge_tree():
    x = _samples(3, 300, 2)
    parts = [MomentAccumulator.from_samples(x[i:i + 60]) for i in range(0, 300, 60)]
    tree = pairwise_merge(parts)
    whole = MomentAccumulator.from_samples(x)
    assert tree.count == 300
    assert np.max(np.abs(tree.mean - whole.mean)) <= 1e-12
    assert np.max(np.abs(tree.variance - whole.variance)) <= 1e-12
    with pytest.raises(ValueError):
        pairwise_merge([])


def test_accumulate_paths_chunking_and_determinism():
    def stat(paths):
        return (np.stack([rng.stream(9, p).standard_normal(3)
                          for p in paths]),)

    small, = accumulate_paths(23, stat, 4, chunk_size=7)
    big, = accumulate_paths(23, stat, 4, chunk_size=1000)
    again, = accumulate_paths(23, stat, 4, chunk_size=7)
    assert small.count == big.count == 23
    assert np.max(np.abs(small.mean - big.mean)) <= 1e-12
    assert np.array_equal(small.mean, again.mean)
    assert np.array_equal(small.m2, again.m2)
    with pytest.raises(ValueError):
        accumulate_paths(0, stat, 4)


# ---------------------------------------------------------------------------
# single checks


def test_zero_integrand_isometry_is_exactly_tight():
    scenario = ScenarioConfig(
        n_modes=1, drivers=("brownian",), covariance=CovarianceConfig((1.0,)),
        integrand=IntegrandConfig(carrier="hvector", evaluator="constant",
                                  value=(0.0, 0.0, 0.0, 0.0)))
    report = run_check(CheckSpec("isometry1", scenario, 4, 77))
    assert report.passed and report.margin == 0.0
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.se == 0.0
    assert report.n_paths == 4 and report.seed == 77
    assert report.wall_time > 0.0


def test_unknown_check_name_rejected():
    with pytest.raises(UnknownCheck):
        run_check(CheckSpec("isometry9", ONE_MODE, 4, 1))


def test_check_preconditions_rejected():
    with pytest.raises(ConfigInvalid):
        run_check(CheckSpec("isometry1", ONE_MODE, 1, 1))
    with pytest.raises(ConfigInvalid, match="space.J"):
        run_check(CheckSpec("bracket", ScenarioConfig(
            n_modes=1, drivers=("brownian",),
            covariance=CovarianceConfig((1.0,))), 4, 1))
    with pytest.raises(ConfigInvalid):
        run_check(CheckSpec("isometry2", ScenarioConfig(
            integrand=IntegrandConfig(carrier="seqh")), 4, 1,
            route="spectral"))
    with pytest.raises(ConfigInvalid):
        run_check(CheckSpec("truncation_tail", ScenarioConfig(
            integrand=IntegrandConfig(carrier="operator")), 4, 1))
    # one mode leaves no tail to drop
    with pytest.raises(ConfigInvalid, match="space.J"):
        run_check(CheckSpec("truncation_tail", ScenarioConfig(
            n_modes=1, drivers=("brownian",),
            covariance=CovarianceConfig((1.0,)),
            integrand=IntegrandConfig(carrier="operator",
                                      evaluator="constant")), 4, 1))


def test_isometry2_routes_are_the_same_computation():
    scenario = ScenarioConfig(
        integrand=IntegrandConfig(carrier="seqh", evaluator="driver_linear",
                                  seed=42))
    seq = run_check(CheckSpec("isometry2", scenario, 400, 555, route="seq"))
    spectral = run_check(CheckSpec("isometry2", scenario, 400, 555,
                                   route="l2lambda"))
    # identity eigenbasis: the assembled path stores the same driver
    assert report_to_dict(seq) == report_to_dict(spectral)


# ---------------------------------------------------------------------------
# suites


def test_default_suite_layout():
    suite = default_suite(300, 8)
    names = [s.name for s in suite]
    assert names == [
        "isometry1", "isometry2", "isometry2", "isometry4", "orthogonality",
        "basis_invariance", "isometry_invariance", "well_defined",
        "covariance_recovery", "bracket", "martingale", "simple_exact",
        "series_orthogonality", "truncation_tail"]
    assert [s.seed for s in suite] == [BASE_SEED + i for i in range(1, 15)]
    exact = {"basis_invariance", "isometry_invariance", "well_defined",
             "simple_exact"}
    for s in suite:
        assert s.n_paths == (8 if s.name in exact else 300)
        assert s.name in CHECKS
    routes = [s.route for s in suite if s.name == "isometry2"]
    assert routes == ["seq", "l2lambda"]
    # the projected route runs under a random eigenbasis
    assert [s.scenario.covariance.basis for s in suite[1:3]] == [
        "identity", {"seed": 7}]


def test_suite_results_do_not_depend_on_parallelism():
    suite = default_suite(300, 8)
    serial = run_suite(suite)
    parallel = run_suite(suite, parallelism=2)
    assert reports_to_json(serial) == reports_to_json(parallel)
    assert reports_to_csv(serial) == reports_to_csv(parallel)
    # nor on the other checks, which share a check's paths in the suite
    alone = [reports_to_json(run_suite([spec])) for spec in suite]
    assert [reports_to_json([r]) for r in serial] == alone


DESK_LAW = ["isometry2", "isometry2", "isometry4", "orthogonality",
            "isometry_invariance", "well_defined", "covariance_recovery",
            "martingale", "series_orthogonality", "truncation_tail"]


def test_the_default_suite_samples_each_block_of_four_laws_once(monkeypatch):
    from levyint import checks
    from levyint.processes import PathSampler

    passes = []
    run_pass = checks._run_pass

    def recorded(specs):
        passes.append(specs)
        return run_pass(specs)

    calls = []
    sample_block = PathSampler.sample_block

    def counted(self, seed, indices):
        calls.append((self.specs, self.extra_times, seed, indices))
        return sample_block(self, seed, indices)

    monkeypatch.setattr(checks, "_run_pass", recorded)
    monkeypatch.setattr(PathSampler, "sample_block", counted)
    run_suite(default_suite(300, 8))
    # largest first: the desk's law, the single mixed driver, the first
    # two desk drivers, the single driver refined by the breakpoints
    assert [[s.name for s in specs] for specs in passes] == [
        DESK_LAW, ["isometry1", "basis_invariance"], ["bracket"],
        ["simple_exact"]]
    blocks = 0
    for specs in passes:
        nodes = make_sampler(specs[0].scenario,
                             checks._probes(specs[0])).expected_nodes
        blocks += sum(len(b) for b in path_blocks(
            max(s.n_paths for s in specs), block_paths(nodes)))
    # one call per block of each law, never one per check
    assert len(calls) == len(set(calls)) == blocks


def test_a_statistic_cannot_write_into_a_shared_block(monkeypatch):
    from levyint import checks

    def writes(spec):
        def stat(block):
            block.increments[:, 0] *= 2.0
            return block.increments[:, 0, :1], 0.0

        return checks._statistical(spec, stat)

    monkeypatch.setitem(checks.CHECKS, "orthogonality", writes)
    spec, = [s for s in default_suite(8, 4) if s.name == "orthogonality"]
    with pytest.raises(ValueError, match="read-only"):
        run_check(spec)


def test_workers_are_clamped_to_cpus_and_checks(monkeypatch):
    from levyint import checks

    monkeypatch.setattr(checks.os, "cpu_count", lambda: 4)
    assert checks.worker_count(8, 14) == 4
    assert checks.worker_count(8, 3) == 3
    assert checks.worker_count(2, 14) == 2
    assert checks.worker_count(3, 1) == 1
    with pytest.raises(ConfigInvalid, match="parallelism"):
        checks.worker_count(0, 14)

    def no_pool(*args, **kwargs):
        raise AssertionError("a single check must not start a pool")

    monkeypatch.setattr(checks, "ProcessPoolExecutor", no_pool)
    spec = default_suite(8, 2)[5]
    assert run_suite([spec], parallelism=4)[0].passed


def test_negative_control_filtering():
    controls = negative_control_suite("right_point", 50, 4)
    assert [s.name for s in controls] == [
        "isometry2", "isometry2", "martingale", "simple_exact"]
    assert all(s.scenario.fault == "right_point" for s in controls)
    assert [s.n_paths for s in controls] == [50, 50, 50, 4]
    basis = negative_control_suite("nonorthogonal_basis", 50, 4)
    assert [s.name for s in basis] == ["covariance_recovery"]
    assert basis[0].scenario.fault == "nonorthogonal_basis"
    with pytest.raises(ConfigInvalid):
        negative_control_suite("late_clock")


def test_right_point_fault_is_detected():
    reports = run_suite(negative_control_suite("right_point", 2000, 16))
    assert fault_detected(reports)
    by_name = {r.name: r for r in reports}
    # sampling at the right endpoint breaks the telescoping sum outright
    assert not by_name["simple_exact"].passed
    assert by_name["simple_exact"].margin > 1e6


def test_nonorthogonal_basis_fault_is_detected():
    reports = run_suite(negative_control_suite("nonorthogonal_basis", 30_000, 8))
    assert fault_detected(reports)
    assert not suite_passed(reports)


@SCALES
def test_well_defined_sees_a_restriction_without_sqrt_lambda(scale,
                                                             monkeypatch):
    # both decompositions share a restriction that drops sqrt(lambda_j);
    # only the route through the raw integrand and the reference
    # coordinates of the path can tell
    from levyint import scenarios

    spec, = [s for s in default_suite(64, 64,
                                      desk=_scaled(ScenarioConfig(), scale))
             if s.name == "well_defined"]
    assert run_check(spec).passed
    monkeypatch.setattr(scenarios, "restrict_bounded_operator",
                        lambda cov, a: a @ cov.eigenbasis)
    report = run_check(spec)
    assert not report.passed
    assert report.margin > 1e6


@SCALES
def test_isometry_invariance_sees_a_jump_in_the_wrong_cell(scale, monkeypatch):
    # a mutant sampler credits each pure-jump component's jumps to the cell
    # after their node (ev_node instead of ev_node - 1): the path is still a
    # compensated martingale under a predictable integrand, so only the
    # jump-attribution identity on cells ending at SCHEDULED nodes can tell
    from levyint.processes import PathSampler

    sample_block = PathSampler.sample_block

    def late_jumps(self, seed, indices):
        # sampled blocks are read-only: the mutant builds a new one
        block = sample_block(self, seed, indices)
        inc, dt = block.increments.copy(), block.grid.dt
        # a jump in a path's last cell stays there
        movable = np.arange(1, dt.shape[1]) < block.n_nodes[:, None] - 1
        for c, s in enumerate(self.specs):
            if s.sigma == 0.0:
                jump = inc[:, c] + sum(a * nu for a, nu in s.jumps) * dt
                move = np.where(movable, jump[:, :-1], 0.0)
                inc[:, c, :-1] -= move
                inc[:, c, 1:] += move
        return replace(block, increments=inc)

    spec, = [s for s in default_suite(64, 64,
                                      desk=_scaled(ScenarioConfig(), scale))
             if s.name == "isometry_invariance"]
    assert {"preset": "poisson", "a": 0.5} in spec.scenario.drivers
    assert run_check(spec).passed
    monkeypatch.setattr(PathSampler, "sample_block", late_jumps)
    report = run_check(spec)
    assert not report.passed
    assert report.margin > 1e6


def test_well_defined_sees_a_swap_across_eigenvalues(monkeypatch):
    # a mutant isometry swaps two positions of distinct eigenvalues, so
    # the second decomposition describes another covariance operator.
    # isometry_invariance cannot see it: permuting the components together
    # with the integrand coordinates is always a sequence isometry, and that
    # check passes the mutant at rounding level
    from levyint import checks
    from levyint.spaces import BasisIsometry

    def swap(cov, rotations=None):
        lam = cov.eigenvalues
        i, j = 0, int(np.flatnonzero(lam != lam[0])[0])
        cmap = np.eye(lam.size)
        cmap[[i, j]] = cmap[[j, i]]
        return BasisIsometry(lam, cmap)

    specs = {s.name: s for s in default_suite(64, 64)
             if s.name in ("well_defined", "isometry_invariance")}
    assert run_check(specs["well_defined"]).passed
    monkeypatch.setattr(checks, "build_eigen_isometry", swap)
    report = run_check(specs["well_defined"])
    assert not report.passed
    assert report.margin > 1e6
    assert run_check(specs["isometry_invariance"]).passed


def _lagged(kernel):
    """``kernel`` reading the value of cell k - 1 against the increment of
    cell k: a one-cell lag."""
    def lagged(vals, increments):
        return kernel(vals[..., :-1, :, :], increments[..., 1:])
    return lagged


@pytest.mark.parametrize("form", ["terminal_cells"])
def test_a_one_cell_lag_in_a_terminal_form_fails_the_suite(form, monkeypatch):
    # the statistical checks read the terminal form, where a lag biases
    # nothing they can see: the exact comparison with the running form can.
    # Every layer's terminal form reads it, series_terms' per-mode one too.
    from levyint import integrators

    monkeypatch.setattr(integrators, form, _lagged(getattr(integrators, form)))
    reports = run_suite(default_suite(4096, 64))
    assert not suite_passed(reports)
    assert "basis_invariance" in [r.name for r in reports if not r.passed]


LAYERS = ("ito_h", "ito_seq", "ito_l2lambda", "ito_general", "series_terms",
          "quadrature_sq_norm", "covariation_integral", "angle_bracket")
EVALUATORS = ("_eval_constant", "_eval_driver_linear", "_eval_driver_tanh")


def test_every_layer_is_reached_on_blocks_with_one_evaluation_each(
        monkeypatch):
    from levyint import checks, integrators, scenarios
    from levyint.processes import TimeGrid

    blocks = {name: [] for name in LAYERS}
    for name in LAYERS:
        def counted(*args, _name=name, _layer=getattr(integrators, name),
                    **kwargs):
            # the grid of the block or assembled path, or the grid itself
            grid = next(a if isinstance(a, TimeGrid) else a.grid
                        for a in args
                        if isinstance(a, TimeGrid) or hasattr(a, "grid"))
            blocks[_name].append(grid.times.shape)
            return _layer(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)

    # every raw evaluation inside a check's block statistic, keyed by the
    # statistic call and the integrand's coefficients
    current = [None]
    evaluations = []
    for name in EVALUATORS:
        evaluator = getattr(scenarios, name)

        @functools.wraps(evaluator)
        def recorded(path, _evaluator=evaluator, **coeffs):
            if current[0] is not None:
                key, = (id(c) for c in coeffs.values())
                evaluations.append((current[0], key))
            return _evaluator(path, **coeffs)

        monkeypatch.setattr(scenarios, name, recorded)
    calls = itertools.count()
    for name, build in list(checks.CHECKS.items()):
        def built(spec, _build=build):
            member = _build(spec)
            rows = member.rows

            def statistic(block):
                current[0] = (spec.name, spec.route, next(calls))
                try:
                    return rows(block)
                finally:
                    current[0] = None

            member.rows = statistic
            return member

        monkeypatch.setitem(checks.CHECKS, name, built)

    assert suite_passed(run_suite(default_suite(64, 4)))
    for name, shapes in blocks.items():
        assert shapes, f"no check reaches {name}"
        # a block of several paths, never a path at a time
        assert all(len(shape) == 2 and shape[0] > 1 for shape in shapes), name
    assert evaluations
    assert len(evaluations) == len(set(evaluations))


# ---------------------------------------------------------------------------
# helpers and serialization


def test_block_spectrum_has_exact_repeats():
    assert _block_spectrum(6) == (0.25, 0.125, 0.125, 0.0625, 0.0625, 0.03125)


def test_default_pairs():
    assert _default_pairs(2) == ((0, 1),)
    assert _default_pairs(4) == ((0, 1), (1, 2), (2, 3), (0, 3))


def test_suite_verdict_helpers():
    good = Report("a", 0.0, 0.0, 0.0, 0.0, True, 4, 1)
    bad = Report("b", 1.0, 0.0, 0.1, 2.5, False, 4, 1)
    assert suite_passed([good]) and not suite_passed([good, bad])
    assert fault_detected([good, bad]) and not fault_detected([good])


def test_report_dict_layout_and_timing_gate():
    r = Report("alpha", 1.5, 1.25, 0.1, 0.625, True, 100, 7, wall_time=3.25)
    d = report_to_dict(r)
    assert list(d) == ["name", "lhs", "rhs", "se", "margin", "pass",
                       "nPaths", "seed", "wallTime"]
    assert d["wallTime"] == 0.0
    assert report_to_dict(r, include_timings=True)["wallTime"] == 3.25
    bounded = Report("beta", 0.5, 0.25, 0.0, 2.5, False, 10, 8,
                     truncation_bound=0.125)
    db = report_to_dict(bounded)
    assert list(db)[-1] == "truncationBound" and db["truncationBound"] == 0.125


def test_json_report_round_trip():
    r = Report("alpha", 1.0 / 3.0, 1.25, 0.1, 0.625, True, 100, 7)
    text = reports_to_json([r])
    assert text.endswith("\n")
    rows = json.loads(text)
    assert rows[0]["lhs"] == 1.0 / 3.0
    assert rows[0]["pass"] is True


def test_json_report_writes_non_finite_values_as_null():
    def reject(token):
        raise ValueError(f"bare {token} in a JSON report")

    rows = [Report("alpha", float("nan"), 0.0, 0.0, float("nan"), False, 4, 7),
            Report("beta", 1.0 / 3.0, float("inf"), 0.0, float("-inf"), False,
                   4, 8, truncation_bound=float("nan"))]
    parsed = json.loads(reports_to_json(rows), parse_constant=reject)
    assert [parsed[0]["lhs"], parsed[0]["margin"]] == [None, None]
    assert parsed[1]["lhs"] == 1.0 / 3.0
    assert [parsed[1]["rhs"], parsed[1]["margin"],
            parsed[1]["truncationBound"]] == [None, None, None]
    # the CSV report keeps the repr of every value
    assert reports_to_csv(rows).split("\n")[1].split(",")[1:5] == [
        "nan", "0.0", "0.0", "nan"]
    finite = [Report("gamma", 0.1, 0.2, 0.3, 0.4, True, 4, 9)]
    assert reports_to_json(finite) == json.dumps(
        [report_to_dict(finite[0])], indent=2) + "\n"


def test_csv_report_shape():
    rows = [
        Report("alpha", 1.0 / 3.0, 1.25, 0.1, 0.625, True, 100, 7),
        Report("beta", 0.5, 0.25, 0.0, 2.5, False, 10, 8,
               truncation_bound=0.125),
    ]
    text = reports_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("name,lhs,rhs,se,margin,pass,nPaths,seed,"
                        "wallTime,truncationBound")
    first = lines[1].split(",")
    assert first[0] == "alpha"
    assert float(first[1]) == 1.0 / 3.0
    assert first[5] == "true"
    assert first[9] == ""
    second = lines[2].split(",")
    assert second[5] == "false"
    assert float(second[9]) == 0.125


# ---------------------------------------------------------------------------
# block statistics against the per-path layers


def _reference_rows(spec, paths):
    """Rows of orthogonality and truncation_tail path by path, each term
    integrated alone by ``ito_h``: a second computation of the terms that
    the checks take from ``terminal_cells`` on one component at a time
    and from ``series_terms``."""
    from levyint.integrators import cell_values, ito_h, quadrature_sq_norm
    from levyint.scenarios import (build_integrand, resolve_covariance,
                                   restrict_integrand)

    sc = spec.scenario
    sampler = make_sampler(sc)
    integrand = build_integrand(sc)
    out = []
    for p in paths:
        path = sampler.sample(spec.path_seed, p)
        if spec.name == "orthogonality":
            vals = cell_values(integrand, path)[0]
            terms = [ito_h(_cells_integrand(vals[:, j]), path, j)[0, -1]
                     for j in range(sc.n_modes)]
            dots = [terms[a] @ terms[b] for a, b in _default_pairs(sc.n_modes)]
            out.append(dots + [0.0] * len(dots) + dots)
            continue
        restricted = restrict_integrand(integrand, resolve_covariance(sc))
        vals = cell_values(restricted, path)[0]
        tail = [_cells_integrand(vals[:, :, j])
                for j in range(min(3, sc.n_modes - 1), sc.n_modes)]
        diff = sum(ito_h(x, path, j)[0, -1]
                   for j, x in enumerate(tail, sc.n_modes - len(tail)))
        q = sum(quadrature_sq_norm(x, path)[0] for x in tail)
        out.append([diff @ diff, q, diff @ diff - q])
    return np.array(out, dtype=float)


def _cells_integrand(cells):
    """A grid integrand whose left-point cell values on a block of one are
    ``cells``."""
    return lambda path: np.concatenate([cells, cells[-1:]])[None]


class _Captured(Exception):
    pass


def _block_statistic(spec, monkeypatch):
    """The block statistic callable that a check's pass hands to
    accumulate_paths, as rows of that check alone, and the block width it
    asks for.

    The check runs alone, at a path count that any range the tests pass
    lies below, and stops as soon as the pass starts.
    """
    from levyint import checks

    captured = []

    def capture(n_paths, stat_fn, width, *args, **kwargs):
        captured.append((lambda paths: stat_fn(paths)[0], width))
        raise _Captured

    monkeypatch.setattr(checks, "accumulate_paths", capture)
    with pytest.raises(_Captured):
        checks.run_check(replace(spec, n_paths=1 << 20))
    return captured[0]


def _block_width(spec, monkeypatch):
    """The block width a check runs at, statistical or exact."""
    from levyint import checks

    widths = []

    def capture(expected_nodes):
        widths.append(block_paths(expected_nodes))
        return widths[-1]

    monkeypatch.setattr(checks, "block_paths", capture)
    checks.run_check(spec)
    return widths[0]


STATISTICAL = [s for s in default_suite(64, 4) if s.name not in
               ("basis_invariance", "isometry_invariance", "well_defined",
                "simple_exact")]
STATISTICAL_IDS = [f"{s.name}-{s.route}" if s.name == "isometry2" else s.name
                   for s in STATISTICAL]


@pytest.mark.parametrize("spec", STATISTICAL, ids=STATISTICAL_IDS)
def test_block_rows_do_not_depend_on_the_block_width(spec, monkeypatch):
    stat_fn, width = _block_statistic(spec, monkeypatch)
    n_paths = 2 * width + 5

    def walk(w):
        return np.concatenate([stat_fn(paths) for blocks in
                               path_blocks(n_paths, w) for paths in blocks])

    narrow, wide = walk(MIN_BLOCK_PATHS), walk(width)
    assert narrow.shape == wide.shape and narrow.shape[0] == n_paths
    scale = np.max(np.abs(narrow), axis=1, keepdims=True)
    assert np.all(np.abs(wide - narrow) <= 1e-12 * scale)


# the desk of configs/default.json, and the jump-dense desk of the benchmark
DESK_DRIVERS = ("brownian", {"preset": "poisson", "a": 0.5},
                {"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0},
                "brownian", {"preset": "poisson", "a": 0.25},
                {"preset": "mixed", "sigma": 0.5, "a": 0.5})
JUMP_DENSE_DRIVERS = (
    {"preset": "poisson", "a": 0.15}, {"preset": "mixed", "sigma": 0.5, "a": 0.12},
    {"preset": "poisson", "a": 0.25}, {"preset": "mixed", "sigma": 0.3, "a": 0.1},
    {"preset": "poisson", "a": 0.2}, {"preset": "mixed", "sigma": 0.7, "a": 0.2})


@pytest.mark.parametrize("drivers, desk_nodes, desk_width", [
    (DESK_DRIVERS, 88.5, 46), (JUMP_DENSE_DRIVERS, 306.3, MIN_BLOCK_PATHS)],
    ids=["desk", "jump_dense"])
def test_block_width_is_a_function_of_the_scenario(drivers, desk_nodes,
                                                   desk_width, monkeypatch):
    desk = CheckSpec("martingale", ScenarioConfig(
        drivers=drivers, integrand=IntegrandConfig(carrier="seqh")), 64, 1)
    assert make_sampler(desk.scenario).expected_nodes == pytest.approx(
        desk_nodes, abs=0.05)
    assert _block_width(desk, monkeypatch) == desk_width
    for spec in default_suite(64, 4, desk=desk.scenario):
        width = _block_width(spec, monkeypatch)
        assert width >= MIN_BLOCK_PATHS
        # the same scenario at another seed, path count or fault
        other = replace(spec, seed=spec.seed + 1, n_paths=5,
                        scenario=spec.scenario.with_fault("right_point"))
        assert _block_width(other, monkeypatch) == width
        if spec.scenario.n_modes == 1:
            # one mixed component: 65 scheduled nodes and 0.5 jumps, plus
            # simple_exact's two breakpoints
            assert width == (60 if spec.name == "simple_exact" else 62)


def test_blocks_never_straddle_a_chunk():
    n_paths = 2 * CHUNK_SIZE + 50
    for width in (MIN_BLOCK_PATHS, 46, 62):
        chunks = list(path_blocks(n_paths, width))
        assert len(chunks) == 3
        flat = [p for blocks in chunks for paths in blocks for p in paths]
        assert flat == list(range(n_paths))
        for c, blocks in enumerate(chunks):
            for paths in blocks:
                assert 0 < len(paths) <= width
                assert paths.start // CHUNK_SIZE == (paths.stop - 1) // CHUNK_SIZE == c


@pytest.mark.parametrize("spec", STATISTICAL, ids=STATISTICAL_IDS)
def test_block_rows_match_per_path_layers(spec, monkeypatch):
    stat_fn, _ = _block_statistic(spec, monkeypatch)
    paths = range(4090, 4103)            # one odd-sized block
    rows = stat_fn(paths)
    # each row is the statistic on its path alone, a block of one
    refs = [np.concatenate([stat_fn(range(p, p + 1)) for p in paths])]
    if spec.name == "covariance_recovery":
        refs.append(_covariance_rows(spec, paths))
    elif spec.name in ("orthogonality", "truncation_tail"):
        refs.append(_reference_rows(spec, paths))
    for ref in refs:
        assert rows.shape == ref.shape
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(rows - ref) <= 1e-12 * scale)


def _covariance_rows(spec, paths):
    """covariance_recovery rows straight from its definition."""
    from levyint.processes import assemble_levy
    from levyint.scenarios import resolve_covariance

    sc = spec.scenario
    clean = resolve_covariance(sc.with_fault(None))
    sampler = make_sampler(sc)
    e = np.eye(clean.dim_u)
    b0, b1 = clean.eigenbasis[:, 0], clean.eigenbasis[:, 1]
    cases = ((e[0], e[0], 1.0, 1.0), (e[0], e[1], 0.5, 1.0),
             (e[1], e[1], 0.25, 0.5), (e[0], e[1], 1.0, 0.25),
             (b0, b0, 0.5, 0.5), (b0, b1, 1.0, 1.0),
             (b1, b1, 1.0, 0.5), (b0, b1, 0.5, 0.5))
    q = clean.eigenbasis @ np.diag(clean.eigenvalues) @ clean.eigenbasis.T
    target = [min(t, s) * (u1 @ q @ u2) for u1, u2, t, s in cases]
    out = []
    for p in paths:
        path = sampler.sample(spec.path_seed, p)
        coords = assemble_levy(resolve_covariance(sc), path).coords[0]
        at = {t: coords[:, path.node_at(t)[0]] for t in (0.25, 0.5, 1.0)}
        lhs = [(u1 @ at[t]) * (u2 @ at[s]) for u1, u2, t, s in cases]
        out.append(lhs + target + [a - b for a, b in zip(lhs, target)])
    return np.array(out)


# ---------------------------------------------------------------------------
# exact checks at any integrand scale

EXACT = ("basis_invariance", "isometry_invariance", "well_defined",
         "simple_exact")


def test_exact_terms_deviate_against_their_own_reference():
    from levyint.checks import REL_TOL, _exact

    terms = [(np.array([0.0, 1e-300, 1e-20, 0.0]),
              np.array([0.0, 0.0, 1.0, 1e-13])),
             (np.array([0.0, 0.0, 0.0, 1e-26]),
              np.array([1.0, 1.0, 1.0, 1e-13]))]
    rows = _exact(default_suite(2, 4)[5], lambda block: terms).rows(None)
    assert rows[:, 0].tolist() == [0.0, 1e-300, 1e-20, 1e-26]
    rel = rows[:, 1]
    # zero on a zero reference passes; anything else on one fails
    assert rel[0] == 0.0 and rel[1] > REL_TOL
    # a small reference is no excuse for a small deviation
    assert rel[2] == 1e-20 and rel[3] == pytest.approx(1e-13)


@SCALES
def test_right_point_fails_simple_exact_at_any_scale(scale):
    desk = _scaled(ScenarioConfig(drivers=DESK_DRIVERS), scale)
    spec, = [s for s in negative_control_suite("right_point", 2, 64,
                                               desk=desk)
             if s.name == "simple_exact"]
    report = run_check(spec)
    assert not report.passed and report.margin > 1e6


@SCALES
@pytest.mark.parametrize("desk, n_exact", [
    (ScenarioConfig(drivers=DESK_DRIVERS), 64),
    (ScenarioConfig(drivers=JUMP_DENSE_DRIVERS), 64),
    (ScenarioConfig(dim_h=32, n_modes=24, n_scheduled=512,
                    drivers=DESK_DRIVERS), 16)],
    ids=["desk", "jump_dense", "wide"])
def test_clean_exact_checks_pass_at_any_scale(desk, n_exact, scale):
    specs = [s for s in default_suite(2, n_exact, desk=_scaled(desk, scale))
             if s.name in EXACT]
    reports = run_suite(specs)
    assert [r.name for r in reports] == list(EXACT)
    assert all(r.passed for r in reports), [r.margin for r in reports]
