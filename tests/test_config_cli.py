"""JSON config parsing and the command line surface."""

import contextlib
import ctypes
import io
import json
import math
import pickle
import platform
from pathlib import Path

import numpy as np
import pytest

from levyint import checks, rng
from levyint.cli import main
from levyint.config import ExperimentConfig, load_config, parse_config
from levyint.errors import ConfigInvalid
from levyint.processes import normalize_drivers
from levyint.scenarios import CovarianceConfig, IntegrandConfig, ScenarioConfig
from levyint.stats import MAX_BLOCK_BYTES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "space": {"dH": 2, "J": 1, "T": 1.0, "nScheduled": 8},
    "covariance": {"eigenvalues": [1.0], "basis": "identity"},
    "drivers": "brownian",
    "integrand": {"family": "grid", "carrier": "hvector",
                  "evaluator": "driver_linear", "seed": 3, "scale": 1.0},
    "nPaths": 64,
    "nExact": 4,
    "seed": 11,
}

CHECK_BASE = {
    "space": {"dH": 2, "J": 6, "T": 1.0, "nScheduled": 16},
    "covariance": {"eigenvalues": {"kind": "geometric", "c": 0.5, "r": 0.5}},
    "drivers": ["brownian", {"preset": "poisson", "a": 0.5},
                {"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0}],
    "integrand": {"family": "grid", "carrier": "operator",
                  "evaluator": "driver_linear", "seed": 0, "scale": 1.0},
    "nPaths": 200,
    "nExact": 4,
    "seed": 9,
}


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    target = tmp_path / name
    target.write_text(json.dumps(payload), encoding="utf-8")
    return str(target)


def run_cli(*argv) -> int:
    return main(list(argv))


def run_cli_capturing(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# config parsing


def test_default_config_parses_every_field():
    raw = json.loads((CONFIG_DIR / "default.json").read_text())
    cfg = load_config(str(CONFIG_DIR / "default.json"))
    assert cfg == ExperimentConfig(
        scenario=ScenarioConfig(
            dim_h=4, n_modes=6, horizon=1.0, n_scheduled=64,
            covariance=CovarianceConfig(
                {"kind": "geometric", "c": 0.5, "r": 0.5}, "identity"),
            drivers=normalize_drivers(raw["drivers"]),
            integrand=IntegrandConfig(family="grid", carrier="operator",
                                      evaluator="driver_linear", seed=0,
                                      scale=1.0)),
        n_paths=100_000, n_exact=64, seed=20260816)


def test_worked_example_parses_with_defaults():
    raw = json.loads((CONFIG_DIR / "worked_example.json").read_text())
    cfg = load_config(str(CONFIG_DIR / "worked_example.json"))
    # nExact and the integrand's seed and scale take their defaults
    assert cfg == ExperimentConfig(
        scenario=ScenarioConfig(
            dim_h=1, n_modes=2, horizon=1.0, n_scheduled=2,
            covariance=CovarianceConfig((0.5, 0.25), "identity"),
            drivers=raw["drivers"],
            integrand=IntegrandConfig(carrier="operator",
                                      evaluator="constant",
                                      value=[[1.0, 3.0]])),
        n_paths=2, n_exact=64, seed=1)
    assert (cfg.scenario.integrand.seed, cfg.scenario.integrand.scale) == (
        0, 1.0)


def test_base_config_parses_every_field():
    cfg = parse_config(BASE)
    assert cfg == ExperimentConfig(
        scenario=ScenarioConfig(
            dim_h=2, n_modes=1, horizon=1.0, n_scheduled=8,
            covariance=CovarianceConfig((1.0,), "identity"),
            drivers=normalize_drivers("brownian"),
            integrand=IntegrandConfig(family="grid", carrier="hvector",
                                      evaluator="driver_linear", seed=3,
                                      scale=1.0)),
        n_paths=64, n_exact=4, seed=11)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigInvalid, match="nPath"):
        parse_config(dict(BASE, nPath=3))
    bad_space = dict(BASE, space=dict(BASE["space"], cells=4))
    with pytest.raises(ConfigInvalid, match="cells"):
        parse_config(bad_space)
    bad_law = dict(BASE, covariance={"eigenvalues": {"kind": "geometric",
                                                     "c": 0.5, "r": 0.5,
                                                     "q": 1.0}})
    with pytest.raises(ConfigInvalid, match="q"):
        parse_config(bad_law)


def test_value_validation():
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, covariance={"eigenvalues": [1.0],
                                            "tailMass": -0.5}))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, nPaths=0))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, nPaths=True))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, seed=-1))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, seed=True))
    with pytest.raises(ConfigInvalid, match="bogus"):
        parse_config(dict(BASE, checks=["isometry1", "bogus"]))
    with pytest.raises(ConfigInvalid, match="checks"):
        parse_config(dict(BASE, checks="isometry1"))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, fault="slow_clock"))
    with pytest.raises(ConfigInvalid):
        parse_config(dict(BASE, drivers={"preset": "brownian"}))


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigInvalid, match="config file not found"):
        load_config(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_config(str(broken))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_layout(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "path.csv"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time,kind,comp1"
    assert len(lines) == 1 + BASE["space"]["nScheduled"] + 1
    assert lines[1] == "0.0,scheduled,0.0"
    again = tmp_path / "again.csv"
    assert run_cli("simulate", "--config", cfg, "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


def test_simulate_json_layout(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "path.json"
    assert run_cli("simulate", "--config", cfg, "--format", "json",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"times", "kinds", "components"}
    assert len(data["times"]) == BASE["space"]["nScheduled"] + 1
    assert all(k == "scheduled" for k in data["kinds"])
    assert len(data["components"]) == 1


def test_simulate_seed_and_index_move_the_path(tmp_path):
    cfg = write_config(tmp_path, BASE)
    base = tmp_path / "a.csv"
    moved = tmp_path / "b.csv"
    shifted = tmp_path / "c.csv"
    run_cli("simulate", "--config", cfg, "--out", str(base))
    run_cli("simulate", "--config", cfg, "--seed", "12", "--out", str(moved))
    run_cli("simulate", "--config", cfg, "--path-index", "1",
            "--out", str(shifted))
    assert base.read_bytes() != moved.read_bytes()
    assert base.read_bytes() != shifted.read_bytes()


def test_simulate_replay_file_round_trip(tmp_path):
    inline = {
        "space": {"dH": 1, "J": 2, "T": 1.0, "nScheduled": 2},
        "covariance": {"eigenvalues": [0.5, 0.25]},
        "drivers": {"replay": {
            "times": [0.0, 0.25, 1.0],
            "increments": [[0.5, -0.25], [1.0, 0.75]],
            "kinds": ["scheduled", "jump", "scheduled"]}},
        "integrand": {"family": "grid", "carrier": "operator",
                      "evaluator": "constant", "value": [[1.0, 0.0]]},
        "nPaths": 2,
        "seed": 1,
    }
    first = tmp_path / "first.csv"
    run_cli("simulate", "--config", write_config(tmp_path, inline),
            "--out", str(first))
    lines = first.read_text().strip().split("\n")
    assert lines[0] == "time,kind,comp1,comp2"
    assert lines[2].split(",")[1] == "jump"

    from_file = dict(inline, drivers={"replay": str(first)})
    second = tmp_path / "second.csv"
    run_cli("simulate", "--config",
            write_config(tmp_path, from_file, "file_replay.json"),
            "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_replay_shape_mismatches_exit_2(tmp_path):
    wrong_count = {
        "space": {"dH": 1, "J": 3, "T": 1.0, "nScheduled": 2},
        "covariance": {"eigenvalues": [0.5, 0.25, 0.125]},
        "drivers": {"replay": {"times": [0.0, 1.0],
                               "increments": [[0.5], [0.25]]}},
        "integrand": {"family": "grid", "carrier": "hvector",
                      "evaluator": "constant", "value": [1.0]},
        "nPaths": 2,
        "seed": 1,
    }
    code, err = run_cli_capturing(
        "simulate", "--config", write_config(tmp_path, wrong_count))
    assert code == 2 and "error:" in err
    wrong_horizon = dict(wrong_count,
                         space={"dH": 1, "J": 2, "T": 2.0, "nScheduled": 2},
                         covariance={"eigenvalues": [0.5, 0.25]})
    code, err = run_cli_capturing(
        "simulate", "--config",
        write_config(tmp_path, wrong_horizon, "horizon.json"))
    assert code == 2 and "horizon" in err


# ---------------------------------------------------------------------------
# integrate


def test_integrate_worked_example_terminal_value(tmp_path):
    out = tmp_path / "integral.json"
    assert run_cli("integrate", "--config",
                   str(CONFIG_DIR / "worked_example.json"),
                   "--format", "json", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert "series" not in data
    assert abs(data["integral"][-1][0] - 3.7071067811865475) <= 1e-12


def test_integrate_series_dump_columns(tmp_path):
    out = tmp_path / "series.csv"
    assert run_cli("integrate", "--config",
                   str(CONFIG_DIR / "worked_example.json"),
                   "--dump-series", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time,kind,coord1,mode1_coord1,mode2_coord1"
    last = lines[-1].split(",")
    assert abs(float(last[2]) - 3.7071067811865475) <= 1e-12
    assert abs(float(last[3]) - 0.7071067811865476) <= 1e-12
    assert float(last[4]) == 3.0


@pytest.mark.parametrize("evaluator", ["driver_linear", "constant"])
def test_integrate_with_a_rectangular_basis_is_the_a_dl_route(tmp_path,
                                                              evaluator):
    # U has a third direction that carries no variance: the raw operator
    # acts on the three coordinates of U, the series runs over two modes
    from levyint.integrators import cell_values, integrate_cells
    from levyint.processes import assemble_levy, coordinate_view
    from levyint.scenarios import (build_integrand, make_sampler,
                                   resolve_covariance)

    cfg = write_config(tmp_path, dict(
        BASE, space=dict(BASE["space"], J=2),
        covariance={"eigenvalues": [0.5, 0.25],
                    "basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
        integrand=dict(BASE["integrand"], carrier="operator",
                       evaluator=evaluator)))
    out = tmp_path / "integral.json"
    code, err = run_cli_capturing("integrate", "--config", cfg,
                                  "--format", "json", "--out", str(out))
    assert code == 0 and err == ""
    z = np.array(json.loads(out.read_text())["integral"])

    sc = load_config(cfg).scenario
    path = make_sampler(sc).sample(BASE["seed"], 0)
    view = coordinate_view(assemble_levy(resolve_covariance(sc), path))
    raw = cell_values(build_integrand(sc), path)
    assert raw.shape[2:] == (2, 3)
    # A dL: column u of A integrates reference coordinate u
    reference = integrate_cells(raw.swapaxes(-1, -2), view.increments)[0]
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert z.shape == reference.shape
    assert np.max(np.abs(z - reference)) <= 1e-12 * scale


def test_series_dump_requires_operator_integrand(tmp_path):
    cfg = write_config(tmp_path, BASE)
    code, err = run_cli_capturing("integrate", "--config", cfg,
                                  "--dump-series")
    assert code == 2 and "operator" in err
    # a simple integrand integrates as hvector, so it has no series either
    cfg = write_config(tmp_path, dict(BASE, integrand=dict(
        _SIMPLE, breakpoints=[0.0, 0.5, 1.0])))
    code, err = run_cli_capturing("integrate", "--config", cfg,
                                  "--dump-series")
    assert code == 2 and "operator" in err


# ---------------------------------------------------------------------------
# check


def test_check_exact_subset_passes(tmp_path):
    payload = dict(CHECK_BASE, checks=["basis_invariance", "simple_exact"])
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert run_cli("check", "--config", cfg, "--out", str(out)) == 0
    rows = json.loads(out.read_text())
    assert [r["name"] for r in rows] == ["basis_invariance", "simple_exact"]
    for row in rows:
        assert row["pass"] is True
        assert row["wallTime"] == 0.0
        assert list(row) == ["name", "lhs", "rhs", "se", "margin", "pass",
                             "nPaths", "seed", "wallTime"]


def test_check_paths_override_and_csv(tmp_path):
    cfg = write_config(tmp_path, CHECK_BASE)
    out = tmp_path / "report.csv"
    code = run_cli("check", "--config", cfg, "--check", "isometry1",
                   "--paths", "37", "--format", "csv", "--out", str(out))
    assert code in (0, 1)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("name,lhs,rhs,se,margin,pass,nPaths")
    assert lines[1].split(",")[6] == "37"


def test_check_timings_flag_exposes_wall_time(tmp_path):
    payload = dict(CHECK_BASE, checks=["simple_exact"])
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "timed.json"
    assert run_cli("check", "--config", cfg, "--timings",
                   "--out", str(out)) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["wallTime"] > 0.0


def test_check_unknown_name_exits_2(tmp_path):
    cfg = write_config(tmp_path, CHECK_BASE)
    code, err = run_cli_capturing("check", "--config", cfg,
                                  "--check", "isometry9")
    assert code == 2 and "unknown check" in err


def test_check_empty_selection_exits_2(tmp_path):
    payload = dict(CHECK_BASE, checks=["bracket"])
    cfg = write_config(tmp_path, payload)
    code, err = run_cli_capturing("check", "--config", cfg,
                                  "--check", "isometry1")
    assert code == 2 and "no checks selected" in err


def test_check_injected_fault_fails_the_suite(tmp_path):
    payload = dict(CHECK_BASE, fault="right_point")
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "faulted.json"
    code = run_cli("check", "--config", cfg, "--check", "simple_exact",
                   "--out", str(out))
    assert code == 1
    rows = json.loads(out.read_text())
    assert rows[0]["pass"] is False


def test_negative_control_detects_right_point(tmp_path):
    cfg = write_config(tmp_path, CHECK_BASE)
    out = tmp_path / "control.json"
    code = run_cli("check", "--config", cfg,
                   "--negative-control", "right_point",
                   "--paths", "300", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())
    assert any(not r["pass"] for r in rows)


def test_negative_control_misses_basis_fault_at_tiny_scale(tmp_path):
    cfg = write_config(tmp_path, CHECK_BASE)
    out = tmp_path / "weak.json"
    code = run_cli("check", "--config", cfg,
                   "--negative-control", "nonorthogonal_basis",
                   "--paths", "40", "--out", str(out))
    assert code == 1
    rows = json.loads(out.read_text())
    assert [r["name"] for r in rows] == ["covariance_recovery"]
    assert all(r["pass"] for r in rows)


def test_missing_config_exits_2(tmp_path):
    code, err = run_cli_capturing("simulate", "--config",
                                  str(tmp_path / "gone.json"))
    assert code == 2
    assert err.startswith("error:")


def test_nan_integrand_fails_every_exact_check(tmp_path):
    payload = json.loads((CONFIG_DIR / "default.json").read_text())
    payload["integrand"]["scale"] = float("nan")
    payload["checks"] = ["basis_invariance", "isometry_invariance",
                         "well_defined", "simple_exact"]
    payload["nExact"] = 4
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "nan.csv"
    code = run_cli("check", "--config", cfg, "--format", "csv",
                   "--out", str(out))
    assert code == 1
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == payload["checks"]
    assert all(r[5] == "false" for r in rows)


def _exact_battery(tmp_path, n_exact: int) -> str:
    payload = json.loads((CONFIG_DIR / "default.json").read_text())
    payload["checks"] = ["basis_invariance", "isometry_invariance",
                         "well_defined", "simple_exact"]
    payload["nExact"] = n_exact
    return write_config(tmp_path, payload)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="freed pages are kept through glibc's mallopt")
def test_a_second_check_round_reuses_freed_pages(tmp_path):
    import resource

    # handed back to the kernel on free, each block's arrays were faulted
    # in again by the next block: about 5,900 minor faults per round here
    cfg = _exact_battery(tmp_path, 256)
    out = str(tmp_path / "report.json")
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli("check", "--config", cfg, "--out", out) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert faults[1] < 500, faults


def test_check_without_mallopt_writes_the_same_report(tmp_path, monkeypatch):
    cfg = _exact_battery(tmp_path, 16)
    kept, bare = tmp_path / "kept.json", tmp_path / "bare.json"
    assert run_cli("check", "--config", cfg, "--out", str(kept)) == 0
    opened = []

    class NoMallopt:
        """A C library without mallopt, as on macOS."""

        def __init__(self, name):
            opened.append(name)

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    checks._keep_freed_pages.cache_clear()
    try:
        for workers in ("1", "2"):
            assert run_cli("check", "--config", cfg, "--parallelism", workers,
                           "--out", str(bare)) == 0
            assert bare.read_bytes() == kept.read_bytes()
    finally:
        checks._keep_freed_pages.cache_clear()
    assert opened == [None]
    # a worker started by spawn receives the initializer by reference
    assert pickle.loads(pickle.dumps(checks._keep_freed_pages)) \
        is checks._keep_freed_pages


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_parallelism_below_one_exits_2(tmp_path, value):
    cfg = write_config(tmp_path, dict(CHECK_BASE, checks=["simple_exact"]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["check", "--config", cfg, "--parallelism", value])
    assert exc.value.code == 2
    assert "--parallelism" in err.getvalue()


def _replay_with_bad_time(tmp_path):
    dump = tmp_path / "bad.csv"
    dump.write_text("time,kind,comp1\n0.0,scheduled,0.0\nsoon,scheduled,1.0\n"
                    "1.0,scheduled,2.0\n", encoding="utf-8")
    return dict(BASE, drivers={"replay": str(dump)})


def _replay_with_nan_value(tmp_path):
    dump = tmp_path / "nan.csv"
    dump.write_text("time,kind,comp1\n0.0,scheduled,0.0\n0.5,scheduled,nan\n"
                    "1.0,scheduled,2.0\n", encoding="utf-8")
    return dict(BASE, drivers={"replay": str(dump)})


def _edit(**changes):
    return lambda tmp_path: dict(BASE, **changes)


class _BoundedDraws:
    """A generator whose normal draws above the block memory bound fail
    the test instead of allocating."""

    def __init__(self, gen):
        self._gen = gen

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, size=None):
        values = math.prod(np.atleast_1d(1 if size is None else size))
        assert 8 * values <= MAX_BLOCK_BYTES, f"a draw of shape {size}"
        return self._gen.standard_normal(size)


_POISSON_NO_SIZE = dict(BASE, space=dict(BASE["space"], J=2),
                        covariance={"eigenvalues": [0.5, 0.25]},
                        integrand=dict(BASE["integrand"], carrier="seqh"),
                        drivers=["brownian", {"preset": "poisson"}])
_ONE_COMPONENT_CHECK = dict(CHECK_BASE,
                            space=dict(CHECK_BASE["space"], J=1))
_SIMPLE = {"family": "simple", "carrier": "hvector", "evaluator": "constant"}
_LAW_NO_RATIO = dict(CHECK_BASE, covariance={
    "eigenvalues": {"kind": "geometric", "c": 0.5}})
_DESK = json.loads((CONFIG_DIR / "default.json").read_text())


def _basis_entry(x):
    """``configs/default.json`` at 256 paths with an explicit identity
    basis whose first entry is ``x``."""
    return lambda tmp_path: dict(_DESK, nPaths=256, covariance=dict(
        _DESK["covariance"], basis=[[x if i == j == 0 else float(i == j)
                                     for j in range(6)] for i in range(6)]))


@pytest.mark.parametrize("command, make, key", [
    ("simulate", _edit(drivers=[3]), "drivers[0]"),
    ("simulate", _edit(covariance={"eigenvalues": ["x"]}),
     "covariance.eigenvalues"),
    ("integrate", lambda tmp_path: _POISSON_NO_SIZE, "'a'"),
    ("integrate", lambda tmp_path: _LAW_NO_RATIO, "covariance.eigenvalues.r"),
    ("simulate", _edit(integrand=dict(BASE["integrand"], seed="x")),
     "integrand.seed"),
    ("simulate", _replay_with_bad_time, "time"),
    ("simulate", _edit(drivers={"replay": {
        "times": [0.0, float("nan"), 1.0],
        "increments": [[0.5, 0.5]]}}), "times"),
    ("simulate", _edit(drivers={"replay": {
        "times": [0.0, 0.5, 1.0], "increments": [[0.1, float("nan")]]}}),
     "increments"),
    ("integrate", _edit(drivers={"replay": {
        "times": [0.0, 0.5, 1.0], "increments": [[float("inf"), 0.1]]}}),
     "increments"),
    ("simulate", _replay_with_nan_value, "increments"),
    ("integrate", _replay_with_nan_value, "increments"),
    ("check", _edit(drivers={"replay": {
        "times": [0.0, 0.5, 1.0], "increments": [[0.5, 0.5]]}}),
     "drivers.replay"),
    ("simulate", _edit(covariance={"eigenvalues": [1.0], "basis": [1, 2]}),
     "covariance.basis"),
    ("simulate", _edit(integrand=dict(BASE["integrand"], breakpoints=0.5)),
     "integrand.breakpoints"),
    ("integrate", _edit(covariance={"eigenvalues": [0.5, 0.25]}),
     "covariance.eigenvalues"),
    ("simulate", _edit(drivers={"replay": {
        "times": [0.0, 0.5, 1.0], "increments": [[0.5, 0.5]],
        "kinds": ["scheduled", "bogus", "scheduled"]}}), "kinds"),
    ("simulate", _edit(drivers={"replay": {
        "times": [0.0, 0.5, 1.0], "increments": [[0.5, 0.5]],
        "kinds": [0, 7, 0]}}), "kinds"),
    ("integrate", _edit(integrand=dict(BASE["integrand"], evaluator="constant",
                                       value=["x", 1])), "integrand.value"),
    ("integrate", _edit(covariance={"eigenvalues": [1.0], "basis": [[2.0]]},
                        integrand=dict(BASE["integrand"], carrier="operator")),
     "covariance.basis"),
    # a basis seed is an integer, not truncated to one or left for later
    ("integrate", _edit(covariance={"eigenvalues": [1.0],
                                    "basis": {"seed": "abc"}}),
     "covariance.basis"),
    ("integrate", _edit(covariance={"eigenvalues": [1.0],
                                    "basis": {"seed": None}}),
     "covariance.basis"),
    ("simulate", _edit(covariance={"eigenvalues": [1.0],
                                   "basis": {"seed": 1.7}}),
     "covariance.basis"),
    ("check", lambda tmp_path: dict(CHECK_BASE, covariance=dict(
        CHECK_BASE["covariance"], basis={"seed": True})), "covariance.basis"),
    ("check", lambda tmp_path: dict(CHECK_BASE, covariance=dict(
        CHECK_BASE["covariance"], basis={})), "covariance.basis"),
    # found by tests/test_config_fuzz.py
    ("simulate", _edit(space=3), "space"),
    ("simulate", _edit(space=dict(BASE["space"], T=float("inf"))), "space.T"),
    ("check", _edit(checks=[1.0]), "checks"),
    ("simulate", _edit(drivers=[{"preset": "poisson", "a": float("nan")}]),
     "'a'"),
    # driver and spectrum errors name their entry
    ("simulate", _edit(drivers=[{"preset": "mixed", "sigma": 1.5, "a": 1.0}]),
     "drivers[0]"),
    ("integrate", _edit(covariance={"eigenvalues": [0.0]},
                        integrand=dict(BASE["integrand"], carrier="operator")),
     "covariance.eigenvalues"),
    ("simulate", _edit(space=dict(BASE["space"], T=1e300),
                       drivers=[{"preset": "poisson", "a": 0.5}]), "space.T"),
    # more jump-term means than one Poisson table holds
    ("simulate", _edit(drivers=[{"sigma": 0.0, "jumps": [
        [1.0, 1.0 + i / 1024] for i in range(1024)]}]), "drivers"),
    # pairs of components and probes along a second eigendirection
    ("check", lambda tmp_path: _ONE_COMPONENT_CHECK, "space.J"),
    ("check", lambda tmp_path: dict(_ONE_COMPONENT_CHECK,
                                    checks=["covariance_recovery"]), "space.J"),
    ("check", lambda tmp_path: dict(_ONE_COMPONENT_CHECK,
                                    checks=["series_orthogonality"]), "space.J"),
    ("check", lambda tmp_path: dict(_ONE_COMPONENT_CHECK,
                                    checks=["bracket"]), "space.J"),
    # size keys are bounded before anything is allocated
    ("check", lambda tmp_path: dict(CHECK_BASE, space=dict(
        CHECK_BASE["space"], nScheduled=10 ** 18)), "space.nScheduled"),
    ("integrate", _edit(space=dict(BASE["space"], dH=10 ** 18)), "space.dH"),
    ("simulate", _edit(space=dict(BASE["space"], J=10 ** 18)), "space.J"),
    # within the size bounds, but a block of a check would need gigabytes
    ("check", lambda tmp_path: dict(
        json.loads((CONFIG_DIR / "default.json").read_text()),
        space={"dH": 4, "J": 2048, "T": 1.0, "nScheduled": 64}), "space.J"),
    # and so would the values of the integrand along one path
    ("integrate", lambda tmp_path: dict(
        json.loads((CONFIG_DIR / "default.json").read_text()),
        space={"dH": 1024, "J": 2048, "T": 1.0, "nScheduled": 64}), "space.J"),
    # or the coefficients of an affine integrand, on a path of two nodes
    ("integrate", lambda tmp_path: dict(
        json.loads((CONFIG_DIR / "default.json").read_text()),
        space={"dH": 1024, "J": 2048, "T": 1.0, "nScheduled": 1},
        drivers="brownian"), "space.J"),
    # a simple integrand's values are (intervals, dH)
    ("integrate", _edit(space=dict(BASE["space"], dH=4), integrand={
        "family": "simple", "carrier": "hvector", "evaluator": "constant",
        "breakpoints": [0.0, 0.5, 1.0], "value": [[1, 2], [3, 4]]}),
     "integrand.value"),
    ("integrate", _edit(integrand={
        "family": "simple", "carrier": "hvector", "evaluator": "constant",
        "breakpoints": [0.0, 0.5, 1.0], "value": [1, 2]}), "integrand.value"),
    # and its breakpoints strictly increase from 0 to space.T, checked
    # before the value's shape
    ("integrate", _edit(integrand=dict(_SIMPLE, breakpoints=[0.0])),
     "integrand.breakpoints"),
    ("integrate", _edit(integrand=dict(_SIMPLE, breakpoints=[0.5, 1.0])),
     "integrand.breakpoints"),
    ("integrate", _edit(integrand=dict(_SIMPLE,
                                       breakpoints=[0.0, 0.7, 0.3, 1.0])),
     "integrand.breakpoints"),
    ("integrate", _edit(integrand=dict(_SIMPLE, breakpoints=[0.0, 0.5])),
     "integrand.breakpoints"),
    ("check", lambda tmp_path: dict(CHECK_BASE, integrand=dict(
        _SIMPLE, breakpoints=[0.0, 1.5, 1.0])), "integrand.breakpoints"),
    ("integrate", _edit(integrand=dict(_SIMPLE, breakpoints=[0.0],
                                       value=[[1, 2]])),
     "integrand.breakpoints"),
    # a seed of 2**64 or more would alias a smaller one
    ("simulate", _edit(seed=2 ** 64 + 5), "seed"),
    # and so would a negative one, or an integrand or basis seed out of range
    ("integrate", _edit(integrand=dict(BASE["integrand"], seed=2 ** 64 + 3)),
     "integrand.seed"),
    ("integrate", _edit(integrand=dict(BASE["integrand"], seed=-1)),
     "integrand.seed"),
    ("integrate", _edit(covariance={"eigenvalues": [1.0],
                                    "basis": {"seed": 2 ** 64 + 3}}),
     "covariance.basis"),
    ("integrate", _edit(covariance={"eigenvalues": [1.0],
                                    "basis": {"seed": -1}}),
     "covariance.basis"),
    # a jump size whose square underflows leaves no term to normalize
    ("simulate", _edit(drivers=[{"preset": "poisson", "a": 1e-200}]),
     "drivers[0]"),
    ("check", lambda tmp_path: dict(CHECK_BASE, drivers=[
        {"preset": "poisson", "a": 1e-200}]), "drivers[0]"),
    ("simulate", _edit(drivers=[{"preset": "mixed", "sigma": 0.5,
                                 "a": 1e-200}]), "drivers[0]"),
    # a non-finite basis entry or tail mass fails closed
    ("integrate", _basis_entry(math.nan), "covariance.basis"),
    ("check", lambda tmp_path: dict(CHECK_BASE, covariance=dict(
        CHECK_BASE["covariance"], tailMass=math.nan)), "covariance.tailMass"),
    ("check", lambda tmp_path: dict(CHECK_BASE, covariance=dict(
        CHECK_BASE["covariance"], tailMass=math.inf)), "covariance.tailMass"),
    # when the config is parsed, not only where the basis is built
    ("simulate", _basis_entry(math.nan), "covariance.basis"),
    ("simulate", _basis_entry(math.inf), "covariance.basis"),
    ("check", _basis_entry(math.nan), "covariance.basis"),
    ("check", _basis_entry(-math.inf), "covariance.basis"),
], ids=["driver-entry", "eigenvalue", "poisson-size", "geometric-ratio", "integrand-seed",
        "replay-csv-time", "replay-nan-time", "replay-nan-increment",
        "integrate-replay-inf-increment", "replay-csv-nan-value",
        "integrate-replay-csv-nan-value", "check-replay", "basis-row",
        "breakpoints",
        "eigenvalue-count", "replay-kind-name", "replay-kind-index",
        "integrand-value", "basis-not-orthonormal", "basis-seed-text",
        "basis-seed-null", "basis-seed-fraction", "check-basis-seed-bool",
        "check-basis-no-seed", "space-not-object",
        "infinite-horizon", "check-not-a-name", "nan-jump-size",
        "mixed-sigma", "zero-eigenvalue", "jumps-per-path", "jump-means",
        "one-component-suite", "one-component-covariance",
        "one-component-series", "one-component-bracket", "huge-grid",
        "huge-h", "huge-j",
        "huge-block", "integrate-huge-path", "integrate-huge-coefficients",
        "simple-value-width", "simple-value-vector",
        "breakpoints-one", "breakpoints-late-start", "breakpoints-unordered",
        "breakpoints-early-end", "check-breakpoints-beyond",
        "breakpoints-one-with-value", "seed-2**64",
        "integrand-seed-2**64", "integrand-seed-negative",
        "basis-seed-2**64", "basis-seed-negative", "poisson-size-underflow",
        "check-poisson-size-underflow", "mixed-size-underflow",
        "integrate-nan-basis", "check-nan-tail-mass", "check-inf-tail-mass",
        "simulate-nan-basis", "simulate-inf-basis", "check-nan-basis",
        "check-inf-basis"])
def test_malformed_config_exits_2_naming_the_key(tmp_path, command, make, key,
                                                 monkeypatch):
    # a rejected size must be rejected before it is drawn
    stream = rng.stream
    monkeypatch.setattr(rng, "stream",
                        lambda *args: _BoundedDraws(stream(*args)))
    cfg = write_config(tmp_path, make(tmp_path))
    code, err = run_cli_capturing(command, "--config", cfg,
                                  "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_nan_integrand_report_is_valid_json(tmp_path):
    payload = json.loads((CONFIG_DIR / "default.json").read_text())
    payload["integrand"]["scale"] = float("nan")
    payload["checks"] = ["basis_invariance", "simple_exact"]
    payload["nExact"] = 2
    out = tmp_path / "nan.json"
    code = run_cli("check", "--config", write_config(tmp_path, payload),
                   "--out", str(out))
    assert code == 1

    def reject(token):
        raise ValueError(f"bare {token} in a JSON report")

    rows = json.loads(out.read_text(), parse_constant=reject)
    assert [r["lhs"] for r in rows] == [None, None]
    assert all(r["pass"] is False for r in rows)


def test_nan_integrand_fails_truncation_tail_without_a_crash(tmp_path):
    payload = json.loads((CONFIG_DIR / "default.json").read_text())
    payload["integrand"]["scale"] = float("nan")
    payload["nPaths"] = 64
    payload["nExact"] = 4
    out = tmp_path / "nan.json"
    code, err = run_cli_capturing(
        "check", "--config", write_config(tmp_path, payload),
        "--out", str(out))
    assert code == 1 and err == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 14
    tail, = [r for r in rows if r["name"] == "truncation_tail"]
    assert tail["pass"] is False
    assert tail["truncationBound"] is None and tail["margin"] is None


def test_a_short_horizon_runs_every_check(tmp_path):
    # covariance_recovery probes at fractions of the horizon
    out = tmp_path / "short.json"
    code, err = run_cli_capturing(
        "check", "--config",
        write_config(tmp_path, dict(CHECK_BASE, space=dict(
            CHECK_BASE["space"], T=0.5))), "--out", str(out))
    assert code == 0 and err == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 14 and all(r["pass"] for r in rows)


def _default_config(**space) -> dict:
    payload = json.loads((CONFIG_DIR / "default.json").read_text())
    payload["space"].update(space)
    return payload


@pytest.mark.parametrize("n_scheduled, check", [
    (10, "covariance_recovery"), (3, "martingale")])
def test_probe_times_off_the_scheduled_grid_are_nodes(tmp_path, n_scheduled,
                                                      check):
    # a quarter or half of the horizon is no scheduled node here; read at
    # the last node before it, a path is biased by where its jumps fall
    payload = dict(_default_config(nScheduled=n_scheduled), nPaths=20000,
                   checks=[check])
    out = tmp_path / "probe.json"
    code, err = run_cli_capturing(
        "check", "--config", write_config(tmp_path, payload),
        "--out", str(out))
    assert code == 0 and err == ""
    assert json.loads(out.read_text())[0]["pass"] is True


@pytest.mark.parametrize("n_modes", [2, 3])
def test_few_modes_run_the_default_suite(tmp_path, n_modes):
    # truncation_tail keeps at most J - 1 modes and drops the rest
    payload = dict(_default_config(J=n_modes), nPaths=4096, nExact=64)
    out = tmp_path / "few.json"
    code, err = run_cli_capturing(
        "check", "--config", write_config(tmp_path, payload),
        "--out", str(out))
    assert code == 0 and err == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 14 and all(r["pass"] for r in rows)


def test_a_desk_without_a_mixed_component_runs_the_default_suite(tmp_path):
    # isometry1, basis_invariance and simple_exact then read component 0
    payload = dict(_default_config(), nPaths=4096, nExact=64, drivers=[
        "brownian", {"preset": "poisson", "a": 0.5}])
    out = tmp_path / "no_mixed.json"
    code, err = run_cli_capturing(
        "check", "--config", write_config(tmp_path, payload),
        "--out", str(out))
    assert code == 0 and err == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 14 and all(r["pass"] for r in rows)


def test_simple_integrand_without_value_integrates_like_the_check(tmp_path):
    # the CLI draws the values the simple_exact check draws, on the grid
    # that make_sampler refines with the breakpoints
    payload = dict(BASE, integrand={
        "family": "simple", "carrier": "hvector", "evaluator": "constant",
        "seed": 5, "scale": 2.0, "breakpoints": [0.0, 0.3, 1.0]},
        checks=["simple_exact"])
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "simple.json"
    assert run_cli("integrate", "--config", cfg, "--format", "json",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert 0.3 in data["times"]
    assert run_cli("check", "--config", cfg,
                   "--out", str(tmp_path / "report.json")) == 0


@pytest.mark.parametrize("args, option", [
    (("simulate", "--path-index", "-1"), "--path-index"),
    (("integrate", "--path-index", str(2 ** 64)), "--path-index"),
    (("simulate", "--path-index", "x"), "--path-index"),
    (("check", "--seed", "-3"), "--seed"),
    (("check", "--paths", "0"), "--paths"),
    (("simulate", "--seed", str(2 ** 64 + 5)), "--seed")])
def test_bad_path_index_exits_2(tmp_path, capsys, args, option):
    cfg = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as done:
        main([args[0], "--config", cfg, *args[1:]])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, levyint.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _cli_subprocess(code: str):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_a_check_round_imports_nothing_after_the_cli(tmp_path):
    # a module first imported inside a round would be counted, and timed,
    # as part of every cold round
    cfg = write_config(tmp_path, dict(CHECK_BASE, nPaths=4, nExact=4))
    out = str(tmp_path / "report.json")
    done = _cli_subprocess(
        "import sys, levyint.cli as cli; before = set(sys.modules); "
        f"cli.main(['check', '--config', {cfg!r}, '--out', {out!r}]); "
        "print(sorted(set(sys.modules) - before))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert len(json.loads(Path(out).read_text(encoding="utf-8"))) == 14


def test_many_components_of_one_jump_law_simulate(tmp_path):
    # 1025 jump terms with one mean read one Poisson table
    cfg = write_config(tmp_path, dict(
        BASE, space=dict(BASE["space"], J=1025),
        covariance={"eigenvalues": [1.0] * 1025},
        drivers=[{"preset": "poisson", "a": 0.5}]))
    out = tmp_path / "path.csv"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    assert out.read_text(encoding="utf-8").split("\n")[0].endswith("comp1025")
