"""Command line harness.

Three subcommands, all driven by a JSON config:

* ``simulate``  sample one driver path and dump it (or echo a replay).
* ``integrate`` run the scenario integrand along one path and dump the
  integral path, optionally with its per-mode series terms.
* ``check``     run identity checks and write a report table; with
  ``--negative-control`` the suite must catch the named injected fault.

Exit codes: 0 on success (checks passed, or fault detected in control
mode), 1 when a check run completes but fails its criterion, 2 on
configuration or usage errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .checks import (CHECKS, default_suite, fault_detected,
                     need_block_memory, negative_control_suite,
                     reports_to_csv, reports_to_json, run_suite, suite_passed)
from .config import load_config
from .errors import ConfigInvalid, ConfigNotFound, LevyintError, UnknownCheck
from .integrators import ito_general, ito_h, ito_seq, series_terms
from .processes import KIND_NAMES, assemble_levy, replay_path
from .scenarios import (FAULTS, ScenarioConfig, build_integrand,
                        make_sampler, resolve_covariance, restrict_integrand)


def _read_path_csv(path: str):
    """Parse a path dump written by ``simulate`` back into a replay."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        raise ConfigNotFound(f"replay file not found: {path}")
    if len(rows) < 3 or rows[0][:2] != ["time", "kind"]:
        raise ConfigInvalid(f"replay file {path} is not a path dump")
    try:
        times = [float(r[0]) for r in rows[1:]]
        kinds = [r[1] for r in rows[1:]]
        cumulative = np.array([[float(x) for x in r[2:]] for r in rows[1:]]).T
    except (IndexError, ValueError) as exc:
        raise ConfigInvalid(f"replay file {path}: every row needs a numeric "
                            f"time, a kind and numeric components ({exc})")
    return times, np.diff(cumulative, axis=1), kinds


def _materialize_path(scenario: ScenarioConfig, seed: int, path_index: int,
                      integrating: bool = False):
    """Sample the scenario drivers, or rebuild them from a replay, as a
    block of one path.

    When the scenario's integrand will run along the path, ``integrating``
    fails closed first, before sampling, where its values on the path or
    its coefficients would outgrow memory.
    """
    drivers = scenario.drivers
    if not isinstance(drivers, dict):
        sampler = make_sampler(scenario)
        if integrating:
            need_block_memory(scenario, 1, sampler.expected_nodes,
                              "integrate")
        return sampler.sample(seed, path_index)
    source = drivers["replay"]
    if isinstance(source, str):
        times, increments, kinds = _read_path_csv(source)
    elif isinstance(source, dict):
        times = source.get("times")
        increments = source.get("increments")
        if times is None or increments is None:
            raise ConfigInvalid(
                "an inline replay needs times and increments")
        kinds = source.get("kinds")
    else:
        raise ConfigInvalid("drivers.replay must be a file path or an "
                            "inline object")
    path = replay_path(times, increments, kinds)
    if path.n_components != scenario.n_modes:
        raise ConfigInvalid(
            f"replay carries {path.n_components} components, space.J "
            f"is {scenario.n_modes}")
    if path.grid.times[0, -1] != scenario.horizon:
        raise ConfigInvalid(
            f"replay horizon {path.grid.times[0, -1]} differs from "
            f"space.T {scenario.horizon}")
    if integrating:
        need_block_memory(scenario, 1, path.grid.n_nodes, "integrate")
    return path


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _table(grid, columns) -> str:
    """CSV table of a block of one: time and kind columns, floats via repr."""
    buf = io.StringIO()
    names = ["time", "kind"]
    for name, _ in columns:
        names.append(name)
    buf.write(",".join(names) + "\n")
    for k in range(grid.n_nodes):
        row = [repr(float(grid.times[0, k])), KIND_NAMES[grid.kind[0, k]]]
        for _, values in columns:
            row.append(repr(float(values[k])))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _grid_json(grid) -> dict:
    return {"times": [float(t) for t in grid.times[0]],
            "kinds": [KIND_NAMES[k] for k in grid.kind[0]]}


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    path = _materialize_path(cfg.scenario, seed, args.path_index)
    cum = path.cumulative[0]
    if args.format == "json":
        out = _grid_json(path.grid)
        out["components"] = [[float(x) for x in comp] for comp in cum]
        _write_text(_json_dump(out), args.out)
    else:
        columns = [(f"comp{c + 1}", cum[c]) for c in range(path.n_components)]
        _write_text(_table(path.grid, columns), args.out)
    return 0


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _integrate_scenario(scenario: ScenarioConfig, path, want_series: bool):
    """Run the configured integrand along a block of one path.

    Returns the integral (1, n_nodes, dim_h) and the series (1, n_modes,
    n_nodes, dim_h) or None.
    """
    carrier = scenario.integrand.carrier
    if scenario.integrand.family == "simple" and carrier != "hvector":
        raise ConfigInvalid("simple integrands integrate as hvector "
                            "against component 0")
    if want_series and carrier != "operator":
        raise ConfigInvalid("series dump needs an operator integrand")
    integrand = build_integrand(scenario)
    if carrier == "hvector":
        return ito_h(integrand, path, 0), None
    if carrier == "seqh":
        return ito_seq(integrand, path), None
    cov = resolve_covariance(scenario)
    levy = assemble_levy(cov, path)
    restricted = restrict_integrand(integrand, cov)
    z = ito_general(restricted, levy)
    if not want_series:
        return z, None
    return z, series_terms(restricted, levy)


def _cmd_integrate(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    scenario = cfg.scenario
    path = _materialize_path(scenario, seed, args.path_index,
                             integrating=True)
    values, series = _integrate_scenario(scenario, path, args.dump_series)
    values = values[0]
    series = None if series is None else series[0]
    if args.format == "json":
        out = _grid_json(path.grid)
        out["integral"] = [[float(x) for x in row] for row in values]
        if series is not None:
            out["series"] = [[[float(x) for x in row] for row in term]
                             for term in series]
        _write_text(_json_dump(out), args.out)
        return 0
    columns = [(f"coord{d + 1}", values[:, d])
               for d in range(values.shape[1])]
    if series is not None:
        for j, term in enumerate(series):
            columns.extend((f"mode{j + 1}_coord{d + 1}", term[:, d])
                           for d in range(term.shape[1]))
    _write_text(_table(path.grid, columns), args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    n_paths = cfg.n_paths if args.paths is None else args.paths
    desk = cfg.scenario
    if args.negative_control is not None:
        specs = negative_control_suite(args.negative_control, n_paths,
                                       cfg.n_exact, seed, desk)
    else:
        specs = default_suite(n_paths, cfg.n_exact, seed, desk)
        if cfg.checks is not None:
            specs = [s for s in specs if s.name in cfg.checks]
    if args.check is not None:
        if args.check not in CHECKS:
            raise UnknownCheck(f"unknown check {args.check!r}; valid names: "
                               f"{', '.join(CHECKS)}")
        specs = [s for s in specs if s.name == args.check]
    if not specs:
        raise ConfigInvalid("no checks selected")
    reports = run_suite(specs, args.parallelism)
    if args.format == "csv":
        text = reports_to_csv(reports, include_timings=args.timings)
    else:
        text = reports_to_json(reports, include_timings=args.timings)
    _write_text(text, args.out)
    if args.negative_control is not None:
        return 0 if fault_detected(reports) else 1
    return 0 if suite_passed(reports) else 1


def _int_option(low: int, high: int = None):
    """An argparse type: an integer in [low, high), high open if None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value >= high:
            raise argparse.ArgumentTypeError(
                f"must be below {high}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyint",
        description="Series construction of stochastic integrals on finite "
                    "truncations, with identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample one driver path")
    integ = sub.add_parser("integrate",
                           help="integrate the configured integrand along "
                                "one path")
    chk = sub.add_parser("check", help="run identity checks")

    for p in (sim, integ, chk):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=_int_option(0, 2 ** 64), default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output file (default stdout)")
    for p in (sim, integ):
        p.add_argument("--path-index", type=_int_option(0, 2 ** 64),
                       default=0,
                       help="which path of the seeded family")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    integ.add_argument("--dump-series", action="store_true",
                       help="also dump per-mode series terms")

    chk.add_argument("--check", default=None,
                     help="run a single named check")
    chk.add_argument("--paths", type=_int_option(1), default=None,
                     help="override the config path count")
    chk.add_argument("--format", choices=("json", "csv"), default="json")
    chk.add_argument("--negative-control", choices=FAULTS, default=None,
                     help="inject the named fault; succeed only if detected")
    chk.add_argument("--parallelism", type=_int_option(1), default=1,
                     help="worker processes, at most one per CPU and per "
                          "check (never changes the output)")
    chk.add_argument("--timings", action="store_true",
                     help="serialize real wall times instead of 0.0")
    return parser


_COMMANDS = {"simulate": _cmd_simulate, "integrate": _cmd_integrate,
             "check": _cmd_check}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LevyintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
