"""The part of the benchmark that runs in a fresh interpreter.

    python3 perfbench/child.py MODE SPEC

``SPEC`` is a JSON object written by ``run.py``.  Modes:

* ``setup``  import levyint, parse the check command line, load the config
  and build the suite, then print the CLOCK_MONOTONIC time: the moment
  before the first path is sampled.
* ``timed``  run whole rounds of ``levyint check`` for the given seconds,
  verify every report, then run the fault, spot and parallel checks.
* ``count``  one round under a ``sys.setprofile`` hook counting Python and
  C calls.
* ``trace``  untraced rounds, then rounds with the layer wrappers of
  ``layers.py`` installed; per-layer metrics and a span file.

Each mode prints one JSON object as its last line.  Rounds call
``levyint.cli.main`` in process, so a round is exactly what the
``levyint check`` command does after start-up.
"""
from __future__ import annotations

import csv
import json
import math
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 3


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _check_argv(config: str, out: str, parallelism: int,
                timings: bool = False) -> list:
    argv = ["check", "--config", config, "--out", out,
            "--parallelism", str(parallelism)]
    return argv + (["--timings"] if timings else [])


def run_round(cli, spec: dict, parallelism: int, timings: bool = False,
              call=None) -> dict:
    """One ``levyint check`` call on the workload config, timed."""
    out = os.path.join(spec["out"], f"{spec['tag']}.report.json")
    argv = _check_argv(spec["config"], out, parallelism, timings)
    if os.path.exists(out):
        os.remove(out)              # a failed call must not leave a report
    c0 = _cpu_s()
    t0 = time.perf_counter()
    rc = cli.main(argv) if call is None else call(cli.main, argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    with open(out, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = json.loads(text)
    return {"rc": rc, "wall": wall, "cpu": cpu, "text": text, "rows": rows,
            "paths": sum(r["nPaths"] for r in rows)}


def verify_rows(spec: dict, rnd: dict, problems: list) -> int:
    """Check a report against the documented suite layout; return failures.

    Every row must be finite, carry the requested path count and the seed
    ``config seed + position in the default suite``, and the rows must come
    in suite order.  A row that fails its criterion counts as failed.
    """
    rows = rnd["rows"]
    expect = spec["expect"]
    got = [(r["name"], r["seed"], r["nPaths"]) for r in rows]
    want = [tuple(e) for e in expect]
    if got != want:
        problems.append(f"report layout {got} differs from {want}")
    failed = 0
    for r in rows:
        numbers = [r["lhs"], r["rhs"], r["se"], r["margin"]]
        if "truncationBound" in r:
            numbers.append(r["truncationBound"])
        if not all(isinstance(x, (int, float)) and math.isfinite(x)
                   for x in numbers):
            problems.append(f"{r['name']}: non-finite report entry {numbers}")
        if not r["pass"]:
            failed += 1
    if rnd["rc"] != (0 if failed == 0 else 1):
        problems.append(f"exit code {rnd['rc']} with {failed} failed rows")
    return failed


def _read_table(path: str, prefix: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cols = [i for i, name in enumerate(header) if name.startswith(prefix)]
    times = [float(r[0]) for r in rows[1:]]
    values = [[float(r[i]) for i in cols] for r in rows[1:]]
    return times, values


def _left_point_integral(desk: dict, cum):
    """Own left-point sum of the desk's operator integrand along one path.

    Coefficients are the documented draws of a ``driver_linear`` operator
    integrand: from the INTEGRAND stream of the integrand seed, first
    ``c0 = scale * N(dH x J)``, then ``c1 = scale / sqrt(J) * N(J x dH x J)``.
    The value at node k is ``c0 + sum_m cum[m][k] * c1[m]`` in reference
    coordinates; with the identity basis, column j is then scaled by
    ``sqrt(lambda_j)``, ``lambda_j = c * r**j``, and integrated against
    component j of the driver.
    """
    from levyint import rng

    dim_h, n_modes = desk["space"]["dH"], desk["space"]["J"]
    law = desk["covariance"]["eigenvalues"]
    if law.get("kind") != "geometric" or desk["covariance"]["basis"] != "identity":
        raise ValueError("spot check needs a geometric law and identity basis")
    integ = desk["integrand"]
    if (integ["carrier"], integ["evaluator"]) != ("operator", "driver_linear"):
        raise ValueError("spot check needs a driver_linear operator integrand")
    sqrt_lam = [math.sqrt(law["c"] * law["r"] ** j)
                for j in range(1, n_modes + 1)]
    gen = rng.stream(integ["seed"], 0, 0, rng.INTEGRAND)
    c0 = integ["scale"] * gen.standard_normal((dim_h, n_modes))
    c1 = (integ["scale"] / math.sqrt(n_modes)) * gen.standard_normal(
        (n_modes, dim_h, n_modes))
    c0, c1 = c0.tolist(), c1.tolist()
    n_nodes = len(cum[0])
    z = [0.0] * dim_h
    out = [list(z)]
    for k in range(n_nodes - 1):
        for j in range(n_modes):
            dm = cum[j][k + 1] - cum[j][k]
            for d in range(dim_h):
                value = c0[d][j] + sum(cum[m][k] * c1[m][d][j]
                                       for m in range(n_modes))
                z[d] += value * sqrt_lam[j] * dm
        out.append(list(z))
    return out


def spot_check(cli, spec: dict, problems: list) -> None:
    """`levyint integrate` agrees with an own loop over `levyint simulate`."""
    with open(spec["config"], "r", encoding="utf-8") as fh:
        desk = json.load(fh)
    sim = os.path.join(spec["out"], f"{spec['tag']}.simulate.csv")
    integ = os.path.join(spec["out"], f"{spec['tag']}.integrate.csv")
    for p in spec["spot"]:
        base = ["--config", spec["config"], "--path-index", str(p)]
        rc1 = cli.main(["simulate", *base, "--out", sim])
        rc2 = cli.main(["integrate", *base, "--out", integ])
        if (rc1, rc2) != (0, 0):
            problems.append(f"path {p}: simulate/integrate exit {rc1}/{rc2}")
            continue
        times, rows = _read_table(sim, "comp")
        times2, z_prog = _read_table(integ, "coord")
        if times != times2:
            problems.append(f"path {p}: simulate and integrate grids differ")
            continue
        cum = [list(col) for col in zip(*rows)]
        z_own = _left_point_integral(desk, cum)
        dev = max(abs(a - b) for ra, rb in zip(z_own, z_prog)
                  for a, b in zip(ra, rb))
        ref = max(1.0, max(abs(b) for rb in z_prog for b in rb))
        if not dev / ref <= 1e-12:
            problems.append(f"path {p}: integrate differs from the own "
                            f"left-point loop by {dev / ref:.3e} relative")


def fault_check(cli, spec: dict, problems: list) -> None:
    """With ``fault: right_point``, ``simple_exact`` must fail."""
    out = os.path.join(spec["out"], f"{spec['tag']}.fault-report.json")
    rc = cli.main(_check_argv(spec["fault_config"], out, 1))
    with open(out, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    if rc != 1 or [(r["name"], r["pass"]) for r in rows] != [
            ("simple_exact", False)]:
        problems.append(f"right_point fault not caught by simple_exact "
                        f"(exit {rc})")


def _verify_after(cli, spec: dict, last: dict, problems: list) -> None:
    """Fault, spot and, with workers, serial byte-identity checks.

    ``last`` is a round written without ``--timings``.
    """
    fault_check(cli, spec, problems)
    spot_check(cli, spec, problems)
    if spec["parallelism"] > 1:
        serial = run_round(cli, spec, 1)
        if serial["text"] != last["text"]:
            problems.append("parallel report bytes differ from a serial run")


def _rounds(cli, spec: dict, seconds: float, timings: bool = False,
            call=None) -> list:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, spec, spec["parallelism"], timings,
                                call))
    return rounds


def _warm_up(cli, spec: dict) -> None:
    out = os.path.join(spec["out"], f"{spec['tag']}.warm-report.json")
    cli.main(_check_argv(spec["warm_config"], out, spec["parallelism"]))


def mode_setup(spec: dict) -> dict:
    from levyint import cli
    from levyint.checks import default_suite
    from levyint.config import load_config

    args = cli.build_parser().parse_args(
        _check_argv(spec["config"], os.devnull, spec["parallelism"]))
    cfg = load_config(args.config)
    specs = default_suite(cfg.n_paths, cfg.n_exact, cfg.seed, cfg.scenario)
    if cfg.checks is not None:
        specs = [s for s in specs if s.name in cfg.checks]
    return {"ready": time.monotonic(), "checks": len(specs)}


def _summary(spec: dict, rounds: list, problems: list) -> dict:
    failed = sum(verify_rows(spec, r, problems) for r in rounds)
    return {"attempted": sum(len(r["rows"]) for r in rounds),
            "failed": failed,
            "rounds": [{"wall": r["wall"], "cpu": r["cpu"],
                        "paths": r["paths"]} for r in rounds]}


def mode_timed(spec: dict) -> dict:
    from levyint import cli

    _warm_up(cli, spec)
    rounds = _rounds(cli, spec, spec["seconds"])
    peak = _peak_rss_mb()
    problems = []
    out = _summary(spec, rounds, problems)
    _verify_after(cli, spec, rounds[-1], problems)
    out.update(peak_rss_mb=peak, problems=problems)
    return out


def mode_count(spec: dict) -> dict:
    """Python and C calls of one serial round, with the hash seed pinned."""
    from levyint import cli

    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    def counted(main, argv):
        sys.setprofile(hook)
        try:
            return main(argv)
        finally:
            sys.setprofile(None)

    rnd = run_round(cli, dict(spec, config=spec["count_config"]), 1,
                    call=counted)
    problems = []
    failed = verify_rows(dict(spec, expect=spec["count_expect"]), rnd,
                         problems)
    return {"calls": calls[0], "paths": rnd["paths"], "failed": failed,
            "problems": problems}


def _per_layer(tracer, groups: dict, rounds: list, untraced: list,
               parallelism: int) -> dict:
    import layers

    by_name = tracer.by_name()

    def calls(*names):
        return sum(by_name.get(n, (0, 0))[0] for n in names)

    def self_s(group):
        return sum(ns for n, (_, ns) in by_name.items()
                   if groups.get(n) == group) / 1e9

    paths = sum(r["paths"] for r in rounds)
    wall = sum(r["wall"] for r in rounds)
    n_rounds = len(rounds)
    sampled = max(calls("processes.PathSampler.sample"), 1)
    counters = tracer.counters
    main_self = [0] * len(tracer.names)
    for i in range(len(tracer.start)):
        if tracer.span_pid[i] == tracer.main_pid:
            sid = tracer.sid[i]
            dur = tracer.end[i] - tracer.start[i]
            main_self[sid] += dur
            parent = tracer.parent[i]
            if parent >= 0:
                main_self[tracer.sid[parent]] -= dur
    imbalance = [r["wall"] - sum(row["wallTime"] for row in r["rows"])
                 / parallelism for r in rounds]

    def us(group):
        return self_s(group) * 1e6 / paths

    def ms(group):
        return self_s(group) * 1e3 / n_rounds

    metrics = {
        "rng.streams_per_path": (calls("rng.stream") / paths, "count/path"),
        "rng.stream_us_per_path": (us("rng.stream"), "us/path"),
        "processes.sample_us_per_path": (us("processes.sample"), "us/path"),
        "processes.nodes_per_path": (counters["nodes"] / sampled, "count/path"),
        "processes.jumps_per_path": (counters["jumps"] / sampled, "count/path"),
        "processes.assemble_us_per_path": (us("processes.assemble"), "us/path"),
        "processes.transport_us_per_path": (us("processes.transport"),
                                            "us/path"),
        "processes.view_us_per_path": (us("processes.view"), "us/path"),
        "scenarios.evaluations_per_path": (
            calls(*layers.RAW_EVALUATORS) / paths, "count/path"),
        "scenarios.evaluate_us_per_path": (us("scenarios.evaluate"),
                                           "us/path"),
        "integrators.cell_values_us_per_path": (
            us("integrators.cell_values"), "us/path"),
        "integrators.ito_calls_per_path": (
            calls(*layers.ITO_LAYERS) / paths, "count/path"),
        "integrators.ito_us_per_path": (us("integrators.ito"), "us/path"),
        "integrators.quadrature_us_per_path": (us("integrators.quadrature"),
                                               "us/path"),
        "integrators.cells_per_path": (counters["cells"] / paths,
                                       "count/path"),
        "stats.chunks": (calls("stats.MomentAccumulator.from_samples")
                         / n_rounds, "count"),
        "stats.reduce_us_per_path": (us("stats.reduce"), "us/path"),
        "checks.statistic_us_per_path": (us("checks.statistic"), "us/path"),
        "checks.imbalance_s": (statistics.mean(imbalance), "s"),
        "spaces.build_ms": (ms("spaces.build"), "ms"),
        "scenarios.build_ms": (ms("scenarios.build"), "ms"),
        "config.load_ms": (ms("config.load"), "ms"),
        "trace.overhead": (
            statistics.median(r["wall"] / r["paths"] for r in rounds)
            / statistics.median(r["wall"] / r["paths"] for r in untraced)
            - 1.0, "ratio"),
        "trace.accounted_share": (sum(main_self) / 1e9 / wall, "ratio"),
    }
    breakdown = {}
    for name, (_, ns) in by_name.items():
        group = groups.get(name, name)
        breakdown[group] = breakdown.get(group, 0.0) + ns / 1e9
    return {"metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "self_s": breakdown, "wall_s": wall, "paths": paths,
            "spans": len(tracer.start)}


def mode_trace(spec: dict) -> dict:
    from levyint import cli
    import layers

    _warm_up(cli, spec)
    half = spec["seconds"] / 2.0
    untraced = _rounds(cli, spec, half)
    tracer = layers.Tracer()
    groups = layers.install(tracer)
    root = tracer.intern(layers.ROUND)

    def traced(main, argv):
        return tracer.call(root, main, (argv,), {})

    tracer.enabled = True
    rounds = _rounds(cli, spec, half, timings=True, call=traced)
    tracer.enabled = False
    problems = []
    out = _summary(spec, untraced + rounds, problems)
    _verify_after(cli, spec, untraced[-1], problems)
    out.update(_per_layer(tracer, groups, rounds, untraced,
                          spec["parallelism"]))
    tracer.write(spec["trace_file"])
    out["problems"] = problems
    return out


MODES = {"setup": mode_setup, "timed": mode_timed, "count": mode_count,
         "trace": mode_trace}


if __name__ == "__main__":
    mode, spec_text = sys.argv[1], sys.argv[2]
    result = MODES[mode](json.loads(spec_text))
    sys.stdout.write(json.dumps(result) + "\n")
