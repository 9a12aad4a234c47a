"""Benchmark of the ``levyint check`` command, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a levyint checkout.  ``--workload all`` (the default)
runs every workload in turn.  The benchmark writes generated configs,
reports and span files under ``perfbench/out/`` and touches nothing else.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``paths_per_s``, ``setup_s``, ``cpu_s``,
``peak_rss_mb`` and ``calls_per_path``.  With ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  See README.md for what each
workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20260816
SETUP_STARTS = 5          # measured fresh starts per run, after one discarded
CHILD_TIMEOUT_S = 150

# the default suite, in order: (check, statistical?); entry i has seed
# config seed + i, statistical entries run at nPaths, exact ones at nExact
SUITE = (("isometry1", True), ("isometry2", True), ("isometry2", True),
         ("isometry4", True), ("orthogonality", True),
         ("basis_invariance", False), ("isometry_invariance", False),
         ("well_defined", False), ("covariance_recovery", True),
         ("bracket", True), ("martingale", True), ("simple_exact", False),
         ("series_orthogonality", True), ("truncation_tail", True))
EXACT_CHECKS = ("basis_invariance", "isometry_invariance", "well_defined",
                "simple_exact")

# compensated Poisson and mixed drivers with small jumps: about 240 jump
# nodes against 65 scheduled ones per path of the six-component desk
JUMP_DENSE_DRIVERS = [
    {"preset": "poisson", "a": 0.15},
    {"preset": "mixed", "sigma": 0.5, "a": 0.12},
    {"preset": "poisson", "a": 0.25},
    {"preset": "mixed", "sigma": 0.3, "a": 0.1},
    {"preset": "poisson", "a": 0.2},
    {"preset": "mixed", "sigma": 0.7, "a": 0.2},
]

# nPaths is the per-check path count of the statistical checks in one
# round; each round takes about two seconds on one core
WORKLOADS = {
    "suite_serial": {"n_paths": 512, "n_exact": 64, "parallelism": 1},
    "jump_dense": {"n_paths": 256, "n_exact": 64, "parallelism": 1,
                   "drivers": JUMP_DENSE_DRIVERS},
    "exact_battery": {"n_paths": 2, "n_exact": 1024, "parallelism": 1,
                      "checks": EXACT_CHECKS, "seeded": True},
    "suite_parallel": {"n_paths": 512, "n_exact": 64, "parallelism": 2},
}


class BenchError(Exception):
    pass


def _desk(root: str) -> dict:
    path = os.path.join(root, "configs", "default.json")
    if not os.path.isfile(os.path.join(root, "src", "levyint", "cli.py")) \
            or not os.path.isfile(path):
        raise BenchError("run from the root of a levyint checkout: "
                         "src/levyint and configs/default.json are missing")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config(desk: dict, work: dict, seed: int, **extra) -> dict:
    cfg = json.loads(json.dumps(desk))
    if "drivers" in work:
        cfg["drivers"] = work["drivers"]
    cfg["nPaths"] = work["n_paths"]
    cfg["nExact"] = work["n_exact"]
    cfg["seed"] = seed
    if "checks" in work:
        cfg["checks"] = list(work["checks"])
    cfg.update(extra)
    return cfg


def _expected_rows(cfg: dict) -> list:
    checks = cfg.get("checks")
    return [(name, cfg["seed"] + i,
             cfg["nPaths"] if statistical else cfg["nExact"])
            for i, (name, statistical) in enumerate(SUITE, 1)
            if checks is None or name in checks]


def _write(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def make_spec(root: str, workload: str, seed: int, seconds: float) -> dict:
    """Generate the workload's configs from the seed; return the child spec.

    The statistical workloads keep the default seed for the program, so
    their verdicts repeat bit for bit (a 4-sigma statistic misses with
    probability 6.3e-5 at any one seed); the seed picks the spot-checked
    paths.  ``exact_battery`` runs its exact identities at the given seed.
    """
    work = WORKLOADS[workload]
    desk = _desk(root)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    run_seed = seed % 2 ** 32 if work.get("seeded") else DEFAULT_SEED
    cfg = _config(desk, work, run_seed)
    # the counting round runs a quarter of the paths of a timed round
    count_cfg = _config(desk, dict(work, n_paths=max(2, work["n_paths"] // 4),
                                   n_exact=work["n_exact"] // 4), DEFAULT_SEED)
    warm = dict(work, n_paths=2, n_exact=2)
    fault = _config(desk, work, run_seed, fault="right_point",
                    checks=["simple_exact"])
    spot = random.Random(seed).sample(range(4096), 3)
    return {
        "tag": workload,
        "out": out,
        "config": _write(os.path.join(out, f"{workload}.config.json"), cfg),
        "warm_config": _write(os.path.join(out, f"{workload}.warm.config.json"),
                              _config(desk, warm, run_seed)),
        "fault_config": _write(os.path.join(out, f"{workload}.fault.config.json"),
                               fault),
        "count_config": _write(os.path.join(out, f"{workload}.count.config.json"),
                               count_cfg),
        "expect": _expected_rows(cfg),
        "count_expect": _expected_rows(count_cfg),
        "parallelism": work["parallelism"],
        "seconds": seconds,
        "spot": spot,
        "trace_file": os.path.join(out, f"trace-{workload}-{seed}.jsonl.gz"),
    }


def _child(root: str, mode: str, spec: dict) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), mode,
         json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child timed out")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(root: str, spec: dict) -> float:
    """Median of fresh interpreter starts to the moment before the first path."""
    samples = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        ready = _child(root, "setup", spec)["ready"]
        if i:                               # the first start warms caches
            samples.append(ready - t0)
    return statistics.median(samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    spec = make_spec(root, workload, seed, seconds)
    if trace:
        res = _child(root, "trace", spec)
        metrics = res["metrics"]
        for group, secs in sorted(res["self_s"].items(),
                                  key=lambda kv: -kv[1]):
            print(f"  {workload} self time {group:28s} {secs:8.3f} s "
                  f"{100 * secs / res['wall_s']:6.1f} %", file=sys.stderr)
        print(f"  {workload} traced wall {res['wall_s']:.3f} s, "
              f"{res['paths']} paths, {res['spans']} spans -> "
              f"{os.path.relpath(spec['trace_file'], root)}", file=sys.stderr)
    else:
        setup = measure_setup(root, spec)
        res = _child(root, "timed", spec)
        count = _child(root, "count", spec)
        res["problems"] += count["problems"]
        if count["failed"]:
            res["problems"].append("the counting round failed a check")
        rounds = res["rounds"]
        metrics = {
            "paths_per_s": _metric(statistics.median(
                r["paths"] / r["wall"] for r in rounds), "paths/s"),
            "setup_s": _metric(setup, "s"),
            "cpu_s": _metric(statistics.median(r["cpu"] for r in rounds),
                             "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "calls_per_path": _metric(count["calls"] / count["paths"],
                                      "calls/path"),
        }
    for problem in res["problems"]:
        print(f"  {workload}: {problem}", file=sys.stderr)
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            res = run_workload(root, name, args.seed, args.seconds,
                               bool(args.trace))
            results[name] = res
            for metric, m in res["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            print(f"{name} checks attempted {res['attempted']} failed "
                  f"{res['failed']} correct {res['correct']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
