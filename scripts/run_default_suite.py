"""Run the standing check suite at a chosen scale and print a report table.

Exit status is 0 when every check passes, 1 otherwise.
"""

import argparse
import sys
import time

from levyint.checks import (
    BASE_SEED,
    default_suite,
    reports_to_csv,
    reports_to_json,
    run_suite,
    suite_passed,
)
from levyint.cli import _at_least_one


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=100_000,
                        help="paths per statistical check")
    parser.add_argument("--exact", type=int, default=64,
                        help="paths per exact check")
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--parallelism", type=_at_least_one, default=1,
                        help="worker processes (never changes the output)")
    parser.add_argument("--timings", action="store_true",
                        help="serialize real wall times instead of 0.0")
    parser.add_argument("--out", default=None, help="write a JSON report")
    parser.add_argument("--csv", default=None, help="write a CSV report")
    args = parser.parse_args()

    specs = default_suite(args.paths, args.exact, args.seed)
    t0 = time.perf_counter()
    reports = run_suite(specs, args.parallelism)
    elapsed = time.perf_counter() - t0

    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        print(f"{r.name:<22} margin {r.margin:10.3e}  {flag}  "
              f"({r.n_paths} paths, seed {r.seed}, {r.wall_time:.1f}s)")
    print(f"{len(reports)} checks in {elapsed:.1f}s")

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports, include_timings=args.timings))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports, include_timings=args.timings))
    return 0 if suite_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
