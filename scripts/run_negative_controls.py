"""Inject each known fault and confirm the check suite catches it.

A fault is detected when at least one of its designated checks fails.
Exit status is 0 when every requested fault is detected, 1 otherwise.
"""

import argparse
import sys
import time

from levyint.checks import (
    BASE_SEED,
    FAULT_CHECKS,
    fault_detected,
    negative_control_suite,
    run_suite,
)
from levyint.cli import _at_least_one


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fault", choices=sorted(FAULT_CHECKS),
                        action="append", default=None,
                        help="fault to inject (repeatable; default: all)")
    parser.add_argument("--paths", type=int, default=100_000,
                        help="paths per statistical check")
    parser.add_argument("--exact", type=int, default=64,
                        help="paths per exact check")
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--parallelism", type=_at_least_one, default=1,
                        help="worker processes (never changes the output)")
    args = parser.parse_args()

    faults = args.fault if args.fault else sorted(FAULT_CHECKS)
    all_caught = True
    for fault in faults:
        specs = negative_control_suite(fault, args.paths, args.exact,
                                       args.seed)
        t0 = time.perf_counter()
        reports = run_suite(specs, args.parallelism)
        elapsed = time.perf_counter() - t0
        caught = fault_detected(reports)
        all_caught = all_caught and caught
        failing = ", ".join(sorted({r.name for r in reports if not r.passed}))
        verdict = f"detected by {failing}" if caught else "NOT DETECTED"
        print(f"{fault}: {verdict} ({elapsed:.1f}s)")
        for r in reports:
            flag = "fail (expected)" if not r.passed else "pass"
            print(f"  {r.name:<22} margin {r.margin:10.3e}  {flag}")
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main())
