#!/usr/bin/env python3
"""Run every verification suite at acceptance scale and print a summary.

Usage: python scripts/run_verify_suites.py [--seed N] [--quick]
"""

import argparse
import sys
import time

from chernforge.verify import SUITES, run_suite

# every suite in order at its default case count, except these
CASES = {"naturality": 500}
FULL_PLAN = [(name, {"cases": CASES.get(name, cases)} if cases else {})
             for name, (_, cases) in SUITES.items()]

QUICK_PLAN = [(name, {"cases": 10} if kwargs else {}) for name, kwargs in FULL_PLAN]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run a fast smoke pass instead of the full plan")
    args = parser.parse_args()

    plan = QUICK_PLAN if args.quick else FULL_PLAN
    all_ok = True
    for name, kwargs in plan:
        start = time.perf_counter()
        report = run_suite(name, seed=args.seed, **kwargs)
        elapsed = time.perf_counter() - start
        verdict = "PASS" if report["ok"] else "FAIL"
        print(f"{name:16s} {verdict}  checks={report['checks']:5d}  "
              f"failures={report['failures']:3d}  {elapsed:6.2f}s")
        if not report["ok"]:
            all_ok = False
            print(f"  first counterexample: {report['first_counterexample']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
