#!/usr/bin/env python3
"""Extremal-eigenvalue scan: is the anti-regular graph always the minimizer?

Per order, finds the connected threshold graph with the smallest positive
eigenvalue and the one with the largest eigenvalue below -1, and reports
whether both are the anti-regular graph.  A counterexample exits with 2.

Example:
    python3 scripts/run_conjecture_scan.py --max-order 16 --workers 4
"""

import argparse
import sys
import time

from thresholdlab.verify import DEFAULT_ORDER_CAP, scan_conjecture


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-order", type=int, default=2)
    parser.add_argument("--max-order", type=int, default=16)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    args = parser.parse_args()

    counterexamples = 0
    for order in range(args.min_order, args.max_order + 1):
        t0 = time.perf_counter()
        result = scan_conjecture(order, workers=args.workers, order_cap=args.order_cap)
        elapsed = time.perf_counter() - t0
        plus = result.extremal_eta_plus
        minus = result.extremal_eta_minus
        minus_text = "absent" if minus is None else f"{minus[0]:+.10f} at {minus[1]}"
        verdict = "anti-regular extremal" if result.conjecture_holds else "COUNTEREXAMPLE"
        print(
            f"order {order:2d}: eta+ min {plus[0]:+.10f} at {plus[1]}, "
            f"eta- max {minus_text}  [{verdict}]  ({elapsed:.2f}s)"
        )
        if not result.conjecture_holds:
            counterexamples += 1
            print(f"  expected extremal sequence: {result.antiregular_sequence}")
    return 2 if counterexamples else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, OSError) as exc:  # an order or worker count out of range
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
