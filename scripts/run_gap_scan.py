#!/usr/bin/env python3
"""Exhaustive interval scan over a range of orders.

For every connected threshold graph of each order, counts eigenvalues inside
((-1-sqrt(2))/2, (-1+sqrt(2))/2) by inertia and compares with the trivial
multiplicities; open or closed is the same question, since neither endpoint
can be an eigenvalue of an integer matrix.  Any disagreement is a
counterexample to the interval statement and exits with status 2.

Example:
    python3 scripts/run_gap_scan.py --max-order 14 --workers 4 --csv-dir out/
"""

import argparse
import pathlib
import sys
import time

from thresholdlab.cli import scan_csv
from thresholdlab.verify import DEFAULT_ORDER_CAP, scan_gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-order", type=int, default=2)
    parser.add_argument("--max-order", type=int, default=14)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    parser.add_argument("--csv-dir", help="write per-graph rows to <dir>/gap_<order>.csv")
    args = parser.parse_args()

    csv_dir = None
    if args.csv_dir:
        csv_dir = pathlib.Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)

    total = 0
    bad = 0
    for order in range(args.min_order, args.max_order + 1):
        t0 = time.perf_counter()
        result = scan_gap(
            order,
            workers=args.workers,
            order_cap=args.order_cap,
            keep_rows=csv_dir is not None,
        )
        elapsed = time.perf_counter() - t0
        total += result.graphs_checked
        bad += len(result.failures)
        print(
            f"order {order:2d}: {result.graphs_checked:6d} graphs, "
            f"{len(result.failures)} failures, {elapsed:6.2f}s"
        )
        for failure in result.failures:
            print(f"  counterexample {failure.sequence}: count {failure.count_in_interval} "
                  f"expected {failure.expected_trivial}")
        if csv_dir is not None:
            with open(csv_dir / f"gap_{order}.csv", "w", encoding="utf-8") as fh:
                fh.writelines(scan_csv(result))

    print(f"total: {total} graphs, {bad} failures")
    return 2 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, OSError) as exc:  # bad order or worker count, unwritable --csv-dir
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
