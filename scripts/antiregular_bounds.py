#!/usr/bin/env python3
"""Clearance of the anti-regular extremes over the eigenvalue-free interval.

Prints eta+(A_n), eta-(A_n) and their distances to the interval endpoints for
a range of orders.  The distances decay roughly like 1.74/n^2, which is worth
seeing once: the interval is tight.  Orders go up to the CLI's single-graph
cap, ``formats.EDGE_ORDER_CAP`` (2000); a larger --max-order, a --step below
1 or a --csv whose directory does not exist is refused with exit 1 before any
order is solved.

Example:
    python3 scripts/antiregular_bounds.py --max-order 500 --csv bounds.csv
"""

import pathlib
import sys

from thresholdlab.cli import _integer, _Parser
from thresholdlab.formats import EDGE_ORDER_CAP, sig12
from thresholdlab.verify import GAP_LOWER, GAP_UPPER, check_antiregular_bounds


def main() -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-order", type=_integer, default=2)
    parser.add_argument("--max-order", type=_integer, default=100)
    parser.add_argument("--step", type=_integer, default=1)
    parser.add_argument("--csv", help="write a CSV table to this path")
    args = parser.parse_args()
    if args.step < 1:
        raise ValueError(f"--step must be at least 1, got {args.step}")
    if args.max_order > EDGE_ORDER_CAP:  # check-antiregular's own cap on --order
        raise ValueError(f"--max-order {args.max_order} is above the cap {EDGE_ORDER_CAP}")
    if args.csv and not (folder := pathlib.Path(args.csv).parent).is_dir():
        raise ValueError(f"--csv directory {str(folder)!r} does not exist")

    rows = ["order,eta_plus,eta_minus,plus_clearance,minus_clearance,verdict"]
    bad = 0
    for order in range(args.min_order, args.max_order + 1, args.step):
        result = check_antiregular_bounds(order)
        plus_clear = result.eta_plus - GAP_UPPER
        if result.eta_minus is None:
            minus_text = "absent"
            minus_clear_text = ""
        else:
            minus_clear = GAP_LOWER - result.eta_minus
            minus_text = sig12(result.eta_minus)
            minus_clear_text = sig12(minus_clear)
        verdict = "pass" if result.passed else "fail"
        bad += not result.passed
        rows.append(
            f"{order},{sig12(result.eta_plus)},{minus_text},"
            f"{sig12(plus_clear)},{minus_clear_text},{verdict}"
        )
        print(
            f"n={order:4d}  eta+ {result.eta_plus:+.12f} (clear {plus_clear:.3e})  "
            f"eta- {minus_text:>16s}  [{verdict}]"
        )

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return 2 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, OSError) as exc:  # an order out of range, an unwritable --csv
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
