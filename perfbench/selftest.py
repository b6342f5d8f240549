"""Self-test of the benchmark's output checks.

Runs every workload briefly as it is, then again with a wrong answer
injected into thresholdlab: ``verify.eta_extremes`` reports eta_plus 1e-6
too high, which every workload prints somewhere.  The clean runs must report
no failure, the injected runs a failed ratio above 0 and ``correct: false``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

SECONDS = "1"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def result(workload: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", SECONDS])
    expect(code == 0, f"{workload}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    os.environ.update(run.BLAS_ENV)
    run.import_thresholdlab()
    from thresholdlab import verify
    import workloads

    honest = verify.eta_extremes

    def wrong(spectrum):
        eta_plus, eta_minus = honest(spectrum)
        return (None if eta_plus is None else eta_plus + 1e-6), eta_minus

    for workload in workloads.WORKLOADS:
        clean = result(workload)
        expect(clean["correct"] and clean["failed"] == 0, f"{workload} clean run: {clean}")
        verify.eta_extremes = wrong
        try:
            bad = result(workload)
        finally:
            verify.eta_extremes = honest
        ratio = bad["failed"] / bad["attempted"]
        expect(ratio > 0 and not bad["correct"], f"{workload} injected run: {bad}")
        print(f"{workload}: clean 0 of {clean['attempted']} failed, "
              f"injected failed_ratio {ratio:.2f}", file=sys.stderr)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
