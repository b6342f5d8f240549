"""thresholdlab benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gap-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every output is checked against an independent
route; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
say what was run, on what, and every metric with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS thread per process: the machine has 2 cores and conjecture-sweep
# already runs 2 pool workers, so more threads would measure the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import thresholdlab, thresholdlab.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {
    "graphs_per_cpu_s_norm": "1/s",
    "requests_per_cpu_s_norm": "1/s",
    "cpu_ms_p50_norm": "ms",
    "cpu_ms_p90_norm": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Figures not divided by the host's speed, printed on '#' lines only: ten
# runs of the same code spread them by more than any bound could allow.
SIDE_UNITS = {
    "graphs_per_cpu_s_raw": "1/s",
    "requests_per_cpu_s_raw": "1/s",
    "cpu_ms_p50_raw": "ms",
    "cpu_ms_p90_raw": "ms",
    "graphs_per_s": "1/s",
    "graphs_per_s_p10": "1/s",
    "requests_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "yardstick_ms_min": "ms",
    "yardstick_ms_max": "ms",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("us_per_call", "us"), ("us_per_row", "us"),
                         ("calls_per_graph", "calls/graph"), ("self_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def measure_setup() -> tuple[float, float]:
    """Median time a fresh interpreter spends importing thresholdlab and its CLI,
    normalized by the yardstick run before and after each import, and raw.

    The first import compiles bytecode and is not counted.
    """
    import yardstick

    env = {**os.environ, **BLAS_ENV}
    raw, norm = [], []
    before = yardstick.cpu_seconds()
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        after = yardstick.cpu_seconds()
        raw.append(float(done.stdout))
        norm.append(raw[-1] * yardstick.NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(norm[1:]), statistics.median(raw[1:])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def commit() -> str:
    """HEAD of the checkout when it is a git work tree; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
    }


def import_thresholdlab():
    """Import the checkout's own thresholdlab, never an installed copy."""
    if not (SRC / "thresholdlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no thresholdlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thresholdlab.cli

    if Path(thresholdlab.cli.__file__).resolve().parent != SRC / "thresholdlab":
        raise SystemExit(f"error: imported thresholdlab from {thresholdlab.cli.__file__}")
    return thresholdlab.cli


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description="thresholdlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    cli = import_thresholdlab()
    import workloads

    args = parse_args(argv)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = workloads.Runner(cli, workdir, args.seed)
        outcome = workloads.WORKLOADS[args.workload](runner, args.seconds, bool(args.trace))
        rss = peak_rss_mb()
        setup, setup_raw = (None, None) if args.trace else measure_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = outcome.phases["timed"]
    attempted = sum(len(p.wall) for p in outcome.phases.values())
    failed = sum(p.failed for p in outcome.phases.values())
    print(f"# workload {args.workload}, {args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))
    for name, phase in outcome.phases.items():
        print(f"# phase {name}: {len(phase.wall)} requests, {phase.graphs} graphs, "
              f"{sum(phase.wall):.3f} s busy, {sum(phase.cpu):.3f} s CPU, {phase.failed} failed")
    for problem in outcome.problems[:20]:
        print(f"# problem: {problem}")

    values = workloads.request_metrics(timed)
    distinct = len({id(r) for r in timed.requests})
    print(f"# {len(timed.wall)} timed requests, {distinct} distinct")
    for name, unit in SIDE_UNITS.items():
        print(f"# {name} = {values[name]} {unit}")
    if setup_raw is not None:
        print(f"# setup_s_raw = {setup_raw} s")
    print(f"# failed_ratio = {failed / attempted} ({failed} of {attempted})")
    if args.trace:
        spans = OUT / f"spans-{args.workload}.csv"
        outcome.tracer.write(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
        metrics = {name: (value, layer_unit(name)) for name, value in outcome.layer.items()}
    else:
        values.update(setup_s=setup, peak_rss_mb=rss)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
