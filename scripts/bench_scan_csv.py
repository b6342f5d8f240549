#!/usr/bin/env python3
"""Time scans of a checkout and record them as points of a BENCH file.

Each run is one ``thresholdlab scan-gap|scan-conjecture --order N --order-cap N
--workers W --format F`` (CSV unless ``--format`` says otherwise) in a fresh
python with one BLAS thread, writing its output to the null device.  A CSV
scan keeps every row; a JSON or plain one keeps none, which is the path that
sets the verification frontier.  A point is keyed by commit, kind, order,
workers and format and holds the median wall and CPU seconds of its runs
(CPU of the scan process and of the workers it forks), each to 4
significant digits, graphs per wall second and per CPU second, and the
largest peak RSS of the scan process (VmHWM) and of a forked worker.  The
benchmark's yardstick (perfbench/yardstick.py) runs in this process before
and after each run, and ``cpu_s_norm`` is the median CPU time scaled to a
host that runs the yardstick in ``yardstick.NOMINAL_S``, so that points
taken at different times, when the host runs at different speeds, can be
compared.  ``minflt`` is the median count of minor page faults of the scan
(``ru_minflt`` of the scan process during the scan, plus that of the
workers it forks and reaps).  Points already in the file under the same key
are replaced.  A ``--repeats`` below 1 or an ``--out`` whose directory does
not exist is refused with exit 1 before any scan runs.  The ``--src`` tree
is compiled (``compileall``) before the first run, so that no scan process
compiles a module on import, which raises its peak RSS by about 1 MB.

Example:
    python3 scripts/bench_scan_csv.py --src src --commit "$(git rev-parse --short HEAD)" \\
        --orders 18 19 20 --workers 1 --out BENCH_scan_csv.json
    python3 scripts/bench_scan_csv.py --src src --commit "$(git rev-parse --short HEAD)" \\
        --orders 18 19 20 --workers 2 --out BENCH_scan_csv.json
    python3 scripts/bench_scan_csv.py --src src --commit "$(git rev-parse --short HEAD)" \\
        --orders 20 21 22 23 24 25 26 27 28 --format json --out BENCH_frontier.json
"""

import argparse
import compileall
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import yardstick  # noqa: E402

KEY = ("commit", "kind", "order", "workers", "format")
CHILD = """\
import os, resource, sys, time
from thresholdlab import cli
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start, cpu = time.perf_counter(), time.process_time()
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
workers = resource.getrusage(resource.RUSAGE_CHILDREN)
with open("/proc/self/status") as fh:
    peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(code, wall, time.process_time() - cpu + workers.ru_utime + workers.ru_stime,
      peak / 1024, workers.ru_maxrss / 1024, faults + workers.ru_minflt)
"""


def run(src: str, kind: str, order: int, workers: int,
        fmt: str) -> tuple[float, float, float, float, float, int]:
    """(wall s, CPU s, peak RSS MB, worker peak RSS MB, normalized CPU s,
    minor faults) of one run."""
    before = yardstick.cpu_seconds()
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD, f"scan-{kind}", "--order", str(order),
                           "--order-cap", str(order), "--workers", str(workers),
                           "--format", fmt],
                          capture_output=True, text=True, env=env, check=True)
    code, *figures = done.stdout.split()
    if code not in ("0", "2"):
        raise SystemExit(f"scan-{kind} --order {order} exited {code}: {done.stderr}")
    wall, cpu, peak, worker_peak, faults = map(float, figures)
    yard = (before + yardstick.cpu_seconds()) / 2
    return wall, cpu, peak, worker_peak, cpu * yardstick.NOMINAL_S / yard, int(faults)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--commit", required=True, help="commit id the points are keyed by")
    parser.add_argument("--orders", type=int, nargs="+", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--format", choices=("csv", "json", "plain"), default="csv")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="BENCH JSON file to update")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    if args.repeats < 1:
        print(f"error: --repeats must be at least 1, got {args.repeats}", file=sys.stderr)
        return 1
    if not out.parent.is_dir():
        print(f"error: --out directory {str(out.parent)!r} does not exist", file=sys.stderr)
        return 1

    src = str(pathlib.Path(args.src).resolve())
    compileall.compile_dir(src, quiet=1)
    points = json.loads(out.read_text()) if out.exists() else []
    for kind in ("gap", "conjecture"):
        for order in args.orders:
            runs = [run(src, kind, order, args.workers, args.format)
                    for _ in range(args.repeats)]
            wall = statistics.median(r[0] for r in runs)
            cpu = statistics.median(r[1] for r in runs)
            graphs = 2 ** (order - 2)
            point = {
                "commit": args.commit, "kind": kind, "order": order,
                "workers": args.workers, "format": args.format, "runs": args.repeats,
                "wall_s": float(f"{wall:.4g}"), "cpu_s": float(f"{cpu:.4g}"),
                "cpu_s_norm": float(f"{statistics.median(r[4] for r in runs):.4g}"),
                "minflt": round(statistics.median(r[5] for r in runs)),
                "graphs_per_s": round(graphs / wall), "graphs_per_cpu_s": round(graphs / cpu),
                "peak_rss_mb": round(max(r[2] for r in runs), 1),
                "worker_peak_rss_mb": round(max(r[3] for r in runs), 1) if args.workers > 1 else None,
                "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                         "machine": platform.machine(), "blas_threads": 1},
            }
            points = [p for p in points if [p[k] for k in KEY] != [point[k] for k in KEY]]
            points.append(point)
            print(json.dumps(point))
    out.write_text("[\n" + ",\n".join(map(json.dumps, points)) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
