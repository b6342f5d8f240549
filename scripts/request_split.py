#!/usr/bin/env python3
"""Split the CPU time of one CLI request by stage, in one or more checkouts.

One python per ``--src`` tree imports thresholdlab from that tree (with one
BLAS thread) and keeps serving rounds; the trees take turns, round by
round, the first tree going first in even rounds and last in odd ones.  A
round times ``--calls`` calls of ``cli.main(ARGV)``, with stdout and stderr
sent to the null device, twice: bare, for ``main``, and with a timer on
each stage, for

  * ``parse``: from the call to the start of the command's handler
    (argument parsing and the ``--out`` check);
  * ``handler``: the command's handler, rendering included;
  * ``run_scan``: ``verify._run_scan``;
  * ``prune``: ``verify._prune_thresholds``;
  * ``sweep``: ``spectra.count_eigs_leq_sweep``, summed over its steps;
  * ``count``: ``count_eigs_leq``, as ``verify`` and ``spectra`` call it,
    so the locator's count passes included;
  * ``locate``: ``verify.locate_eigenvalue``, ``count`` passes and
    ``fixed_point`` included;
  * ``fixed_point``: ``spectra._fixed_point_newton``.

Each figure is CPU microseconds per call of this process (``time.process_time``;
a forked scan worker's time is not counted), the best of the rounds.  A
stage the request does not reach, or that the tree lacks, reads 0, and the
stage timers add their own cost to the stages, which is why ``main`` comes
from the bare calls.  The result is one JSON object on stdout, and in
``--out`` if given; it says whether every tree printed the same stdout and
stderr and exited with the same code on a first, untimed call.

As ``bench_scan_csv.py`` does, a ``--rounds`` or ``--calls`` below 1, an
``--out`` whose directory does not exist, and a ``--src`` with no
thresholdlab package are refused with exit 1 before anything runs, and each
tree is compiled (``compileall``) first, so that no timed process compiles a
module on import.

Example, the parent's tree against the working tree:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/request_split.py --src /tmp/parent/src --src src -- \\
        scan-gap --order 13 --format json
"""

import argparse
import compileall
import json
import os
import pathlib
import subprocess
import sys

from bench_scan_csv import refusal

CHILD = """\
import argparse, contextlib, hashlib, io, json, os, sys, time
from thresholdlab import cli, spectra, verify
argv, calls, now = sys.argv[2:], int(sys.argv[1]), time.process_time_ns
spent = dict.fromkeys(("parse", "handler", "run_scan", "prune", "sweep", "count", "locate",
                       "fixed_point"), 0)
entered = [0]  # when the call being timed started

def timed(name, fn):
    def stage(*args, **kwargs):
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += now() - start
    return stage

def handled(fn):
    def handler(args):
        spent["parse"] += now() - entered[0]
        return fn(args)
    return timed("handler", handler)

def sweep(*args, **kwargs):
    steps = bare[verify, "count_eigs_leq_sweep"](*args, **kwargs)
    while True:
        start = now()
        counts = next(steps, None)
        spent["sweep"] += now() - start
        if counts is None:
            return
        yield counts

stage_of = {(verify, "_run_scan"): "run_scan", (verify, "_prune_thresholds"): "prune",
            (verify, "count_eigs_leq_sweep"): "sweep", (verify, "count_eigs_leq"): "count",
            (spectra, "count_eigs_leq"): "count", (verify, "locate_eigenvalue"): "locate",
            (spectra, "_fixed_point_newton"): "fixed_point"}
bare = {key: getattr(*key) for key in stage_of if hasattr(*key)}
# every command's parser, by argparse's table of them (each tree has it)
commands = next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
handlers = {name: sub.get_default("handler") for name, sub in commands.items()}
timers = {key: sweep if stage_of[key] == "sweep" else timed(stage_of[key], fn)
          for key, fn in bare.items()}

def stages(on):
    for name, sub in commands.items():
        sub.set_defaults(handler=handled(handlers[name]) if on else handlers[name])
    for (module, name), timer in timers.items():
        setattr(module, name, timer if on else bare[module, name])

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(argv)
print(json.dumps([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  hashlib.sha256(err.getvalue().encode()).hexdigest()]), flush=True)
with open(os.devnull, "w") as null:
    for _ in sys.stdin:
        with contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
            start = now()
            for _ in range(calls):
                cli.main(argv)
            figures = {"main": now() - start}
            spent.update(dict.fromkeys(spent, 0))
            stages(True)
            try:
                for _ in range(calls):
                    entered[0] = now()
                    cli.main(argv)
            finally:
                stages(False)
        figures.update(spent)
        print(json.dumps({k: v / calls / 1000 for k, v in figures.items()}), flush=True)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; give one per tree")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--calls", type=int, default=200, help="calls per round and pass")
    parser.add_argument("--out", help="also write the result to this JSON file")
    parser.add_argument("argv", nargs="+", help="the request, after --")
    args = parser.parse_args()
    out = pathlib.Path(args.out) if args.out else None
    message = refusal("--rounds", args.rounds, out) or refusal("--calls", args.calls, None)
    trees = [pathlib.Path(src).resolve() for src in args.src]
    for tree in trees:
        if message is None and not (tree / "thresholdlab" / "__init__.py").is_file():
            message = f"--src {str(tree)!r} holds no thresholdlab package"
    if message:
        print(f"error: {message}", file=sys.stderr)
        return 1

    children = []
    for tree in trees:
        compileall.compile_dir(str(tree), quiet=1)
        env = {**os.environ, "PYTHONPATH": str(tree), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        children.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, str(args.calls), *args.argv], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE))
    try:
        first = [json.loads(child.stdout.readline()) for child in children]
        best = [{} for _ in trees]
        for r in range(args.rounds):
            for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                children[i].stdin.write("\n")
                children[i].stdin.flush()
                for key, value in json.loads(children[i].stdout.readline()).items():
                    best[i][key] = min(value, best[i].get(key, value))
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    result = {
        "argv": args.argv, "rounds": args.rounds, "calls": args.calls,
        "unit": "CPU us per call, best of the rounds",
        "same_output": all(reply == first[0] for reply in first),
        "trees": [{"src": str(tree), "exit_code": reply[0],
                   **{key: round(value, 1) for key, value in figures.items()}}
                  for tree, reply, figures in zip(trees, first, best)],
    }
    text = json.dumps(result, indent=1)
    print(text)
    if out is not None:
        out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
