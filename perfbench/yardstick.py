"""A fixed piece of work that tells how fast the host runs at the moment.

The benchmark runs on a shared VM whose speed changes by 10-15% from one
minute to the next, and at times by half, in CPU time as well as in wall
time: other tenants share its cores and caches.  Every timed request is
therefore divided by the CPU time of this yardstick, measured right before
and after it.  The yardstick does the kind of work thresholdlab does (Python loops over creation
sequences, small dense numpy eigensolves, set-based peeling) but runs only
the benchmark's own oracle code, so no change to thresholdlab can move it.
"""

from __future__ import annotations

import time

import oracle

# 205 connected threshold graphs of order 13 and one of order 150: about 10 ms of CPU.
SEQUENCES = tuple(oracle.connected_symbols(13, i) for i in range(0, 2048, 10))
PEEL_ORDER = 150
# About the CPU seconds of one yardstick on the 2-core Xeon VM the baseline
# comes from.  A normalized time is a CPU time scaled to a host that runs the
# yardstick in exactly this long; the constant only sets the scale.
NOMINAL_S = 0.009


def _peel_input() -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(PEEL_ORDER)]
    for u, v in oracle.edges(oracle.antiregular_symbols(PEEL_ORDER)):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cpu_seconds() -> float:
    """CPU seconds of one yardstick run."""
    start = time.process_time()
    for symbols in SEQUENCES:
        oracle.dense_facts(symbols)
    if oracle.peel(_peel_input()) is None:
        raise RuntimeError("yardstick: the anti-regular graph did not peel")
    return time.process_time() - start
