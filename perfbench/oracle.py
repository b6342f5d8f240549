"""Independent answers the benchmark checks thresholdlab's outputs against.

Nothing here imports thresholdlab.  Graphs are built straight from the
creation rule (vertex i joins every earlier vertex when its symbol is '1'),
spectra come from ``numpy.linalg.eigvalsh`` on the dense adjacency, and
recognition is a separate peeling over adjacency sets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GAP_LOWER = (-1.0 - math.sqrt(2.0)) / 2.0
GAP_UPPER = (-1.0 + math.sqrt(2.0)) / 2.0
TRIVIAL_TOL = 1e-7  # dense eigenvalues of 0 and -1 land within ~1e-12 * n of them
VALUE_TOL = 1e-9


def antiregular_symbols(order: int) -> str:
    """Creation sequence of the connected anti-regular graph A_order."""
    return "0" * (order % 2) + "01" * (order // 2)


def connected_symbols(order: int, index: int) -> str:
    """The index-th connected creation sequence of the order, lexicographically."""
    return "0" + format(index, f"0{order - 2}b") + "1" if order > 2 else "01"


def adjacency(symbols: str) -> np.ndarray:
    n = len(symbols)
    a = np.zeros((n, n))
    for i, c in enumerate(symbols):
        if c == "1":
            a[i, :i] = 1.0
            a[:i, i] = 1.0
    return a


def edges(symbols: str) -> list[tuple[int, int]]:
    return [(j, i) for i, c in enumerate(symbols) if c == "1" for j in range(i)]


def degrees(symbols: str) -> list[int]:
    """Degree of each vertex: later dominating vertices, plus i if vertex i dominates."""
    later_ones = 0
    out = [0] * len(symbols)
    for i in range(len(symbols) - 1, -1, -1):
        out[i] = later_ones + (i if symbols[i] == "1" else 0)
        later_ones += symbols[i] == "1"
    return out


class DenseFacts:
    """Interval count, trivial count, eta extremes and clearance of one spectrum."""

    def __init__(self, values: np.ndarray):
        trivial = (np.abs(values) <= TRIVIAL_TOL) | (np.abs(values + 1.0) <= TRIVIAL_TOL)
        self.gap_count = int(np.count_nonzero((values >= GAP_LOWER) & (values <= GAP_UPPER)))
        self.trivial_count = int(np.count_nonzero(trivial))
        positive = values[values > TRIVIAL_TOL]
        below = values[values < -1.0 - TRIVIAL_TOL]
        self.eta_plus = float(positive.min()) if positive.size else None
        self.eta_minus = float(below.max()) if below.size else None
        nontrivial = values[~trivial]
        clearance = np.maximum(nontrivial - GAP_UPPER, GAP_LOWER - nontrivial)
        self.clearance = float(max(clearance.min(), 0.0)) if nontrivial.size else math.inf


def dense_facts(symbols: str) -> DenseFacts:
    return DenseFacts(np.linalg.eigvalsh(adjacency(symbols)))


def close(value, expected) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= VALUE_TOL


def read_edge_file(path) -> tuple[int, list[set[int]]]:
    with open(path, encoding="utf-8") as fh:
        order, count = (int(t) for t in fh.readline().split())
        adj: list[set[int]] = [set() for _ in range(order)]
        for _ in range(count):
            u, v = (int(t) for t in fh.readline().split())
            adj[u].add(v)
            adj[v].add(u)
    return order, adj


def peel(adj: list[set[int]]) -> str | None:
    """Creation sequence by removing isolated/dominating vertices, or None if stuck."""
    alive = set(range(len(adj)))
    deg = {v: len(adj[v]) for v in alive}
    symbols = []
    while len(alive) > 1:
        pick = next((v for v in alive if deg[v] == 0), None)
        symbol = "0"
        if pick is None:
            pick = next((v for v in alive if deg[v] == len(alive) - 1), None)
            symbol = "1"
        if pick is None:
            return None
        alive.remove(pick)
        for v in adj[pick] & alive:
            deg[v] -= 1
        symbols.append(symbol)
    return "0" + "".join(reversed(symbols))


def forbidden_quad(adj: list[set[int]], vertices) -> tuple[int, ...] | None:
    """Four vertices inducing P4, C4 or 2K2 inside ``vertices``, or None.

    Takes u of largest degree in the induced subgraph, a non-neighbour w of u
    and a neighbour x of w.  Because deg x <= deg u and x sees w while u does
    not, u has a neighbour y outside N[x]; {u, w, x, y} then induces one of
    the three forbidden graphs.  Needs an induced subgraph with no isolated
    and no dominating vertex.
    """
    vs = set(vertices)
    nb = {v: adj[v] & vs for v in vs}
    u = max(vs, key=lambda v: len(nb[v]))
    w = next((v for v in vs - nb[u] if v != u), None)
    if w is None or not nb[w]:
        return None
    x = next(iter(nb[w]))
    y = next((v for v in nb[u] - nb[x] if v not in (x, w)), None)
    if y is None:
        return None
    quad = (u, w, x, y)
    return quad if quad_kind(adj, quad) else None


def quad_kind(adj: list[set[int]], quad) -> str | None:
    """'P4', 'C4' or '2K2' when the four vertices induce it, else None."""
    pairs = [(a, b) for a, b in itertools.combinations(quad, 2) if b in adj[a]]
    degs = sorted(sum(v in pair for pair in pairs) for v in quad)
    return {(1, 1, 2, 2): "P4", (2, 2, 2, 2): "C4", (1, 1, 1, 1): "2K2"}.get(tuple(degs))
