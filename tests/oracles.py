"""Independent reference routes used only by the tests.

Everything here is deliberately written against the definitions, not against
the library internals: forbidden-subgraph search by brute force over 4-subsets,
nested-split-graph edges straight from the class description, dense
adjacency matrices and their spectra, and eigenvalue counting from a dense
solve.  Agreement between these and the library is what the test suite
certifies.
"""

import itertools
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from thresholdlab.formats import EDGE_ORDER_CAP
from thresholdlab.graphs import NsgForm, creation_to_nsg, nsg_to_creation, parse_creation_sequence
from thresholdlab.spectra import assemble_spectrum
from thresholdlab.verify import GAP_LOWER, GAP_UPPER

# (induced edge count, sorted degree multiset) signatures on 4 vertices
_P4 = (3, (1, 1, 2, 2))
_2K2 = (2, (1, 1, 1, 1))
_C4 = (4, (2, 2, 2, 2))


def find_forbidden_subgraph(adjacency):
    """First 4-subset inducing P_4, 2K_2, or C_4, or None.

    On 4 vertices each forbidden graph is determined by its edge count plus
    degree multiset, so no isomorphism test is needed.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    for quad in itertools.combinations(range(n), 4):
        degs = [sum(int(a[u, v]) for v in quad if v != u) for u in quad]
        sig = (sum(degs) // 2, tuple(sorted(degs)))
        if sig in (_P4, _2K2, _C4):
            return quad
    return None


def is_threshold_by_forbidden(adjacency) -> bool:
    return find_forbidden_subgraph(adjacency) is None


def nsg_edges(m, n, isolated=0):
    """Edge set of NSG(m;n) built directly from the class description.

    Vertices are numbered V_1..V_h first (class by class), then U_1..U_h,
    then isolated ones.  The V classes form one clique; a vertex of U_i is
    adjacent to V_1..V_i and nothing else.
    """
    h = len(m)
    v_blocks, u_blocks = [], []
    pos = 0
    for ni in n:
        v_blocks.append(range(pos, pos + ni))
        pos += ni
    for mi in m:
        u_blocks.append(range(pos, pos + mi))
        pos += mi
    order = pos + isolated
    clique = [v for block in v_blocks for v in block]
    edges = set(itertools.combinations(clique, 2))
    for i, block in enumerate(u_blocks, start=1):
        targets = [v for vb in v_blocks[:i] for v in vb]
        for u in block:
            for v in targets:
                edges.add((min(u, v), max(u, v)))
    return order, edges


def divisor_matrix(m, n):
    """Raw 2h x 2h divisor matrix of NSG(m;n) over the cells V_1..V_h,
    U_1..U_h: entry (a, b) counts the neighbours in cell b of the first
    vertex of cell a, read off the edges of :func:`nsg_edges`."""
    _, edges = nsg_edges(m, n)
    cells, pos = [], 0
    for size in (*n, *m):
        cells.append(range(pos, pos + size))
        pos += size
    raw = np.zeros((len(cells), len(cells)))
    for a, cell in enumerate(cells):
        v = cell[0]
        for b, other in enumerate(cells):
            raw[a, b] = sum((min(v, w), max(v, w)) in edges for w in other)
    return raw


def adjacency_from_edges(order, edges):
    """uint8 adjacency matrix of a simple graph given by its edge list."""
    a = np.zeros((order, order), dtype=np.uint8)
    for u, v in edges:
        assert u != v and not a[u, v], f"edge ({u}, {v}) is a loop or a repeat"
        a[u, v] = a[v, u] = 1
    return a


def parse_edge_list_reference(text: str):
    """``(order, edges)`` of an edge-list text by one string per line and
    ``np.loadtxt``; a ValueError wherever ``formats.parse_edge_list`` must
    raise one.  Lines and blanks are those of ``str.splitlines`` and
    ``str.split``; a line whose first non-blank is ``#`` is a comment."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    lines = [ln for ln in lines if ln[0] != "#"]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or not all(re.fullmatch(r"[+-]?[0-9]+", word) for word in head):
        raise ValueError(f"first line must be 'n m' integers, got {lines[0]!r}")
    order, count = int(head[0]), int(head[1])
    if not 1 <= order <= EDGE_ORDER_CAP:
        raise ValueError(f"edge-list order {order} is out of range")
    if len(lines) - 1 != count:
        raise ValueError(f"header promises {count} edges, found {len(lines) - 1}")
    if not count:
        return order, np.empty((0, 2), dtype=np.int64)
    with warnings.catch_warnings():
        # numpy reads a float token such as 1.5 as an int with only a warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            edges = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    if edges.shape[1] != 2:
        raise ValueError(f"edge line must be 'u v', got {lines[1]!r}")
    return order, edges


def dense_edges(adjacency):
    """(u, v) pairs with u < v in row-major order."""
    i, j = np.nonzero(np.triu(np.asarray(adjacency)))
    return list(zip(i.tolist(), j.tolist()))


def class_first_vertices(symbols: str):
    """First vertex of each class of a creation sequence, keyed ("U", i),
    ("V", i) or ("iso", 0).

    The runs 0^a_1 1^b_1 ... 0^a_h 1^b_h (0^k) are U_h, V_h, ..., U_1, V_1
    and the isolated vertices, in that order.
    """
    starts = [0] + [i for i in range(1, len(symbols)) if symbols[i] != symbols[i - 1]]
    h = symbols.count("01")
    first = {}
    for run, start in enumerate(starts):
        index = h - run // 2
        kind = "V" if symbols[start] == "1" else ("U" if index >= 1 else "iso")
        first[(kind, max(index, 0))] = start
    return first


def interlacing_witness(lams, mus, tol):
    """First i with mus[i] outside [lams[i+1] - tol, lams[i] + tol], or None;
    both lists descending."""
    for i, mu in enumerate(mus):
        if not (lams[i] + tol >= mu >= lams[i + 1] - tol):
            return i
    return None


# The interlacing check under a vertex deletion, on the assembled spectra.
# No command runs it; the tests hold it to the dense deletion.
INTERLACING_TOL = 1e-7


class EmptyClassError(ValueError):
    """Referenced vertex class does not exist or is empty."""


@dataclass(frozen=True)
class InterlacingReport:
    """Verdict of one vertex-deletion interlacing check."""

    sequence: str
    deleted_class: tuple[str, int]
    passed: bool
    witness: int | None  # first index i (0-based) violating the weave


def _first_vertex(form: NsgForm, vertex_class: tuple[str, int]) -> int:
    """Position in the creation sequence of the class's first vertex.

    The sequence is 0^m_h 1^n_h ... 0^m_1 1^n_1 0^isolated, so U_i starts
    after the classes of index above i and V_i right after U_i; the
    isolated vertices are the class ("iso", 0).
    """
    kind, index = vertex_class
    if kind in ("U", "V") and 1 <= index <= form.h:
        start = sum(form.m[index:]) + sum(form.n[index:])
        return start if kind == "U" else start + form.m[index - 1]
    if vertex_class == ("iso", 0) and form.isolated:
        return form.order - form.isolated
    raise EmptyClassError(f"graph has no class {kind}_{index}")


def check_interlacing(form: NsgForm, vertex_class: tuple[str, int]) -> InterlacingReport:
    """Delete one vertex of the class and verify the eigenvalue weave.

    With parent eigenvalues l_1 >= ... >= l_n and child eigenvalues
    m_1 >= ... >= m_(n-1), requires l_i + tol >= m_i >= l_(i+1) - tol.  The
    child is the induced subgraph, whose creation sequence is the parent's
    with the vertex's symbol deleted (the new first symbol read as 0).
    """
    symbols = str(nsg_to_creation(form))
    vertex = _first_vertex(form, vertex_class)
    rest = symbols[:vertex] + symbols[vertex + 1:]
    lams = assemble_spectrum(form)
    mus = assemble_spectrum(creation_to_nsg(parse_creation_sequence(rest))) if rest else []
    witness = interlacing_witness(lams, mus, INTERLACING_TOL)
    return InterlacingReport(symbols, vertex_class, witness is None, witness)


def sequence_edges_reference(symbols: str):
    """(i, j) pairs in row-major order by one comprehension: for i < j,
    vertex j is adjacent to vertex i iff symbol j is '1'."""
    dominating = [j for j, c in enumerate(symbols) if c == "1"]
    return [(i, j) for i in range(len(symbols)) for j in dominating if j > i]


def degree_multiset(adjacency):
    return sorted(int(d) for d in np.asarray(adjacency).sum(axis=1))


def dense_spectrum(adjacency):
    """Descending eigenvalues of the dense adjacency matrix."""
    return np.linalg.eigvalsh(np.asarray(adjacency, dtype=np.float64))[::-1]


def dense_count_leq(adjacency, x: float) -> int:
    vals = np.linalg.eigvalsh(np.asarray(adjacency, dtype=np.float64))
    return int(np.count_nonzero(vals <= x))


def neighborhood_classes(adjacency, closed=False):
    """Duplication (open) or coduplication (closed) classes by direct comparison."""
    a = np.asarray(adjacency).astype(np.int64)
    if closed:
        a = a.copy()
        np.fill_diagonal(a, 1)
    groups = {}
    for v in range(a.shape[0]):
        groups.setdefault(tuple(a[v]), []).append(v)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def peel_dense(adjacency):
    """Recognition by peeling on a dense matrix, rescanning for the first
    isolated, then the first dominating, vertex at every step.

    Returns the creation-sequence string, or (stuck vertices, their induced
    edges) when no vertex can be peeled.
    """
    a = np.asarray(adjacency)
    alive = list(range(a.shape[0]))
    symbols = []
    while len(alive) > 1:
        degree = {v: sum(int(a[v, w]) for w in alive) for v in alive}
        isolated = [v for v in alive if degree[v] == 0]
        dominating = [v for v in alive if degree[v] == len(alive) - 1]
        if not isolated and not dominating:
            return tuple(alive), tuple(e for e in itertools.combinations(alive, 2) if a[e])
        alive.remove((isolated or dominating)[0])
        symbols.append("0" if isolated else "1")
    return "0" + "".join(reversed(symbols))


def creation_to_nsg_reference(symbols: str) -> NsgForm:
    """NSG form of a canonical creation-sequence string from its runs, each
    counted by ``itertools.groupby``: the 0-runs are U_h, ..., U_1 and the
    1-runs V_h, ..., V_1, and a 0-run after the last 1-run is isolated."""
    runs = [(c, sum(1 for _ in group)) for c, group in itertools.groupby(symbols)]
    zero_sizes = [size for c, size in runs if c == "0"]
    one_sizes = [size for c, size in runs if c == "1"]
    h = len(one_sizes)
    trailing = zero_sizes[h] if len(zero_sizes) > h else 0
    return NsgForm(tuple(reversed(zero_sizes[:h])), tuple(reversed(one_sizes)), trailing)


def eta_extremes_reference(values):
    """(smallest eigenvalue > 0, largest < -1) over the last axis, by a
    tolerance: eigenvalues within 1e-8 of 0 or -1 are trivial and count for
    neither slot; an empty slot reads +inf and -inf."""
    plus = np.where(values > 1e-8, values, np.inf).min(axis=-1, initial=np.inf)
    minus = np.where(values < -1.0 - 1e-8, values, -np.inf).max(axis=-1, initial=-np.inf)
    return plus, minus


def clearance_reference(values):
    """How far the eigenvalues that are not within 1e-8 of 0 or -1 stay clear
    of [GAP_LOWER, GAP_UPPER], over the last axis: 0 when one lies inside,
    inf when there is none."""
    trivial = (np.abs(values) <= 1e-8) | (np.abs(values + 1.0) <= 1e-8)
    outside = np.maximum(np.maximum(values - GAP_UPPER, GAP_LOWER - values), 0.0)
    return np.where(trivial, np.inf, outside).min(axis=-1, initial=np.inf)


def count_eigs_leq_reference(symbols: str, x: float) -> int:
    """The inertia count at x by the congruence, with a = x + b recomputed at
    every step: d -> -2a - a^2/d from the last symbol, pivots within pivmin
    of zero clamped negative.  It is the count-only recurrence, the same
    float operations as the kernel's count."""
    x = float(x)
    pivmin = float(np.finfo(np.float64).tiny) * (len(symbols) + abs(x) + 1.0) ** 2
    count = 0
    d = -x
    for symbol in reversed(symbols):
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
        a = x + 1.0 if symbol == "1" else x
        d = -2.0 * a - a * a / d
    return count


def count_eigs_leq_exact(symbols: str, x: float) -> int:
    """The inertia count at the double x in exact arithmetic: the same
    recurrence on integer pairs (u, w) with d = u/w, x = X/D a dyadic
    rational and a = (X + bD)/D, so d -> -2a - a^2/d is
    (u, w) -> (-2(X + bD)Du - (X + bD)^2 w, D^2 u).  No gcd is taken.  No
    tested pivot may be exactly zero: that would make x an eigenvalue,
    where the count says nothing about which side it lies on."""
    numerator, denominator = float(x).as_integer_ratio()
    u, w = -numerator, denominator
    count = 0
    for step, symbol in enumerate(reversed(symbols)):
        assert u != 0, f"pivot {step} is exactly zero at {x!r}"
        count += (u < 0) != (w < 0)
        a = numerator + denominator * (symbol == "1")
        u, w = -2 * a * denominator * u - a * a * w, denominator * denominator * u
    return count


def cli_main_reference(argv=None) -> int:
    """``cli.main`` as it reads when the full parser parses every request:
    the same handlers, usage errors and exit codes."""
    from thresholdlab import cli

    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        if not os.path.isdir(os.path.dirname(args.out or "") or "."):
            raise ValueError(f"--out directory {os.path.dirname(args.out)!r} does not exist")
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
