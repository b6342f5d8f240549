"""Executable checks for the eigenvalue-free interval of threshold graphs.

The headline claim: apart from the trivial eigenvalues -1 and 0, no threshold
graph has an eigenvalue in ((-1-sqrt(2))/2, (-1+sqrt(2))/2), open or closed
alike (see ``check_gap``).  ``check_gap`` decides this for one graph by
inertia counting on the creation sequence (an exact integer test).  The scan
functions sweep entire orders exhaustively; they solve the small eigenproblem
only for the graphs their report needs: kept rows, failures, and the few
whose inertia counts find an eigenvalue in (0, eta+(A_n)] or [eta-(A_n), -1)
up to a small margin, since only those can hold an eta extreme.  The
reduction machinery walks the same vertex-deletion chain the inductive
argument walks: every non-anti-regular graph has a vertex whose removal drops
exactly one trivial eigenvalue, and iterating lands on an anti-regular graph
whose extreme nontrivial eigenvalues clear the interval strictly, by a margin
that shrinks like ~1/n^2 (the endpoints are their large-n limits).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import (
    NsgForm,
    OrderTooSmallError,
    anti_regular,
    count_threshold,
    nsg_to_creation,
    nsg_to_graph,
)
from .spectra import (
    CLASSIFY_EPS,
    assemble_spectrum,
    count_eigs_leq,
    count_eigs_leq_rows,
    eta_extremes,
    quotient_stack,
    symmetric_eigenvalues,
    trivial_forecast,
    trivial_multiplicities,
)

# Correctly rounded doubles: -1.2071067811865475..., 0.20710678118654757...
GAP_LOWER = (-1.0 - math.sqrt(2.0)) / 2.0
GAP_UPPER = (-1.0 + math.sqrt(2.0)) / 2.0

DEFAULT_ORDER_CAP = 22
# No scan order may pass this, whatever the cap: sequence indices run up to
# 2^(order-2), which int64 holds up to order 64.  There, eigvalsh's error on
# a 2h x 2h quotient of norm <= order, about 2h * eps * order <= 1e-12, is
# still far below PRUNE_MARGIN.
ORDER_CEILING = 64
# A scan run without rows solves a row only when the kernel finds an
# eigenvalue within this margin beyond A_n's eta (see _scan_block).  It must
# exceed eigvalsh's absolute error on the row's quotient (about 2h * eps *
# order, 1e-13 at order 22), so that every row whose solved eta could reach
# A_n's is still solved and the extremes and their ties are unchanged.
PRUNE_MARGIN = 1e-9
# Scans take consecutive indices in blocks of at most this many stacked
# quotient entries (order^2 per graph bounds (2h)^2), so memory stays flat
# as the order grows.  Blocks sit on a fixed grid of indices.
SCAN_BLOCK_ENTRIES = 1 << 17
# Scans refuse more workers than this, since a process pool forks all of its
# workers on the first task.  A constant, not the core count, so that reports
# can be compared across worker counts on any host.
MAX_WORKERS = 64
INTERLACING_TOL = 1e-7


class DisconnectedError(ValueError):
    """Operation requires a connected graph."""


class EmptyClassError(ValueError):
    """Referenced vertex class does not exist or is empty."""


class OrderCapExceededError(ValueError):
    """Scan order above the configured cap."""


class ReductionCase(Enum):
    """Which trivial multiplicity drops when the chosen vertex is deleted."""

    DROP_ZERO = "drop_zero"  # mul(0, G) = mul(0, H) + 1, mul(-1) unchanged
    DROP_MINUS_ONE = "drop_minus_one"  # mul(-1, G) = mul(-1, H) + 1, mul(0) unchanged


@dataclass(frozen=True)
class GapReport:
    """Verdict of the interval check on a single graph."""

    sequence: str
    order: int
    count_in_interval: int
    expected_trivial: int
    min_nontrivial_distance: float
    passed: bool


@dataclass(frozen=True)
class InterlacingReport:
    """Verdict of one vertex-deletion interlacing check."""

    sequence: str
    deleted_class: tuple[str, int]
    passed: bool
    witness: int | None  # first index i (0-based) violating the weave


@dataclass(frozen=True)
class ReductionStep:
    parent: NsgForm
    deleted_class: tuple[str, int]  # ("U" | "V", 1-based class index)
    child: NsgForm
    case: ReductionCase


@dataclass(frozen=True)
class BoundsReport:
    """Extreme nontrivial eigenvalues of an anti-regular graph vs the interval."""

    order: int
    eta_plus: float
    eta_minus: float | None
    passed: bool


@dataclass(frozen=True)
class ScanReport:
    """Merged result of an exhaustive per-order scan over connected graphs."""

    kind: str  # "gap" | "conjecture"
    order: int
    graphs_checked: int
    failures: tuple[GapReport, ...]
    extremal_eta_plus: tuple[float, str] | None
    extremal_eta_minus: tuple[float, str] | None
    antiregular_sequence: str | None = None
    conjecture_holds: bool | None = None
    rows: tuple[dict, ...] | None = None

    @property
    def passed(self) -> bool:
        ok = not self.failures
        if self.conjecture_holds is not None:
            ok = ok and self.conjecture_holds
        return ok


def _clearance(values: np.ndarray, eps: float = CLASSIFY_EPS) -> np.ndarray:
    """How far the nontrivial eigenvalues stay clear of [GAP_LOWER, GAP_UPPER].

    Reduces the last axis: 0 when a nontrivial eigenvalue lies inside, inf
    when there is none.  Eigenvalues within eps of 0 or -1 are trivial.
    """
    trivial = (np.abs(values) <= eps) | (np.abs(values + 1.0) <= eps)
    outside = np.maximum(np.maximum(values - GAP_UPPER, GAP_LOWER - values), 0.0)
    return np.where(trivial, np.inf, outside).min(axis=-1, initial=np.inf)


def check_gap(form: NsgForm) -> GapReport:
    """Count eigenvalues inside the interval and compare with the forecast.

    The count is count_eigs_leq(seq, GAP_UPPER) - count_eigs_leq(seq,
    GAP_LOWER), the eigenvalues in (GAP_LOWER, GAP_UPPER]; it must equal
    mult0 + multm1, i.e. only the trivial eigenvalues (both strictly inside
    the interval) may appear there.  Open or closed is the same question: the
    exact endpoints are roots of 4x^2 + 4x - 1, which is not monic, so neither
    is an algebraic integer and no integer matrix has either as an
    eigenvalue.  Also reports how far the nearest nontrivial eigenvalue stays
    clear of the closed interval.
    """
    seq = nsg_to_creation(form)
    spectrum = assemble_spectrum(form)
    count = count_eigs_leq(seq, GAP_UPPER) - count_eigs_leq(seq, GAP_LOWER)
    mults = trivial_multiplicities(form)
    expected = mults.mult0 + mults.multm1
    return GapReport(
        sequence=str(seq),
        order=form.order,
        count_in_interval=count,
        expected_trivial=expected,
        min_nontrivial_distance=float(_clearance(spectrum.values, spectrum.tolerance)),
        passed=count == expected,
    )


def check_interlacing(form: NsgForm, vertex_class: tuple[str, int]) -> InterlacingReport:
    """Delete one vertex of the class and verify the eigenvalue weave.

    With parent eigenvalues l_1 >= ... >= l_n and child eigenvalues
    m_1 >= ... >= m_(n-1), requires l_i + tol >= m_i >= l_(i+1) - tol.
    """
    kind, index = vertex_class
    graph = nsg_to_graph(form)
    victims = [v for v, tag in enumerate(graph.class_of) if tag == (kind, index)]
    if not victims:
        raise EmptyClassError(f"graph has no class {kind}_{index}")
    parent = graph.adjacency.astype(np.float64)
    child = np.delete(np.delete(parent, victims[0], axis=0), victims[0], axis=1)
    lams = symmetric_eigenvalues(parent)
    mus = symmetric_eigenvalues(child)
    witness = None
    for i, mu in enumerate(mus):
        if not (lams[i] + INTERLACING_TOL >= mu >= lams[i + 1] - INTERLACING_TOL):
            witness = i
            break
    return InterlacingReport(
        sequence=str(nsg_to_creation(form)),
        deleted_class=vertex_class,
        passed=witness is None,
        witness=witness,
    )


def reducing_vertex(form: NsgForm) -> ReductionStep | None:
    """Pick the vertex whose deletion drops exactly one trivial eigenvalue.

    Returns None when the graph is anti-regular (the base case: no such
    vertex is needed).  Otherwise: if every class is a singleton except the
    top coclique, that class has m_h >= 3 and loses a vertex (a duplicate);
    else the first clique class with n_k >= 2 loses a coduplicate; else the
    first coclique class below the top with m_j >= 2 loses a duplicate.
    """
    if form.isolated or form.h == 0:
        raise DisconnectedError("reduction needs a connected graph (isolated = 0, h >= 1)")
    m, n, h = form.m, form.n, form.h
    if all(x == 1 for x in n) and all(x == 1 for x in m[:-1]):
        if m[-1] <= 2:
            return None  # anti-regular
        child = NsgForm(m[:-1] + (m[-1] - 1,), n)
        return ReductionStep(form, ("U", h), child, ReductionCase.DROP_ZERO)
    for k in range(h):
        if n[k] >= 2:
            child = NsgForm(m, n[:k] + (n[k] - 1,) + n[k + 1:])
            return ReductionStep(form, ("V", k + 1), child, ReductionCase.DROP_MINUS_ONE)
    for j in range(h - 1):
        if m[j] >= 2:
            child = NsgForm(m[:j] + (m[j] - 1,) + m[j + 1:], n)
            return ReductionStep(form, ("U", j + 1), child, ReductionCase.DROP_ZERO)
    raise AssertionError("unreachable: non-anti-regular form with all classes singleton")


def check_reduction(step: ReductionStep) -> bool:
    """Exact integer check of the multiplicity relation claimed by the step."""
    parent = trivial_multiplicities(step.parent)
    child = trivial_multiplicities(step.child)
    if step.case is ReductionCase.DROP_ZERO:
        return (parent.mult0, parent.multm1) == (child.mult0 + 1, child.multm1)
    return (parent.mult0, parent.multm1) == (child.mult0, child.multm1 + 1)


def reduction_chain(form: NsgForm) -> list[ReductionStep]:
    """All steps from ``form`` down to its anti-regular endpoint."""
    steps = []
    current = form
    while (step := reducing_vertex(current)) is not None:
        steps.append(step)
        current = step.child
    return steps


def check_antiregular_bounds(order: int) -> BoundsReport:
    """Extreme nontrivial eigenvalues of the anti-regular graph clear the interval.

    Requires eta_plus > GAP_UPPER and eta_minus < GAP_LOWER; the eta_minus
    side is vacuous when no eigenvalue lies below -1 (order 2).
    """
    spectrum = assemble_spectrum(anti_regular(order))
    eta_plus, eta_minus = eta_extremes(spectrum)
    passed = (
        eta_plus is not None
        and eta_plus > GAP_UPPER
        and (eta_minus is None or eta_minus < GAP_LOWER)
    )
    return BoundsReport(order=order, eta_plus=eta_plus, eta_minus=eta_minus, passed=passed)


def _check_scan_order(order: int, order_cap: int) -> None:
    if order < 2:
        raise OrderTooSmallError(f"scans need order >= 2, got {order}")
    if order > ORDER_CEILING:
        raise OrderCapExceededError(
            f"order {order} above the ceiling {ORDER_CEILING} of any scan")
    if order > order_cap:
        raise OrderCapExceededError(f"order {order} above cap {order_cap}")


def _block_symbols(order: int, lo: int, hi: int) -> np.ndarray:
    """0/1 symbols of connected sequences lo..hi-1, numbered as by ``sequence_at``."""
    index = np.arange(lo, hi, dtype=np.int64)
    shifts = np.arange(order - 3, -1, -1)  # index bits, most significant first
    symbols = np.zeros((hi - lo, order), dtype=np.uint8)
    symbols[:, 1:-1] = (index[:, None] >> shifts) & 1
    symbols[:, -1] = 1
    return symbols


def _prune_thresholds(order: int) -> tuple[float, float]:
    """eta+ and eta- of A_n, the bounds the order's eta extremes cannot miss.

    The smallest eta+ of the order is at most eta+(A_n) and the largest eta-
    at least eta-(A_n), so no row whose eigenvalues stay off (0, t+] and
    [t-, -1) can hold an extreme.  An empty slot of A_n bounds nothing:
    every eigenvalue of the order lies in (-order, order).
    """
    plus, minus = eta_extremes(assemble_spectrum(anti_regular(order)))
    return (order if plus is None else plus), (-order if minus is None else minus)


def _class_sizes(changes: np.ndarray, order: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Class sizes (m, n), one row per graph, from the symbol changes of
    sequences that all have h clique classes."""
    cuts = np.nonzero(changes)[1].reshape(len(changes), 2 * h - 1) + 1
    edges = np.concatenate([np.zeros((len(changes), 1), dtype=np.int64), cuts,
                            np.full((len(changes), 1), order)], axis=1)
    runs = np.diff(edges, axis=1)  # a_1 b_1 ... a_h b_h: m_h = a_1, n_1 = b_h
    return runs[:, -2::-2], runs[:, :0:-2]


def _scan_block(order: int, lo: int, hi: int, gap: bool,
                thresholds: tuple[float, float] | None) -> tuple:
    """Per-graph arrays for connected sequences lo..hi-1 of one order.

    Returns (symbols, eta_plus, eta_minus, gap_columns).  Rows are grouped
    by h; each group's symmetrized quotients form one (k_h, 2h, 2h) stack
    with a single eigensolve.  The eigenvalues are kept zero-padded to a
    common width: 0 is trivial, so the padding counts for neither eta nor
    the clearance.  For gap scans, gap_columns holds the interval count by
    the block kernel, the trivial forecast and the clearance; else None,
    and class sizes are read only for the rows solved.

    With ``thresholds`` = (t+, t-) from :func:`_prune_thresholds`, only the
    rows a report without rows needs are solved: those where the kernel
    finds an eigenvalue in (CLASSIFY_EPS/2, t+ + PRUNE_MARGIN] or in
    (t- - PRUNE_MARGIN, -1 - CLASSIFY_EPS/2], and failed gap rows.  The
    other rows read eta +inf / -inf and clearance inf.  With None, every
    row is solved.
    """
    symbols = _block_symbols(order, lo, hi)
    points = (GAP_LOWER, GAP_UPPER) if gap else ()
    if thresholds is not None:
        t_plus, t_minus = thresholds
        points += (CLASSIFY_EPS / 2, t_plus + PRUNE_MARGIN,
                   t_minus - PRUNE_MARGIN, -1.0 - CLASSIFY_EPS / 2)
    counts = count_eigs_leq_rows(symbols, points) if points else None
    count = counts[1] - counts[0] if gap else None
    solve = None if thresholds is None else (
        (counts[-3] > counts[-4]) | (counts[-1] > counts[-2]))
    changes = symbols[:, 1:] != symbols[:, :-1]
    h_of = (changes.sum(axis=1) + 1) // 2  # runs alternate 0, 1, ..., 1
    eigs = np.zeros((hi - lo, 2 * int(h_of.max())))
    expected = np.zeros(hi - lo, dtype=np.int64) if gap else None
    for h in np.flatnonzero(np.bincount(h_of)).tolist():
        rows = np.flatnonzero(h_of == h)
        if gap:
            m, n = _class_sizes(changes[rows], order, h)
            pad0, padm1, inside = trivial_forecast(m.T, n.T)
            expected[rows] = pad0 + padm1 + inside
            if solve is not None:
                solve[rows] |= count[rows] != expected[rows]
        picked = slice(None) if solve is None else solve[rows]
        solved = rows[picked]
        if len(solved):
            m, n = (m[picked], n[picked]) if gap else _class_sizes(changes[solved], order, h)
            eigs[solved, :2 * h] = np.linalg.eigvalsh(quotient_stack(m, n)[1])
    eta_plus, eta_minus = eta_extremes(eigs)
    if not gap:
        return symbols, eta_plus, eta_minus, None
    return symbols, eta_plus, eta_minus, (count, expected, _clearance(eigs))


def _block_rows(order: int, text, eta_plus, eta_minus, gap_columns) -> list[dict]:
    columns = [text.tolist(),
               [v if v < math.inf else None for v in eta_plus.tolist()],
               [v if v > -math.inf else None for v in eta_minus.tolist()]]
    if gap_columns is not None:
        columns += [column.tolist() for column in gap_columns]
    rows = []
    for seq, plus, minus, *gap in zip(*columns):
        row = {"sequence": seq.decode(), "order": order, "eta_plus": plus, "eta_minus": minus}
        if gap:
            count, expected, clearance = gap
            row.update(count_in_interval=count, expected_trivial=expected,
                       min_nontrivial_distance=clearance,
                       verdict="pass" if count == expected else "fail")
        rows.append(row)
    return rows


def _scan_chunk(args) -> tuple:
    """Scan sequences [lo, hi) of an order; returns a mergeable partial result.

    Top-level function so process pools can pickle it.  Works block by block
    (see SCAN_BLOCK_ENTRIES) and builds strings and reports only for
    failures, new extremes and kept rows.  Ties go to the lowest index, and
    merging preserves chunk order, so reports are identical for any worker
    count.
    """
    kind, order, lo, hi, keep_rows = args
    size = max(1, SCAN_BLOCK_ENTRIES // (order * order))
    thresholds = None if keep_rows else _prune_thresholds(order)
    failures: list[GapReport] = []
    rows: list[dict] = []
    best_plus: tuple[float, str] | None = None
    best_minus: tuple[float, str] | None = None
    start = lo
    while start < hi:
        stop = min(hi, (start // size + 1) * size)
        symbols, plus, minus, gap_columns = _scan_block(order, start, stop, kind == "gap",
                                                        thresholds)
        text = (symbols + ord("0")).view(f"S{order}").ravel()
        i = int(np.argmin(plus))
        if plus[i] < np.inf and (best_plus is None or plus[i] < best_plus[0]):
            best_plus = (float(plus[i]), text[i].decode())
        i = int(np.argmax(minus))
        if minus[i] > -np.inf and (best_minus is None or minus[i] > best_minus[0]):
            best_minus = (float(minus[i]), text[i].decode())
        if gap_columns is not None:
            count, expected, clearance = gap_columns
            for i in np.flatnonzero(count != expected).tolist():
                failures.append(GapReport(text[i].decode(), order, int(count[i]),
                                          int(expected[i]), float(clearance[i]), False))
        if keep_rows:
            rows += _block_rows(order, text, plus, minus, gap_columns)
        start = stop
    return hi - lo, failures, best_plus, best_minus, rows


def _run_scan(kind: str, order: int, workers: int, order_cap: int, keep_rows: bool) -> ScanReport:
    _check_scan_order(order, order_cap)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers {workers} above the cap {MAX_WORKERS}")
    total = count_threshold(order, connected_only=True)
    bounds = np.linspace(0, total, num=min(workers, total) + 1, dtype=int)
    chunks = [
        (kind, order, int(lo), int(hi), keep_rows)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if workers == 1:
        partials = [_scan_chunk(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            partials = list(pool.map(_scan_chunk, chunks))

    checked = 0
    failures: list[GapReport] = []
    rows: list[dict] = []
    best_plus: tuple[float, str] | None = None
    best_minus: tuple[float, str] | None = None
    for count, fails, plus, minus, chunk_rows in partials:
        checked += count
        failures.extend(fails)
        rows.extend(chunk_rows)
        if plus is not None and (best_plus is None or plus[0] < best_plus[0]):
            best_plus = plus
        if minus is not None and (best_minus is None or minus[0] > best_minus[0]):
            best_minus = minus

    antiregular_sequence = None
    conjecture_holds = None
    if kind == "conjecture":
        antiregular_sequence = str(nsg_to_creation(anti_regular(order)))
        plus_ok = best_plus is not None and best_plus[1] == antiregular_sequence
        minus_ok = best_minus is None or best_minus[1] == antiregular_sequence
        conjecture_holds = plus_ok and minus_ok
    return ScanReport(
        kind=kind,
        order=order,
        graphs_checked=checked,
        failures=tuple(failures),
        extremal_eta_plus=best_plus,
        extremal_eta_minus=best_minus,
        antiregular_sequence=antiregular_sequence,
        conjecture_holds=conjecture_holds,
        rows=tuple(rows) if keep_rows else None,
    )


def scan_gap(
    order: int,
    workers: int = 1,
    order_cap: int = DEFAULT_ORDER_CAP,
    keep_rows: bool = False,
) -> ScanReport:
    """Run the :func:`check_gap` test on every connected threshold graph of the order.

    Graphs are checked block by block (see ``_scan_chunk``); every per-graph
    value is the one ``check_gap`` reports.
    """
    return _run_scan("gap", order, workers, order_cap, keep_rows)


def scan_conjecture(
    order: int,
    workers: int = 1,
    order_cap: int = DEFAULT_ORDER_CAP,
    keep_rows: bool = False,
) -> ScanReport:
    """Find the eta extremes over all connected graphs of the order.

    Reports whether the graph minimizing eta_plus and the one maximizing
    eta_minus are both the anti-regular graph; ties resolve to the
    lexicographically first sequence.
    """
    return _run_scan("conjecture", order, workers, order_cap, keep_rows)
