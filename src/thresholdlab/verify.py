"""Executable checks for the eigenvalue-free interval of threshold graphs.

The headline claim: apart from the trivial eigenvalues -1 and 0, no
threshold graph has an eigenvalue in ((-1-sqrt(2))/2, (-1+sqrt(2))/2), open
or closed alike (see ``check_gap``).  ``check_gap`` decides this for one
graph by inertia counting on the creation sequence (an exact integer test),
and ``check_antiregular_bounds`` decides it for A_n by the same counts and
locates eta+(A_n) and eta-(A_n) at the positions the class sizes give, with
no eigensolve, in four passes of the counting kernel: each search starts a
few ulps beyond A_n's eta in closed form, as A_n's characteristic polynomial
is a Chebyshev polynomial of a 2 x 2 transfer matrix (``_antiregular_eta``).
The scan functions sweep entire orders exhaustively, in units that fix the
low index bits of the suffix tree.  Every scan, of either
kind, counts at the same four points, the gap endpoints and the margins
beyond A_n's extremes, and checks each graph's interval count against its
forecast (see ``_pick_rows``).  A scan with rows (CSV output) solves the
small eigenproblem of every graph; a scan without rows solves only the
graphs its report needs, the ones that miss their forecast and the few whose
inertia counts find an eigenvalue in (0, eta+(A_n)] or [eta-(A_n), -1) up to
a small margin, since only those can hold an eta extreme.  A_n is solved
once, before any fork, and copied by a worker that picks it
(``_prune_thresholds``).  Every row, A_n's included, takes its etas from
``eta_extremes``, on its pinned quotient eigenvalues, and its clearance from
``_clearance`` on those etas, whatever the kind: the kind only shapes the
report (``_run_scan``).  With k workers the scan forks k - 1 children, each
of which sweeps a fixed stride of the units in one kernel workspace and
pipes one result back, its solved rows, and sweeps the first stride itself
(``_map``; POSIX only, as it needs ``os.fork``).  A worker groups the graphs
it solves by h, read off each index by a popcount, and solves each group in
stacks of at most SCAN_BLOCK_ENTRIES quotient entries, rows * (2h)^2.  One
sort puts the solved rows of all workers in index order, so ties go to the
lowest index and failures come in index order, and neither the unit split
nor the worker count can change a report.  The reduction machinery walks the
same vertex-deletion chain the inductive argument walks: every
non-anti-regular graph has a vertex whose removal drops exactly one trivial
eigenvalue, and iterating lands on an anti-regular graph whose extreme
nontrivial eigenvalues clear the interval strictly, by a margin that shrinks
like ~1/n^2 (the endpoints are their large-n limits).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .graphs import (
    NsgForm,
    OrderTooSmallError,
    anti_regular,
    count_threshold,
    creation_to_nsg,
    nsg_to_creation,
    parse_creation_sequence,
)
from .spectra import (
    assemble_spectrum,
    count_eigs_leq,
    count_eigs_leq_sweep,
    eta_extremes,
    locate_eigenvalue,
    pin_trivial,
    quotient_eigenvalues,
    quotient_stack,
    trivial_multiplicities,
)

# Correctly rounded doubles: -1.2071067811865475..., 0.20710678118654757...
GAP_LOWER = (-1.0 - math.sqrt(2.0)) / 2.0
GAP_UPPER = (-1.0 + math.sqrt(2.0)) / 2.0

DEFAULT_ORDER_CAP = 22
# No scan order may pass this, whatever the cap: sequence indices run up to
# 2^(order-2), and _scan_h shifts them up one bit, which int64 holds
# up to order 64.  There, eigvalsh's error on
# a 2h x 2h quotient of norm <= order, about 2h * eps * order <= 1e-12, is
# still far below PRUNE_MARGIN.
ORDER_CEILING = 64
# check_antiregular_bounds starts each search this many ulps beyond A_n's
# closed-form eta, away from its endpoint: more than the closed form's error
# (2 ulps to order 2000), and well inside the Newton step that
# locate_eigenvalue takes as settled
_START_ULPS = 16
# At most this many secant steps in _antiregular_eta; 2 to 9 settled it at
# every order 2 to 2000 and at 10^4 to 10^8
_SECANT_STEPS = 40
# A scan run without rows solves a row that meets its forecast only when the
# kernel finds an eigenvalue within this margin beyond A_n's eta (see
# _pick_rows).  It must exceed eigvalsh's absolute error on the row's
# quotient (about 2h * eps * order, 1e-13 at order 22), so that every row
# whose solved eta could reach A_n's is still solved and the extremes and
# their ties are unchanged.
PRUNE_MARGIN = 1e-9
# Scan workers solve the rows their units need (every row when rows are
# kept) one h at a time, in stacks of at most this many quotient entries,
# counted as rows * (2h)^2, so memory stays flat as the order grows.  Where
# stacks start does not matter: every per-graph value is the same in any
# stack.
SCAN_BLOCK_ENTRIES = 1 << 15
# Scans sweep units of at most 2^_SWEEP_UNIT_BITS sequences; a worker's
# kernel workspace, allocated once for all its units, then holds its states
# in two blocks of about 2 MB each at four points.  The split does not
# matter either: every count is the same in any unit, and _run_scan sorts
# the rows by index.
_SWEEP_UNIT_BITS = 16
# Scans refuse more workers than this, since a scan forks all of its workers
# (one fewer, as the parent is one) before any unit runs.  A constant, not the
# core count, so that reports can be compared across worker counts on any host.
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


@dataclass(frozen=True, eq=False)
class ScanRows:
    """Per-graph values of a scan run with rows: one array per column, in index order.

    ``sequence`` holds the creation sequences as ``S{order}`` bytes.  An
    absent eta reads +inf (``eta_plus``) or -inf (``eta_minus``), as from
    ``eta_extremes``.  Gap scans add the interval count, the trivial
    forecast and the clearance (inf when no eigenvalue is nontrivial), each
    as ``check_gap`` reports it, the two counts as int8; conjecture scans
    leave them None.  Two are equal when every column is.
    """

    sequence: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    count_in_interval: np.ndarray | None = None
    expected_trivial: np.ndarray | None = None
    min_nontrivial_distance: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScanRows):
            return NotImplemented
        return all(a is b or (a is not None and b is not None and np.array_equal(a, b))
                   for a, b in zip(vars(self).values(), vars(other).values()))


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
    rows: ScanRows | None = None  # every graph's values, for scans run with keep_rows

    @property
    def passed(self) -> bool:
        ok = not self.failures
        if self.conjecture_holds is not None:
            ok = ok and self.conjecture_holds
        return ok


def _clearance(eta_plus, eta_minus):
    """How far eta+ and eta- stay clear of [GAP_LOWER, GAP_UPPER]: 0 when
    one lies inside, inf when both are absent (+inf, -inf)."""
    return np.maximum(np.minimum(eta_plus - GAP_UPPER, GAP_LOWER - eta_minus), 0.0)


def check_gap(form: NsgForm) -> GapReport:
    """Count eigenvalues inside the interval and compare with the forecast.

    The count is count_eigs_leq(seq, GAP_UPPER) - count_eigs_leq(seq,
    GAP_LOWER), the eigenvalues in (GAP_LOWER, GAP_UPPER]; it must equal
    mult0 + multm1, i.e. only the trivial eigenvalues (both strictly inside
    the interval) may appear there.  Open or closed is the same question: the
    exact endpoints are roots of 4x^2 + 4x - 1, which is not monic, so neither
    is an algebraic integer and no integer matrix has either as an
    eigenvalue.  Also reports how far eta+ and eta- stay clear of the
    closed interval, read off the quotient's eigenvalues alone, as a scan
    reads every row: the padding is trivial.
    """
    seq = nsg_to_creation(form)
    count = count_eigs_leq(seq, GAP_UPPER) - count_eigs_leq(seq, GAP_LOWER)
    mults = trivial_multiplicities(form)
    expected = mults.mult0 + mults.multm1
    clearance = float(_clearance(*eta_extremes(quotient_eigenvalues(form))))
    return GapReport(str(seq), form.order, count, expected, clearance, count == expected)


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
    witness = None
    for i, mu in enumerate(mus):
        if not (lams[i] + INTERLACING_TOL >= mu >= lams[i + 1] - INTERLACING_TOL):
            witness = i
            break
    return InterlacingReport(
        sequence=symbols,
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
    side is vacuous when no eigenvalue lies below -1 (order 2).  The verdict
    is count(U) = n - h and count(L) = r = h - [m_h = 1], at doubles that are
    not algebraic integers, so not eigenvalues: then (L, U] holds the
    trivial eigenvalues alone, and by position eta+ is eigenvalue n - h + 1
    and eta- eigenvalue r, counted from the smallest.  Each is located within
    one ulp by :func:`locate_eigenvalue`, O(n) per pass and with no
    eigensolve, bracketed by its endpoint's count, or the other's where it
    fails, and by order or -order, beyond every eigenvalue, from a first
    point _START_ULPS ulps beyond :func:`_antiregular_eta`.
    That pass's count closes the bracket and its Newton step is settled, so
    each eta costs one pass and the fixed-point step: four passes in all.
    The closed form only places the first point; a wrong one costs passes,
    not a wrong value.  :func:`eta_extremes` reads the two located values.
    """
    form = anti_regular(order)
    seq = nsg_to_creation(form)
    rest, r = order - form.h, form.h - (form.m[-1] == 1)  # how many are <= 0, < -1
    upper, lower = count_eigs_leq(seq, GAP_UPPER), count_eigs_leq(seq, GAP_LOWER)

    def start(sign: float) -> float:
        eta = _antiregular_eta(order, sign)
        return eta + sign * _START_ULPS * math.ulp(eta)

    lo, below = (GAP_UPPER, upper) if upper == rest else (GAP_LOWER, lower)
    located = [locate_eigenvalue(seq, rest + 1, lo, order, (below, order), start(1.0))]
    if r:
        hi, above = (GAP_LOWER, lower) if lower == r else (GAP_UPPER, upper)
        located.append(locate_eigenvalue(seq, r, -order, hi, (0, above), start(-1.0)))
    plus, minus = eta_extremes(np.array(located))
    return BoundsReport(order, float(plus), float(minus) if minus > -math.inf else None,
                        upper == rest and lower == r)


def _antiregular_eta(order: int, sign: float) -> float:
    """eta+(A_n) for ``sign`` 1.0, or eta-(A_n) for -1.0 (order >= 3), in
    closed form and O(1), within a few ulps.

    With a = x + b, :func:`spectra._inertia`'s step on (u, w), d = u/w, is
    M_b = [[-2a, -a^2], [1, 0]], and det(A_n - xI) = u_(n-1) from v = (-x,
    1), as the tested pivots multiply to it.  A_n's symbols, read from the
    last, alternate 1, 0, so two steps make P = M_0 M_1, of trace 2s - 1 and
    determinant s^2, s = x^2 + x.  Beyond the gap endpoints, the roots of s =
    1/4, P^j is then a Chebyshev polynomial in cos(pi - phi), with
    sin^2(phi/2) = (s - 1/4)/s and phi in (0, pi), and det(A_n - xI) =
    (-1)^(j-1) s^(j-1) g / sin(phi), g = sin(j phi) A + s sin((j-1) phi) B,
    j = (n-1) // 2.  For odd n, A = (Pv)_1 = x(2 - x^2) and B = -x; for even
    n, A = (M_1 P v)_1 = (x+1)(x^3 - x^2 - 3x + 1) and B = (M_1 v)_1 = x^2 - 1.

    eta on either side is g's first root in phi, at distance e from its
    endpoint, e(e + sqrt(2)) = s - 1/4 = tan^2(phi/2)/4.  g is |Z| sin(j phi
    + arg Z), Z = A + sB e^(-i phi), and arg Z is about kappa phi, kappa =
    -sB/(A + sB) at the endpoint, so secant steps on g start from pi/(j +
    kappa).
    """
    j, odd = (order - 1) // 2, order % 2
    end = (-1.0 + sign * math.sqrt(2.0)) / 2.0  # GAP_UPPER's or GAP_LOWER's double, s = 1/4

    def at(phi: float) -> float:
        q = math.tan(phi / 2.0) ** 2 / 4.0
        return end + sign * 2.0 * q / (math.sqrt(2.0) + math.sqrt(2.0 + 4.0 * q))

    def terms(x: float) -> tuple[float, float, float]:  # s, A and B
        if odd:
            return x * x + x, x * (2.0 - x * x), -x
        return x * x + x, (x + 1.0) * (x * (x * (x - 1.0) - 3.0) + 1.0), x * x - 1.0

    def g(phi: float) -> float:
        s, a, b = terms(at(phi))
        return math.sin(j * phi) * a + s * math.sin((j - 1) * phi) * b

    s, a, b = terms(end)
    last = math.pi / (j - s * b / (a + s * b))
    phi = last * (1.0 - 1e-3)
    g_last, g_phi = g(last), g(phi)
    for _ in range(_SECANT_STEPS):
        if g_phi == g_last:
            break
        last, phi = phi, phi - g_phi * (phi - last) / (g_phi - g_last)
        if abs(phi - last) <= 2.0 * math.ulp(phi):
            break
        g_last, g_phi = g_phi, g(phi)
    return at(phi)


def _check_scan_order(order: int, order_cap: int) -> None:
    if order < 2:
        raise OrderTooSmallError(f"scans need order >= 2, got {order}")
    if order > ORDER_CEILING:
        raise OrderCapExceededError(
            f"order {order} above the ceiling {ORDER_CEILING} of any scan")
    if order > order_cap:
        raise OrderCapExceededError(f"order {order} above cap {order_cap}")


def _block_symbols(order: int, index: np.ndarray) -> np.ndarray:
    """0/1 symbols of the connected sequences at ``index``, numbered as by ``sequence_at``."""
    shifts = np.arange(order - 3, -1, -1)  # index bits, most significant first
    symbols = np.zeros((len(index), order), dtype=np.uint8)
    symbols[:, 1:-1] = (index[:, None] >> shifts) & 1
    symbols[:, -1] = 1
    return symbols


def _scan_h(index: np.ndarray) -> np.ndarray:
    """h, the number of clique classes, of the connected sequences at ``index``.

    v = (index << 1) | 1 holds symbols 1..n-1, symbol 1 as its top bit.  Its
    bit changes, with the leading 0 of symbol 0 above it, are the 2h - 1
    boundaries of the runs 0, 1, ..., 1.  The result is uint8, built with
    one int64 temporary, as the h of a run of rows takes little memory beside
    the rows.
    """
    changes = index << 1
    changes |= 1  # v, whose v >> 1 is index
    changes ^= index
    return (np.bitwise_count(changes) + 1) // 2


def _scan_forecast(order: int, top: int, lows) -> Iterator[np.ndarray]:
    """The trivial forecast mult0 + multm1 of :func:`trivial_multiplicities`
    of the connected sequences of each sweep unit, one int8 array per
    ``low`` of ``lows``, leaf j for index j*2^top + low as in
    :func:`count_eigs_leq_sweep`.

    It is n - 2h + [m_h = 1] = n - 1 - c + [m_h = 1], with c = 2h - 1 the
    bit changes of v = (index << 1) | 1 against the index (see
    :func:`_scan_h`); m_h = 1 exactly when symbol 1, bit n - 2 of v, is 1.
    The changes below bit ``top`` depend on ``low`` alone, and those from it
    up are the changes of (j << 1) | b against j, b being bit top - 1 of
    ``low`` (1 when top = 0), so one table over j per value of b serves
    every unit; each is built when a unit first needs it.
    """
    free = order - 2 - top
    j = np.arange(1 << free, dtype=np.int32)  # free <= _SWEEP_UNIT_BITS, so v fits
    tables = {}
    for low in lows:
        b = (low >> (top - 1)) & 1 if top else 1
        if b not in tables:
            v = (j << 1) | b
            tables[b] = ((v >> free) - np.bitwise_count(v ^ j)).astype(np.int8)
        changes = ((((low << 1) | 1) ^ low) & ((1 << top) - 1)).bit_count()
        yield tables[b] + (order - 1 - changes)


def _prune_thresholds(order: int) -> tuple[float, float, int, list[np.ndarray]]:
    """eta+ and eta- of A_n, the bounds the order's eta extremes cannot miss,
    then A_n's index and its :func:`_solve` columns, from one solve: its
    (1, 2h) ``eigvalsh`` stack, pinned and read by :func:`eta_extremes`, and
    the clearance of its etas, as :func:`_solve` reads every other row.

    The smallest eta+ of the order is at most eta+(A_n) and the largest eta-
    at least eta-(A_n), so no row whose eigenvalues stay off (0, t+] and
    [t-, -1) can hold an extreme.  t- = max(eta-, -order) bounds nothing at
    order 2, where A_2 has no eta-: every eigenvalue lies in (-order, order).
    """
    form = anti_regular(order)
    text = str(nsg_to_creation(form))  # its index: symbols 0..n-2 in binary
    m = np.array([form.m])
    etas = eta_extremes(pin_trivial(np.linalg.eigvalsh(quotient_stack(m, np.array([form.n]))), m))
    columns = [np.array([text], f"S{order}"), *etas, _clearance(*etas)]
    return float(columns[1][0]), max(float(columns[2][0]), -order), int(text[:-1], 2), columns


def _class_sizes(changes: np.ndarray, order: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Class sizes (m, n), one row per graph, from the symbol changes of
    sequences that all have h clique classes."""
    cuts = np.nonzero(changes)[1].reshape(len(changes), 2 * h - 1) + 1
    edges = np.concatenate([np.zeros((len(changes), 1), dtype=np.int64), cuts,
                            np.full((len(changes), 1), order)], axis=1)
    runs = np.diff(edges, axis=1)  # a_1 b_1 ... a_h b_h: m_h = a_1, n_1 = b_h
    return runs[:, -2::-2], runs[:, :0:-2]


def _solve(order: int, index: np.ndarray, known=(-1, ())) -> list[np.ndarray]:
    """Text, eta+, eta- and clearance of the connected sequences at
    ``index`` of one order, the etas by :func:`eta_extremes` and their
    clearance by :func:`_clearance`, whatever the scan's kind.

    The rows are grouped by h within runs of 2^_SWEEP_UNIT_BITS, so that the
    grouping's index arrays stay the size of one unit's however many rows a
    worker solves.  Each group is solved in (k, 2h, 2h) stacks of
    k * (2h)^2 <= SCAN_BLOCK_ENTRIES entries (k = 1 at least), one
    ``eigvalsh`` call per stack; symbols and class sizes are built per
    stack, and its values written straight into the columns.  The row at
    ``known[0]`` (A_n's) is copied from ``known[1]``, its h set to 0.
    """
    columns = [np.empty(len(index), f"S{order}")] + [np.empty(len(index)) for _ in range(3)]
    copied = index == known[0]
    for column, value in zip(columns, known[1]):
        column[copied] = value
    if copied.all():  # no row left to solve
        return columns
    run = 1 << _SWEEP_UNIT_BITS
    for first in range(0, len(index), run):
        h_of = _scan_h(index[first:first + run])
        h_of[copied[first:first + run]] = 0
        for h in (np.flatnonzero(np.bincount(h_of)[1:]) + 1).tolist():  # h = 0: copied
            group = np.flatnonzero(h_of == h) + first
            size = max(1, SCAN_BLOCK_ENTRIES // (2 * h) ** 2)  # rows per stack
            for start in range(0, len(group), size):
                rows = group[start:start + size]
                symbols = _block_symbols(order, index[rows])
                m, n = _class_sizes(symbols[:, 1:] != symbols[:, :-1], order, h)
                etas = eta_extremes(pin_trivial(np.linalg.eigvalsh(quotient_stack(m, n)), m))
                columns[0][rows] = (symbols + ord("0")).view(f"S{order}").ravel()
                columns[1][rows], columns[2][rows] = etas
                columns[3][rows] = _clearance(*etas)
    return columns


def _scan_stride(order: int, top: int, lows, antiregular: tuple,
                 keep_rows: bool) -> tuple[np.ndarray, list]:
    """(index, columns) of the rows that one worker's sweep units solve, all
    six columns in :class:`ScanRows` order for a scan of either kind: the
    rows :func:`_pick_rows` picks, solved together by :func:`_solve` once
    the sweep's workspace is freed; A_n's row is copied from
    ``antiregular``, what :func:`_prune_thresholds` returns.
    """
    index, counted = _pick_rows(order, top, lows, antiregular[:2], keep_rows)
    text, eta_plus, eta_minus, clearance = _solve(order, index, antiregular[2:])
    return index, [text, eta_plus, eta_minus, *counted, clearance]


def _pick_rows(order: int, top: int, lows, thresholds: tuple[float, float],
               keep_rows: bool) -> tuple[np.ndarray, list]:
    """int64 index and int8 interval count and forecast of the rows that a
    stride of sweep units solves, for a scan of either kind.

    A unit is every connected sequence whose index has ``low`` in its low
    ``top`` bits, for each ``low`` of ``lows``; all of them are swept in one
    kernel workspace (see :func:`count_eigs_leq_sweep`) at L, U, t+ + m and
    t- - m, with (t+, t-) from :func:`_prune_thresholds` and m =
    PRUNE_MARGIN.  With rows kept every row is solved.  Without, a row is
    solved when count(t+ + m) > count(U), count(L) > count(t- - m) or its
    interval count misses the forecast of :func:`_scan_forecast`.  A row
    that meets its forecast has nothing nontrivial in (L, U], so a row that
    is not solved has no eigenvalue in (0, t+ + m] or [t- - m, -1) beside
    the trivial ones, and no other row can hold an eta extreme or a
    failure, whether or not the theorem holds.  A scan without rows keeps
    each unit's counts and forecast in int8 and only the rows it solves as
    int64; a unit that solves nothing adds nothing.  A_n is counted and
    picked as any row is.
    """
    t_plus, t_minus = thresholds
    sweep = count_eigs_leq_sweep(order, (GAP_LOWER, GAP_UPPER, t_plus + PRUNE_MARGIN,
                                         t_minus - PRUNE_MARGIN), top, lows)
    parts = [[np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int8)]]
    for low, (lower, upper, plus, minus), forecast in zip(lows, sweep,
                                                           _scan_forecast(order, top, lows)):
        interval = upper - lower
        rows = (keep_rows | (plus > upper) | (lower > minus) | (interval != forecast)).nonzero()[0]
        if len(rows):
            parts.append([(rows << top) | low, interval[rows], forecast[rows]])
    index, *counted = [np.concatenate(column) for column in zip(*parts)]
    return index, counted


def _map(fn, items, workers: int) -> list:
    """[fn(items[i::k]) for i in range(k)], k = min(workers, len(items)):
    one result per stride.

    The parent forks k - 1 children and computes stride 0, ``fn(items[::k])``,
    itself.  Child i computes ``fn(items[i::k])``, sends its result, or the
    exception it raised, back as one pickle over its own pipe, and leaves by
    ``os._exit``, so it flushes no stdio buffer it inherited.  A child that
    ends without a result raises ChildProcessError.  However the map ends,
    every child is reaped, and any still running is killed first.
    """
    k = min(workers, len(items))
    if k == 1:
        return [fn(items)]
    children = []  # (pid, read end) of each child not yet reaped
    try:
        for stride in range(1, k):
            part = items[stride::k]
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, part, write)
            os.close(write)  # before the next fork, so each pipe has one writer
            children.append((pid, open(read, "rb")))
        results = [fn(items[::k])]
        while children:
            pid, reader = children[0]
            with reader:
                try:  # from the pipe as a stream, so no copy of the whole pickle is held
                    ok, value = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError) as exc:  # cut short by the child's end
                    ok, value = False, exc
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise ChildProcessError(f"a scan worker ended with status {code} before "
                                        "sending its result")
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, items, write: int) -> None:
    """Body of a forked child of :func:`_map`: never returns."""
    code = 1
    try:
        with open(write, "wb") as pipe:
            try:
                message = True, fn(items)
            except Exception as exc:  # re-raised in the parent
                message = False, exc
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_scan(kind: str, order: int, workers: int, order_cap: int, keep_rows: bool) -> ScanReport:
    _check_scan_order(order, order_cap)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers {workers} above the cap {MAX_WORKERS}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError("more than one worker needs os.fork, which this platform lacks")
    # at least one unit per worker, and at most 2^_SWEEP_UNIT_BITS leaves in one
    top = min(order - 2, max(order - 2 - _SWEEP_UNIT_BITS, (workers - 1).bit_length()))
    antiregular = _prune_thresholds(order)  # A_n's one solve, before any fork
    results = _map(lambda lows: _scan_stride(order, top, lows, antiregular, keep_rows),
                   range(1 << top), workers)
    # one sort puts the rows of all workers in index order, so the first
    # extreme is the lowest index and failures come in index order
    index_order = np.argsort(np.concatenate([index for index, _ in results]))
    # one column at a time, each worker's part dropped once gathered, so kept
    # rows are held about once; the indices, and the counts and clearance
    # that a conjecture report does not keep, are dropped first
    parts = [columns if kind == "gap" else columns[:3] for _, columns in results]
    del results
    columns = [np.concatenate([part.pop(0) for part in parts])[index_order]
               for _ in range(len(parts[0]))]
    text, eta_plus, eta_minus = columns[:3]
    best_plus = best_minus = None
    if len(text):
        i, j = int(eta_plus.argmin()), int(eta_minus.argmax())
        best_plus = (float(eta_plus[i]), text[i].decode()) if eta_plus[i] < np.inf else None
        best_minus = (float(eta_minus[j]), text[j].decode()) if eta_minus[j] > -np.inf else None
    failures = ()
    antiregular_sequence = conjecture_holds = None
    if kind == "gap":
        count, expected, clearance = columns[3:]
        failures = tuple(GapReport(text[i].decode(), order, int(count[i]), int(expected[i]),
                                   float(clearance[i]), False)
                         for i in (count != expected).nonzero()[0].tolist())
    else:
        antiregular_sequence = antiregular[3][0][0].decode()
        plus_ok = best_plus is not None and best_plus[1] == antiregular_sequence
        minus_ok = best_minus is None or best_minus[1] == antiregular_sequence
        conjecture_holds = plus_ok and minus_ok
    return ScanReport(
        kind=kind,
        order=order,
        graphs_checked=count_threshold(order, connected_only=True),
        failures=failures,
        extremal_eta_plus=best_plus,
        extremal_eta_minus=best_minus,
        antiregular_sequence=antiregular_sequence,
        conjecture_holds=conjecture_holds,
        rows=ScanRows(*columns) if keep_rows else None,
    )


def scan_gap(
    order: int,
    workers: int = 1,
    order_cap: int = DEFAULT_ORDER_CAP,
    keep_rows: bool = False,
) -> ScanReport:
    """Run the :func:`check_gap` test on every connected threshold graph of the order.

    The graphs are swept and solved by units (see ``_scan_stride``); every
    per-graph value is the one ``check_gap`` reports.
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
