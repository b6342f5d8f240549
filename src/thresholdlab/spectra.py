"""Spectral layer: quotient matrices, eigenvalues, trivial multiplicities, inertia counts.

The clique/coclique classes of a nested split graph form an equitable
partition, so a 2h x 2h divisor (quotient) matrix carries every eigenvalue
that is not forced by duplicate or coduplicate vertices.  The forced ones are
0 (one per extra duplicate, i.e. sum(m_i - 1) plus isolated vertices) and -1
(one per extra coduplicate, sum(n_i - 1)); gluing those onto the quotient
spectrum reproduces the full adjacency spectrum, which is what
:func:`assemble_spectrum` does.  The class sizes also say which quotient
eigenvalue is trivial: the one -1 when m_h = 1, which :func:`pin_trivial`
sets exactly.  So every trivial eigenvalue is an exact 0.0 or -1.0, and
:func:`eta_extremes` needs no tolerance.  No n x n matrix is ever built here.

Interval membership questions are never answered by comparing computed
eigenvalues against endpoints; :func:`count_eigs_leq` counts eigenvalues by
the signs of the pivots of a congruence that runs on the creation sequence in
O(n) with no matrix at all, which returns exact integers even for clustered
spectra.  The same pass also sums p'/p for p(x) = det(A - xI), as the
pivots multiply to p (:func:`_inertia`), so :func:`locate_eigenvalue` finds
one eigenvalue within one ulp, with no eigensolve: from a first point a few
ulps beyond it, as A_n's closed form in ``verify`` gives, one pass and a
Newton step in fixed-point integers, and bisection by counts otherwise.

Exhaustive scans work on many graphs at a time.  They count by
:func:`count_eigs_leq_sweep`, which runs the congruence over the suffix tree
of the creation sequences in one workspace per worker: sequences that end
alike share their states, so a whole order costs about two steps per graph
instead of n.  Every scan, of either kind, counts each graph with it at the
same four points, the gap endpoints and just beyond the anti-regular
graph's extremes, which pick the few graphs a scan without rows solves (see
``verify._pick_rows``).  The quotients of the solved forms that share h are
built in place into one (k, 2h, 2h) stack (:func:`quotient_stack`) and
solved by one stacked ``eigvalsh`` call; :func:`pin_trivial` and
:func:`eta_extremes` take such stacks too, A_n's (1, 2h) stack included.
Every per-graph value is the same float as on the single-graph route, and
the two kernels give the same counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import DOMINATING, ISOLATED, CreationSequence, NsgForm, sequence_at

_SAFMIN = float(np.finfo(np.float64).tiny)
# A Newton step this many ulps long or shorter leaves only float noise for
# the fixed-point step to correct (see locate_eigenvalue)
_SETTLED_ULPS = 64


@dataclass(frozen=True)
class TrivialMults:
    """Multiplicities of the trivial eigenvalues 0 and -1."""

    mult0: int
    multm1: int


def quotient_stack(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Symmetrized divisor matrices of k forms that share one h.

    ``m`` and ``n`` are (k, h) arrays of class sizes; the result is a
    (k, 2h, 2h) stack, entry for entry the same floats for any k.  The cells
    are V_1..V_h, U_1..U_h of the equitable partition: in the raw divisor
    matrix, row V_i sees n_j vertices in V_j (n_i - 1 in its own class) and
    the whole of U_j exactly when j >= i; row U_i sees V_j exactly when
    j <= i and nothing in any U_j.  Isolated vertices are not cells.  The
    stack holds D^(1/2) raw D^(-1/2) with D = diag(cell sizes), built in
    place: the raw counts block by block, then each entry as
    (raw_ij * s_i) / s_j with s = sqrt(cell sizes).  It has the raw
    matrix's eigenvalues and is symmetric up to rounding, which ``eigvalsh``
    never sees, as it reads one triangle only.
    """
    k, h = m.shape
    i = np.arange(h)
    upper = i[:, None] <= i  # j >= i
    stack = np.zeros((k, 2 * h, 2 * h))
    stack[:, :h, :h] = n[:, None, :] - (i[:, None] == i)
    stack[:, :h, h:] = m[:, None, :] * upper
    stack[:, h:, :h] = n[:, None, :] * upper.T
    scale = np.sqrt(np.concatenate([n, m], axis=1))
    stack *= scale[:, :, None]
    stack /= scale[:, None, :]
    return stack


def trivial_multiplicities(form: NsgForm) -> TrivialMults:
    """Closed-form multiplicities of 0 and -1 from the class sizes.

    Every vertex beyond the first in a coclique class is a duplicate and every
    extra clique-class vertex a coduplicate: they force sum(m_i - 1) +
    isolated zeros and sum(n_i - 1) copies of -1, none of which the quotient
    sees.  When m_h = 1 the lone top coclique vertex closes up with V_h to
    give one more -1, which the quotient carries.
    """
    h = form.h
    inside = h > 0 and form.m[-1] == 1
    return TrivialMults(sum(form.m) - h + form.isolated, sum(form.n) - h + inside)


def pin_trivial(eigs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The (k, 2h) quotient eigenvalues of :func:`quotient_stack`'s class
    sizes with, in each row whose m_h is 1, the one nearest -1 set to exactly
    -1.0 in place: the quotient's one trivial eigenvalue, whose eigenvector
    is the top coclique vertex minus a V_h vertex."""
    rows = np.flatnonzero(m[:, -1:] == 1)
    if len(rows):
        eigs[rows, np.abs(eigs[rows] + 1.0).argmin(axis=1)] = -1.0
    return eigs


def quotient_eigenvalues(form: NsgForm) -> np.ndarray:
    """The quotient's eigenvalues, ascending, pinned: all of the form's but the padding."""
    m = np.array([form.m])
    return pin_trivial(np.linalg.eigvalsh(quotient_stack(m, np.array([form.n]))), m)[0]


def assemble_spectrum(form: NsgForm) -> np.ndarray:
    """The full adjacency spectrum, descending: quotient eigenvalues plus the
    forced 0 / -1 padding.

    The padding is :func:`trivial_multiplicities`' mult0 zeros and the
    sum(n_i - 1) copies of -1 forced outside the quotient; the extra -1 of the
    m_h = 1 case arises inside the quotient, pinned.  So every trivial
    eigenvalue is an exact 0.0 or -1.0.  An edgeless form has an empty
    quotient and only the padding.
    """
    values = np.concatenate([quotient_eigenvalues(form),
                             np.zeros(trivial_multiplicities(form).mult0),
                             np.full(sum(form.n) - form.h, -1.0)])
    return np.sort(values)[::-1]


def count_eigs_leq(seq: CreationSequence, x: float) -> int:
    """Number of eigenvalues of the threshold graph's adjacency that are <= x.

    Exact integer whenever x is not within rounding distance of an
    eigenvalue, no matter how clustered the spectrum is; at an exact
    eigenvalue the answer is between the strict and the inclusive count.
    It is the count of :func:`_inertia`'s pass.
    """
    return _inertia(seq, x)[0]


def _inertia(seq: CreationSequence, x: float) -> tuple[int, float]:
    """(count, p'(x) / p(x)) at x, p(x) = det(A - xI), from one pass.

    Counts the negative pivots of a congruence on A - xI that eliminates the
    vertices from the last to the first.  For i < j the entry A_ij is the
    j-th creation symbol b_j, so after each step the block that is left has
    one shared diagonal d and off-diagonal entries d + x + b_j: the scalar d
    is the whole state, and eliminating a vertex with symbol b maps it to
    -2a - a^2/d with a = x + b, by each symbol's (a, -2a, a^2).  Pivots
    within pivmin of zero are clamped negative, which keeps the next step
    finite.  The tested pivots d_0 = -x, d_1, ... multiply to p(x), so the
    same pass sums d'_k / d_k into p'/p, with d'_0 = -1 and d'_(k+1) = -2 -
    2q + q^2 d'_k, q = a / d_k.
    """
    x = float(x)
    pivmin = _SAFMIN * (seq.order + abs(x) + 1.0) ** 2
    a = x + 1.0
    steps = {ISOLATED: (x, -2.0 * x, x * x), DOMINATING: (a, -2.0 * a, a * a)}
    count, ratio, d, slope = 0, 0.0, -x, -1.0
    for symbol in reversed(seq.symbols):
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
        ratio += slope / d
        a, twice, square = steps[symbol]
        q = a / d
        slope = -2.0 - 2.0 * q + q * q * slope
        d = twice - square / d
    return count, ratio


def locate_eigenvalue(seq: CreationSequence, k: int, lo: float, hi: float,
                      counts: tuple[int, int], x: float) -> float:
    """The k-th smallest eigenvalue of the graph's adjacency, within one ulp.

    (lo, hi] must hold it, as :func:`count_eigs_leq` certifies: ``counts``
    are the counts at lo and hi, count(lo) < k <= count(hi), and both ends
    are finite.  Each pass of :func:`_inertia` at x, the given x first,
    moves the end on its side of the eigenvalue to x.  It stops once the
    bracket holds eigenvalue k alone and Newton's point x - p/p' on det(A -
    xI) lies inside it within _SETTLED_ULPS ulps of x, and then takes one
    Newton step in fixed point (:func:`_fixed_point_newton`) from that
    point.  Otherwise x moves to the bracket's midpoint, bisection by counts
    (Barth, Martin and Wilkinson 1967), until lo and hi are adjacent
    doubles; the fixed-point step then starts from the end nearer the last
    Newton point.
    """
    below, above = counts
    if not below < k <= above:
        raise ValueError(f"counts {counts} at ({lo}, {hi}] do not bracket eigenvalue {k}")
    if not -math.inf < lo < x < hi < math.inf:
        raise ValueError(f"{x} is not inside ({lo}, {hi}], or an end is not finite")
    while math.nextafter(lo, hi) != hi:
        count, ratio = _inertia(seq, x)
        if count >= k:
            hi, above = x, count
        else:
            lo, below = x, count
        newton = x - 1.0 / ratio if ratio else math.nan
        if above - below == 1 and lo <= newton <= hi and \
                abs(newton - x) <= _SETTLED_ULPS * math.ulp(x):
            x = newton
            break
        x = (lo + hi) / 2.0
    else:
        x = lo if abs(newton - lo) < abs(newton - hi) else hi
    return _fixed_point_newton(seq, x)


def _fixed_point_newton(seq: CreationSequence, x: float) -> float:
    """Newton's point x - p(x)/p'(x) of :func:`_inertia`, rounded once.

    The pivots run on integers scaled by 2^K, with K 64 bits below the last
    bit of x, so a = x + b is exact and each step is off by one unit at
    most; the sum p'/p runs in floats on them.  Near an eigenvalue the float
    pivots lose the digits that place it within the last few ulps of a
    double.  Here, from x within a few ulps, the Newton step needs p'/p to
    few digits only, and the Newton point is that eigenvalue to far below
    one ulp.  A pivot that is zero or infinite as a double, or a step that
    is not finite, leaves x as it is.
    """
    numerator, denominator = float(x).as_integer_ratio()
    bits = denominator.bit_length() + 63
    one = 1 << bits
    point = numerator << (bits - denominator.bit_length() + 1)
    steps = {symbol: (a, a << bits, -2 * a, float(b) + x)
             for symbol, a, b in ((ISOLATED, point, 0), (DOMINATING, point + one, 1))}
    ratio, d, slope = 0.0, -point, -1.0
    for symbol in reversed(seq.symbols):
        try:
            pivot = d / one
        except OverflowError:  # too large for a double
            return x
        if not pivot:  # zero, or too small for a double
            return x
        ratio += slope / pivot
        a, shifted, twice, rounded = steps[symbol]
        q = rounded / pivot
        slope = -2.0 - 2.0 * q + q * q * slope
        d = twice - (a * (shifted // d) >> bits)
    step = 1.0 / ratio if ratio else math.inf
    if not math.isfinite(step):
        return x
    numerator, denominator = step.as_integer_ratio()
    return (point - numerator * one // denominator) / one


def count_eigs_leq_sweep(order: int, xs, top: int, lows) -> Iterator[np.ndarray]:
    """:func:`count_eigs_leq` at each point of ``xs`` for the connected
    sequences of the order whose index has ``low`` in its low ``top`` bits,
    for each ``low`` of ``lows`` in turn; yields one (len(xs),
    2^(order-2-top)) int8 array of counts per low, column j for index
    j*2^top + low.

    A connected sequence is 0, the order-2 index bits (most significant
    first) and 1, and the recurrence reads it from the last symbol, so
    sequences with a common suffix share their states.  One path steps
    through the final 1 and the ``top`` fixed bits; then each free bit, from
    the least significant, doubles the states into [f_0(d), f_1(d)], which
    makes the new bit the most significant of the leaf number.  The state
    before the first symbol is tested but never stepped.

    Each unit is stepped first and tested once.  Level i, the states after
    i steps, is one (points, width) array: the path's states s_0 = -x, ...,
    s_top, then free level k with 2^k states, the last of them the leaves.
    Every step, one divide and one subtract, writes the next level by the
    same float operations in the same order as the scalar kernel.  Then one
    ``less_equal`` flags each leaf with d <= pivmin, which is exactly d < 0
    after the scalar kernel's clamp, another flags the states that are
    stepped from at or below the largest pivmin of the points, and one add
    per step sums the flags along each path into the leaves' counts: three
    numpy calls per free level.  A guard counts the states that are
    stepped from and lie below minus that pivmin.  If none lies within it
    of zero, their flags are exact too, and the counts equal the scalar
    kernel's exactly.  Otherwise the unit's counts are the scalar kernel's,
    one sequence at a time, at every point; no scan of order 23 or less
    needs that.  The steps ignore floating-point errors: a state at 0
    divides by 0, and its unit is then recounted.

    All units share one workspace, allocated once: the two blocks of
    states, their flags and the guard's mask.  Each step reads a (points,
    1, width) view of its level and writes a (points, 2, width) view of the
    next, in the states and again in the flags, and numpy builds a view of
    a given shape and offset only by a slice or a reshape, so the call
    builds these four views of every level once, with the start states -x
    and the views of the flags that are tested; a unit then makes no numpy
    call beyond its steps, its tests and its adds.  Every yielded array is
    the same counts buffer, which holds a unit's counts only until the next
    unit is swept.
    """
    xs = [float(x) for x in xs]
    pivmin = [_SAFMIN * (order + abs(x) + 1.0) ** 2 for x in xs]
    limit, pivmin = max(pivmin, default=0.0), np.array(pivmin)[:, None]
    x = np.array(xs)[:, None, None]
    start = -x[:, 0, 0]
    a = np.concatenate([x, x + 1.0], axis=1)  # x + 0.0 is x: symbol 0 and symbol 1
    square, twice = a * a, -2.0 * a  # (points, 2, 1)
    symbol = [(square[:, :1], twice[:, :1]), (square[:, 1:], twice[:, 1:])]
    points, free = len(xs), order - 2 - top
    # Each level is a contiguous run of its block, so no call reads a
    # strided view that it writes, which numpy would copy first.
    widths = [1] * (top + 2) + [2 << k for k in range(free)]
    cut = points * sum(widths[:-1])  # states of the levels that are stepped from
    inner, leaves = np.empty(cut), np.empty((points, 1 << free))
    flags = np.empty(cut + leaves.size, dtype=np.int8)
    below, strict = flags.view(bool), np.empty(cut, dtype=bool)
    stepped_from = below[:cut]
    levels, end = [], 0
    for width in widths[:-1]:
        levels.append((inner[end:end + points * width], flags[end:end + points * width]))
        end += points * width
    levels.append((leaves, flags[cut:]))
    steps = []  # (parent, child) views of the states, then of the flags
    for (parent, parent_flags), (child, child_flags), width, wider in zip(
            levels, levels[1:], widths, widths[1:]):
        shape, both = (points, 1, width), (points, wider // width, width)
        steps.append((parent.reshape(shape), child.reshape(both),
                      parent_flags.reshape(shape), child_flags.reshape(both)))
    counts, leaf_flags = flags[cut:].reshape(leaves.shape), below[cut:].reshape(leaves.shape)

    for low in lows:
        tables = [symbol[1]] + [symbol[(low >> bit) & 1] for bit in range(top)]
        tables += [(square, twice)] * free
        inner[:points] = start
        with np.errstate(all="ignore"):
            for (numerator, minuend), (parent, child, _, _) in zip(tables, steps):
                np.divide(numerator, parent, out=child)
                np.subtract(minuend, child, out=child)
        np.less_equal(inner, limit, out=stepped_from)
        if np.count_nonzero(np.less(inner, -limit, out=strict)) < np.count_nonzero(stepped_from):
            seqs = [sequence_at(order, (j << top) | low, connected_only=True)
                    for j in range(leaves.shape[1])]
            counts[:] = [[count_eigs_leq(seq, x) for seq in seqs] for x in xs]
        else:
            np.less_equal(leaves, pivmin, out=leaf_flags)
            for _, _, parent, child in steps:
                np.add(child, parent, out=child)
        yield counts


def eta_extremes(values: np.ndarray) -> tuple:
    """(smallest eigenvalue > 0, largest eigenvalue < -1) over the last axis.

    ``values`` is one spectrum, or a (..., w) array of them, or any part of
    each that holds every nontrivial eigenvalue, or a set of located
    eigenvalues that holds the two extremes.  Its trivial eigenvalues must be
    exact 0.0 and -1.0, as :func:`quotient_eigenvalues` and
    :func:`assemble_spectrum` give them, so that they count for neither
    slot; an empty slot reads +inf and -inf.
    """
    plus = np.where(values > 0.0, values, np.inf).min(axis=-1, initial=np.inf)
    minus = np.where(values < -1.0, values, -np.inf).max(axis=-1, initial=-np.inf)
    return plus, minus
