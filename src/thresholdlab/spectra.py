"""Spectral layer: quotient matrices, eigenvalues, trivial multiplicities, inertia counts.

The clique/coclique classes of a nested split graph form an equitable
partition, so a 2h x 2h divisor (quotient) matrix carries every eigenvalue
that is not forced by duplicate or coduplicate vertices.  The forced ones are
0 (one per extra duplicate, i.e. sum(m_i - 1) plus isolated vertices) and -1
(one per extra coduplicate, sum(n_i - 1)); gluing those onto the quotient
spectrum reproduces the full adjacency spectrum, which is what
:func:`assemble_spectrum` does.  No n x n matrix is ever built here.

Interval membership questions are never answered by comparing computed
eigenvalues against endpoints; :func:`count_eigs_leq` counts eigenvalues by
the signs of the pivots of a congruence that runs on the creation sequence in
O(n) with no matrix at all, which returns exact integers even for clustered
spectra.

Exhaustive scans work on many graphs at a time.  They count by
:func:`count_eigs_leq_sweep`, which runs the congruence over the suffix tree
of the creation sequences: sequences that end alike share their states, so a
whole order costs about two steps per graph instead of n.  It sweeps a
worker's whole stride of units in one workspace, allocated once.  Each unit
is stepped first, a divide and a subtract per level, and tested once: two
comparisons flag the states that count, one add per level sums the flags
along each path, and a guard sends the unit back to be clamped and stepped
again only where a state lies within pivmin of zero.  Every scan, of either
kind, counts each graph with it at the same four points, the gap endpoints
and just beyond the anti-regular graph's extremes, which pick the few
graphs a scan without rows solves (see ``verify._pick_rows``).
The quotients of the solved forms that share h are built in place into one
(k, 2h, 2h) stack of symmetrized matrices (:func:`quotient_stack`, which
returns no raw divisor matrix) and solved by one stacked ``eigvalsh`` call,
which reads one triangle of each; :func:`eta_extremes` takes such stacks
too.  Every per-graph value is the same float as on the single-graph route,
and the two kernels give the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import DOMINATING, CreationSequence, NsgForm

CLASSIFY_EPS = 1e-8  # matching tolerance for the trivial eigenvalues 0 and -1

_SAFMIN = float(np.finfo(np.float64).tiny)


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


def assemble_spectrum(form: NsgForm) -> np.ndarray:
    """The full adjacency spectrum, descending: quotient eigenvalues plus the
    forced 0 / -1 padding.

    The padding is :func:`trivial_multiplicities`' mult0 zeros and the
    sum(n_i - 1) copies of -1 forced outside the quotient; the extra -1 of the
    m_h = 1 case arises inside the quotient.  An edgeless form has an empty
    quotient and only the padding.
    """
    quotient = quotient_stack(np.array([form.m]), np.array([form.n]))[0]
    values = np.concatenate([np.linalg.eigvalsh(quotient),
                             np.zeros(trivial_multiplicities(form).mult0),
                             np.full(sum(form.n) - form.h, -1.0)])
    return np.sort(values)[::-1]


def count_eigs_leq(seq: CreationSequence, x: float) -> int:
    """Number of eigenvalues of the threshold graph's adjacency that are <= x.

    Exact integer whenever x is not within rounding distance of an
    eigenvalue, no matter how clustered the spectrum is; at an exact
    eigenvalue the answer is between the strict and the inclusive count.

    Counts the negative pivots of a congruence on A - xI that eliminates the
    vertices from the last to the first.  For i < j the entry A_ij is the
    j-th creation symbol b_j, so after each step the block that is left has
    one shared diagonal d and off-diagonal entries d + x + b_j: the scalar d
    is the whole state, and eliminating a vertex with symbol b maps it to
    -2a - a^2/d with a = x + b.  Pivots within pivmin of zero are clamped
    negative, which keeps the next step finite.
    """
    x = float(x)
    pivmin = _SAFMIN * (seq.order + abs(x) + 1.0) ** 2
    count = 0
    d = -x
    for symbol in reversed(seq.symbols):
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
        a = x + 1.0 if symbol == DOMINATING else x
        d = -2.0 * a - a * a / d
    return count


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
    of zero, their flags are exact too.  Otherwise one more pass goes down
    the levels: the states within their own point's pivmin of zero are
    clamped to minus it, as the scalar kernel clamps them, and from the
    first level that needed a clamp on, each level is stepped again into
    the next before that one is looked at; then no state is within pivmin
    of zero, and the flags of the states stepped from are d <= 0.  Leaves
    are never stepped from, so they need no clamp, and the counts equal the
    scalar kernel's exactly.  Until it is clamped, a state at 0 divides by
    0, so the first steps ignore floating-point errors, and only they do.

    All units share one workspace, allocated once: the two blocks of
    states, their flags and the guard's mask.  Every yielded array is the
    same counts buffer, which holds a unit's counts only until the next
    unit is swept.
    """
    xs = [float(x) for x in xs]
    pivmin = np.array([_SAFMIN * (order + abs(x) + 1.0) ** 2 for x in xs])[:, None]
    clamped, limit = -pivmin, float(pivmin.max(initial=0.0))
    x = np.array(xs)[:, None, None]
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
        inner[:points] = -x[:, 0, 0]
        with np.errstate(all="ignore"):
            for (numerator, minuend), (parent, child, _, _) in zip(tables, steps):
                np.divide(numerator, parent, out=child)
                np.subtract(minuend, child, out=child)
        np.less_equal(inner, limit, out=below[:cut])
        if np.count_nonzero(np.less(inner, -limit, out=strict)) < np.count_nonzero(below[:cut]):
            clamped_above = False
            for (numerator, minuend), (parent, child, _, _) in zip(tables, steps):
                states = parent[:, 0]  # (points, width)
                near = (states <= pivmin) & (states > clamped)  # -pivmin needs no clamp
                if near.any():
                    np.copyto(states, clamped, where=near)
                    clamped_above = True
                if clamped_above:
                    np.divide(numerator, parent, out=child)
                    np.subtract(minuend, child, out=child)
            np.less_equal(inner, 0.0, out=below[:cut])
        np.less_equal(leaves, pivmin, out=leaf_flags)
        for _, _, parent, child in steps:
            np.add(child, parent, out=child)
        yield counts


def eta_extremes(values: np.ndarray) -> tuple:
    """(smallest eigenvalue > 0, largest eigenvalue < -1) over the last axis.

    ``values`` is one spectrum, or a (..., w) array of them, or any part of
    each that holds every nontrivial eigenvalue.  Eigenvalues within
    CLASSIFY_EPS of 0 or -1 are trivial and count for neither slot; an empty
    slot reads +inf and -inf.
    """
    plus = np.where(values > CLASSIFY_EPS, values, np.inf).min(axis=-1, initial=np.inf)
    minus = np.where(values < -1.0 - CLASSIFY_EPS, values, -np.inf).max(axis=-1, initial=-np.inf)
    return plus, minus
