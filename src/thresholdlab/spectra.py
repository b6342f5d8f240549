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
worker's whole stride of units in one workspace, allocated once, and counts
a state when d <= pivmin, clamping only at the rare level where a state lies
within pivmin of zero.  A gap scan takes the interval counts of every graph
from it; a scan without rows also counts near the anti-regular graph's
extremes, to pick the few graphs it solves (see ``verify._pick_rows``).
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


def trivial_forecast(m, n, isolated=0) -> tuple:
    """The trivial-eigenvalue forecast over class sizes, as (pad0, padm1, inside).

    Every vertex beyond the first in a coclique class is a duplicate and every
    extra clique-class vertex a coduplicate: they force pad0 = sum(m_i - 1) +
    isolated zeros and padm1 = sum(n_i - 1) copies of -1, none of which the
    quotient sees.  ``inside`` is 1 when m_h = 1: the lone top coclique vertex
    then closes up with V_h to give one more -1, which the quotient carries.
    ``m`` and ``n`` run over i = 1..h on their first axis: tuples for one
    form, or (h, k) arrays for k forms, which get k-vectors back.
    """
    h = len(m)
    pad0 = sum(m) - h + isolated
    padm1 = sum(n) - h
    inside = (m[-1] == 1) * 1 if h else 0
    return pad0, padm1, inside


def trivial_multiplicities(form: NsgForm) -> TrivialMults:
    """Closed-form multiplicities of 0 and -1 from the class sizes.

    mult0 = pad0 and multm1 = padm1 + inside of :func:`trivial_forecast`.
    """
    pad0, padm1, inside = trivial_forecast(form.m, form.n, form.isolated)
    return TrivialMults(pad0, padm1 + inside)


def assemble_spectrum(form: NsgForm) -> np.ndarray:
    """The full adjacency spectrum, descending: quotient eigenvalues plus the
    forced 0 / -1 padding.

    The padding is :func:`trivial_forecast`'s pad0 zeros and padm1 copies of -1;
    the extra -1 of the m_h = 1 case arises inside the quotient.  An edgeless
    form has an empty quotient and only the padding.
    """
    pad0, padm1, _ = trivial_forecast(form.m, form.n, form.isolated)
    quotient = quotient_stack(np.array([form.m]), np.array([form.n]))[0]
    values = np.concatenate([np.linalg.eigvalsh(quotient), np.zeros(pad0),
                             np.full(padm1, -1.0)])
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

    A state counts when d <= pivmin, which is exactly d < 0 after the scalar
    kernel's clamp.  The clamp runs only at a level where some state lies
    within pivmin of zero, seen as fewer states below -pivmin than at or
    below pivmin, and then clamps as the scalar kernel does.  Each
    sequence's path runs through the same float operations in the same
    order as the scalar kernel, so the counts are equal to its counts
    exactly.

    All units share one workspace: the states, a scratch array, the flags
    and the counts are allocated once, and every yielded array is the same
    counts buffer, which holds a unit's counts only until the next unit is
    swept.
    """
    xs = [float(x) for x in xs]
    pivmin = np.array([_SAFMIN * (order + abs(x) + 1.0) ** 2 for x in xs])[:, None]
    clamped = -pivmin
    x = np.array(xs)[:, None, None]
    a = np.concatenate([x, x + 1.0], axis=1)  # x + 0.0 is x: symbol 0 and symbol 1
    square, twice = a * a, -2.0 * a  # (points, 2, 1)
    points, leaves = len(xs), 1 << (order - 2 - top)
    d, scratch = np.empty((points, leaves)), np.empty((points, leaves))
    flags, strict = np.empty((points, leaves), dtype=np.int8), np.empty((points, leaves), dtype=bool)
    counts = np.empty((points, leaves), dtype=np.int8)

    def test(width: int) -> None:  # count d <= pivmin; clamp if any |d| <= pivmin
        states, below = d[:, :width], flags[:, :width]
        counts[:, :width] += np.less_equal(states, pivmin, out=below)
        if np.count_nonzero(np.less(states, clamped, out=strict[:, :width])) < np.count_nonzero(below):
            np.less_equal(np.abs(states, out=scratch[:, :width]), pivmin, out=strict[:, :width])
            np.copyto(states, clamped, where=strict[:, :width])

    for low in lows:
        d[:, :1], counts[:, :1] = -x[:, 0], 0
        width = 1
        for bit in range(-1, order - 2):  # -1: the final symbol 1
            test(width)
            if bit < top:
                symbol = 1 if bit < 0 else (low >> bit) & 1
                d[:, :1] = twice[:, symbol] - square[:, symbol] / d[:, :1]
            else:  # -2a - a^2/d for both symbols, into [f_0(d), f_1(d)]
                both = (points, 2, width)
                quotient = np.divide(square, d[:, None, :width],
                                     out=scratch[:, :2 * width].reshape(both))
                np.subtract(twice, quotient, out=d[:, :2 * width].reshape(both))
                counts[:, width:2 * width] = counts[:, :width]
                width *= 2
        test(width)
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
