"""Spectral layer: quotient matrices, eigenvalues, trivial multiplicities, inertia counts.

The clique/coclique classes of a nested split graph form an equitable
partition, so a 2h x 2h divisor (quotient) matrix carries every eigenvalue
that is not forced by duplicate or coduplicate vertices.  The forced ones are
0 (one per extra duplicate, i.e. sum(m_i - 1) plus isolated vertices) and -1
(one per extra coduplicate, sum(n_i - 1)); gluing those onto the quotient
spectrum reproduces the full adjacency spectrum, which is what
:func:`assemble_spectrum` does and what the dense solver cross-checks.

Interval membership questions are never answered by comparing computed
eigenvalues against endpoints; :func:`count_eigs_leq` counts eigenvalues by
the signs of the pivots of a congruence that runs on the creation sequence in
O(n) with no matrix at all, which returns exact integers even for clustered
spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DOMINATING, CreationSequence, NsgForm

SYMMETRY_ATOL = 1e-10
CLASSIFY_EPS = 1e-8  # matching tolerance for the trivial eigenvalues 0 and -1

_SAFMIN = float(np.finfo(np.float64).tiny)


class NotSymmetricError(ValueError):
    """Matrix is not square symmetric within tolerance."""


class NonFiniteError(ValueError):
    """Matrix contains NaN or infinity."""


class EmptyNsgError(ValueError):
    """Quotient matrix requested for an edgeless form (h = 0)."""


@dataclass(frozen=True, eq=False)
class QuotientPair:
    """Divisor matrix of the class partition and its symmetrized similar form.

    Cell order is V_1..V_h, U_1..U_h.  ``symmetrized`` is D^(1/2) raw D^(-1/2)
    with D = diag(cell_sizes); it is symmetric and has the same eigenvalues.
    """

    raw: np.ndarray
    symmetrized: np.ndarray
    cell_sizes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Descending eigenvalue list labeled with the route that produced it."""

    values: np.ndarray
    source: str  # "dense" | "quotient-assembled"
    tolerance: float = CLASSIFY_EPS

    @property
    def order(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TrivialMults:
    """Multiplicities of the trivial eigenvalues 0 and -1."""

    mult0: int
    multm1: int


def _as_symmetric(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    if a.size and float(np.max(np.abs(a - a.T))) > SYMMETRY_ATOL:
        raise NotSymmetricError(f"matrix is not symmetric within {SYMMETRY_ATOL}")
    return a


def quotient_matrix(form: NsgForm) -> QuotientPair:
    """Divisor matrix of the equitable partition {V_1..V_h, U_1..U_h}.

    Row V_i sees n_j vertices in V_j (n_i - 1 in its own class) and the whole
    of U_j exactly when j >= i; row U_i sees V_j exactly when j <= i and
    nothing in any U_j.  Isolated vertices are not cells; the caller accounts
    for them.
    """
    h = form.h
    if h == 0:
        raise EmptyNsgError("edgeless graphs have no quotient matrix")
    raw = np.zeros((2 * h, 2 * h))
    for i in range(h):
        for j in range(h):
            raw[i, j] = form.n[j] - (i == j)
            if j >= i:
                raw[i, h + j] = form.m[j]
            if j <= i:
                raw[h + i, j] = form.n[j]
    sizes = form.n + form.m
    scale = np.sqrt(np.asarray(sizes, dtype=np.float64))
    symmetrized = raw * scale[:, None] / scale[None, :]
    return QuotientPair(raw, symmetrized, sizes)


def symmetric_eigenvalues(mat) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending."""
    a = _as_symmetric(mat)
    if a.size == 0:
        return np.empty(0)
    return np.linalg.eigvalsh(a)[::-1].copy()


def dense_spectrum(adjacency) -> Spectrum:
    """Spectrum straight from the full adjacency matrix."""
    return Spectrum(symmetric_eigenvalues(adjacency), source="dense")


def trivial_multiplicities(form: NsgForm) -> TrivialMults:
    """Closed-form multiplicities of 0 and -1 from the class sizes.

    Every vertex beyond the first in a coclique class is a duplicate (adds a
    0), every extra clique-class vertex a coduplicate (adds a -1), and when
    m_h = 1 the lone top coclique vertex closes up with V_h to give one more
    -1.  Isolated vertices each add a 0.
    """
    mult0 = sum(mi - 1 for mi in form.m) + form.isolated
    multm1 = sum(ni - 1 for ni in form.n)
    if form.h >= 1 and form.m[-1] == 1:
        multm1 += 1
    return TrivialMults(mult0, multm1)


def assemble_spectrum(form: NsgForm) -> Spectrum:
    """Full spectrum as quotient eigenvalues plus forced 0 / -1 padding.

    The padding holds sum(m_i - 1) + isolated zeros and sum(n_i - 1) copies
    of -1; the extra -1 of the m_h = 1 case arises inside the quotient.
    """
    pad0 = sum(mi - 1 for mi in form.m) + form.isolated
    padm1 = sum(ni - 1 for ni in form.n)
    if form.h == 0:
        values = np.zeros(form.isolated)
    else:
        quotient = quotient_matrix(form)
        values = np.concatenate([
            symmetric_eigenvalues(quotient.symmetrized),
            np.zeros(pad0),
            np.full(padm1, -1.0),
        ])
    values = np.sort(values)[::-1]
    return Spectrum(values, source="quotient-assembled")


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


def eta_extremes(spectrum: Spectrum) -> tuple[float | None, float | None]:
    """(smallest eigenvalue > 0, largest eigenvalue < -1), None when absent.

    The classification margin is ``spectrum.tolerance``, which keeps the
    trivial eigenvalues 0 and -1 out of both slots.
    """
    eps = spectrum.tolerance
    values = spectrum.values
    positive = values[values > eps]
    below = values[values < -1.0 - eps]
    eta_plus = float(positive.min()) if positive.size else None
    eta_minus = float(below.max()) if below.size else None
    return eta_plus, eta_minus
