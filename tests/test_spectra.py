import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from thresholdlab.graphs import (
    NsgForm,
    anti_regular,
    build_adjacency,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    parse_creation_sequence,
)
from thresholdlab.spectra import (
    CLASSIFY_EPS,
    TrivialMults,
    assemble_spectrum,
    count_eigs_leq,
    count_eigs_leq_sweep,
    eta_extremes,
    quotient_stack,
    trivial_multiplicities,
)
from thresholdlab.verify import GAP_LOWER, GAP_UPPER, PRUNE_MARGIN, _prune_thresholds

sequences = st.text(alphabet="01", min_size=1, max_size=12).map(parse_creation_sequence)

# dense-solver reference values for the paw graph (A_4, sequence 0101)
PAW_SPECTRUM = [2.170086486626034, 0.3111078174659816, -1.0, -1.4811943040920156]


def quotient(form):
    """(raw, symmetrized) quotient of one form: the oracle's divisor matrix
    and the library's symmetrized one."""
    symmetrized = quotient_stack(np.array([form.m]), np.array([form.n]))[0]
    return oracles.divisor_matrix(form.m, form.n), symmetrized


def small_forms(max_order, min_h=0):
    for order in range(1, max_order + 1):
        for seq in enumerate_threshold(order):
            form = creation_to_nsg(seq)
            if form.h >= min_h:
                yield form


# ---------------------------------------------------------------- quotient


def test_quotient_nsg_3_2():
    raw, symmetrized = quotient(NsgForm([3], [2]))
    assert np.array_equal(raw, [[1.0, 3.0], [2.0, 0.0]])
    root6 = math.sqrt(6.0)
    assert np.allclose(symmetrized, [[1.0, root6], [root6, 0.0]], atol=1e-12)


def test_quotient_k2():
    raw, symmetrized = quotient(NsgForm([1], [1]))
    assert np.array_equal(raw, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(raw, symmetrized)


def test_quotient_paw():
    raw, symmetrized = quotient(NsgForm([1, 1], [1, 1]))
    expected = [
        [0, 1, 1, 1],
        [1, 0, 0, 1],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
    ]
    assert np.array_equal(raw, expected)
    assert np.linalg.eigvalsh(symmetrized)[::-1] == pytest.approx(PAW_SPECTRUM, abs=1e-9)


def test_quotient_symmetrized_is_similar():
    # same eigenvalues as raw, checked through an independent nonsymmetric solve
    for h in (1, 2, 3):
        for m in itertools.product((1, 2, 3), repeat=h):
            for n in itertools.product((1, 2, 3), repeat=h):
                raw, symmetrized = quotient(NsgForm(m, n))
                assert np.allclose(symmetrized, symmetrized.T, rtol=0.0, atol=1e-12)
                raw_eigs = np.linalg.eigvals(raw)
                assert np.max(np.abs(raw_eigs.imag)) < 1e-9
                assert np.allclose(
                    np.sort(raw_eigs.real), np.linalg.eigvalsh(symmetrized), atol=1e-9)


def test_quotient_never_singular():
    # every 0 eigenvalue lives in the duplicate padding, never in the quotient
    for form in small_forms(12, min_h=1):
        eigs = np.linalg.eigvalsh(quotient(form)[1])
        assert np.min(np.abs(eigs)) > 1e-7, form


def test_quotient_minus_one_membership():
    # -1 appears in the quotient exactly once iff m_h = 1
    for form in small_forms(12, min_h=1):
        eigs = np.linalg.eigvalsh(quotient(form)[1])
        hits = int(np.count_nonzero(np.abs(eigs + 1.0) <= 1e-7))
        assert hits == (1 if form.m[-1] == 1 else 0), form


def symmetrize(form, raw):
    """D^(1/2) raw D^(-1/2), D = diag(cell sizes V_1..V_h, U_1..U_h), each
    entry as (raw_ij * s_i) / s_j with s = sqrt(D)."""
    scale = np.sqrt(np.array([*form.n, *form.m], dtype=float))
    return raw * scale[:, None] / scale[None, :]


def test_quotient_stack_is_the_symmetrized_divisor_matrix():
    # entry for entry the oracle's raw matrix scaled by D^(1/2) . D^(-1/2),
    # with the same float operations in the same order
    for form in small_forms(10, min_h=1):
        raw, symmetrized = quotient(form)
        assert np.array_equal(symmetrized, symmetrize(form, raw)), form


def test_quotient_stack_matches_single_forms():
    # the scans' stacked build gives each form its single-form quotient
    # entry for entry, so both routes solve the same floats
    for h in (1, 2, 3):
        forms = [NsgForm(m, n) for m in itertools.product((1, 2, 5), repeat=h)
                 for n in itertools.product((1, 3), repeat=h)]
        symmetrized = quotient_stack(np.array([f.m for f in forms]),
                                     np.array([f.n for f in forms]))
        for k, form in enumerate(forms):
            raw, single = quotient(form)
            assert np.array_equal(symmetrized[k], symmetrize(form, raw))
            assert np.array_equal(symmetrized[k], single)


# ---------------------------------------------------------------- eigensolving


def test_symmetric_eigenvalues_k2():
    assert np.linalg.eigvalsh(quotient(NsgForm([1], [1]))[1]) == pytest.approx([-1.0, 1.0])


def test_symmetric_eigenvalues_quotient_by_charpoly():
    # characteristic polynomial of the nsg(3;2) quotient is x^2 - x - 6
    symmetrized = quotient(NsgForm([3], [2]))[1]
    assert np.linalg.eigvalsh(symmetrized) == pytest.approx([-2.0, 3.0], abs=1e-12)


def test_symmetric_eigenvalues_descending():
    # the assembled spectrum comes out sorted, whatever the padding
    for form in small_forms(10):
        vals = assemble_spectrum(form)
        assert vals.shape == (form.order,)
        assert np.all(np.diff(vals) <= 0), form


# ---------------------------------------------------------------- multiplicities


def test_trivial_multiplicities_examples():
    assert trivial_multiplicities(NsgForm([3], [2])) == TrivialMults(2, 1)
    assert trivial_multiplicities(NsgForm([1, 3], [1, 1])) == TrivialMults(2, 0)
    assert trivial_multiplicities(NsgForm([1, 1], [1, 1])) == TrivialMults(0, 1)


def test_trivial_multiplicities_edgeless():
    assert trivial_multiplicities(NsgForm([], [], 3)) == TrivialMults(3, 0)


def test_trivial_multiplicities_match_dense_counts():
    for form in small_forms(10):
        mults = trivial_multiplicities(form)
        vals = oracles.dense_spectrum(build_adjacency(nsg_to_creation(form)))
        assert int(np.count_nonzero(np.abs(vals) <= 1e-7)) == mults.mult0
        assert int(np.count_nonzero(np.abs(vals + 1.0) <= 1e-7)) == mults.multm1


# ---------------------------------------------------------------- assembly


def test_assemble_nsg_3_2():
    spec = assemble_spectrum(NsgForm([3], [2]))
    assert spec == pytest.approx([3.0, 0.0, 0.0, -1.0, -2.0], abs=1e-9)


def test_assemble_k2():
    assert assemble_spectrum(NsgForm([1], [1])) == pytest.approx([1.0, -1.0])


def test_assemble_paw():
    assert assemble_spectrum(NsgForm([1, 1], [1, 1])) == pytest.approx(
        PAW_SPECTRUM, abs=1e-9
    )


def test_assemble_edgeless():
    spec = assemble_spectrum(NsgForm([], [], 3))
    assert spec.tolist() == [0.0, 0.0, 0.0]


def test_assemble_matches_dense_small():
    for form in small_forms(9):
        assembled = assemble_spectrum(form)
        dense = oracles.dense_spectrum(build_adjacency(nsg_to_creation(form)))
        assert len(assembled) == form.order
        assert np.max(np.abs(assembled - dense), initial=0.0) < 1e-7


def test_assembled_trace_vanishes():
    for form in small_forms(10):
        spec = assemble_spectrum(form)
        assert abs(float(np.sum(spec))) <= 1e-8 * form.order


# ---------------------------------------------------------------- counting


def test_count_eigs_leq_examples():
    form = NsgForm([3], [2])
    seq = nsg_to_creation(form)
    # spectrum is [3, 0, 0, -1, -2]
    assert count_eigs_leq(seq, -1.5) == 1
    assert count_eigs_leq(seq, -1e-6) == 2
    assert count_eigs_leq(seq, 1e-6) == 4
    assert count_eigs_leq(seq, 0.5) == 4
    assert count_eigs_leq(seq, -2.5) == 0
    gershgorin = 1.0 + float(build_adjacency(seq).sum(axis=1).max())
    assert count_eigs_leq(seq, gershgorin) == 5


def test_count_eigs_leq_at_exact_eigenvalue_is_bracketed():
    # x = 0 sits on a double eigenvalue; the count may fall anywhere between
    # the strict and the inclusive answer, never outside
    assert 2 <= count_eigs_leq(nsg_to_creation(NsgForm([3], [2])), 0.0) <= 4
    # the same at the trivial eigenvalues 0 and -1 of every small graph
    for order in range(1, 11):
        for seq in enumerate_threshold(order):
            vals = np.linalg.eigvalsh(build_adjacency(seq).astype(float))
            for x in (0.0, -1.0):
                strict = int(np.count_nonzero(vals < x - 1e-9))
                inclusive = int(np.count_nonzero(vals <= x + 1e-9))
                assert strict <= count_eigs_leq(seq, x) <= inclusive, (str(seq), x)


def test_count_eigs_leq_clustered_spectrum():
    # 40 duplicated vertices force a 39-fold eigenvalue 0
    seq = nsg_to_creation(NsgForm([40], [2]))
    assert count_eigs_leq(seq, 1e-9) - count_eigs_leq(seq, -1e-9) == 39


def test_count_eigs_leq_sweep_equals_scalar_kernel():
    # the suffix-tree sweep against the scalar kernel on every connected
    # graph up to order 14, at the points scans without rows count (both
    # interval endpoints, the pruning bounds around A_n's eta and the
    # conjecture scan's CLASSIFY_EPS points) and at four integers where
    # pivots are exactly 0, so the clamp runs: at x = 0 and x = -1 the
    # first one is at depth 0 or 1, at x = -2 and x = 5 (order 12: depths
    # 8 and 11, and 5) deep in the tree, below states already stepped.
    # Units that fix 0, 2 or all order-2 index bits put leaf j of unit
    # ``low`` at index j * 2^top + low, and all units of one call share one
    # workspace.  The unclamped steps divide by 0, which must neither warn
    # nor leave the floating-point error state changed at any yield
    errors = np.geterr()
    for order in range(2, 15):
        seqs = list(enumerate_threshold(order, connected_only=True))
        t_plus, t_minus, *_ = _prune_thresholds(order)
        points = (GAP_LOWER, GAP_UPPER, CLASSIFY_EPS / 2, t_plus + PRUNE_MARGIN,
                  t_minus - PRUNE_MARGIN, -1.0 - CLASSIFY_EPS / 2, 0.0, -1.0, -2.0, 5.0)
        scalar = [[count_eigs_leq(seq, x) for seq in seqs] for x in points]
        for top in sorted({0, min(2, order - 2), order - 2}):
            swept = np.zeros((len(points), len(seqs)), dtype=np.int64)
            first = None
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for low, counts in enumerate(count_eigs_leq_sweep(order, points, top,
                                                                  range(2 ** top))):
                    assert np.geterr() == errors, (order, top, low)
                    assert counts.shape == (len(points), 2 ** (order - 2 - top))
                    first = counts if first is None else first
                    assert np.shares_memory(counts, first), (order, top, low)
                    swept[:, low::2 ** top] = counts
            assert swept.tolist() == scalar, (order, top)
    assert next(count_eigs_leq_sweep(5, (), 1, [0])).shape == (0, 4)


def test_count_eigs_leq_sweep_counts_each_point_by_its_own_pivmin():
    # pivmin grows with |x|: at x = 1e150 it is about 1e-8, far above the
    # other points' pivmin.  Just off an eigenvalue of A_8, the other points'
    # last pivots are about 1e-10 or 1e-12, above their own pivmin but below
    # the largest one, so a sweep that tested every point at the largest
    # pivmin would count some of them wrongly
    order = 8
    seqs = list(enumerate_threshold(order, connected_only=True))
    for eigenvalue in assemble_spectrum(anti_regular(order)):
        points = (1e150,) + tuple(eigenvalue + off for off in (1e-10, -1e-10, 1e-12, -1e-12))
        counts = next(count_eigs_leq_sweep(order, points, 0, [0]))
        assert counts.tolist() == [[count_eigs_leq(seq, x) for seq in seqs] for x in points]


@given(sequences, st.floats(min_value=-13.0, max_value=13.0))
@settings(max_examples=80)
def test_count_matches_dense_oracle(seq, x):
    a = build_adjacency(seq).astype(float)
    vals = np.linalg.eigvalsh(a)
    assume(float(np.min(np.abs(vals - x))) > 1e-9)
    assert count_eigs_leq(seq, x) == oracles.dense_count_leq(a, x)


# ---------------------------------------------------------------- eta


def test_eta_extremes_examples():
    assert eta_extremes(assemble_spectrum(NsgForm([3], [2]))) == pytest.approx((3.0, -2.0))
    assert eta_extremes(assemble_spectrum(NsgForm([1], [1]))) == (pytest.approx(1.0), -np.inf)
    plus, minus = eta_extremes(assemble_spectrum(NsgForm([1, 1], [1, 1])))
    assert plus == pytest.approx(PAW_SPECTRUM[1], abs=1e-9)
    assert minus == pytest.approx(PAW_SPECTRUM[3], abs=1e-9)


def test_eta_extremes_tolerance_policy():
    assert eta_extremes(np.array([0.5, -1.0 - 5e-9])) == (0.5, -np.inf)
    assert eta_extremes(np.array([0.5, -1.0 - 5e-8])) == (0.5, -1.0 - 5e-8)
    assert eta_extremes(np.zeros(3)) == (np.inf, -np.inf)
    assert eta_extremes(np.empty(0)) == (np.inf, -np.inf)
    # a (k, w) stack gets the same policy row by row
    plus, minus = eta_extremes(np.array([[0.5, -1.0 - 5e-9], [0.5, -1.0 - 5e-8], [0.0, 0.0]]))
    assert plus.tolist() == [0.5, 0.5, np.inf]
    assert minus.tolist() == [-np.inf, -1.0 - 5e-8, -np.inf]
