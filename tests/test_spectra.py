import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from thresholdlab import spectra
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
    TrivialMults,
    _fixed_point_newton,
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
from thresholdlab.verify import (
    GAP_LOWER,
    GAP_UPPER,
    PRUNE_MARGIN,
    _prune_thresholds,
    check_antiregular_bounds,
)

sequences = st.text(alphabet="01", min_size=1, max_size=12).map(parse_creation_sequence)
long_sequences = st.text(alphabet="01", min_size=1, max_size=40).map(parse_creation_sequence)

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


def test_count_eigs_leq_equals_the_step_by_step_reference():
    # each symbol's (-2a, a^2) pair, computed once, gives the counts of the
    # congruence that computes a = x + b at every step, on every sequence
    # to order 12, at the gap endpoints, on eigenvalues and off them
    points = (GAP_LOWER, GAP_UPPER, 0.0, -1.0, -2.0, 5.0)
    for order in range(1, 13):
        for seq in enumerate_threshold(order):
            assert [count_eigs_leq(seq, x) for x in points] == [
                oracles.count_eigs_leq_reference(seq.symbols, x) for x in points], seq


@given(long_sequences, st.sampled_from([GAP_LOWER, GAP_UPPER, 0.0, -1.0, 1.0, -2.0, 2.0, 3.0,
                                        -3.0, 0.5, -0.5]) | st.floats(-41.0, 41.0))
@settings(max_examples=300)
def test_count_eigs_leq_counts_as_the_step_by_step_reference_on_long_sequences(seq, x):
    # the kernel counts with the same clamp and the same floats as the
    # reference, at the gap endpoints and at 0, -1 and small integers and
    # halves, where pivots are exactly 0 and the clamp fires, and anywhere
    # else in the spectrum's range
    assert count_eigs_leq(seq, x) == oracles.count_eigs_leq_reference(seq.symbols, x)


def test_fixed_point_newton_point_is_the_newton_point_of_the_characteristic_polynomial():
    # p'(x)/p(x) for p(x) = det(A - xI) is the sum of 1/(x - lambda) over
    # the dense spectrum, so at points off every eigenvalue the Newton
    # point is x - 1 / that sum, to a relative 1e-9 of the step
    for seq in map(parse_creation_sequence, ("0", "01", "0101", "0011", "00101101", "0" * 5 + "1")):
        values = oracles.dense_spectrum(build_adjacency(seq))
        for x in (GAP_LOWER, GAP_UPPER, 0.3, -1.7, 4.5):
            step = 1.0 / float(np.sum(1.0 / (x - values)))
            assert x - _fixed_point_newton(seq, x) == pytest.approx(step, rel=1e-9), \
                (str(seq), x)


def test_locate_eigenvalue_finds_every_nontrivial_eigenvalue():
    # from first points on either side of the spectrum's middle, in the
    # bracket (-order, order] that holds every eigenvalue, each nontrivial
    # eigenvalue of every connected graph to order 9 is found within 1e-12
    # of the dense solve.  A bracket whose counts do not hold eigenvalue k,
    # or a first point outside it, or an infinite end, which bisection could
    # never halve, is refused before any pass
    for order in range(2, 10):
        for seq in enumerate_threshold(order, connected_only=True):
            values = np.sort(oracles.dense_spectrum(build_adjacency(seq)))
            for k, value in enumerate(values.tolist(), start=1):
                if min(abs(value), abs(value + 1.0)) < 1e-9:
                    continue
                for x in 0.5, -0.5, 0.25:
                    assert locate_eigenvalue(seq, k, -order, order, (0, order), x) == \
                        pytest.approx(value, abs=1e-12), (str(seq), k, x)
    seq = parse_creation_sequence("01")  # eigenvalues -1 and 1
    for lo, hi, counts, x in ((-2.0, 0.5, (0, 1), 0.0), (-math.inf, math.inf, (0, 2), 0.0),
                              (-math.inf, 2.0, (0, 2), 0.0), (-2.0, math.inf, (0, 2), 0.0),
                              (-2.0, 2.0, (0, 2), 3.0)):
        with pytest.raises(ValueError):
            locate_eigenvalue(seq, 2, lo, hi, counts, x)


def test_locate_eigenvalue_ends_at_adjacent_doubles_on_a_multiple_eigenvalue():
    # a bracket around a multiple eigenvalue never holds eigenvalue k alone,
    # so no Newton point settles: bisection runs until the ends are adjacent
    # doubles, and the fixed-point step starts from one of them.  The 4-fold
    # -1 of nsg(1,1;3,2) lands within one ulp of -1.0.  The 39-fold 0 of
    # nsg(40;2) lands within sqrt(pivmin) of 0: closer in, a^2 = x^2 falls
    # below pivmin and soon underflows, and the float count may be off
    # (3 at -1.5511347082480516e-161, where the exact count is 2)
    root_pivmin = math.sqrt(float(np.finfo(np.float64).tiny)) * (42 + 1.0)  # order 42, x = 0
    for form, multiplicity, low, high in (
            (NsgForm([1, 1], [3, 2]), 4, math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0)),
            (NsgForm([40], [2]), 39, -root_pivmin, root_pivmin)):
        seq = nsg_to_creation(form)
        order = seq.order
        below, above = count_eigs_leq(seq, low - 1e-9), count_eigs_leq(seq, high + 1e-9)
        assert above - below == multiplicity
        for k in below + 1, above:
            for x in 0.5, -0.5, high + 0.25:
                located = locate_eigenvalue(seq, k, -order, order, (0, order), x)
                assert low <= located <= high, (str(seq), k, x, located)


def test_fixed_point_newton_step_lands_on_the_eigenvalue():
    # one Newton step in fixed point from 1e-11 beside eta+-(A_n), on
    # either side, lands on the double that the located value is, as its
    # error is about 1e-22 * n^2; an exact eigenvalue 1 is left as it is,
    # and points whose pivots leave the doubles return a double
    for order in (5, 9, 13, 40):
        seq = nsg_to_creation(anti_regular(order))
        report = check_antiregular_bounds(order)
        for eta in report.eta_plus, report.eta_minus:
            for offset in (-1e-11, 1e-11):
                assert _fixed_point_newton(seq, eta + offset) == eta, (order, eta, offset)
    assert _fixed_point_newton(parse_creation_sequence("01"), 1.0) == 1.0
    for x in (5e-324, -5e-324, 1e-310, 1e300):
        assert isinstance(_fixed_point_newton(parse_creation_sequence("0011"), x), float)


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


def test_count_eigs_leq_is_exact_beyond_root_pivmin_of_the_eigenvalue_zero():
    # on forms with a multiple eigenvalue 0 or -1 the count equals the
    # exact count at +-{1, 1.55, 3.7} * 10^-e for every e that puts x in
    # (sqrt(pivmin), 0.1]; closer to 0, x^2 falls below pivmin and the
    # count may be off by one, as the docstring says
    root_safmin = math.sqrt(float(np.finfo(np.float64).tiny))
    for form in NsgForm([40], [2]), NsgForm([3], [2]), NsgForm([1, 1], [3, 2]), \
            NsgForm([5, 2], [1, 3]):
        seq = nsg_to_creation(form)
        checked = 0
        for e, mantissa, sign in itertools.product(range(1, 324), (1.0, 1.55, 3.7), (1, -1)):
            x = sign * float(f"{mantissa}e-{e}")
            if root_safmin * (seq.order + abs(x) + 1.0) < abs(x) <= 0.1:
                assert count_eigs_leq(seq, x) == \
                    oracles.count_eigs_leq_exact(seq.symbols, x), (str(seq), x)
                checked += 1
        assert checked > 800, str(seq)


def test_count_eigs_leq_sweep_equals_scalar_kernel(monkeypatch):
    # the suffix-tree sweep against the oracle's count on every connected
    # graph up to order 14, at the points scans without rows count (both
    # interval endpoints, the pruning bounds around A_n's eta and points
    # 5e-9 from the trivial eigenvalues), where no unit falls back, and at
    # four integers where pivots are exactly 0, so the guard hands units to
    # the scalar kernel: at x = 0 and x = -1 the first one is at depth 0 or
    # 1, at x = -2 and x = 5 (order 12: depths 8 and 11, and 5) deep in the
    # tree, below states already stepped.  Each integer is swept alone, and
    # each falls back for some unit.  Units that fix 0, 2 or all order-2
    # index bits put leaf j of unit ``low`` at index j * 2^top + low, and
    # all units of one call share one workspace.  The steps from a state at
    # 0 divide by 0, which must neither warn nor leave the floating-point
    # error state changed at any yield
    errors = np.geterr()
    fell_back = set()
    bare = spectra.count_eigs_leq

    def recording(seq, x):
        fell_back.add(x)
        return bare(seq, x)

    monkeypatch.setattr(spectra, "count_eigs_leq", recording)
    for order in range(2, 15):
        seqs = list(enumerate_threshold(order, connected_only=True))
        t_plus, t_minus, *_ = _prune_thresholds(order)
        scan_points = (GAP_LOWER, GAP_UPPER, 5e-9, t_plus + PRUNE_MARGIN,
                       t_minus - PRUNE_MARGIN, -1.0 - 5e-9)
        for points in scan_points, (0.0,), (-1.0,), (-2.0,), (5.0,):
            reference = [[oracles.count_eigs_leq_reference(seq.symbols, x) for seq in seqs]
                         for x in points]
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
                assert swept.tolist() == reference, (order, points, top)
    assert fell_back == {0.0, -1.0, -2.0, 5.0}
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


def test_eta_extremes_strict_rule():
    # no tolerance: any value above 0.0 or below -1.0 fills its slot, and
    # only the exact trivial values 0.0 and -1.0 count for neither
    assert eta_extremes(np.array([0.5, -1.0 - 5e-9])) == (0.5, -1.0 - 5e-9)
    assert eta_extremes(np.array([5e-324, -1.0, 0.0])) == (5e-324, -np.inf)
    assert eta_extremes(np.array([0.0, -1.0, math.nextafter(-1.0, -2.0)])) == (
        np.inf, math.nextafter(-1.0, -2.0))
    assert eta_extremes(np.zeros(3)) == (np.inf, -np.inf)
    assert eta_extremes(np.full(3, -1.0)) == (np.inf, -np.inf)
    assert eta_extremes(np.empty(0)) == (np.inf, -np.inf)
    # a (k, w) stack is read row by row
    plus, minus = eta_extremes(np.array([[0.5, -1.0 - 5e-9], [0.0, -1.0], [2.0, -3.0]]))
    assert plus.tolist() == [0.5, np.inf, 2.0]
    assert minus.tolist() == [-1.0 - 5e-9, -np.inf, -3.0]


def test_pin_trivial_sets_exactly_one_value_per_top_singleton_row():
    # in every quotient of a connected graph to order 14, the m_h = 1 rows
    # get exactly one value set, the one nearest -1, to -1.0, and every
    # other value, and every value of an m_h >= 2 row, stays eigvalsh's
    # bit for bit.  eigvalsh's -1 lies below -1 in 1,375 of the 4,096
    # m_h = 1 forms, so a stack that is never pinned would give a false eta-
    below = singletons = 0
    for h in range(1, 8):
        forms = [form for order in range(2 * h, 15) for seq in
                 enumerate_threshold(order, connected_only=True)
                 if (form := creation_to_nsg(seq)).h == h]
        m, n = np.array([f.m for f in forms]), np.array([f.n for f in forms])
        raw = np.linalg.eigvalsh(quotient_stack(m, n))
        pinned = pin_trivial(raw.copy(), m)
        changed = pinned != raw
        top = m[:, -1] == 1
        assert not changed[~top].any(), h
        assert (np.count_nonzero(pinned[top] == -1.0, axis=1) == 1).all(), h
        assert (np.count_nonzero(changed[top], axis=1) <= 1).all(), h
        nearest = np.abs(raw[top] + 1.0).argmin(axis=1)
        assert (pinned[top][np.arange(len(nearest)), nearest] == -1.0).all(), h
        assert (np.abs(raw[top][np.arange(len(nearest)), nearest] + 1.0) < 1e-12).all(), h
        below += int(np.count_nonzero(raw[top] < -1.0) - np.count_nonzero(raw[top] < GAP_LOWER))
        singletons += int(np.count_nonzero(top))
        for form, values in zip(forms, pinned):
            assert quotient_eigenvalues(form).tobytes() == values.tobytes(), form
    assert (below, singletons) == (1375, 4096)


def test_etas_sit_at_the_positions_the_counts_give():
    # on every connected graph to order 14 that meets its forecast, with e
    # the pinned ascending quotient spectrum, eta- is e[count(L) - 1] and
    # eta+ is e[2h - (n - count(U))]: the padding lies in (L, U], and so
    # does nothing nontrivial
    for order in range(2, 15):
        for seq in enumerate_threshold(order, connected_only=True):
            form = creation_to_nsg(seq)
            e = quotient_eigenvalues(form)
            upper, lower = count_eigs_leq(seq, GAP_UPPER), count_eigs_leq(seq, GAP_LOWER)
            mults = trivial_multiplicities(form)
            assert upper - lower == mults.mult0 + mults.multm1, str(seq)
            plus, minus = eta_extremes(e)
            assert plus == e[2 * form.h - (order - upper)], str(seq)
            assert minus == (e[lower - 1] if lower else -np.inf), str(seq)
