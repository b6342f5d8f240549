import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdlab.graphs import (
    NsgForm,
    OrderTooSmallError,
    anti_regular,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    nsg_to_graph,
    parse_creation_sequence,
    sequence_at,
)
from thresholdlab import verify
from thresholdlab.spectra import assemble_spectrum, eta_extremes, symmetric_eigenvalues
from thresholdlab.verify import (
    DEFAULT_ORDER_CAP,
    GAP_LOWER,
    GAP_UPPER,
    ORDER_CEILING,
    SCAN_BLOCK_ENTRIES,
    DisconnectedError,
    EmptyClassError,
    GapReport,
    OrderCapExceededError,
    ReductionCase,
    ReductionStep,
    ScanReport,
    check_antiregular_bounds,
    check_gap,
    check_interlacing,
    check_reduction,
    reducing_vertex,
    reduction_chain,
    scan_conjecture,
    scan_gap,
    _scan_chunk,
)

connected_forms = (
    st.text(alphabet="01", min_size=2, max_size=14)
    .map(lambda s: "0" + s[1:-1] + "1")
    .map(parse_creation_sequence)
    .map(creation_to_nsg)
)


def connected(order):
    return (creation_to_nsg(s) for s in enumerate_threshold(order, connected_only=True))


# ---------------------------------------------------------------- endpoints


def test_interval_endpoints():
    assert GAP_LOWER == (-1.0 - math.sqrt(2.0)) / 2.0
    assert GAP_UPPER == (-1.0 + math.sqrt(2.0)) / 2.0
    # within one ulp of the printed decimal expansions
    assert GAP_LOWER == pytest.approx(-1.2071067811865476, abs=5e-16)
    assert GAP_UPPER == pytest.approx(0.20710678118654757, abs=5e-16)
    assert GAP_LOWER < -1.0 < 0.0 < GAP_UPPER


# ---------------------------------------------------------------- check_gap


def test_check_gap_nsg_3_2():
    report = check_gap(NsgForm([3], [2]))
    assert report.passed
    assert report.count_in_interval == 3
    assert report.expected_trivial == 3
    # nearest non-trivial eigenvalue is -2, at distance (3 - sqrt(2))/2
    assert report.min_nontrivial_distance == pytest.approx((3.0 - math.sqrt(2.0)) / 2.0)
    assert report.sequence == "00011"
    assert report.order == 5


def test_check_gap_k2():
    report = check_gap(NsgForm([1], [1]))
    assert report.passed
    assert report.count_in_interval == 1
    assert report.expected_trivial == 1


def test_check_gap_paw():
    report = check_gap(NsgForm([1, 1], [1, 1]))
    assert report.passed
    assert report.count_in_interval == 1
    assert report.min_nontrivial_distance == pytest.approx(0.104001036279, abs=1e-9)


def test_check_gap_handles_disconnected_and_edgeless():
    report = check_gap(NsgForm([2], [1], 3))
    assert report.passed
    assert report.expected_trivial == 4
    report = check_gap(NsgForm([], [], 4))
    assert report.passed
    assert report.count_in_interval == 4


def test_check_gap_builds_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_gap built a dense matrix")

    monkeypatch.setattr("thresholdlab.graphs.build_adjacency", refuse)
    monkeypatch.setattr("thresholdlab.verify.nsg_to_graph", refuse)
    report = check_gap(NsgForm([3], [2]))
    assert report.passed and report.count_in_interval == 3
    report = check_gap(NsgForm([100000], [1]))
    assert report.passed
    assert report.count_in_interval == report.expected_trivial == 99999


def test_check_gap_order_9_exhaustive():
    for form in connected(9):
        assert check_gap(form).passed


# ---------------------------------------------------------------- interlacing


def test_interlacing_nsg_3_2_delete_v1():
    report = check_interlacing(NsgForm([3], [2]), ("V", 1))
    assert report.passed
    assert report.witness is None
    # the child is the star K_{1,3}
    adjacency = nsg_to_graph(NsgForm([3], [1])).adjacency.astype(float)
    root3 = math.sqrt(3.0)
    assert symmetric_eigenvalues(adjacency) == pytest.approx([root3, 0.0, 0.0, -root3])


def test_interlacing_k2():
    assert check_interlacing(NsgForm([1], [1]), ("V", 1)).passed


def test_interlacing_missing_class():
    with pytest.raises(EmptyClassError):
        check_interlacing(NsgForm([1], [1]), ("V", 2))
    with pytest.raises(EmptyClassError):
        check_interlacing(NsgForm([1], [1]), ("U", 9))


@given(connected_forms, st.data())
@settings(max_examples=60)
def test_interlacing_random_class(form, data):
    kind = data.draw(st.sampled_from("UV"))
    index = data.draw(st.integers(min_value=1, max_value=form.h))
    assert check_interlacing(form, (kind, index)).passed


# ---------------------------------------------------------------- reduction


def test_reducing_vertex_top_coclique():
    step = reducing_vertex(NsgForm([1, 3], [1, 1]))
    assert step.deleted_class == ("U", 2)
    assert step.case is ReductionCase.DROP_ZERO
    assert step.child == NsgForm([1, 2], [1, 1])


def test_reducing_vertex_clique_class():
    step = reducing_vertex(NsgForm([3], [2]))
    assert step.deleted_class == ("V", 1)
    assert step.case is ReductionCase.DROP_MINUS_ONE
    assert step.child == NsgForm([3], [1])


def test_reducing_vertex_anti_regular_is_terminal():
    assert reducing_vertex(NsgForm([1, 2], [1, 1])) is None
    assert reducing_vertex(NsgForm([1, 1], [1, 1])) is None
    assert reducing_vertex(NsgForm([1], [1])) is None


def test_reducing_vertex_lower_coclique():
    # all n_i = 1 fails (n_1 = 1, n_2 = 1) but m_1 = 2 with h = 2
    step = reducing_vertex(NsgForm([2, 1], [1, 1]))
    assert step.deleted_class == ("U", 1)
    assert step.case is ReductionCase.DROP_ZERO
    assert step.child == NsgForm([1, 1], [1, 1])


def test_reducing_vertex_needs_connected_input():
    with pytest.raises(DisconnectedError):
        reducing_vertex(NsgForm([1], [1], 1))
    with pytest.raises(DisconnectedError):
        reducing_vertex(NsgForm([], [], 2))


def test_check_reduction_examples():
    assert check_reduction(reducing_vertex(NsgForm([1, 3], [1, 1])))
    assert check_reduction(reducing_vertex(NsgForm([3], [2])))


def test_check_reduction_rejects_wrong_case_tag():
    step = reducing_vertex(NsgForm([1, 3], [1, 1]))
    corrupted = ReductionStep(
        step.parent, step.deleted_class, step.child, ReductionCase.DROP_MINUS_ONE
    )
    assert not check_reduction(corrupted)


def test_reduction_steps_order_10():
    for order in range(2, 11):
        for form in connected(order):
            step = reducing_vertex(form)
            if form.antiregular:
                assert step is None
                continue
            assert step is not None
            assert step.child.order == form.order - 1
            assert step.child.connected
            assert check_reduction(step)


def test_reduction_chain_reaches_anti_regular():
    for order in range(2, 11):
        for form in connected(order):
            steps = reduction_chain(form)
            final = steps[-1].child if steps else form
            assert final.antiregular
            assert final.order == form.order - len(steps)


def test_reduction_chain_eta_monotone():
    tol = 1e-8
    for form in connected(10):
        chain = reduction_chain(form)
        for step in chain:
            p_plus, p_minus = eta_extremes(assemble_spectrum(step.parent))
            c_plus, c_minus = eta_extremes(assemble_spectrum(step.child))
            if p_plus is not None and c_plus is not None:
                assert c_plus <= p_plus + tol, step
            if p_minus is not None and c_minus is not None:
                assert c_minus >= p_minus - tol, step


# ---------------------------------------------------------------- bounds


def test_antiregular_bounds_order_4():
    report = check_antiregular_bounds(4)
    assert report.passed
    assert report.eta_plus == pytest.approx(0.3111078174659816, abs=1e-9)
    assert report.eta_minus == pytest.approx(-1.4811943040920156, abs=1e-9)


def test_antiregular_bounds_order_3():
    report = check_antiregular_bounds(3)
    assert report.passed
    assert report.eta_plus == pytest.approx(math.sqrt(2.0))
    assert report.eta_minus == pytest.approx(-math.sqrt(2.0))


def test_antiregular_bounds_order_2_vacuous_minus_side():
    report = check_antiregular_bounds(2)
    assert report.passed
    assert report.eta_plus == pytest.approx(1.0)
    assert report.eta_minus is None


def test_antiregular_bounds_rejects_order_1():
    with pytest.raises(OrderTooSmallError):
        check_antiregular_bounds(1)


# ---------------------------------------------------------------- scans


def test_scan_gap_order_6():
    report = scan_gap(6)
    assert report.graphs_checked == 16
    assert report.failures == ()
    assert report.passed


def test_scan_gap_order_10():
    report = scan_gap(10)
    assert report.graphs_checked == 256
    assert report.failures == ()


def test_scan_gap_order_2():
    report = scan_gap(2)
    assert report.graphs_checked == 1
    assert report.failures == ()


def test_scan_order_limits():
    with pytest.raises(OrderTooSmallError):
        scan_gap(1)
    with pytest.raises(OrderCapExceededError):
        scan_gap(DEFAULT_ORDER_CAP + 1)
    with pytest.raises(OrderCapExceededError):
        scan_gap(8, order_cap=6)
    with pytest.raises(ValueError):
        scan_gap(6, workers=0)


def test_scan_order_ceiling():
    verify._check_scan_order(ORDER_CEILING, ORDER_CEILING)
    for scan in (scan_gap, scan_conjecture):
        with pytest.raises(OrderCapExceededError, match="ceiling"):
            scan(ORDER_CEILING + 1, order_cap=10**6)


def test_scan_workers_cap(monkeypatch):
    # refused before any pool exists; a pool never gets more workers than chunks
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    for scan in (scan_gap, scan_conjecture):
        with pytest.raises(ValueError, match=f"above the cap {verify.MAX_WORKERS}"):
            scan(3, workers=verify.MAX_WORKERS + 1)
    assert pools == []
    assert scan_gap(3, workers=5) == scan_gap(3)
    assert scan_conjecture(5, workers=verify.MAX_WORKERS) == scan_conjecture(5)
    assert pools == [2, 8]


def test_scan_deterministic_across_workers():
    assert scan_gap(8, workers=1) == scan_gap(8, workers=3)
    assert scan_conjecture(7, workers=1) == scan_conjecture(7, workers=2)
    # order 14 spans several scan blocks, and 2 or 3 workers cut it off the
    # block grid, inside blocks that mix several h
    block = SCAN_BLOCK_ENTRIES // 14**2
    assert block < 4096 and 2048 % block and 1365 % block and 2730 % block
    assert scan_gap(14, workers=1, keep_rows=True) == scan_gap(14, workers=3, keep_rows=True)
    assert (scan_conjecture(14, workers=1, keep_rows=True)
            == scan_conjecture(14, workers=2, keep_rows=True))


def test_scan_chunk_matches_single_checks():
    # the batched chunk gives, per graph, exactly the values of check_gap
    # and of eta_extremes on the assembled spectrum
    for order in range(2, 15):
        total = 2 ** (order - 2)
        count, failures, _, _, rows = _scan_chunk(("gap", order, 0, total, True))
        assert count == total and failures == [] and len(rows) == total
        for index, row in enumerate(rows):
            seq = sequence_at(order, index, connected_only=True)
            form = creation_to_nsg(seq)
            report = check_gap(form)
            eta_plus, eta_minus = eta_extremes(assemble_spectrum(form))
            assert row == {
                "sequence": str(seq),
                "order": order,
                "eta_plus": eta_plus,
                "eta_minus": eta_minus,
                "count_in_interval": report.count_in_interval,
                "expected_trivial": report.expected_trivial,
                "min_nontrivial_distance": report.min_nontrivial_distance,
                "verdict": "pass",
            }
        conjecture_rows = _scan_chunk(("conjecture", order, 0, total, True))[4]
        assert conjecture_rows == [
            {key: row[key] for key in ("sequence", "order", "eta_plus", "eta_minus")}
            for row in rows
        ]


def test_scan_reports_failures_like_check_gap(monkeypatch):
    # a forecast that is one too high makes every graph fail; each failure
    # and row must carry check_gap's values with that forecast
    honest = verify.trivial_forecast

    def one_too_many(m, n):
        pad0, padm1, inside = honest(m, n)
        return pad0 + 1, padm1, inside

    monkeypatch.setattr(verify, "trivial_forecast", one_too_many)
    report = scan_gap(6, keep_rows=True)
    assert not report.passed and len(report.failures) == report.graphs_checked == 16
    assert scan_gap(6).failures == report.failures
    for failure, row in zip(report.failures, report.rows):
        truth = check_gap(creation_to_nsg(parse_creation_sequence(failure.sequence)))
        assert failure == dataclasses.replace(
            truth, expected_trivial=truth.expected_trivial + 1, passed=False)
        assert row["sequence"] == failure.sequence and row["verdict"] == "fail"
        assert row["expected_trivial"] == failure.expected_trivial


def test_scan_without_rows_equals_report_with_rows():
    # a scan without rows solves only the rows its report needs; the report
    # must be the one every row solved gives, for any worker count
    for scan in (scan_gap, scan_conjecture):
        for order in range(2, 17):
            full = dataclasses.replace(scan(order, keep_rows=True), rows=None)
            for workers in (1, 2):
                assert scan(order, workers=workers) == full, (scan.__name__, order, workers)


def solved_rows(monkeypatch) -> list[int]:
    """Counts the quotients each scan passes to quotient_stack."""
    solved = [0]
    honest = verify.quotient_stack

    def counting(m, n):
        solved[0] += len(m)
        return honest(m, n)

    monkeypatch.setattr(verify, "quotient_stack", counting)
    return solved


def test_scan_without_rows_solves_under_one_percent(monkeypatch):
    solved = solved_rows(monkeypatch)
    for scan in (scan_gap, scan_conjecture):
        solved[0] = 0
        assert scan(14).passed
        assert solved[0] < 4096 // 100, scan.__name__
        solved[0] = 0
        scan(14, keep_rows=True)
        assert solved[0] == 4096, scan.__name__


def one_flip_from_antiregular(order):
    """A_n with its next-to-last symbol flipped: close to extremal."""
    symbols = str(nsg_to_creation(anti_regular(order)))
    if order > 2:
        symbols = symbols[:-2] + "10"[int(symbols[-2])] + symbols[-1]
    return creation_to_nsg(parse_creation_sequence(symbols))


def test_scan_pruning_is_sound_under_looser_thresholds(monkeypatch):
    # thresholds taken from a graph that is not extremal let more rows
    # through, and nothing else may change: a near tie lets a few more
    # through, K_n (no eigenvalue below -1) nearly all
    honest = {(scan, order): scan(order)
              for scan in (scan_gap, scan_conjecture) for order in range(2, 15)}
    solved = solved_rows(monkeypatch)
    for loose in (one_flip_from_antiregular, lambda order: NsgForm([1], [order - 1])):
        monkeypatch.setattr(verify, "anti_regular", loose)
        for (scan, order), report in honest.items():
            solved[0] = 0
            patched = scan(order)
            assert solved[0] > 1 or order < 4, (scan.__name__, order)
            assert dataclasses.replace(patched, antiregular_sequence=None,
                                       conjecture_holds=None) == dataclasses.replace(
                report, antiregular_sequence=None, conjecture_holds=None)


def test_scan_pruning_each_side_alone_keeps_the_report(monkeypatch):
    # from order 3 on, A_n holds both extremes and has eigenvalues on both
    # sides, so either side's candidates alone must find it; here one bound
    # admits no eigenvalue at all ((eps/2, 1e-9] and (-1 - 1e-9, -1 - eps/2]
    # are empty) and the other admits every one
    honest = {(scan, order): scan(order)
              for scan in (scan_gap, scan_conjecture) for order in range(3, 13)}
    for one_sided in (lambda order: (0.0, -float(order)), lambda order: (float(order), -1.0)):
        monkeypatch.setattr(verify, "_prune_thresholds", one_sided)
        for (scan, order), report in honest.items():
            assert scan(order) == report, (scan.__name__, order)


def test_scan_rows_collection():
    report = scan_gap(5, keep_rows=True)
    assert report.rows is not None and len(report.rows) == 8
    assert all(row["verdict"] == "pass" for row in report.rows)
    assert scan_gap(5).rows is None


def test_scan_conjecture_order_4():
    report = scan_conjecture(4)
    assert report.conjecture_holds
    assert report.antiregular_sequence == "0101"
    value, seq = report.extremal_eta_plus
    assert seq == "0101"
    assert value == pytest.approx(0.3111078174659816, abs=1e-9)
    value, seq = report.extremal_eta_minus
    assert seq == "0101"
    assert value == pytest.approx(-1.4811943040920156, abs=1e-9)


def test_scan_conjecture_order_5():
    report = scan_conjecture(5)
    assert report.conjecture_holds
    assert report.extremal_eta_plus[1] == "00101"
    assert report.extremal_eta_minus[1] == "00101"


def test_scan_conjecture_order_2():
    report = scan_conjecture(2)
    assert report.graphs_checked == 1
    assert report.conjecture_holds
    assert report.extremal_eta_plus[1] == "01"
    assert report.extremal_eta_minus is None


def test_scan_report_verdict_logic():
    failing = GapReport("0011", 4, 2, 1, 0.0, False)
    report = ScanReport("gap", 4, 4, (failing,), None, None)
    assert not report.passed
    report = ScanReport("conjecture", 4, 4, (), None, None, "0101", False)
    assert not report.passed


# ---------------------------------------------------------------- sub-gap


def test_no_eigenvalues_strictly_between_minus_one_and_zero():
    for order in range(1, 11):
        for seq in enumerate_threshold(order):
            values = assemble_spectrum(creation_to_nsg(seq)).values
            inside = (values > -1.0 + 1e-6) & (values < -1e-6)
            assert not np.any(inside), seq


# ---------------------------------------------------------------- properties


@given(connected_forms)
@settings(max_examples=60)
def test_gap_check_property(form):
    assert check_gap(form).passed


@given(connected_forms)
@settings(max_examples=40)
def test_chain_property(form):
    steps = reduction_chain(form)
    assert all(check_reduction(s) for s in steps)
    final = steps[-1].child if steps else form
    assert final.antiregular
    assert str(nsg_to_creation(final)) == str(
        nsg_to_creation(creation_to_nsg(nsg_to_creation(final)))
    )
