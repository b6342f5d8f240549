import dataclasses
import json
import math
import os
import pickle
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thresholdlab.graphs import (
    NsgForm,
    OrderTooSmallError,
    anti_regular,
    build_adjacency,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    parse_creation_sequence,
    sequence_at,
)
from thresholdlab import cli, verify
from thresholdlab.cli import scan_csv
from thresholdlab.spectra import assemble_spectrum, eta_extremes, trivial_multiplicities
from thresholdlab.verify import (
    DEFAULT_ORDER_CAP,
    GAP_LOWER,
    GAP_UPPER,
    ORDER_CEILING,
    PRUNE_MARGIN,
    SCAN_BLOCK_ENTRIES,
    DisconnectedError,
    EmptyClassError,
    GapReport,
    OrderCapExceededError,
    ReductionCase,
    ReductionStep,
    ScanReport,
    ScanRows,
    check_antiregular_bounds,
    check_gap,
    check_interlacing,
    check_reduction,
    reducing_vertex,
    reduction_chain,
    scan_conjecture,
    scan_gap,
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
    report = check_gap(NsgForm([3], [2]))
    assert report.passed and report.count_in_interval == 3
    report = check_gap(NsgForm([100000], [1]))
    assert report.passed
    assert report.count_in_interval == report.expected_trivial == 99999
    # interlacing deletes a symbol of the creation sequence, not a matrix row
    assert check_interlacing(NsgForm([3], [2]), ("V", 1)).passed
    assert check_interlacing(NsgForm([2000, 1], [1, 1]), ("U", 1)).passed


def test_check_gap_order_9_exhaustive():
    for form in connected(9):
        assert check_gap(form).passed


# ---------------------------------------------------------------- interlacing


def test_interlacing_nsg_3_2_delete_v1():
    report = check_interlacing(NsgForm([3], [2]), ("V", 1))
    assert report.passed
    assert report.witness is None
    # the child is the star K_{1,3}
    root3 = math.sqrt(3.0)
    star = oracles.dense_spectrum(build_adjacency(parse_creation_sequence("0001")))
    assert star == pytest.approx([root3, 0.0, 0.0, -root3])


def test_interlacing_k2():
    assert check_interlacing(NsgForm([1], [1]), ("V", 1)).passed


def test_interlacing_missing_class():
    with pytest.raises(EmptyClassError):
        check_interlacing(NsgForm([1], [1]), ("V", 2))
    with pytest.raises(EmptyClassError):
        check_interlacing(NsgForm([1], [1]), ("U", 9))


def test_interlacing_matches_dense_deletion_oracle():
    # every class of every threshold graph to order 10: the class's first
    # vertex is found from the class sizes, deleting its symbol gives the
    # dense np.delete child exactly, and the report matches the weave of the
    # two dense spectra
    for order in range(1, 11):
        for seq in enumerate_threshold(order):
            form = creation_to_nsg(seq)
            parent = build_adjacency(seq).astype(float)
            lams = oracles.dense_spectrum(parent)
            for vertex_class, v in oracles.class_first_vertices(str(seq)).items():
                assert verify._first_vertex(form, vertex_class) == v
                child = np.delete(np.delete(parent, v, axis=0), v, axis=1)
                rest = str(seq)[:v] + str(seq)[v + 1:]
                if rest:
                    assert np.array_equal(child, build_adjacency(parse_creation_sequence(rest)))
                witness = oracles.interlacing_witness(
                    lams, oracles.dense_spectrum(child), verify.INTERLACING_TOL)
                report = check_interlacing(form, vertex_class)
                assert (report.passed, report.witness) == (witness is None, witness)
                assert report.sequence == str(seq)


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
            if np.isfinite(p_plus) and np.isfinite(c_plus):
                assert c_plus <= p_plus + tol, step
            if np.isfinite(p_minus) and np.isfinite(c_minus):
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


def assert_no_children():
    # every process a scan forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_workers_cap(monkeypatch):
    # refused before any os.fork; a scan never forks more children than it
    # has units besides the parent's own
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for scan in (scan_gap, scan_conjecture):
        with pytest.raises(ValueError, match=f"above the cap {verify.MAX_WORKERS}"):
            scan(3, workers=verify.MAX_WORKERS + 1)
    assert forks == []
    assert scan_gap(3, workers=5) == scan_gap(3)
    children = [len(forks)]
    assert scan_conjecture(5, workers=verify.MAX_WORKERS) == scan_conjecture(5)
    children.append(len(forks) - children[0])
    assert children == [1, 7]
    assert_no_children()


def patch_units(monkeypatch, child, parent=None):
    """Run ``child()`` in place of the scan units of a forked child, and
    ``parent()``, when given, in place of the units of the parent."""
    pid, real = os.getpid(), verify._scan_stride

    def stride(*args):
        if os.getpid() != pid:
            return child()
        return real(*args) if parent is None else parent()

    monkeypatch.setattr(verify, "_scan_stride", stride)


def test_scan_reraises_a_child_unit_error(monkeypatch):
    def child():
        raise OrderCapExceededError("unit failed in a child")

    patch_units(monkeypatch, child)
    with pytest.raises(OrderCapExceededError) as raised:
        scan_gap(8, workers=3)
    assert (raised.type, str(raised.value)) == (OrderCapExceededError, "unit failed in a child")
    assert_no_children()


def test_scan_child_without_result_raises(monkeypatch):
    patch_units(monkeypatch, lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match="status 3 before sending its result"):
        scan_conjecture(8, workers=3, keep_rows=True)
    assert_no_children()


def test_scan_child_cut_off_while_sending_raises(monkeypatch):
    # the parent unpickles each result from its pipe as a stream; a pickle
    # cut short by the child's end is reported by the child's status
    def half_dump(message, pipe, protocol):
        data = pickle.dumps(message, protocol)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os._exit(4)

    monkeypatch.setattr(verify.pickle, "dump", half_dump)
    with pytest.raises(ChildProcessError, match="status 4 before sending its result"):
        scan_conjecture(8, workers=3, keep_rows=True)
    assert_no_children()


def test_scan_kills_children_when_the_parent_raises(monkeypatch):
    def parent():
        raise OrderCapExceededError("unit failed in the parent")

    patch_units(monkeypatch, lambda: time.sleep(60), parent)
    start = time.monotonic()
    with pytest.raises(OrderCapExceededError, match="in the parent"):
        scan_gap(8, workers=3)
    assert time.monotonic() - start < 30  # the sleeping children were killed, not awaited
    assert_no_children()


def test_scan_prints_unflushed_stdout_once():
    # stdout to a pipe is block-buffered (unless PYTHONUNBUFFERED is set), so
    # the text is still in the buffer when the scan forks; a child must not
    # flush its copy
    code = ("from thresholdlab.verify import scan_gap\n"
            "print('before', end='')\n"
            "assert scan_gap(8, workers=2).passed\n"
            "print(' after')\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(verify.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "before after\n", "")


def test_scan_workers_need_fork(monkeypatch):
    expected = scan_gap(8)
    units = []
    real = verify._scan_stride
    monkeypatch.setattr(verify, "_scan_stride", lambda *args: units.append(1) or real(*args))
    monkeypatch.delattr(os, "fork")
    for scan in (scan_gap, scan_conjecture):
        with pytest.raises(ValueError, match="needs os.fork"):
            scan(8, workers=2)
    assert units == []
    assert scan_gap(8, workers=1) == expected
    assert_no_children()


def test_scan_workers_return_one_result_each(monkeypatch):
    # a worker sweeps its whole stride of units and returns one (index,
    # columns) pair: 3 results for 2^7 units, not one per unit
    lengths = []
    real = verify._map

    def counting(fn, items, workers):
        results = real(fn, items, workers)
        lengths.append((len(items), len(results)))
        return results

    monkeypatch.setattr(verify, "_map", counting)
    monkeypatch.setattr(verify, "_SWEEP_UNIT_BITS", 3)
    assert scan_gap(12, workers=3) == scan_gap(12)
    assert lengths == [(2 ** 7, 3), (2 ** 7, 1)]
    assert_no_children()


def test_scans_sweep_their_own_points(monkeypatch):
    # every scan, of either kind and with or without rows, counts at L, U,
    # t+ + m and t- - m, with t+ and t- from A_n and m = PRUNE_MARGIN
    swept = []
    real = verify.count_eigs_leq_sweep

    def recording(order, xs, top, lows):
        swept.append(tuple(xs))
        return real(order, xs, top, lows)

    monkeypatch.setattr(verify, "count_eigs_leq_sweep", recording)
    for order in (2, 9, 14):
        t_plus, t_minus, *_ = verify._prune_thresholds(order)
        points = [(GAP_LOWER, GAP_UPPER, t_plus + PRUNE_MARGIN, t_minus - PRUNE_MARGIN)]
        for scan in (scan_gap, scan_conjecture):
            for keep_rows in (False, True):
                swept.clear()
                scan(order, keep_rows=keep_rows)
                assert swept == points, (scan.__name__, order, keep_rows)


def test_scan_deterministic_across_workers():
    assert scan_gap(8, workers=1) == scan_gap(8, workers=3)
    assert scan_conjecture(7, workers=1) == scan_conjecture(7, workers=2)
    # order 14 has 1716 graphs with h = 4; one worker sweeps them in one
    # unit of 4096 graphs and solves them in stacks of 512 and a short last
    # one, three sweep four units of 1024 strided graphs, units 0 and 3 in
    # the parent and one each in the children, and the children solve
    # their unit's share in one stack, so each worker count cuts the order
    # into different stacks
    h_of = verify._scan_h(np.arange(4096))
    stack = SCAN_BLOCK_ENTRIES // (2 * 4) ** 2
    assert np.count_nonzero(h_of == 4) == 1716 and stack < 1716 and 1716 % stack
    assert all(np.count_nonzero(h_of[low::4] == 4) < stack for low in range(4))
    assert scan_gap(14, workers=1, keep_rows=True) == scan_gap(14, workers=3, keep_rows=True)
    assert (scan_conjecture(14, workers=1, keep_rows=True)
            == scan_conjecture(14, workers=3, keep_rows=True))


def test_scan_rows_match_single_checks():
    # a scan's rows give, per graph and in index order, exactly the values
    # of check_gap and of eta_extremes on the assembled spectrum (absent:
    # +inf, -inf)
    for order in range(2, 15):
        total = 2 ** (order - 2)
        scan = scan_gap(order, keep_rows=True)
        rows = scan.rows
        assert scan.passed and scan.graphs_checked == len(rows.sequence) == total
        singles = []
        for index in range(total):
            seq = sequence_at(order, index, connected_only=True)
            form = creation_to_nsg(seq)
            report = check_gap(form)
            assert report.passed
            singles.append((str(seq).encode(), *eta_extremes(assemble_spectrum(form)),
                            report.count_in_interval, report.expected_trivial,
                            report.min_nontrivial_distance))
        for field, column in zip(dataclasses.fields(ScanRows), zip(*singles)):
            assert getattr(rows, field.name).tolist() == list(column), (order, field.name)
        conjecture_rows = scan_conjecture(order, keep_rows=True).rows
        assert conjecture_rows == ScanRows(rows.sequence, rows.eta_plus, rows.eta_minus)


def test_scan_reports_do_not_depend_on_block_size(monkeypatch):
    # one graph per stack merges at every graph boundary, in units of one
    # graph; stacks of 300 graphs at h = 3 (168 at h = 4) leave a short
    # last stack of the 462 (330) such graphs at order 12; units of eight
    # strided graphs merge at every unit boundary.  Etas rounded to one decimal make many graphs tie, and each
    # tie must still go to the lowest index, as min() over the rows picks it.
    honest_eta = verify.eta_extremes
    for coarse in (False, True):
        if coarse:
            monkeypatch.setattr(verify, "eta_extremes",
                                lambda eigs: [np.round(v, 1) for v in honest_eta(eigs)])
        monkeypatch.setattr(verify, "SCAN_BLOCK_ENTRIES", SCAN_BLOCK_ENTRIES)
        monkeypatch.setattr(verify, "_SWEEP_UNIT_BITS", verify._SWEEP_UNIT_BITS)
        honest = {(scan, order, keep_rows): scan(order, keep_rows=keep_rows)
                  for scan in (scan_gap, scan_conjecture) for order in range(2, 13)
                  for keep_rows in (False, True)}
        for (scan, order, keep_rows), report in honest.items():
            for key, best in (("eta_plus", min), ("eta_minus", max)):
                if keep_rows:
                    etas = getattr(report.rows, key).tolist()
                    first = best((i for i, eta in enumerate(etas) if math.isfinite(eta)),
                                 key=etas.__getitem__, default=None)
                    expected = None if first is None else (
                        etas[first], report.rows.sequence[first].decode())
                    assert getattr(report, f"extremal_{key}") == expected, (coarse, order, key)
        for entries, unit_bits in ((1, 0), (300 * 6**2, verify._SWEEP_UNIT_BITS),
                                   (SCAN_BLOCK_ENTRIES, 3)):
            monkeypatch.setattr(verify, "SCAN_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(verify, "_SWEEP_UNIT_BITS", unit_bits)
            for (scan, order, keep_rows), report in honest.items():
                assert scan(order, keep_rows=keep_rows) == report, (
                    coarse, entries, scan.__name__, order, keep_rows)


def test_scan_forecast_equals_trivial_multiplicities_over_class_sizes():
    # the closed-form forecast n - 2h + [m_h = 1] of every connected
    # sequence, unit by unit for units that fix 0, 3 or all index bits,
    # against mult0 + multm1 of trivial_multiplicities over the class sizes
    # read off its symbols and against the forms of check_gap.  The units
    # come as _map hands them to k workers, range(i, 2^top, k): the first
    # unit of a stride may have either value of bit top - 1, which picks
    # the table the forecast builds first
    for order in range(2, 17):
        index = np.arange(2 ** (order - 2), dtype=np.int64)
        symbols = verify._block_symbols(order, index)
        changes = symbols[:, 1:] != symbols[:, :-1]
        h_of = (changes.sum(axis=1) + 1) // 2
        assert verify._scan_h(index).tolist() == h_of.tolist(), order
        expected = np.zeros(len(index), dtype=np.int64)
        for h in np.unique(h_of).tolist():
            rows = np.flatnonzero(h_of == h)
            m, n = verify._class_sizes(changes[rows], order, h)
            mults = map(trivial_multiplicities, map(NsgForm, m.tolist(), n.tolist()))
            expected[rows] = [mult.mult0 + mult.multm1 for mult in mults]
        for top in sorted({0, min(3, order - 2), order - 2}):
            for k in (1, 2, 3):
                for i in range(min(k, 2 ** top)):
                    lows = range(i, 2 ** top, k)
                    for low, forecast in zip(lows, verify._scan_forecast(order, top, lows)):
                        assert forecast.dtype == np.int8
                        assert forecast.tolist() == expected[low::2 ** top].tolist(), (
                            order, top, k, low)
        if order <= 10:
            assert expected.tolist() == [check_gap(form).expected_trivial
                                         for form in connected(order)], order


def test_scan_reports_failures_like_check_gap(monkeypatch):
    # a forecast that is one too high makes every graph fail; each failure
    # and row must carry check_gap's values with that forecast, with rows
    # and without
    honest = verify._scan_forecast

    def one_too_many(order, top, lows):
        return (forecast + 1 for forecast in honest(order, top, lows))

    monkeypatch.setattr(verify, "_scan_forecast", one_too_many)
    report = scan_gap(6, keep_rows=True)
    assert not report.passed and len(report.failures) == report.graphs_checked == 16
    assert scan_gap(6).failures == report.failures
    # rows reach the report from strided units in any order: three workers
    # and units of two graphs still give the failures in index order
    assert scan_gap(6, workers=3).failures == report.failures
    monkeypatch.setattr(verify, "_SWEEP_UNIT_BITS", 1)
    assert scan_gap(6).failures == report.failures
    for failure in report.failures:
        truth = check_gap(creation_to_nsg(parse_creation_sequence(failure.sequence)))
        assert failure == dataclasses.replace(
            truth, expected_trivial=truth.expected_trivial + 1, passed=False)
    rows = report.rows
    assert [(f.sequence, f.count_in_interval, f.expected_trivial, f.min_nontrivial_distance)
            for f in report.failures] == list(zip(
                [seq.decode() for seq in rows.sequence.tolist()], rows.count_in_interval.tolist(),
                rows.expected_trivial.tolist(), rows.min_nontrivial_distance.tolist()))
    lines = "".join(scan_csv(report)).splitlines()
    assert len(lines) == 17 and all(line.endswith(",fail") for line in lines[1:])


def test_scan_without_rows_equals_report_with_rows(monkeypatch):
    # a scan without rows solves only the rows its report needs; the report
    # must be the one every row solved gives, for any worker count and for
    # sweep units of any size: 1 and 8 leaves as well as the default
    full = {(scan, order): dataclasses.replace(scan(order, keep_rows=True), rows=None)
            for scan in (scan_gap, scan_conjecture) for order in range(2, 17)}
    for (scan, order), report in full.items():
        for workers in (1, 2, 3):
            assert scan(order, workers=workers) == report, (scan.__name__, order, workers)
    for unit_bits, orders in ((0, range(2, 13)), (3, range(2, 17))):
        monkeypatch.setattr(verify, "_SWEEP_UNIT_BITS", unit_bits)
        for (scan, order), report in full.items():
            if order in orders:
                assert scan(order) == report, (scan.__name__, order, unit_bits)


def solved_rows(monkeypatch) -> list[int]:
    """Counts the quotients each scan passes to quotient_stack."""
    solved = [0]
    honest = verify.quotient_stack

    def counting(m, n):
        solved[0] += len(m)
        return honest(m, n)

    monkeypatch.setattr(verify, "quotient_stack", counting)
    return solved


def test_scans_pick_rows_by_one_rule(monkeypatch):
    # without rows both kinds pass the same graphs to quotient_stack; a
    # forecast one too high makes a conjecture scan solve every graph, and
    # its report stays the honest one, without failures
    picked = []
    honest_stack = verify.quotient_stack

    def recording(m, n):
        picked.extend(zip(m.tolist(), n.tolist()))
        return honest_stack(m, n)

    monkeypatch.setattr(verify, "quotient_stack", recording)
    for order in range(2, 15):
        chosen = []
        for scan in (scan_gap, scan_conjecture):
            picked.clear()
            scan(order)
            chosen.append(sorted(picked))
        assert chosen[0] == chosen[1], order
    report = scan_conjecture(6)
    honest = verify._scan_forecast
    monkeypatch.setattr(verify, "_scan_forecast", lambda order, top, lows: (
        forecast + 1 for forecast in honest(order, top, lows)))
    picked.clear()
    assert scan_conjecture(6) == report
    assert len(picked) == report.graphs_checked == 16
    assert report.failures == () and report.passed


def test_scan_without_rows_solves_under_one_percent(monkeypatch):
    solved = solved_rows(monkeypatch)
    for scan in (scan_gap, scan_conjecture):
        solved[0] = 0
        assert scan(14).passed
        assert solved[0] < 4096 // 100, scan.__name__
        solved[0] = 0
        scan(14, keep_rows=True)
        # A_n's one solve and the strides' 4095 other rows
        assert solved[0] == 4096, scan.__name__


def test_scan_stacks_hold_one_h_within_the_entry_bound(monkeypatch):
    # a kept-row scan solves every graph once: A_n alone, before the
    # strides, and the others in stacks of forms that all have the stack's
    # h nonempty classes, each stack k graphs of (2h)^2 entries with
    # k * (2h)^2 <= SCAN_BLOCK_ENTRIES, or a single graph
    stacks = []
    honest = verify.quotient_stack

    def recording(m, n):
        stacks.append((m.copy(), n.copy()))
        return honest(m, n)

    monkeypatch.setattr(verify, "quotient_stack", recording)
    for entries, orders in ((SCAN_BLOCK_ENTRIES, range(2, 17)), (100, range(2, 13))):
        monkeypatch.setattr(verify, "SCAN_BLOCK_ENTRIES", entries)
        for scan in (scan_gap, scan_conjecture):
            for order in orders:
                stacks.clear()
                scan(order, keep_rows=True)
                form = anti_regular(order)
                assert [a.tolist() for a in stacks[0]] == [[list(form.m)], [list(form.n)]]
                assert sum(len(m) for m, _ in stacks[1:]) == 2 ** (order - 2) - 1, (entries, order)
                for m, n in stacks:
                    k, h = m.shape
                    assert m.min() >= 1 and n.min() >= 1, (entries, order, h)
                    assert (m.sum(axis=1) + n.sum(axis=1) == order).all(), (entries, order, h)
                    assert k * (2 * h) ** 2 <= entries or k == 1, (entries, order, h, k)
    assert any(len(m) == 1 and 4 * m.shape[1] ** 2 > 100 for m, _ in stacks)


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
    # are empty) and the other admits every one.  Only the thresholds are
    # patched: A_n's solved row reaches the report only where the one-sided
    # pick selects it
    honest = {(scan, order): scan(order)
              for scan in (scan_gap, scan_conjecture) for order in range(3, 13)}
    prune = verify._prune_thresholds
    for one_sided in (lambda order: (0.0, -float(order)), lambda order: (float(order), -1.0)):
        monkeypatch.setattr(verify, "_prune_thresholds",
                            lambda order, side=one_sided: (*side(order), *prune(order)[2:]))
        for (scan, order), report in honest.items():
            assert scan(order) == report, (scan.__name__, order)


def test_antiregular_row_is_solved_once_bit_for_bit():
    # the row that strides copy for A_n is, at every order a scan can reach,
    # bit for bit what solving A_n's index gives, in all four columns, and
    # the thresholds are its etas, as check_antiregular_bounds finds them on
    # the whole spectrum
    for order in range(2, ORDER_CEILING + 1):
        t_plus, t_minus, index, columns = verify._prune_thresholds(order)
        assert columns[0][0].decode() == str(nsg_to_creation(anti_regular(order)))
        assert str(sequence_at(order, index, connected_only=True)) == columns[0][0].decode()
        solved = verify._solve(order, np.array([index]))
        assert len(columns) == len(solved) == 4
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in solved]
        bounds = check_antiregular_bounds(order)
        assert (t_plus, t_minus) == (bounds.eta_plus, bounds.eta_minus or -order), order


def test_scans_take_every_row_from_eta_extremes_and_clearance(monkeypatch, capsys):
    # a wrong eta+ or clearance, injected where every solved row is read
    # (A_n's row of _prune_thresholds included), reaches every report: both
    # kinds' eta+ extreme, with and without rows and with 1 or 2 workers,
    # and every row's eta+ and, in a gap scan, its clearance.  Without
    # rows, A_n is the only row solved up to order 24, so a value that
    # bypasses these two functions would leave the reports unchanged
    shift = 1e-6
    honest_eta, honest_clearance = verify.eta_extremes, verify._clearance
    cases = [(scan, order, keep_rows, workers) for scan in (scan_gap, scan_conjecture)
             for order in range(2, 17) for keep_rows in (False, True) for workers in (1, 2)]
    honest = {case: case[0](case[1], workers=case[3], keep_rows=case[2]) for case in cases}
    cli.main(["scan-gap", "--order", "13", "--format", "json"])
    honest_out = capsys.readouterr().out

    def wrong_eta(values):
        plus, minus = honest_eta(values)
        return plus + shift, minus

    monkeypatch.setattr(verify, "eta_extremes", wrong_eta)
    monkeypatch.setattr(verify, "_clearance", lambda values: honest_clearance(values) + shift)
    for case, report in honest.items():
        scan, order, keep_rows, workers = case
        shifted = scan(order, workers=workers, keep_rows=keep_rows)
        assert shifted.extremal_eta_plus[0] == report.extremal_eta_plus[0] + shift, case
        assert shifted.extremal_eta_minus == report.extremal_eta_minus, case
        if keep_rows:
            assert np.array_equal(shifted.rows.eta_plus, report.rows.eta_plus + shift), case
            assert np.array_equal(shifted.rows.eta_minus, report.rows.eta_minus), case
            if scan is scan_gap:
                assert np.array_equal(shifted.rows.min_nontrivial_distance,
                                      report.rows.min_nontrivial_distance + shift), case
    assert_no_children()
    cli.main(["scan-gap", "--order", "13", "--format", "json"])
    assert capsys.readouterr().out != honest_out


def test_scans_stack_antiregular_once_before_the_strides(monkeypatch, tmp_path):
    # every scan, of either kind, with or without rows and with 1 or 3
    # workers, stacks A_n's class sizes once, alone and in the scan process,
    # before any stride runs; no stride, in the parent or in a forked
    # worker, stacks A_n's index again.  Stacks are logged to a file, as
    # forked workers share no memory with the test
    log = tmp_path / "stacks"
    honest = verify.quotient_stack

    def recording(m, n):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), m.tolist(), n.tolist()]) + "\n")
        return honest(m, n)

    monkeypatch.setattr(verify, "quotient_stack", recording)
    for order in range(2, 15):
        form = anti_regular(order)
        antiregular = (list(form.m), list(form.n))
        for scan in (scan_gap, scan_conjecture):
            for keep_rows in (False, True):
                for workers in (1, 3):
                    log.write_text("")
                    scan(order, workers=workers, keep_rows=keep_rows)
                    first, *strides = map(json.loads, log.read_text().splitlines())
                    case = (scan.__name__, order, keep_rows, workers)
                    assert first == [os.getpid(), [antiregular[0]], [antiregular[1]]], case
                    assert all(antiregular not in zip(m, n) for _, m, n in strides), case
                    if keep_rows:
                        assert sum(len(m) for _, m, _ in strides) == 2 ** (order - 2) - 1, case
                        if workers == 3 and order >= 4:  # the log reaches forked workers
                            assert {pid for pid, _, _ in strides} - {os.getpid()}, case
    assert_no_children()


def test_scan_reports_antiregular_failure_with_its_swept_counts(monkeypatch):
    # A_n's row is copied from its one solve, but its interval count and
    # forecast come from the sweep, as every row's do: a forecast one too
    # high makes A_n fail with check_gap's values and that forecast
    honest = verify._scan_forecast
    monkeypatch.setattr(verify, "_scan_forecast", lambda order, top, lows: (
        forecast + 1 for forecast in honest(order, top, lows)))
    for order in range(2, 11):
        truth = check_gap(anti_regular(order))
        expected = dataclasses.replace(truth, expected_trivial=truth.expected_trivial + 1,
                                       passed=False)
        for keep_rows in (False, True):
            for workers in (1, 3):
                report = scan_gap(order, workers=workers, keep_rows=keep_rows)
                assert len(report.failures) == report.graphs_checked
                assert [f for f in report.failures if f.sequence == truth.sequence] == [
                    expected], (order, keep_rows, workers)
    assert_no_children()


def test_scan_rows_collection():
    report = scan_gap(5, keep_rows=True)
    rows = report.rows
    assert rows is not None and len(rows.sequence) == 8
    assert rows.count_in_interval.tolist() == rows.expected_trivial.tolist()
    assert scan_gap(5).rows is None
    conjecture = scan_conjecture(5, keep_rows=True).rows
    assert conjecture.count_in_interval is None and len(conjecture.sequence) == 8
    # rows compare column by column, exactly
    assert rows == ScanRows(*(None if c is None else c.copy() for c in vars(rows).values()))
    assert rows != conjecture
    assert rows != ScanRows(*(None if c is None else c[:7] for c in vars(rows).values()))
    nudged = rows.eta_plus.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert rows != dataclasses.replace(rows, eta_plus=nudged)


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
            values = assemble_spectrum(creation_to_nsg(seq))
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
