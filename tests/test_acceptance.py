"""Acceptance sweep: the headline claims, checked whole at desk scale.

Each test prints a single PASS/FAIL line (run with -s to see them alongside
the pytest output) and then asserts, so the printed verdicts and the suite
verdicts cannot drift apart.
"""

import itertools
import math
import time

import numpy as np

import oracles
from thresholdlab.graphs import (
    CreationSequence,
    anti_regular,
    build_adjacency,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    parse_creation_sequence,
    recognize,
)
from thresholdlab.spectra import (
    assemble_spectrum,
    count_eigs_leq,
    eta_extremes,
    trivial_multiplicities,
)
from thresholdlab.verify import (
    GAP_LOWER,
    GAP_UPPER,
    check_antiregular_bounds,
    check_gap,
    check_reduction,
    reducing_vertex,
    reduction_chain,
    scan_conjecture,
)


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def all_graphs(max_order):
    for order in range(1, max_order + 1):
        yield from enumerate_threshold(order)


def test_criterion_1_interval_census():
    # no eigenvalue other than the trivial 0 and -1 falls in the interval,
    # for every threshold graph through order 14, by exact inertia counting
    t0 = time.perf_counter()
    checked = 0
    failures = []
    min_clearance = math.inf
    for seq in all_graphs(14):
        result = check_gap(creation_to_nsg(seq))
        checked += 1
        if not result.passed:
            failures.append(result)
        min_clearance = min(min_clearance, result.min_nontrivial_distance)
    elapsed = time.perf_counter() - t0
    ok = not failures and min_clearance > 1e-6 and elapsed < 120.0
    assert report(
        1,
        ok,
        f"interval census orders 1..14: {checked} graphs, {len(failures)} failures, "
        f"min nontrivial clearance {min_clearance:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_trivial_multiplicities():
    checked = 0
    bad = 0
    for seq in all_graphs(12):
        form = creation_to_nsg(seq)
        mults = trivial_multiplicities(form)
        vals = oracles.dense_spectrum(build_adjacency(seq))
        near0 = int(np.count_nonzero(np.abs(vals) <= 1e-7))
        nearm1 = int(np.count_nonzero(np.abs(vals + 1.0) <= 1e-7))
        checked += 1
        if (near0, nearm1) != (mults.mult0, mults.multm1):
            bad += 1
    assert report(
        2,
        bad == 0,
        f"multiplicity formulas orders 1..12: {checked} graphs, {bad} mismatches",
    )


def test_criterion_3_assembly_matches_dense():
    checked = 0
    worst = 0.0
    for seq in all_graphs(12):
        assembled = assemble_spectrum(creation_to_nsg(seq))
        dense = oracles.dense_spectrum(build_adjacency(seq))
        worst = max(worst, float(np.max(np.abs(assembled - dense), initial=0.0)))
        checked += 1
    assert report(
        3,
        worst < 1e-7,
        f"assembled vs dense orders 1..12: {checked} graphs, worst pairwise error {worst:.2e}",
    )


def test_criterion_4_interlacing_all_deletions():
    tol = 1e-7
    deletions = 0
    violations = 0
    for seq in all_graphs(10):
        parent = build_adjacency(seq).astype(float)
        lams = np.linalg.eigvalsh(parent)[::-1]
        for v in range(seq.order):
            child = np.delete(np.delete(parent, v, axis=0), v, axis=1)
            mus = np.linalg.eigvalsh(child)[::-1] if seq.order > 1 else np.empty(0)
            deletions += 1
            for i, mu in enumerate(mus):
                if not (lams[i] + tol >= mu >= lams[i + 1] - tol):
                    violations += 1
                    break
    assert report(
        4,
        violations == 0,
        f"interlacing orders 1..10: {deletions} single-vertex deletions, "
        f"{violations} violations",
    )


def test_criterion_5_reduction_chains():
    tol = 1e-8
    eta_cache = {}

    def etas(form):
        if form not in eta_cache:
            eta_cache[form] = eta_extremes(assemble_spectrum(form))
        return eta_cache[form]

    chains = 0
    step_failures = 0
    monotone_failures = 0
    stuck = 0
    for order in range(2, 15):
        for seq in enumerate_threshold(order, connected_only=True):
            form = creation_to_nsg(seq)
            if form.antiregular:
                continue
            chains += 1
            steps = reduction_chain(form)
            if not steps or not steps[-1].child.antiregular:
                stuck += 1
                continue
            for step in steps:
                if not check_reduction(step):
                    step_failures += 1
                p_plus, p_minus = etas(step.parent)
                c_plus, c_minus = etas(step.child)
                if np.isfinite(p_plus) and np.isfinite(c_plus) and c_plus > p_plus + tol:
                    monotone_failures += 1
                if np.isfinite(p_minus) and np.isfinite(c_minus) and c_minus < p_minus - tol:
                    monotone_failures += 1
    ok = step_failures == 0 and monotone_failures == 0 and stuck == 0
    assert report(
        5,
        ok,
        f"reduction chains orders 2..14: {chains} graphs, {step_failures} relation "
        f"failures, {monotone_failures} monotonicity failures, {stuck} non-terminating",
    )


def test_criterion_6_antiregular_bounds_to_500():
    # the interval endpoints are the n -> infinity limits of eta+-(A_n), so no
    # fixed clearance can hold at every order; check_antiregular_bounds only
    # promises the strict inequalities.  Measured on both sides, n^2 times the
    # clearance stays within [1.58, 10.9] for n = 2..500 (lowest at n = 7, 8)
    # and approaches ~1.74, so each existing side must clear its endpoint by
    # more than 1/n^2.  That floor still fails if a clearance collapses faster
    # than 1/n^2 or an endpoint or the quotient is off by a few 1e-6.
    t0 = time.perf_counter()
    bad = 0
    worst = (math.inf, None)
    for order in range(2, 501):
        result = check_antiregular_bounds(order)
        if not result.passed:
            bad += 1
        scaled = order * order * (result.eta_plus - GAP_UPPER)
        if result.eta_minus is not None:
            scaled = min(scaled, order * order * (GAP_LOWER - result.eta_minus))
        worst = min(worst, (scaled, order))
    elapsed = time.perf_counter() - t0

    # cross-check each side of the largest order against the dense route
    dense = np.linalg.eigvalsh(build_adjacency(nsg_to_creation(anti_regular(500))).astype(float))
    quotient = check_antiregular_bounds(500)
    routes_agree = (
        abs(float(dense[dense > 1e-8].min()) - quotient.eta_plus) < 1e-10
        and abs(float(dense[dense < -1.0 - 1e-8].max()) - quotient.eta_minus) < 1e-10
    )

    spot4 = check_antiregular_bounds(4)
    spot3 = check_antiregular_bounds(3)
    spots = (
        round(spot4.eta_plus, 4) == 0.3111
        and round(spot4.eta_minus, 4) == -1.4812
        and abs(spot3.eta_plus - math.sqrt(2.0)) < 1e-12
        and abs(spot3.eta_minus + math.sqrt(2.0)) < 1e-12
    )
    ok = bad == 0 and worst[0] > 1.0 and routes_agree and elapsed < 60.0 and spots
    assert report(
        6,
        ok,
        f"anti-regular bounds orders 2..500: {bad} strict-inequality failures, "
        f"worst n^2*clearance {worst[0]:.3f} at n={worst[1]} (floor 1), "
        f"dense route agrees at n=500: {routes_agree}, spot values {'ok' if spots else 'WRONG'}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_conjecture_scan_to_16():
    checked = 0
    off_orders = []
    for order in range(2, 17):
        result = scan_conjecture(order, workers=4 if order >= 13 else 1)
        checked += result.graphs_checked
        if not result.conjecture_holds:
            off_orders.append((order, result.extremal_eta_plus, result.extremal_eta_minus))
    ok = not off_orders
    detail = f"extremal graph is anti-regular at every order ({checked} graphs)"
    if off_orders:
        detail = f"counterexamples found: {off_orders}"
    assert report(7, ok, f"conjecture scan orders 2..16: {detail}")


def test_criterion_8_recognition_vs_forbidden_subgraphs():
    pairs = list(itertools.combinations(range(6), 2))
    quads = list(itertools.combinations(range(6), 4))
    # per quad: positions of its 6 induced pairs in the global pair list
    quad_bits = [
        [pairs.index(p) for p in itertools.combinations(quad, 2)] for quad in quads
    ]
    # 6-bit induced-subgraph patterns that are P_4, 2K_2, or C_4; the pair
    # order inside a quad is (01,02,03,12,13,23) regardless of labels
    local_pairs = list(itertools.combinations(range(4), 2))
    forbidden_pattern = []
    for sub in range(64):
        degs = [0, 0, 0, 0]
        edge_count = 0
        for i, (u, v) in enumerate(local_pairs):
            if sub >> i & 1:
                degs[u] += 1
                degs[v] += 1
                edge_count += 1
        forbidden_pattern.append(
            (edge_count, tuple(sorted(degs))) in ((3, (1, 1, 2, 2)), (2, (1, 1, 1, 1)), (4, (2, 2, 2, 2)))
        )

    disagreements = 0
    for mask in range(1 << len(pairs)):
        oracle_threshold = not any(
            forbidden_pattern[sum(((mask >> b) & 1) << k for k, b in enumerate(bits))]
            for bits in quad_bits
        )
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        recognized = isinstance(recognize(edges, 6), CreationSequence)
        if recognized != oracle_threshold:
            disagreements += 1
    assert report(
        8,
        disagreements == 0,
        f"recognition vs forbidden-subgraph search: 32768 labeled graphs on 6 vertices, "
        f"{disagreements} disagreements",
    )


def test_criterion_9_counting_vs_dense():
    rng = np.random.default_rng(20260825)
    comparisons = 0
    mismatches = 0
    for _ in range(100):
        order = int(rng.integers(1, 21))
        bits = "0" + "".join(rng.choice(["0", "1"], size=order - 1))
        seq = parse_creation_sequence(bits)
        dense_vals = np.linalg.eigvalsh(build_adjacency(seq).astype(float))
        for x in rng.uniform(-order - 1.0, order + 1.0, size=200):
            comparisons += 1
            if count_eigs_leq(seq, float(x)) != int(np.count_nonzero(dense_vals <= x)):
                mismatches += 1
    assert report(
        9,
        mismatches == 0,
        f"inertia counting vs dense counting: {comparisons} comparisons on 100 random "
        f"graphs, {mismatches} mismatches",
    )
