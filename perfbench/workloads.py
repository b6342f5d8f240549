"""The three workloads: seeded inputs, a timed closed loop of in-process CLI
calls, and a check of every output against an independent route (oracle.py).

Only the ``thresholdlab.cli.main`` call is inside the timed region.  Input
generation, oracle work and output checks happen outside it.  Each distinct
request is checked in full once; a repeat that prints the same bytes with
the same exit code gets the same verdict.

Each request is timed twice: wall-clock, and CPU time of this process plus
its reaped children (the pool workers of a scan).  The end-to-end metrics
come from the CPU time, divided by the host's speed of the moment as the
yardstick (yardstick.py) measures it between requests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import oracle
import yardstick
from tracing import LAYERS, Tracer

GAP_ORDER = 13  # one scan takes 0.55-1.3 s with one worker, as the host's speed goes
CONJ_ORDER = 15  # one scan takes 0.2-0.55 s with two workers: 50 or more repeats a run
CONJ_WORKERS = 2
YARDSTICK_EVERY = 0.2  # wall seconds of requests between two yardstick runs
SAMPLE_GRAPHS = 16  # seeded graphs per sweep checked one by one against the dense route
PER_KIND = 40  # distinct single-check requests of each kind
GAP_ORDERS = (20, 200)
ANTIREGULAR_ORDERS = (20, 400)


@dataclass
class Request:
    argv: list[str]
    graphs: int  # connected graphs the request checks
    check: object  # (exit code, stdout) -> problem text or None
    pool: bool = False  # runs pool workers, whose CPU time must show up as reaped children
    seen: tuple | None = None  # (exit code, stdout, problem) of the last full check


def cpu_clock() -> tuple[float, float]:
    """(CPU seconds of this process, CPU seconds of its reaped children)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


@dataclass
class Phase:
    """Timed requests of one loop: CPU and wall seconds, graphs checked and failures."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    yard: list[float] = field(default_factory=list)  # yardstick CPU seconds around each request
    requests: list[Request] = field(default_factory=list)
    graphs: int = 0
    failed: int = 0


@dataclass
class Outcome:
    phases: dict[str, Phase]  # the end-to-end metrics come from phases["timed"]
    problems: list[str]
    layer: dict[str, float] | None = None
    tracer: Tracer | None = None


class Runner:
    """Sends requests to ``cli.main`` and checks the replies."""

    def __init__(self, cli, workdir, seed: int):
        self.cli = cli
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.problems: list[str] = []

    def call(self, argv: list[str]) -> tuple[float, float, float, int | None, str]:
        """(CPU seconds of this process, of its reaped children, wall seconds, exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            own, children = cpu_clock()
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except Exception as exc:  # a raising request is a failed operation, not a crash
                code = None
                print(f"raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            own_end, children_end = cpu_clock()
        return own_end - own, children_end - children, wall, code, buf.getvalue()

    def verdict(self, request: Request, code: int | None, text: str) -> str | None:
        if request.seen is not None and request.seen[:2] == (code, text):
            return request.seen[2]
        try:
            problem = request.check(code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        request.seen = (code, text, problem)
        return problem

    def drive(self, requests, seconds: float | None = None) -> Phase:
        """Closed loop, one client: the next request starts when the last returns.

        Stops when ``requests`` runs out or after ``seconds`` of timed wall time.
        The yardstick runs before the first request, after the last, and
        whenever YARDSTICK_EVERY seconds of requests have passed since it last
        ran; each request gets the mean of the two runs around it.
        """
        phase = Phase()
        busy = 0.0
        before = yardstick.cpu_seconds()
        window = 0.0

        def close_window():
            nonlocal before, window
            after = yardstick.cpu_seconds()
            phase.yard.extend([(before + after) / 2] * (len(phase.wall) - len(phase.yard)))
            before, window = after, 0.0

        for request in requests:
            if seconds is not None and busy >= seconds:
                break
            own, children, wall, code, text = self.call(request.argv)
            busy += wall
            window += wall
            phase.cpu.append(own + children)
            phase.wall.append(wall)
            phase.requests.append(request)
            phase.graphs += request.graphs
            problem = self.verdict(request, code, text)
            if request.pool and children <= 0.0:
                # CPU time of workers that outlive the call is not visible here;
                # leaving it out would read as a gain, so the run is refused.
                problem = problem or "no worker CPU time seen after a pooled request"
            if problem:
                phase.failed += 1
                self.problems.append(f"{' '.join(request.argv)}: {problem}")
            if window >= YARDSTICK_EVERY:
                close_window()
        close_window()
        return phase

    def untimed(self, request: Request) -> tuple[str, str | None]:
        """One checked call outside any timed phase; a problem makes the run incorrect.

        Also used before timing, so that lazy set-up (imports, the first pool)
        is not measured.
        """
        *_, code, text = self.call(request.argv)
        problem = self.verdict(request, code, text)
        if problem:
            self.problems.append(f"{' '.join(request.argv)}: {problem}")
        return text, problem


def traced(runner: Runner, requests, seconds: float | None = None) -> tuple[Phase, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        phase = runner.drive(requests, seconds)
    finally:
        tracer.uninstall()
    return phase, tracer


# ---------------------------------------------------------------- checks


def _exit(code, expected: int) -> str | None:
    return None if code == expected else f"exit code {code}, expected {expected}"


def _extremal_problems(order: int, found: dict[str, tuple[float | None, str]]) -> list[str]:
    """The extremes must sit at A_order with eta values of its dense spectrum."""
    symbols = oracle.antiregular_symbols(order)
    facts = oracle.dense_facts(symbols)
    out = []
    for side, expected in (("eta_plus", facts.eta_plus), ("eta_minus", facts.eta_minus)):
        value, at = found[side]
        if at != symbols:
            out.append(f"extremal {side} at {at}, expected A_{order} = {symbols}")
        if not oracle.close(value, expected):
            out.append(f"extremal {side} {value} differs from dense {expected}")
    return out


def check_gap_scan(order: int):
    def check(code, text):
        problem = _exit(code, 0)
        if problem:
            return problem
        report = json.loads(text)
        problems = []
        if report["graphs_checked"] != 2 ** (order - 2):
            problems.append(f"graphs_checked {report['graphs_checked']}, expected {2 ** (order - 2)}")
        if report["verdict"] != "pass" or report["failures"]:
            problems.append("verdict is not a clean pass")
        problems += _extremal_problems(order, {
            "eta_plus": tuple(report["extremal_eta_plus"]),
            "eta_minus": tuple(report["extremal_eta_minus"]),
        })
        return "; ".join(problems) or None
    return check


def check_conjecture_csv(order: int, sample: list[int]):
    def check(code, text):
        problem = _exit(code, 0)
        if problem:
            return problem
        lines = text.splitlines()
        if lines[0] != "sequence,order,eta_plus,eta_minus":
            return f"unexpected header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != 2 ** (order - 2):
            return f"{len(rows)} rows, expected {2 ** (order - 2)}"
        problems = []
        for index, row in enumerate(rows):
            if row[0] != oracle.connected_symbols(order, index) or row[1] != str(order):
                problems.append(f"row {index} is {row[:2]}, expected "
                                f"{oracle.connected_symbols(order, index)},{order}")
                break
        plus = [float(r[2]) if r[2] else None for r in rows]
        minus = [float(r[3]) if r[3] else None for r in rows]
        antiregular = int(oracle.antiregular_symbols(order)[1:-1], 2)

        def extreme(values, pick):
            # rows carry 12 digits, so A_N only has to tie with the extreme
            best = pick(v for v in values if v is not None)
            at = antiregular if values[antiregular] == best else values.index(best)
            return best, rows[at][0]

        problems += _extremal_problems(order, {"eta_plus": extreme(plus, min),
                                               "eta_minus": extreme(minus, max)})
        for index in sample:
            facts = oracle.dense_facts(rows[index][0])
            if not (oracle.close(plus[index], facts.eta_plus)
                    and oracle.close(minus[index], facts.eta_minus)):
                problems.append(f"row {rows[index]} differs from dense "
                                f"({facts.eta_plus}, {facts.eta_minus})")
        return "; ".join(problems) or None
    return check


def check_single_gap(order: int, facts: oracle.DenseFacts, degrees: list[int]):
    def check(code, text):
        problem = _exit(code, 0)
        if problem:
            return problem
        report = json.loads(text)
        problems = []
        if report["verdict"] != "pass" or report["order"] != order:
            problems.append(f"verdict {report['verdict']} at order {report['order']}")
        if report["count_in_interval"] != facts.gap_count:
            problems.append(f"count {report['count_in_interval']}, dense {facts.gap_count}")
        if report["expected_trivial"] != facts.trivial_count:
            problems.append(f"forecast {report['expected_trivial']}, dense {facts.trivial_count}")
        if not oracle.close(report["min_nontrivial_distance"], facts.clearance):
            problems.append(f"clearance {report['min_nontrivial_distance']}, dense {facts.clearance}")
        if sorted(oracle.degrees(report["sequence"])) != degrees:
            problems.append(f"sequence {report['sequence']} does not rebuild the input degrees")
        return "; ".join(problems) or None
    return check


def check_recognize(path):
    def check(code, text):
        _, adj = oracle.read_edge_file(path)
        reply = json.loads(text)
        if oracle.peel(adj) is not None:
            problem = _exit(code, 0)
            if problem or not reply["threshold_graph"]:
                return problem or "threshold graph reported as not threshold"
            if sorted(oracle.degrees(reply["sequence"])) != sorted(len(a) for a in adj):
                return f"sequence {reply['sequence']} does not rebuild the input degrees"
            return None
        problem = _exit(code, 2)
        if problem or reply["threshold_graph"]:
            return problem or "non-threshold graph reported as threshold"
        witness = set(reply["witness_vertices"])
        induced = {(u, v) for u in witness for v in adj[u] & witness if u < v}
        if {tuple(sorted(e)) for e in reply["witness_edges"]} != induced:
            return "witness edges are not the induced edges of the input"
        if any(len(adj[v] & witness) in (0, len(witness) - 1) for v in witness):
            return "witness has an isolated or dominating vertex"
        if oracle.forbidden_quad(adj, witness) is None:
            return "no induced P4, C4 or 2K2 inside the witness"
        return None
    return check


def check_antiregular(order: int, facts: oracle.DenseFacts):
    def check(code, text):
        problem = _exit(code, 0)
        if problem:
            return problem
        report = json.loads(text)
        if report["verdict"] != "pass" or report["order"] != order:
            return f"verdict {report['verdict']} at order {report['order']}"
        if not (oracle.close(report["eta_plus"], facts.eta_plus)
                and oracle.close(report["eta_minus"], facts.eta_minus)):
            return (f"eta ({report['eta_plus']}, {report['eta_minus']}) differs from dense "
                    f"({facts.eta_plus}, {facts.eta_minus})")
        return None
    return check


# ---------------------------------------------------------------- workloads


def gap_sweep(runner: Runner, seconds: float, trace: bool) -> Outcome:
    order = GAP_ORDER
    scan = Request(["scan-gap", "--order", str(order), "--workers", "1", "--format", "json"],
                   2 ** (order - 2), check_gap_scan(order))
    runner.untimed(scan)
    if trace:
        plain = runner.drive(itertools.repeat(scan), seconds=seconds / 2)
        under, tracer = traced(runner, itertools.repeat(scan), seconds=seconds / 2)
        phases = {"timed": plain, "traced": under}
    else:
        phases = {"timed": runner.drive(itertools.repeat(scan), seconds=seconds)}
    for index in runner.rng.sample(range(2 ** (order - 2)), SAMPLE_GRAPHS):
        symbols = oracle.connected_symbols(order, index)
        facts = oracle.dense_facts(symbols)
        runner.untimed(Request(["check-gap", "--seq", symbols, "--format", "json"], 1,
                               check_single_gap(order, facts, sorted(oracle.degrees(symbols)))))
    if not trace:
        return Outcome(phases, runner.problems)
    return Outcome(phases, runner.problems, layer_metrics(tracer, under, plain), tracer)


def conjecture_sweep(runner: Runner, seconds: float, trace: bool) -> Outcome:
    order = CONJ_ORDER

    def argv(workers):
        return ["scan-conjecture", "--order", str(order), "--workers", str(workers),
                "--format", "csv"]

    sample = runner.rng.sample(range(2 ** (order - 2)), SAMPLE_GRAPHS)
    reference, reference_problem = runner.untimed(
        Request(argv(1), 2 ** (order - 2), check_conjecture_csv(order, sample)))

    def same_bytes(code, text):
        """Any worker count must print the 1-worker CSV byte for byte, and that CSV must be right."""
        return _exit(code, 0) or (
            reference_problem if text == reference else "CSV differs from the 1-worker CSV")

    def scans(workers):
        return itertools.repeat(Request(argv(workers), 2 ** (order - 2), same_bytes,
                                        pool=workers > 1))

    runner.untimed(next(scans(CONJ_WORKERS)))
    if not trace:
        return Outcome({"timed": runner.drive(scans(CONJ_WORKERS), seconds=seconds)},
                       runner.problems)
    parallel = runner.drive(scans(CONJ_WORKERS), seconds=seconds / 3)
    plain = runner.drive(scans(1), seconds=seconds / 3)
    under, tracer = traced(runner, scans(1), seconds=seconds / 3)
    phases = {"timed": parallel, "timed_1_worker": plain, "traced": under}
    efficiency = statistics.median(plain.wall) / (
        CONJ_WORKERS * statistics.median(parallel.wall))
    return Outcome(phases, runner.problems,
                   layer_metrics(tracer, under, plain, parallel_efficiency=efficiency), tracer)


def _relabelled_edge_file(rng: random.Random, path, order: int, edges) -> None:
    perm = rng.sample(range(order), order)
    lines = [f"{perm[u]} {perm[v]}" if rng.random() < 0.5 else f"{perm[v]} {perm[u]}"
             for u, v in edges]
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{order} {len(lines)}\n" + "\n".join(lines) + "\n")


def _orders(bounds: tuple[int, int]) -> list[int]:
    """PER_KIND evenly spaced orders: every seed gets the same sizes, so the
    latency percentiles do not move with the seed's draw of sizes."""
    lo, hi = bounds
    return [lo + (hi - lo) * (2 * k + 1) // (2 * PER_KIND) for k in range(PER_KIND)]


def _half_dense_symbols(rng: random.Random, order: int) -> str:
    """A random connected creation sequence whose graph has half of all pairs
    as edges, within 2%.  Parsing and recognition cost grow with the edges,
    so fixing their number keeps each request's cost the same from seed to
    seed, and with it the latency percentiles."""
    target = order * (order - 1) / 4
    while True:
        symbols = "0" + "".join(rng.choice("01") for _ in range(order - 2)) + "1"
        if abs(sum(i for i, c in enumerate(symbols) if c == "1") - target) <= 0.02 * target:
            return symbols


def single_requests(rng: random.Random, workdir) -> list[Request]:
    requests = []
    for k, order in enumerate(_orders(GAP_ORDERS)):
        symbols = _half_dense_symbols(rng, order)
        path = workdir / f"gap-{k}.txt"
        _relabelled_edge_file(rng, path, order, oracle.edges(symbols))
        requests.append(Request(["check-gap", "--edges", str(path), "--format", "json"], 1,
                                check_single_gap(order, oracle.dense_facts(symbols),
                                                 sorted(oracle.degrees(symbols)))))
    for k, order in enumerate(_orders(GAP_ORDERS)):
        symbols = _half_dense_symbols(rng, order)
        edges = set(oracle.edges(symbols))
        # Peeling strips the vertices created after v before it can get stuck,
        # so a toggle at the middle vertex v gives a witness of about half the
        # graph for every seed; a random v would make the cost a lottery.
        v = order // 2
        edges ^= {(rng.randrange(v), v)}
        path = workdir / f"recognize-{k}.txt"
        _relabelled_edge_file(rng, path, order, sorted(edges))
        requests.append(Request(["recognize", "--edges", str(path), "--format", "json"], 1,
                                check_recognize(path)))
    for order in _orders(ANTIREGULAR_ORDERS):
        facts = oracle.dense_facts(oracle.antiregular_symbols(order))
        requests.append(Request(["check-antiregular", "--order", str(order), "--format", "json"],
                                1, check_antiregular(order, facts)))
    return requests


def _shuffled_cycles(rng: random.Random, requests: list[Request]):
    while True:
        batch = requests[:]
        rng.shuffle(batch)
        yield from batch


def single_checks(runner: Runner, seconds: float, trace: bool) -> Outcome:
    requests = single_requests(runner.rng, runner.workdir)
    for kind in range(0, len(requests), PER_KIND):
        runner.untimed(requests[kind])
    stream = _shuffled_cycles(runner.rng, requests)
    if not trace:
        return Outcome({"timed": runner.drive(stream, seconds=seconds)}, runner.problems)
    plain = runner.drive(stream, seconds=seconds / 2)
    under, tracer = traced(runner, plain.requests)
    return Outcome({"timed": plain, "traced": under}, runner.problems,
                   layer_metrics(tracer, under, plain), tracer)


WORKLOADS = {
    "gap-sweep": gap_sweep,
    "conjecture-sweep": conjecture_sweep,
    "single-checks": single_checks,
}


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _pass_metrics(costs: list[tuple[int, float]], rate: str, ms: str,
                  suffix: str = "") -> dict[str, float]:
    """Metrics of one pass over the distinct requests, given (graphs, seconds) of each."""
    times = [t * 1e3 for _, t in costs]
    busy = sum(t for _, t in costs)
    return {
        f"graphs_per_{rate}{suffix}": sum(g for g, _ in costs) / busy,
        f"requests_per_{rate}{suffix}": len(costs) / busy,
        f"{ms}_p50{suffix}": statistics.median(times),
        f"{ms}_p90{suffix}": percentile(times, 90),
    }


def request_metrics(phase: Phase) -> dict[str, float]:
    """End-to-end metrics of a timed phase.

    A request's normalized cost is its CPU time times yardstick.NOMINAL_S
    over the yardstick's CPU time around it: the CPU time it would take on a
    host running the yardstick in NOMINAL_S.  A distinct request costs the
    median of that over its repeats.  The rates are those of one pass over
    the distinct requests, and the percentiles are over the distinct
    requests.  The same figures from the median raw CPU time (``_raw``) and
    wall time (``graphs_per_s``, ``requests_per_s``, ``latency_ms_p50``,
    ``latency_ms_p90``) are reported on the side, with ``graphs_per_s_p10``,
    the 10th percentile of the per-request rate over every timed request.
    """
    repeats: dict[int, tuple[int, list[float], list[float], list[float]]] = {}
    for request, cpu, wall, yard in zip(phase.requests, phase.cpu, phase.wall, phase.yard):
        graphs, norm, cpus, walls = repeats.setdefault(id(request), (request.graphs, [], [], []))
        norm.append(cpu * yardstick.NOMINAL_S / yard)
        cpus.append(cpu)
        walls.append(wall)
    groups = repeats.values()
    out = {}
    for index, (rate, ms, suffix) in enumerate((("cpu_s", "cpu_ms", "_norm"),
                                                ("cpu_s", "cpu_ms", "_raw"),
                                                ("s", "latency_ms", "")), start=1):
        out.update(_pass_metrics([(group[0], statistics.median(group[index])) for group in groups],
                                 rate, ms, suffix))
    out["graphs_per_s_p10"] = percentile(
        [r.graphs / t for r, t in zip(phase.requests, phase.wall)], 10)
    out["yardstick_ms_min"] = min(phase.yard) * 1e3
    out["yardstick_ms_max"] = max(phase.yard) * 1e3
    return out


PER_CALL = ("graphs.sequence_at", "graphs.creation_to_nsg", "graphs.nsg_to_graph",
            "graphs.recognize", "spectra.tridiagonalize", "spectra.assemble_spectrum",
            "spectra.symmetric_eigenvalues", "spectra.trivial_multiplicities",
            "spectra.eta_extremes", "verify.check_antiregular_bounds",
            "formats.parse_edge_list", "formats.to_json")
PER_GRAPH = ("spectra.tridiagonalize", "spectra.assemble_spectrum", "spectra.symmetric_eigenvalues")
SELF_PER_CALL = ("verify.check_gap", "cli.main")
SCANS = ("verify.scan_gap", "verify.scan_conjecture")


def layer_metrics(tracer: Tracer, under: Phase, plain: Phase,
                  parallel_efficiency: float = 0.0) -> dict[str, float]:
    """Per-layer numbers of the traced phase; 0 where the workload never calls a function."""
    wall = sum(under.wall)
    out = {}
    for name in PER_CALL:
        calls, total, _ = tracer.stats(name)
        out[f"{name}.us_per_call"] = total / calls * 1e6 if calls else 0.0
    for name in PER_GRAPH:
        out[f"{name}.calls_per_graph"] = tracer.stats(name)[0] / under.graphs
    for name in SELF_PER_CALL:
        calls, _, own = tracer.stats(name)
        out[f"{name}.self_us_per_call"] = own / calls * 1e6 if calls else 0.0
    scans = sum(tracer.stats(name)[0] for name in SCANS)
    scan_self = sum(tracer.stats(name)[2] for name in SCANS)
    out["verify.scan.self_s"] = scan_self / scans if scans else 0.0
    out["verify.parallel_efficiency"] = parallel_efficiency
    calls, total, _ = tracer.stats("formats.scan_rows_csv")
    out["formats.scan_rows_csv.us_per_row"] = total / under.graphs * 1e6 if calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_share"] = tracer.layer_self(layer) / wall
    out["tracing_overhead_ratio"] = (statistics.fmean(under.wall)
                                     / statistics.fmean(plain.wall))
    return out
