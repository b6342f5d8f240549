"""Text and file formats: NSG strings, edge-list files, CSV/JSON reports.

Formats:
  * creation sequences: '0'/'1' strings;
  * NSG text: ``nsg(m1,...,mh;n1,...,nh[;+k])``, ``+k`` = isolated count,
    e.g. ``nsg(3;2)``, ``nsg(1,2;1,1)``, ``nsg(;;+3)`` for 3K_1;
  * edge lists: first line ``n m`` with n <= EDGE_ORDER_CAP, then m lines
    ``u v`` (0-based); lines starting with ``#`` are comments;
  * spectra as CSV rows: sequence, order, eigenvalues descending at 12
    significant digits.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable

from .graphs import NsgForm
from .spectra import Spectrum
from .verify import BoundsReport, GapReport, InterlacingReport, ReductionStep, ScanReport

# Recognition builds an n x n matrix from the header's n, so an edge file
# may not ask for more vertices than this.
EDGE_ORDER_CAP = 2000


def sig12(x: float) -> str:
    """12-significant-digit rendering used by plain and CSV output."""
    return f"{x:.12g}"


def format_nsg(form: NsgForm) -> str:
    m = ",".join(str(x) for x in form.m)
    n = ",".join(str(x) for x in form.n)
    if form.isolated:
        return f"nsg({m};{n};+{form.isolated})"
    return f"nsg({m};{n})"


def parse_nsg(text: str) -> NsgForm:
    body = text.strip()
    if not (body.startswith("nsg(") and body.endswith(")")):
        raise ValueError(f"expected nsg(m1,...;n1,...[;+k]), got {text!r}")
    parts = body[4:-1].split(";")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected two or three ';'-separated groups in {text!r}")

    def _sizes(chunk: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(int(tok) for tok in chunk.split(","))

    isolated = 0
    if len(parts) == 3:
        tail = parts[2].strip()
        if not tail.startswith("+"):
            raise ValueError(f"isolated count must look like '+k', got {tail!r}")
        isolated = int(tail[1:])
    return NsgForm(_sizes(parts[0]), _sizes(parts[1]), isolated)


def format_edge_list(order: int, edges: Iterable[tuple[int, int]]) -> str:
    lines = [f"{u} {v}" for u, v in edges]
    return "\n".join([f"{order} {len(lines)}"] + lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n m', got {lines[0]!r}")
    order, count = int(head[0]), int(head[1])
    if order > EDGE_ORDER_CAP:
        raise ValueError(f"edge-list order {order} is above the cap {EDGE_ORDER_CAP}")
    if len(lines) - 1 != count:
        raise ValueError(f"header promises {count} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        edges.append((int(toks[0]), int(toks[1])))
    return order, edges


def read_edge_list(path) -> tuple[int, list[tuple[int, int]]]:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def spectrum_csv_row(sequence: str, spectrum: Spectrum) -> str:
    values = ",".join(sig12(v) for v in spectrum.values)
    return f"{sequence},{spectrum.order},{values}"


def _to_jsonable(obj):
    if isinstance(obj, (GapReport, BoundsReport, InterlacingReport)):
        data = dataclasses.asdict(obj)
        data["verdict"] = "pass" if obj.passed else "fail"
        data.pop("passed")
        return data
    if isinstance(obj, ScanReport):
        data = {
            "kind": obj.kind,
            "order": obj.order,
            "graphs_checked": obj.graphs_checked,
            "failures": [_to_jsonable(f) for f in obj.failures],
            "extremal_eta_plus": obj.extremal_eta_plus,
            "extremal_eta_minus": obj.extremal_eta_minus,
            "verdict": "pass" if obj.passed else "fail",
        }
        if obj.kind == "conjecture":
            data["antiregular_sequence"] = obj.antiregular_sequence
            data["conjecture_holds"] = obj.conjecture_holds
        return data
    if isinstance(obj, ReductionStep):
        return {
            "parent": format_nsg(obj.parent),
            "deleted_class": list(obj.deleted_class),
            "child": format_nsg(obj.child),
            "case": obj.case.value,
        }
    if isinstance(obj, NsgForm):
        return format_nsg(obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return obj


def to_json(obj, **extra) -> str:
    data = _to_jsonable(obj)
    if isinstance(data, dict) and extra:
        data = {**data, **extra}
    return json.dumps(data, indent=2, default=_to_jsonable) + "\n"


def gap_report_csv_header() -> str:
    return "sequence,order,count_in_interval,expected_trivial,min_nontrivial_distance,verdict"


def gap_report_csv_row(report: GapReport) -> str:
    return ",".join([
        report.sequence,
        str(report.order),
        str(report.count_in_interval),
        str(report.expected_trivial),
        sig12(report.min_nontrivial_distance),
        "pass" if report.passed else "fail",
    ])


def scan_rows_csv(report: ScanReport) -> str:
    """Per-graph CSV rows of a scan run with keep_rows=True."""
    if report.rows is None:
        raise ValueError("scan was run without keep_rows; no per-graph rows to export")
    gap = report.kind == "gap"
    header = "sequence,order,eta_plus,eta_minus"
    if gap:
        header += ",count_in_interval,expected_trivial,min_nontrivial_distance,verdict"
    lines = [header]
    for row in report.rows:
        cells = [
            row["sequence"],
            str(row["order"]),
            "" if row["eta_plus"] is None else sig12(row["eta_plus"]),
            "" if row["eta_minus"] is None else sig12(row["eta_minus"]),
        ]
        if gap:
            cells += [
                str(row["count_in_interval"]),
                str(row["expected_trivial"]),
                sig12(row["min_nontrivial_distance"]),
                row["verdict"],
            ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
