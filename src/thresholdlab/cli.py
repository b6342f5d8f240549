"""Command-line front end.

Subcommands: gen, spectrum, check-gap, scan-gap, scan-conjecture,
check-antiregular, reduce, recognize.  ``main`` hands a command's words to
its own parser; the full parser runs only to print its usage and error, when
the first word is not a command or words are left over.  Each handler builds
records (ordered dicts) and renders them with ``formats.to_plain``,
``to_csv`` or ``to_json``; a scan's CSV rows go from their columns to the
output 1024 rows at a time, one ``%`` template per row (``scan_csv``).  Exit
codes: 0 success/pass, 2 verification failure, 1 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

from . import formats, graphs, spectra, verify

FORMATS = ("plain", "json", "csv")
# gen and spectrum --order build all 2^(n-1) records before printing (with a
# dense spectrum each for spectrum); at 14 that is 8192 records, and as JSON
# about 1 s of CPU and 112 MB for gen, 1.7 s and 64 MB for spectrum, on a
# 2-core x86 host.  Each order above doubles it.
BATCH_ORDER_CAP = 14
SCAN_CSV_KEYS = ("sequence", "order", "eta_plus", "eta_minus", "count_in_interval",
                 "expected_trivial", "min_nontrivial_distance", "verdict")
# scan_csv renders this many rows per text, so one text stays small
_SCAN_CSV_ROWS = 1024


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(texts: Iterable[str], out: str | None) -> None:
    """Write the texts, in order, to ``out`` or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _integer(text: str) -> int:
    """argparse type of the integer options: formats.parse_integer's rule."""
    try:
        return formats.parse_integer(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_graph_input(sub: argparse.ArgumentParser, with_order: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="creation sequence, e.g. 0011")
    group.add_argument("--nsg", help="NSG text form, e.g. 'nsg(3;2)'")
    group.add_argument("--edges", help="path to an edge-list file ('n m' header)")
    if with_order:
        group.add_argument("--order", type=_integer, help="enumerate all graphs of this order")
        sub.add_argument("--connected-only", action="store_true",
                         help="restrict --order enumeration to connected graphs")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="plain")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _check_order(what: str, order: int) -> None:
    """Hold a single input graph to the edge-file cap before anything of its
    size is built: spectrum's dense column and gen's edge list grow as order^2."""
    if order > formats.EDGE_ORDER_CAP:
        raise ValueError(f"{what} {order} is above the cap {formats.EDGE_ORDER_CAP}")


def _single_sequence(args) -> graphs.CreationSequence:
    if args.seq is not None:
        _check_order("--seq order", len(args.seq))
        return graphs.parse_creation_sequence(args.seq)
    if args.nsg is not None:
        form = formats.parse_nsg(args.nsg)
        _check_order("--nsg order", form.order)
        return graphs.nsg_to_creation(form)
    order, edges = formats.read_edge_list(args.edges)
    result = graphs.recognize(edges, order)
    if isinstance(result, graphs.NotThreshold):
        raise ValueError("input edge list is not a threshold graph")
    return result


def _input_sequences(args) -> Iterable[graphs.CreationSequence]:
    """The one input graph, or every graph of ``--order`` up to BATCH_ORDER_CAP."""
    if args.order is None:
        return [_single_sequence(args)]
    if args.order > BATCH_ORDER_CAP:
        raise ValueError(f"--order {args.order} is above the cap {BATCH_ORDER_CAP} "
                         "for whole-order batches")
    return graphs.enumerate_threshold(args.order, args.connected_only)


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _render(args, records, batch: bool = False, csv_keys=None) -> None:
    """Write the records in the chosen format to ``--out`` or stdout.

    JSON holds the one record, or the list for a batch; CSV has a column
    per key of ``csv_keys`` (default: every key of the first record).
    """
    if args.format == "json":
        text = formats.to_json(records if batch else records[0])
    elif args.format == "csv":
        keys = csv_keys or list(records[0])
        text = formats.to_csv(keys, [[record[key] for record in records] for key in keys])
    else:
        text = formats.to_plain(records)
    _emit([text], args.out)


def _report_record(report) -> dict:
    """A report's fields, with ``passed`` turned into a closing ``verdict``."""
    record = dict(vars(report))  # its fields, in order: a flat report needs no deep copy
    record["verdict"] = _verdict(record.pop("passed"))
    return record


def _report(args, report) -> int:
    _render(args, [_report_record(report)])
    return 0 if report.passed else 2


def _gen_record(seq: graphs.CreationSequence) -> dict:
    realization = graphs.weight_realization(seq)
    return {
        "sequence": str(seq),
        "nsg": graphs.creation_to_nsg(seq),
        "order": seq.order,
        "connected": seq.connected,
        "edges": graphs.sequence_edges(seq),
        "threshold": realization.threshold,
        "weights": list(realization.weights),
    }


def _cmd_gen(args) -> int:
    if args.edges_out and args.order is not None:
        raise ValueError("--edges-out needs a single-graph input")
    records = [_gen_record(s) for s in _input_sequences(args)]
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            fh.write(formats.format_edge_list(records[0]["order"], records[0]["edges"]))
    _render(args, records, batch=args.order is not None,
            csv_keys=("sequence", "nsg", "order", "connected", "edges"))
    return 0


def _spectrum_record(seq: graphs.CreationSequence) -> dict:
    form = graphs.creation_to_nsg(seq)
    assembled = spectra.assemble_spectrum(form)
    dense = np.linalg.eigvalsh(graphs.build_adjacency(seq).astype(float))[::-1]
    mults = spectra.trivial_multiplicities(form)
    eta_plus, eta_minus = spectra.eta_extremes(assembled)
    return {
        "sequence": str(seq),
        "nsg": form,
        "order": seq.order,
        "assembled": assembled,
        "dense": dense,
        "mult0": mults.mult0,
        "multm1": mults.multm1,
        "eta_plus": float(eta_plus) if eta_plus < np.inf else None,
        "eta_minus": float(eta_minus) if eta_minus > -np.inf else None,
    }


def _cmd_spectrum(args) -> int:
    records = [_spectrum_record(s) for s in _input_sequences(args)]
    if args.format == "csv":  # no header; sequence, order, one cell per eigenvalue
        rows = ([r["sequence"], str(r["order"]), *map(formats.sig12, r["assembled"])]
                for r in records)
        _emit((",".join(row) + "\n" for row in rows), args.out)
    else:
        _render(args, records, batch=args.order is not None)
    return 0


def _cmd_check_antiregular(args) -> int:
    _check_order("--order", args.order)
    return _report(args, verify.check_antiregular_bounds(args.order))


def _cmd_check_gap(args) -> int:
    return _report(args, verify.check_gap(graphs.creation_to_nsg(_single_sequence(args))))


def scan_csv(report: verify.ScanReport) -> Iterator[str]:
    """CSV of a scan run with rows, as one text per _SCAN_CSV_ROWS rows (the
    first with the header), so that only one text is held at a time.

    Each row is one ``%`` template: floats at 12 significant digits, as
    ``formats.to_csv`` prints them.  A row with an absent eta takes the
    template with ``%s`` eta cells, the absent one empty.
    """
    rows, order = report.rows, report.order
    gap = rows.count_in_interval is not None
    tail = ",%d,%d,%.12g,%s\n" if gap else "\n"
    row = f"%s,{order},%.12g,%.12g{tail}"
    loose = f"%s,{order},%s,%s{tail}"
    for lo in range(0, len(rows.sequence), _SCAN_CSV_ROWS):
        part = slice(lo, lo + _SCAN_CSV_ROWS)
        columns = [list(map(bytes.decode, rows.sequence[part].tolist())),
                   rows.eta_plus[part].tolist(), rows.eta_minus[part].tolist()]
        if gap:
            count, expected = rows.count_in_interval[part], rows.expected_trivial[part]
            columns += [count.tolist(), expected.tolist(),
                        rows.min_nontrivial_distance[part].tolist(),
                        np.where(count == expected, "pass", "fail").tolist()]
        lines = list(map(row.__mod__, zip(*columns)))
        absent = np.isinf(rows.eta_plus[part]) | np.isinf(rows.eta_minus[part])
        for i in np.flatnonzero(absent).tolist():
            cell = [column[i] for column in columns]
            cell[1:3] = ["" if math.isinf(eta) else formats.sig12(eta) for eta in cell[1:3]]
            lines[i] = loose % tuple(cell)
        head = ",".join(SCAN_CSV_KEYS[:len(columns) + 1]) + "\n" if lo == 0 else ""
        yield head + "".join(lines)


def _scan(args) -> int:
    # looked up per call, not when the cached parser was built
    runner = verify.scan_gap if args.command == "scan-gap" else verify.scan_conjecture
    report = runner(
        args.order,
        workers=args.workers,
        order_cap=args.order_cap,
        keep_rows=args.format == "csv",
    )
    conjecture = {} if report.kind == "gap" else {
        "antiregular_sequence": report.antiregular_sequence,
        "conjecture_holds": report.conjecture_holds,
    }
    if args.format == "csv":
        _emit(scan_csv(report), args.out)
    elif args.format == "json":
        _render(args, [{
            "kind": report.kind,
            "order": report.order,
            "graphs_checked": report.graphs_checked,
            "failures": [_report_record(f) for f in report.failures],
            "extremal_eta_plus": report.extremal_eta_plus,
            "extremal_eta_minus": report.extremal_eta_minus,
            "verdict": _verdict(report.passed),
            **conjecture,
        }])
    else:  # plain counts the failures and omits absent extremes
        record = {"scan": report.kind, "order": report.order,
                  "graphs_checked": report.graphs_checked, "failures": len(report.failures)}
        for key in ("extremal_eta_plus", "extremal_eta_minus"):
            if getattr(report, key):
                value, seq = getattr(report, key)
                record[key] = f"{formats.sig12(value)} at {seq}"
        _render(args, [{**record, **conjecture, "verdict": _verdict(report.passed)}])
    return 0 if report.passed else 2


def _cmd_reduce(args) -> int:
    form = graphs.creation_to_nsg(_single_sequence(args))
    if not form.connected or form.order < 2:
        raise ValueError("reduction needs a connected graph of order >= 2")
    steps = verify.reduction_chain(form)
    checks = [verify.check_reduction(step) for step in steps]
    final = steps[-1].child if steps else form
    records = [{
        "parent": s.parent,
        "deleted_class": list(s.deleted_class),
        "case": s.case.value,
        "child": s.child,
        "verdict": _verdict(ok),
    } for s, ok in zip(steps, checks)]
    if args.format == "json":
        records = [{"start": form, "steps": records, "antiregular": final,
                    "verdict": _verdict(all(checks))}]
    elif args.format == "csv":  # a numbered row per step, the class as e.g. U2
        records = [{"step": i, **r, "deleted_class": "{}{}".format(*r["deleted_class"])}
                   for i, r in enumerate(records, start=1)]
    else:  # plain gives a sentence per step
        plain = {"start": form}
        for i, r in enumerate(records, start=1):
            plain[f"step {i}"] = ("delete {}_{} ({}) -> {} [{}]".format(
                *r["deleted_class"], r["case"], formats.format_nsg(r["child"]), r["verdict"]))
        plain["antiregular"] = f"{formats.format_nsg(final)} after {len(steps)} steps"
        records = [plain]
    _render(args, records, csv_keys=("step", "parent", "deleted_class", "case", "child", "verdict"))
    return 0 if all(checks) else 2


def _cmd_recognize(args) -> int:
    order, edges = formats.read_edge_list(args.edges)
    result = graphs.recognize(edges, order)
    if isinstance(result, graphs.NotThreshold):
        record = {"threshold_graph": False, "witness_vertices": list(result.vertices),
                  "witness_edges": result.edges}
    else:
        record = {"threshold_graph": True, "sequence": str(result),
                  "nsg": graphs.creation_to_nsg(result)}
    if args.format == "plain":  # a bare NotThreshold line; no nsg
        head = "" if record["threshold_graph"] else "NotThreshold\n"
        plain = {k: v for k, v in record.items() if k not in ("threshold_graph", "nsg")}
        _emit([head, formats.to_plain([plain])], args.out)
    else:
        _render(args, [record])
    return 0 if record["threshold_graph"] else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all eight commands, built on the first call and then
    reused: parsing leaves no state in it.  ``commands`` maps each command
    to its own parser, the one the full parser would hand it to."""
    parser = _Parser(prog="thresholdlab",
                     description="Threshold graph construction, spectra, and gap verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("gen", help="build a graph; print sequence, NSG form, edges, weights")
    _add_graph_input(p, with_order=True)
    _add_output(p)
    p.add_argument("--edges-out", help="also write the edge-list file here")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("spectrum", help="assembled and dense spectra, trivial mults, eta extremes")
    _add_graph_input(p, with_order=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("check-gap", help="interval count vs trivial multiplicities for one graph")
    _add_graph_input(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_check_gap)

    for name in ("scan-gap", "scan-conjecture"):
        p = sub.add_parser(name, help=f"exhaustive {name.split('-')[1]} scan over one order")
        p.add_argument("--order", type=_integer, required=True)
        p.add_argument("--workers", type=_integer, default=1)
        p.add_argument("--order-cap", type=_integer, default=verify.DEFAULT_ORDER_CAP)
        _add_output(p)
        p.set_defaults(handler=_scan)

    p = sub.add_parser("check-antiregular", help="eta bounds of the anti-regular graph")
    p.add_argument("--order", type=_integer, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_check_antiregular)

    p = sub.add_parser("reduce", help="print the vertex-deletion chain down to anti-regular")
    _add_graph_input(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("recognize", help="edge list -> creation sequence or witness")
    p.add_argument("--edges", required=True, help="path to an edge-list file")
    _add_output(p)
    p.set_defaults(handler=_cmd_recognize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is not None:  # as the full parser hands it the words after it
            args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if command is None or rest:  # -h, no command, or words left over
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out directory {os.path.dirname(args.out)!r} does not exist")
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
