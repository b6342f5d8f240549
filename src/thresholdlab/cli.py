"""Command-line front end.

Subcommands: gen, spectrum, check-gap, scan-gap, scan-conjecture,
check-antiregular, reduce, recognize.  Each handler builds records (ordered
dicts) and renders them with ``formats.to_plain``, ``to_csv`` or
``to_json``.  Exit codes: 0 success/pass, 2 verification failure, 1 usage or
input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Iterable

from . import formats, graphs, spectra, verify

FORMATS = ("plain", "json", "csv")
# gen and spectrum --order build all 2^(n-1) records before printing (with a
# dense spectrum each for spectrum); at 14 that is 8192 records, about 1.5 s
# and 180 MB of JSON on a 2-core x86 host, and each order above doubles it.
BATCH_ORDER_CAP = 14


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_graph_input(sub: argparse.ArgumentParser, with_order: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="creation sequence, e.g. 0011")
    group.add_argument("--nsg", help="NSG text form, e.g. 'nsg(3;2)'")
    group.add_argument("--edges", help="path to an edge-list file ('n m' header)")
    if with_order:
        group.add_argument("--order", type=int, help="enumerate all graphs of this order")
        sub.add_argument("--connected-only", action="store_true",
                         help="restrict --order enumeration to connected graphs")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="plain")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _single_sequence(args) -> graphs.CreationSequence:
    if args.seq is not None:
        return graphs.parse_creation_sequence(args.seq)
    if args.nsg is not None:
        return graphs.nsg_to_creation(formats.parse_nsg(args.nsg))
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
        text = formats.to_csv(csv_keys or list(records[0]), records)
    else:
        text = formats.to_plain(records)
    _emit(text, args.out)


def _report_record(report) -> dict:
    """A report's fields, with ``passed`` turned into a closing ``verdict``."""
    record = dataclasses.asdict(report)
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
    records = [_gen_record(s) for s in _input_sequences(args)]
    _render(args, records, batch=args.order is not None,
            csv_keys=("sequence", "nsg", "order", "connected", "edges"))
    if args.edges_out:
        if len(records) != 1:
            raise ValueError("--edges-out needs a single-graph input")
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            fh.write(formats.format_edge_list(records[0]["order"], records[0]["edges"]))
    return 0


def _spectrum_record(seq: graphs.CreationSequence) -> dict:
    form = graphs.creation_to_nsg(seq)
    assembled = spectra.assemble_spectrum(form)
    dense = spectra.dense_spectrum(graphs.build_adjacency(seq).adjacency.astype(float))
    mults = spectra.trivial_multiplicities(form)
    eta_plus, eta_minus = spectra.eta_extremes(assembled)
    return {
        "sequence": str(seq),
        "nsg": form,
        "order": seq.order,
        "assembled": assembled.values,
        "dense": dense.values,
        "mult0": mults.mult0,
        "multm1": mults.multm1,
        "eta_plus": eta_plus,
        "eta_minus": eta_minus,
    }


def _cmd_spectrum(args) -> int:
    records = [_spectrum_record(s) for s in _input_sequences(args)]
    if args.format == "csv":  # no header; sequence, order, one cell per eigenvalue
        rows = ([r["sequence"], str(r["order"]), *map(formats.sig12, r["assembled"])]
                for r in records)
        _emit("".join(",".join(row) + "\n" for row in rows), args.out)
    else:
        _render(args, records, batch=args.order is not None)
    return 0


def _cmd_check_gap(args) -> int:
    return _report(args, verify.check_gap(graphs.creation_to_nsg(_single_sequence(args))))


def _scan(args, runner) -> int:
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
        records = report.rows
    elif args.format == "json":
        records = [{
            "kind": report.kind,
            "order": report.order,
            "graphs_checked": report.graphs_checked,
            "failures": [_report_record(f) for f in report.failures],
            "extremal_eta_plus": report.extremal_eta_plus,
            "extremal_eta_minus": report.extremal_eta_minus,
            "verdict": _verdict(report.passed),
            **conjecture,
        }]
    else:  # plain counts the failures and omits absent extremes
        record = {"scan": report.kind, "order": report.order,
                  "graphs_checked": report.graphs_checked, "failures": len(report.failures)}
        for key in ("extremal_eta_plus", "extremal_eta_minus"):
            if getattr(report, key):
                value, seq = getattr(report, key)
                record[key] = f"{formats.sig12(value)} at {seq}"
        records = [{**record, **conjecture, "verdict": _verdict(report.passed)}]
    _render(args, records)
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
                  "witness_edges": list(result.edges)}
    else:
        record = {"threshold_graph": True, "sequence": str(result),
                  "nsg": graphs.creation_to_nsg(result)}
    if args.format == "plain":  # a bare NotThreshold line; no nsg
        head = "" if record["threshold_graph"] else "NotThreshold\n"
        plain = {k: v for k, v in record.items() if k not in ("threshold_graph", "nsg")}
        _emit(head + formats.to_plain([plain]), args.out)
    else:
        _render(args, [record])
    return 0 if record["threshold_graph"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thresholdlab",
                     description="Threshold graph construction, spectra, and gap verification.")
    sub = parser.add_subparsers(dest="command", required=True)

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

    for name, runner in (("scan-gap", verify.scan_gap), ("scan-conjecture", verify.scan_conjecture)):
        p = sub.add_parser(name, help=f"exhaustive {name.split('-')[1]} scan over one order")
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--order-cap", type=int, default=verify.DEFAULT_ORDER_CAP)
        _add_output(p)
        p.set_defaults(handler=lambda args, runner=runner: _scan(args, runner))

    p = sub.add_parser("check-antiregular", help="eta bounds of the anti-regular graph")
    p.add_argument("--order", type=int, required=True)
    _add_output(p)
    p.set_defaults(
        handler=lambda args: _report(args, verify.check_antiregular_bounds(args.order)))

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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
