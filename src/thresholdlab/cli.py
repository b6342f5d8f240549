"""Command-line front end.

Subcommands: gen, spectrum, check-gap, scan-gap, scan-conjecture,
check-antiregular, reduce, recognize.  Exit codes: 0 success/pass,
2 verification failure, 1 usage or input error.
"""

from __future__ import annotations

import argparse
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


def _gen_record(seq: graphs.CreationSequence) -> dict:
    form = graphs.creation_to_nsg(seq)
    graph = graphs.build_adjacency(seq)
    realization = graphs.weight_realization(seq)
    return {
        "sequence": str(seq),
        "nsg": formats.format_nsg(form),
        "order": seq.order,
        "connected": seq.connected,
        "edges": graph.edges(),
        "threshold": realization.threshold,
        "weights": list(realization.weights),
    }


def _cmd_gen(args) -> int:
    records = [_gen_record(s) for s in _input_sequences(args)]
    if args.format == "json":
        payload = records[0] if len(records) == 1 and args.order is None else records
        _emit(formats.to_json(payload), args.out)
    elif args.format == "csv":
        lines = ["sequence,nsg,order,connected,edges"]
        for r in records:
            edges = " ".join(f"{u}-{v}" for u, v in r["edges"])
            lines.append(f"{r['sequence']},\"{r['nsg']}\",{r['order']},{r['connected']},{edges}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        blocks = []
        for r in records:
            blocks.append("\n".join([
                f"sequence: {r['sequence']}",
                f"nsg: {r['nsg']}",
                f"order: {r['order']}",
                f"connected: {str(r['connected']).lower()}",
                "edges: " + " ".join(f"{u}-{v}" for u, v in r["edges"]),
                f"threshold: {r['threshold']}",
                "weights: " + " ".join(str(w) for w in r["weights"]),
            ]))
        _emit("\n\n".join(blocks) + "\n", args.out)
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
        "nsg": formats.format_nsg(form),
        "order": seq.order,
        "assembled": assembled,
        "dense": dense,
        "mult0": mults.mult0,
        "multm1": mults.multm1,
        "eta_plus": eta_plus,
        "eta_minus": eta_minus,
    }


def _cmd_spectrum(args) -> int:
    records = [_spectrum_record(s) for s in _input_sequences(args)]
    if args.format == "json":
        payload = [
            {**r,
             "assembled": [float(v) for v in r["assembled"].values],
             "dense": [float(v) for v in r["dense"].values]}
            for r in records
        ]
        _emit(formats.to_json(payload[0] if len(payload) == 1 and args.order is None else payload),
              args.out)
    elif args.format == "csv":
        lines = [formats.spectrum_csv_row(r["sequence"], r["assembled"]) for r in records]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        blocks = []
        for r in records:
            eta_plus = "absent" if r["eta_plus"] is None else formats.sig12(r["eta_plus"])
            eta_minus = "absent" if r["eta_minus"] is None else formats.sig12(r["eta_minus"])
            blocks.append("\n".join([
                f"sequence: {r['sequence']}",
                f"nsg: {r['nsg']}",
                f"order: {r['order']}",
                "assembled: " + " ".join(formats.sig12(v) for v in r["assembled"].values),
                "dense: " + " ".join(formats.sig12(v) for v in r["dense"].values),
                f"mult0: {r['mult0']}",
                f"multm1: {r['multm1']}",
                f"eta_plus: {eta_plus}",
                f"eta_minus: {eta_minus}",
            ]))
        _emit("\n\n".join(blocks) + "\n", args.out)
    return 0


def _cmd_check_gap(args) -> int:
    form = graphs.creation_to_nsg(_single_sequence(args))
    report = verify.check_gap(form)
    if args.format == "json":
        _emit(formats.to_json(report), args.out)
    elif args.format == "csv":
        _emit(formats.gap_report_csv_header() + "\n" + formats.gap_report_csv_row(report) + "\n",
              args.out)
    else:
        _emit("\n".join([
            f"sequence: {report.sequence}",
            f"order: {report.order}",
            f"count_in_interval: {report.count_in_interval}",
            f"expected_trivial: {report.expected_trivial}",
            f"min_nontrivial_distance: {formats.sig12(report.min_nontrivial_distance)}",
            f"verdict: {'pass' if report.passed else 'fail'}",
        ]) + "\n", args.out)
    return 0 if report.passed else 2


def _scan(args, runner) -> int:
    report = runner(
        args.order,
        workers=args.workers,
        order_cap=args.order_cap,
        keep_rows=args.format == "csv",
    )
    if args.format == "json":
        _emit(formats.to_json(report), args.out)
    elif args.format == "csv":
        _emit(formats.scan_rows_csv(report), args.out)
    else:
        lines = [
            f"scan: {report.kind}",
            f"order: {report.order}",
            f"graphs_checked: {report.graphs_checked}",
            f"failures: {len(report.failures)}",
        ]
        if report.extremal_eta_plus:
            value, seq = report.extremal_eta_plus
            lines.append(f"extremal_eta_plus: {formats.sig12(value)} at {seq}")
        if report.extremal_eta_minus:
            value, seq = report.extremal_eta_minus
            lines.append(f"extremal_eta_minus: {formats.sig12(value)} at {seq}")
        if report.kind == "conjecture":
            lines.append(f"antiregular_sequence: {report.antiregular_sequence}")
            lines.append(f"conjecture_holds: {str(report.conjecture_holds).lower()}")
        lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 2


def _cmd_check_antiregular(args) -> int:
    report = verify.check_antiregular_bounds(args.order)
    if args.format == "json":
        _emit(formats.to_json(report), args.out)
    elif args.format == "csv":
        eta_minus = "" if report.eta_minus is None else formats.sig12(report.eta_minus)
        _emit("order,eta_plus,eta_minus,verdict\n"
              f"{report.order},{formats.sig12(report.eta_plus)},{eta_minus},"
              f"{'pass' if report.passed else 'fail'}\n", args.out)
    else:
        eta_minus = "absent" if report.eta_minus is None else formats.sig12(report.eta_minus)
        _emit("\n".join([
            f"order: {report.order}",
            f"eta_plus: {formats.sig12(report.eta_plus)}",
            f"eta_minus: {eta_minus}",
            f"verdict: {'pass' if report.passed else 'fail'}",
        ]) + "\n", args.out)
    return 0 if report.passed else 2


def _cmd_reduce(args) -> int:
    form = graphs.creation_to_nsg(_single_sequence(args))
    if not form.connected or form.order < 2:
        raise ValueError("reduction needs a connected graph of order >= 2")
    steps = verify.reduction_chain(form)
    checks = [verify.check_reduction(step) for step in steps]
    final = steps[-1].child if steps else form
    all_ok = all(checks)
    if args.format == "json":
        payload = {
            "start": formats.format_nsg(form),
            "steps": [
                {
                    "parent": formats.format_nsg(s.parent),
                    "deleted_class": list(s.deleted_class),
                    "case": s.case.value,
                    "child": formats.format_nsg(s.child),
                    "verdict": "pass" if ok else "fail",
                }
                for s, ok in zip(steps, checks)
            ],
            "antiregular": formats.format_nsg(final),
            "verdict": "pass" if all_ok else "fail",
        }
        _emit(formats.to_json(payload), args.out)
    elif args.format == "csv":
        lines = ["step,parent,deleted_class,case,child,verdict"]
        for i, (s, ok) in enumerate(zip(steps, checks), start=1):
            kind, index = s.deleted_class
            lines.append(",".join([
                str(i), f"\"{formats.format_nsg(s.parent)}\"", f"{kind}{index}",
                s.case.value, f"\"{formats.format_nsg(s.child)}\"",
                "pass" if ok else "fail",
            ]))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"start: {formats.format_nsg(form)}"]
        for i, (s, ok) in enumerate(zip(steps, checks), start=1):
            kind, index = s.deleted_class
            lines.append(
                f"step {i}: delete {kind}_{index} ({s.case.value}) -> "
                f"{formats.format_nsg(s.child)} [{'pass' if ok else 'fail'}]"
            )
        lines.append(f"antiregular: {formats.format_nsg(final)} after {len(steps)} steps")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 2


def _cmd_recognize(args) -> int:
    order, edges = formats.read_edge_list(args.edges)
    result = graphs.recognize(edges, order)
    if isinstance(result, graphs.NotThreshold):
        if args.format == "json":
            _emit(formats.to_json({
                "threshold_graph": False,
                "witness_vertices": list(result.vertices),
                "witness_edges": [list(e) for e in result.edges],
            }), args.out)
        else:
            _emit("NotThreshold\n"
                  "witness_vertices: " + " ".join(str(v) for v in result.vertices) + "\n"
                  "witness_edges: " + " ".join(f"{u}-{v}" for u, v in result.edges) + "\n",
                  args.out)
        return 2
    if args.format == "json":
        _emit(formats.to_json({
            "threshold_graph": True,
            "sequence": str(result),
            "nsg": formats.format_nsg(graphs.creation_to_nsg(result)),
        }), args.out)
    else:
        _emit(f"sequence: {result}\n", args.out)
    return 0


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
