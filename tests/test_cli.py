import json

import pytest

from thresholdlab import cli, verify
from thresholdlab.formats import (
    EDGE_ORDER_CAP,
    format_edge_list,
    format_nsg,
    parse_edge_list,
    parse_nsg,
    sig12,
)
from thresholdlab.graphs import NsgForm

C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"
PAW_TEXT = "4 4\n0 1\n0 3\n1 3\n2 3\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- formats


def test_nsg_text_round_trip():
    for form in (NsgForm([3], [2]), NsgForm([1, 2], [1, 1]), NsgForm([2], [1], 2)):
        assert parse_nsg(format_nsg(form)) == form
    assert format_nsg(NsgForm([], [], 3)) == "nsg(;;+3)"
    assert parse_nsg("nsg(;;+3)") == NsgForm([], [], 3)
    assert parse_nsg(" nsg(1,2;1,1) ") == NsgForm([1, 2], [1, 1])


def test_nsg_text_rejects_malformed():
    for text in ("nsg(1;1", "1;1", "nsg(1;1;2)", "nsg(1;1;+2;+3)"):
        with pytest.raises(ValueError):
            parse_nsg(text)


def test_edge_list_round_trip():
    text = format_edge_list(4, [(0, 1), (2, 3)])
    assert text == "4 2\n0 1\n2 3\n"
    assert parse_edge_list(text) == (4, [(0, 1), (2, 3)])
    assert parse_edge_list(f"{EDGE_ORDER_CAP} 0\n") == (EDGE_ORDER_CAP, [])


def test_edge_list_rejects_malformed():
    for text in ("", "4\n", "4 2\n0 1\n", "2 1\n0 1 2\n", f"{EDGE_ORDER_CAP + 1} 0\n"):
        with pytest.raises(ValueError):
            parse_edge_list(text)


def test_edge_list_skips_comment_lines(tmp_path, capsys):
    text = "# K2 plus an isolated vertex\n3 1\n# a comment\n  # indented\n0 1\n"
    assert parse_edge_list(text) == (3, [(0, 1)])
    path = tmp_path / "commented.txt"
    path.write_text("3 1\n# a comment\n0 1\n")
    assert run(capsys, "recognize", "--edges", str(path)) == (0, "sequence: 010\n", "")


def test_sig12():
    assert sig12(3.0) == "3"
    assert sig12(-1.4811943040920156) == "-1.48119430409"


# ---------------------------------------------------------------- spectrum


def test_spectrum_nsg_3_2_plain(capsys):
    code, out, _ = run(capsys, "spectrum", "--nsg", "nsg(3;2)")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["sequence"] == "00011"
    assert [float(v) for v in lines["assembled"].split()] == pytest.approx(
        [3.0, 0.0, 0.0, -1.0, -2.0], abs=1e-9
    )
    assert lines["mult0"] == "2"
    assert lines["multm1"] == "1"
    assert float(lines["eta_plus"]) == pytest.approx(3.0)
    assert float(lines["eta_minus"]) == pytest.approx(-2.0)


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--seq", "0101", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nsg"] == "nsg(1,1;1,1)"
    assert payload["assembled"] == pytest.approx(payload["dense"], abs=1e-7)
    assert payload["eta_plus"] == pytest.approx(0.3111078174659816, abs=1e-9)


def test_spectrum_csv_enumeration(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--order", "3", "--connected-only", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("001,3,")


# ---------------------------------------------------------------- gen


def test_gen_plain(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "0011")
    assert code == 0
    assert "nsg: nsg(2;2)" in out
    assert "edges: 0-2 0-3 1-2 1-3 2-3" in out
    assert "weights: -1 -2 3 4" in out


def test_gen_edge_file_recognize_round_trip(tmp_path, capsys):
    edges = tmp_path / "paw.txt"
    code, _, _ = run(capsys, "gen", "--seq", "0101", "--edges-out", str(edges))
    assert code == 0
    code, out, _ = run(capsys, "recognize", "--edges", str(edges))
    assert code == 0
    assert out == "sequence: 0101\n"


def test_gen_enumeration_json(capsys):
    code, out, _ = run(capsys, "gen", "--order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["sequence"] for r in payload] == ["000", "001", "010", "011"]


# ---------------------------------------------------------------- checks


def test_check_gap_plain(capsys):
    code, out, _ = run(capsys, "check-gap", "--nsg", "nsg(3;2)")
    assert code == 0
    assert "count_in_interval: 3" in out
    assert "verdict: pass" in out


def test_check_gap_csv(capsys):
    code, out, _ = run(capsys, "check-gap", "--seq", "0011", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("sequence,order,count_in_interval")
    assert row.startswith("0011,4,")
    assert row.endswith(",pass")


def test_check_antiregular(capsys):
    code, out, _ = run(capsys, "check-antiregular", "--order", "40")
    assert code == 0
    assert "verdict: pass" in out


def test_reduce_chain_output(capsys):
    code, out, _ = run(capsys, "reduce", "--nsg", "nsg(1,3;1,1)")
    assert code == 0
    assert "step 1: delete U_2 (drop_zero) -> nsg(1,2;1,1) [pass]" in out
    assert "antiregular: nsg(1,2;1,1) after 1 steps" in out


def test_reduce_rejects_disconnected(capsys):
    code, _, err = run(capsys, "reduce", "--seq", "010")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------- scans


def test_scan_gap_order_10_json(capsys):
    code, out, _ = run(capsys, "scan-gap", "--order", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_checked"] == 256
    assert payload["failures"] == []
    assert payload["verdict"] == "pass"


def test_scan_conjecture_plain(capsys):
    code, out, _ = run(capsys, "scan-conjecture", "--order", "5")
    assert code == 0
    assert "antiregular_sequence: 00101" in out
    assert "conjecture_holds: true" in out


def test_scan_gap_csv_rows(capsys):
    code, out, _ = run(capsys, "scan-gap", "--order", "5", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("sequence,order,eta_plus,eta_minus,count_in_interval")
    assert len(rows) == 9
    assert all(row.endswith(",pass") for row in rows[1:])


def test_scan_identical_invocations_byte_identical(capsys):
    first = run(capsys, "scan-conjecture", "--order", "9", "--format", "json")
    second = run(capsys, "scan-conjecture", "--order", "9", "--format", "json")
    assert first == second
    single = run(capsys, "scan-gap", "--order", "8", "--format", "json", "--workers", "1")
    douple = run(capsys, "scan-gap", "--order", "8", "--format", "json", "--workers", "2")
    assert single == douple


# ---------------------------------------------------------------- recognize


def test_recognize_c4_exits_2(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    code, out, _ = run(capsys, "recognize", "--edges", str(path))
    assert code == 2
    assert out.startswith("NotThreshold")
    assert "witness_vertices:" in out


def test_recognize_paw_json(tmp_path, capsys):
    path = tmp_path / "paw.txt"
    path.write_text(PAW_TEXT)
    code, out, _ = run(capsys, "recognize", "--edges", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "threshold_graph": True,
        "sequence": "0101",
        "nsg": "nsg(1,1;1,1)",
    }


def test_check_gap_rejects_non_threshold_edges(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    code, _, err = run(capsys, "check-gap", "--edges", str(path))
    assert code == 1
    assert "not a threshold graph" in err


def test_huge_edge_file_header_exits_1(tmp_path, capsys):
    # refused from the header alone, before any n x n matrix is allocated
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n")
    for command in ("recognize", "check-gap"):
        code, out, err = run(capsys, command, "--edges", str(path))
        assert (code, out) == (1, "")
        assert "above the cap" in err


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "scan-gap")[0] == 1
    assert run(capsys, "gen", "--seq", "01", "--nsg", "nsg(1;1)")[0] == 1
    assert run(capsys, "spectrum", "--seq", "01", "--format", "yaml")[0] == 1
    assert run(capsys, "spectrum", "--nsg", "nsg(oops")[0] == 1
    assert run(capsys, "recognize", "--edges", "/no/such/file")[0] == 1


def test_scan_cap_exit_1(capsys):
    code, _, err = run(capsys, "scan-gap", "--order", "30")
    assert code == 1
    assert "error:" in err


def test_scan_order_ceiling_exit_1(capsys, monkeypatch):
    # refused from the order alone, whatever the cap: no pool, no chunk
    def refuse(*args, **kwargs):
        raise AssertionError("scan started above the ceiling")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify, "_scan_chunk", refuse)
    for command in ("scan-gap", "scan-conjecture"):
        for order in (verify.ORDER_CEILING + 1, 70):
            code, out, err = run(capsys, command, "--order", str(order),
                                 "--order-cap", "100", "--workers", "2")
            assert (code, out) == (1, "")
            assert f"above the ceiling {verify.ORDER_CEILING}" in err


def test_workers_above_cap_exit_1(capsys, monkeypatch):
    # refused from the worker count alone: no pool, no chunk
    def refuse(*args, **kwargs):
        raise AssertionError("scan started above the workers cap")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify, "_scan_chunk", refuse)
    for command in ("scan-gap", "scan-conjecture"):
        for workers in (verify.MAX_WORKERS + 1, 100000):
            code, out, err = run(capsys, command, "--order", "3", "--workers", str(workers))
            assert (code, out) == (1, "")
            assert err == f"error: workers {workers} above the cap {verify.MAX_WORKERS}\n"


def test_commands_build_no_dense_matrix(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a command built a dense matrix")

    monkeypatch.setattr(cli.graphs, "build_adjacency", refuse)
    monkeypatch.setattr(cli.graphs, "adjacency_from_edges", refuse)
    edges = tmp_path / "paw.txt"
    code, out, _ = run(capsys, "gen", "--seq", "0101", "--edges-out", str(edges))
    assert code == 0 and "edges: 0-1 0-3 1-3 2-3" in out
    assert run(capsys, "gen", "--order", "4", "--format", "csv")[0] == 0
    assert run(capsys, "recognize", "--edges", str(edges)) == (0, "sequence: 0101\n", "")
    code, out, _ = run(capsys, "check-gap", "--edges", str(edges))
    assert code == 0 and "count_in_interval: 1" in out
    c4 = tmp_path / "c4.txt"
    c4.write_text(C4_TEXT)
    assert run(capsys, "recognize", "--edges", str(c4))[0] == 2


def test_batch_order_cap_exit_1(capsys, monkeypatch):
    # every order this file enumerates is within the cap
    assert cli.BATCH_ORDER_CAP >= 4
    enumerated = []

    def record(order, connected_only=False):
        enumerated.append(order)
        return iter(())

    monkeypatch.setattr(cli.graphs, "enumerate_threshold", record)
    for command in ("gen", "spectrum"):
        code, out, err = run(capsys, command, "--order", str(cli.BATCH_ORDER_CAP + 1))
        assert (code, out) == (1, "")
        assert f"above the cap {cli.BATCH_ORDER_CAP}" in err
        assert enumerated == []
    assert run(capsys, "spectrum", "--order", str(cli.BATCH_ORDER_CAP), "--format", "csv")[0] == 0
    assert enumerated == [cli.BATCH_ORDER_CAP]


def test_out_writes_file_not_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check-gap", "--seq", "00011", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"
