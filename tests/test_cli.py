import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thresholdlab
from thresholdlab import cli, graphs, verify
from thresholdlab.formats import (
    EDGE_ORDER_CAP,
    format_edge_list,
    format_nsg,
    parse_edge_list,
    parse_nsg,
    sig12,
    to_csv,
    to_json,
    to_plain,
)
from thresholdlab.graphs import NsgForm, anti_regular, nsg_to_creation, sequence_edges

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
    # class sizes and +k take the edge-list integer rule; int() would read
    # "1_0" as 10 and a full-width digit as a digit
    for text, message in (("nsg(1_0;\uff12)", "class size must be an integer, got '1_0'"),
                          ("nsg(1;\uff12)", "class size must be an integer, got '\uff12'"),
                          ("nsg(x;1)", "class size must be an integer, got 'x'"),
                          ("nsg(1,,2;1)", "class size must be an integer, got ''"),
                          ("nsg(1;1;+1_0)", "isolated count must be an integer, got '1_0'")):
        with pytest.raises(ValueError) as raised:
            parse_nsg(text)
        assert str(raised.value) == message
    assert parse_nsg("nsg(1, 2;+1,1;+ 3)") == NsgForm([1, 2], [1, 1], 3)


def test_edge_list_round_trip():
    text = format_edge_list(4, [(0, 1), (2, 3)])
    assert text == "4 2\n0 1\n2 3\n"
    order, edges = parse_edge_list(text)
    assert (order, edges.shape, edges.tolist()) == (4, (2, 2), [[0, 1], [2, 3]])
    order, edges = parse_edge_list(f"{EDGE_ORDER_CAP} 0\n")
    assert (order, edges.shape) == (EDGE_ORDER_CAP, (0, 2))


def test_edge_list_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "malformed.txt"
    for text in ("", "4\n", "4 2\n0 1\n", "2 1\n0 1 2\n", f"{EDGE_ORDER_CAP + 1} 0\n",
                 "3 2\n0 1\n0 1 2\n", "3 2\n0 1\n1\n", "2 1\n1\n", "2 1\nx 1\n",
                 "3 1\n1.5 2\n", "2 1\n0 1 # note\n", f"2 1\n0 {2 ** 63}\n",
                 f"2 1\n0 {10 ** 20}\n", f"2 1\n{-2 ** 63 - 1} 0\n", "3 2\n0\n1 2 0\n",
                 "3 1\n0 -\n", "3 2\n0 -\n1 2\n", f"{EDGE_ORDER_CAP} 1\n\u01fe 0\n",
                 "1_0 0\n", "\uff12 1\n0 1\n", "x y\n"):
        with pytest.raises(ValueError):
            parse_edge_list(text)
        path.write_text(text)
        code, out, err = run(capsys, "recognize", "--edges", str(path))
        assert (code, out) == (1, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)


def test_edge_list_header_takes_the_edge_line_integer_rule():
    # int() alone would read "1_0" as 10 and a full-width digit as a digit
    for text in ("1_0 0\n", "\uff12 1\n0 1\n", "x y\n", "3\t1 2\n0 1\n"):
        with pytest.raises(ValueError, match="first line must be 'n m' integers, got "):
            parse_edge_list(text)
    assert parse_edge_list("+2 1\n0 1\n")[0] == 2


def test_edge_list_refuses_float_tokens_read_as_ints(monkeypatch):
    # numpy's text readers have read "1.5" as the int 1 with only a
    # DeprecationWarning; the parser must refuse the word all the same
    def lenient_fromstring(data, dtype, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data",
                      DeprecationWarning, stacklevel=2)
        return np.array([3, 1, 1, 2], dtype=np.int64)

    monkeypatch.setattr(np, "fromstring", lenient_fromstring)
    with pytest.raises(ValueError, match="integer pairs"):
        parse_edge_list("3 1\n1.5 2\n")


def test_edge_list_keeps_int64_extremes_and_names_the_refused_word():
    text = f"2 3\n{2 ** 63 - 1} {-2 ** 63}\n+01 -0\n-{'0' * 5000}{2 ** 63} +{'0' * 5000}9\n"
    assert parse_edge_list(text)[1].tolist() == [[2 ** 63 - 1, -2 ** 63], [1, 0], [-2 ** 63, 9]]
    for text, reason in ((f"2 1\n0 {2 ** 63}\n", f"'{2 ** 63}' is not an int64 integer"),
                         ("2 1\n0 1.5\n", "'1.5' is not an int64 integer"),
                         (f"2 1\n0 {'9' * 40}\n", f"'{'9' * 40}' is not an int64 integer"),
                         # a longer word is quoted by its first 40 characters
                         (f"2 1\n0 {'9' * 5000}\n",
                          f"'{'9' * 40}'\u2026 (5000 characters) is not an int64 integer"),
                         (f"2 1\n0 {'1' * 100_000}\n",
                          f"'{'1' * 40}'\u2026 (100000 characters) is not an int64 integer"),
                         # int() refuses a word of more than 4300 digits, leading 0s too
                         (f"2 1\n0 -{'0' * 5000}9223372036854775809\n",
                          f"'-{'0' * 39}'\u2026 (5020 characters) is not an int64 integer"),
                         ("2 1\n- 1\n", "'-' is not an int64 integer"),
                         ("3 2\n0 1\n\n0 1 2\n", "edge line 2 has word count 3")):
        with pytest.raises(ValueError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == f"edge lines must be 'u v' integer pairs: {reason}"


# Parts of edge-list texts: the words, blanks and line breaks that str.split
# and str.splitlines know.  The words stay ASCII apart from a full-width
# digit: np.loadtxt, which the reference parser calls, reads some other
# non-ASCII letters as numbers (U+01FE as 462).
_EDGE_WORDS = st.sampled_from(["0", "1", "2", "3", "+1", "-1", "007", "-0", "1.5", "1_0",
                               "\uff10", "1-2", str(2 ** 63 - 1), str(2 ** 63), str(10 ** 20),
                               "x", "+", "#"])
_EDGE_BLANKS = st.sampled_from([" ", "\t", "\x1f", "\xa0", "  "])
_EDGE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028"])


@st.composite
def _edge_texts(draw):
    def line(words):
        indent = draw(st.sampled_from(["", "", " ", "\t", "\xa0"]))
        return indent + "".join(word + draw(_EDGE_BLANKS) for word in words).rstrip(" ")

    small = st.sampled_from(["0", "1", "2", "3", "4"])
    rows = draw(st.lists(st.one_of(st.tuples(small, small), st.tuples(small, small),
                                   st.lists(st.one_of(small, _EDGE_WORDS), max_size=3)),
                         max_size=6))
    count = sum(map(bool, rows)) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lines = draw(st.lists(st.sampled_from(["", " ", "# note", "  # 0 1"]), max_size=2))
    lines.append(line([draw(st.sampled_from(["5", "5", "+5", "05", "0", "x"])), str(count)]))
    for words in rows:
        lines.append(line(words))
        lines += draw(st.lists(st.sampled_from(["", "\t", "# 0 1", " #x"]), max_size=1))
    return "".join(text + draw(_EDGE_BREAKS) for text in lines)[:draw(st.sampled_from([None, -1]))]


def _assert_parses_like_the_reference(text):
    """parse_edge_list gives the reference's (order, edges), or raises where it raises."""
    try:
        order, edges = oracles.parse_edge_list_reference(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_edge_list(text)
        return
    got_order, got = parse_edge_list(text)
    assert (got_order, got.dtype, got.shape, got.tolist()) == (
        order, np.dtype(np.int64), edges.shape, edges.tolist()), repr(text)


@settings(max_examples=400, deadline=None)
@given(_edge_texts())
def test_edge_list_parse_matches_the_line_by_line_reference(text):
    _assert_parses_like_the_reference(text)


def test_edge_list_blanks_and_line_breaks_are_those_of_str():
    blanks = [c for c in map(chr, range(0x110000)) if c.isspace()]
    assert len(blanks) == 29
    for blank in blanks:
        for text in (f"3 1{blank}0 1", f"3 1\n0{blank}2\n", f"{blank}3 1\n# x{blank}0 1\n2 1"):
            _assert_parses_like_the_reference(text)


def test_edge_list_skips_comment_lines(tmp_path, capsys):
    text = "# K2 plus an isolated vertex\n3 1\n# a comment\n  # indented\n0 1\n"
    order, edges = parse_edge_list(text)
    assert (order, edges.shape, edges.tolist()) == (3, (1, 2), [[0, 1]])
    path = tmp_path / "commented.txt"
    path.write_text("3 1\n# a comment\n0 1\n")
    assert run(capsys, "recognize", "--edges", str(path)) == (0, "sequence: 010\n", "")


def test_to_json_writes_non_finite_floats_as_null():
    record = {"d": math.inf, "row": [1.5, -math.inf, (math.nan, 2)], "a": np.array([0.5, np.inf])}
    assert json.loads(to_json(record)) == {"d": None, "row": [1.5, None, [None, 2]],
                                           "a": [0.5, None]}
    assert to_plain([{"d": math.inf}]) == "d: inf\n"


def _as_json_values(value):
    """``value`` as json.dumps takes it: NSG forms as text, arrays and numpy
    scalars as lists and numbers, tuples as lists, non-finite floats as None."""
    if isinstance(value, NsgForm):
        return format_nsg(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return _as_json_values(value.tolist())
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _as_json_values(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json_values(item) for item in value]
    return value


_JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan])
_JSON_INTS = st.integers() | st.integers(-3, 3)
_JSON_LEAVES = (
    st.none() | st.booleans() | _JSON_INTS | _JSON_FLOATS | st.text()
    | st.sampled_from([NsgForm([3], [2]), NsgForm([1, 2], [1, 1]), NsgForm([], [], 3)])
    | hnp.arrays(st.sampled_from([np.int64, np.float64, np.bool_]),
                 hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | _JSON_FLOATS.map(np.float64) | st.booleans().map(np.bool_)
    # the fast paths: int lists, edge-like rows (with bools, as lists or
    # tuples) and ragged rows, which must not take them
    | st.lists(_JSON_INTS | st.booleans(), max_size=5)
    | st.lists(st.tuples(_JSON_INTS, _JSON_INTS | st.booleans()), max_size=4)
    | st.lists(st.lists(_JSON_INTS, min_size=3, max_size=3), max_size=4)
    | st.lists(st.lists(_JSON_INTS, max_size=3), max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_to_json_prints_what_json_dumps_prints(value):
    assert to_json(value) == json.dumps(_as_json_values(value), indent=2) + "\n"


def test_to_csv_renders_columns():
    # lists go value by value; scan_csv's "%.12g" template must print what
    # sig12 prints, over a random sample and the edge cases
    assert to_csv(("a", "b", "c", "d", "e"), [[None, 1.5], [True, False], [NsgForm([1], [1])] * 2,
                                              [[0, 1], []], [(0, 1), 2]]) == (
        'a,b,c,d,e\n,True,"nsg(1;1)",0 1,0-1\n1.5,False,"nsg(1;1)",,2\n')
    assert to_csv(("a",), [[]]) == "a\n"
    rng = np.random.default_rng(5)
    sample = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500),
                             rng.integers(-9, 9, 100).astype(float)]).tolist()
    sample += [0.1, -0.0, 1e-300, 2.5e17, 123456789012.5, math.inf, -math.inf, math.nan, 5e-324]
    assert ["%.12g" % x for x in sample] == [sig12(x) for x in sample]


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


def test_gen_edges_out_needs_single_graph_before_printing(tmp_path, capsys):
    target = tmp_path / "edges.txt"
    code, out, err = run(capsys, "gen", "--order", "2", "--edges-out", str(target))
    assert (code, out, err) == (1, "", "error: --edges-out needs a single-graph input\n")
    assert not target.exists()


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


def test_scan_csv_equals_to_csv_over_the_columns(monkeypatch):
    # the row template prints what formats.to_csv prints over the scan's
    # columns as lists, an absent eta as None: order 2 has no eta-, nor has
    # K_n at any order; blocks of 7 rows also check where blocks join
    for rows_per_text in (cli._SCAN_CSV_ROWS, 7):
        monkeypatch.setattr(cli, "_SCAN_CSV_ROWS", rows_per_text)
        for scan in (verify.scan_gap, verify.scan_conjecture):
            for order in range(2, 13):
                report = scan(order, keep_rows=True)
                rows = report.rows
                columns = [[seq.decode() for seq in rows.sequence.tolist()],
                           [order] * len(rows.sequence),
                           *([None if math.isinf(x) else x for x in eta.tolist()]
                             for eta in (rows.eta_plus, rows.eta_minus))]
                if report.kind == "gap":
                    count = rows.count_in_interval.tolist()
                    expected = rows.expected_trivial.tolist()
                    columns += [count, expected, rows.min_nontrivial_distance.tolist(),
                                ["pass" if c == e else "fail" for c, e in zip(count, expected)]]
                assert np.isinf(rows.eta_minus).any()
                assert "".join(cli.scan_csv(report)) == to_csv(
                    cli.SCAN_CSV_KEYS[:len(columns)], columns), (rows_per_text, order)


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


def test_single_graph_inputs_above_cap_exit_1(capsys, monkeypatch):
    # refused from the text or the class sizes alone: no sequence, no form's
    # sequence and no anti-regular spectrum is built
    def refuse(*args):
        raise AssertionError("an input above the cap was built")

    monkeypatch.setattr(cli.graphs, "parse_creation_sequence", refuse)
    monkeypatch.setattr(cli.graphs, "nsg_to_creation", refuse)
    monkeypatch.setattr(verify, "check_antiregular_bounds", refuse)
    over = EDGE_ORDER_CAP + 1
    for command in ("gen", "spectrum", "check-gap", "reduce"):
        code, out, err = run(capsys, command, "--seq", "01" * (over // 2) + "1")
        assert (code, out, err) == (1, "", f"error: --seq order {over} is above the cap {EDGE_ORDER_CAP}\n")
        code, out, err = run(capsys, command, "--nsg", f"nsg({over - 1};1)")
        assert (code, out, err) == (1, "", f"error: --nsg order {over} is above the cap {EDGE_ORDER_CAP}\n")
        code, out, err = run(capsys, command, "--nsg", "nsg(1;1;+100000000000)")
        assert (code, out) == (1, "") and "above the cap" in err
    for order in (over, 100000):
        code, out, err = run(capsys, "check-antiregular", "--order", str(order))
        assert (code, out, err) == (1, "", f"error: --order {order} is above the cap {EDGE_ORDER_CAP}\n")


def test_edge_file_of_order_0_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    for command in ("recognize", "check-gap", "gen", "spectrum", "reduce"):
        code, out, err = run(capsys, command, "--edges", str(path))
        assert (code, out, err) == (1, "", "error: edge-list order must be at least 1, got 0\n")


def test_recognize_edge_file_at_cap_peaks_below_200_mb(tmp_path):
    # A_2000, about a million edges, is the largest edge file the cap admits.
    path = tmp_path / "a2000.txt"
    seq = nsg_to_creation(anti_regular(EDGE_ORDER_CAP))
    path.write_text(format_edge_list(EDGE_ORDER_CAP, sequence_edges(seq)))
    # Linux starts an exec'd child's ru_maxrss at its parent's peak, which
    # here is pytest's; VmHWM is the peak of the child's own memory alone.
    child = ("import sys\n"
             "from thresholdlab import cli\n"
             "code = cli.main(['recognize', '--edges', sys.argv[1]])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(ln for ln in fh if ln.startswith('VmHWM:')), file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(thresholdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, f"sequence: {seq}\n"), done.stderr
    _, peak, unit = done.stderr.split()
    assert unit == "kB" and int(peak) < 200 * 1024


def test_scan_gap_csv_at_order_19_peaks_below_90_mb():
    # rows travel as columns and the CSV is written one scan block at a
    # time, so the peak does not grow with the 13 MB of text or its rows
    child = ("import sys\n"
             "from thresholdlab import cli\n"
             "code = cli.main(['scan-gap', '--order', '19', '--format', 'csv'])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(ln for ln in fh if ln.startswith('VmHWM:')), file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(thresholdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(b"\n") == 2 ** 17 + 1
    assert done.stdout.startswith(b"sequence,order,eta_plus,") and done.stdout.endswith(b",pass\n")
    _, peak, unit = done.stderr.split()
    assert unit == b"kB" and int(peak) < 90 * 1024


def test_scan_gap_at_order_22_without_rows_peaks_below_60_mb():
    # a scan without rows sweeps units of at most 2^16 sequences and solves
    # only the rows it picks, so its peak does not grow with the 2^20 graphs
    child = ("import sys\n"
             "from thresholdlab import cli\n"
             "code = cli.main(['scan-gap', '--order', '22', '--workers', '1', '--format', 'json'])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(ln for ln in fh if ln.startswith('VmHWM:')), file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(thresholdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["graphs_checked"], report["verdict"]) == (2 ** 20, "pass")
    assert report["extremal_eta_plus"][1] == "01" * 11
    _, peak, unit = done.stderr.split()
    assert unit == "kB" and int(peak) < 60 * 1024


# ---------------------------------------------------------------- exit codes


def test_integer_options_take_the_edge_list_rule(capsys):
    # int() would take "1_0" as 10 and full-width digits as digits
    for argv, token in ((["check-antiregular", "--order", "1_0"], "'1_0'"),
                        (["scan-gap", "--order", "4", "--workers", "\uff102"], "'\uff102'"),
                        (["scan-conjecture", "--order", "x"], "'x'"),
                        (["scan-gap", "--order", "4", "--order-cap", "2.0"], "'2.0'"),
                        (["gen", "--order", " 3"], "' 3'")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.endswith(f"error: argument {argv[-2]}: value must be an integer, got {token}\n")
    code, out, err = run(capsys, "check-gap", "--nsg", "nsg(1_0;\uff12)")
    assert (code, out, err) == (1, "", "error: class size must be an integer, got '1_0'\n")
    assert run(capsys, "check-antiregular", "--order", "+3")[0] == 0


def test_main_reuses_one_parser_without_leaking_options(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; no option of one call may reach
    # the next: each reply must be the one a freshly built parser gives
    out = tmp_path / "out.txt"
    calls = [["scan-gap", "--order", "6", "--workers", "2", "--format", "json"],
             ["scan-gap", "--order", "6"],
             ["scan-conjecture", "--order", "5", "--order-cap", "5", "--format", "csv"],
             ["scan-conjecture", "--order", "6"],
             ["gen", "--order", "4", "--connected-only", "--format", "csv"],
             ["gen", "--order", "4", "--format", "csv"],
             ["check-gap", "--seq", "0011", "--out", str(out)],
             ["check-gap", "--seq", "0011"],
             ["scan-gap", "--order", "4", "--workers", "0"],
             ["check-gap", "--nsg", "nsg(3;2)", "--format", "json"],
             ["check-gap", "--nsg", "nsg(3;2)"]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert out.read_text() and fresh[6][1] == "" and fresh[7][1]
    assert fresh[0] != fresh[1] and fresh[4] != fresh[5]
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == fresh
    # a scan command calls the scan function verify holds at the time of the
    # call, so that a wrapper installed after the parser was built (a
    # profiler's or tracer's) is the one that runs
    monkeypatch.setattr(verify, "scan_conjecture",
                        lambda *args, **kwargs: verify.scan_gap(*args, **kwargs))
    assert run(capsys, "scan-conjecture", "--order", "6") == fresh[1]


def test_usage_errors_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "scan-gap")[0] == 1
    assert run(capsys, "gen", "--seq", "01", "--nsg", "nsg(1;1)")[0] == 1
    assert run(capsys, "spectrum", "--seq", "01", "--format", "yaml")[0] == 1
    assert run(capsys, "spectrum", "--nsg", "nsg(oops")[0] == 1
    assert run(capsys, "recognize", "--edges", "/no/such/file")[0] == 1


def test_main_parses_as_the_full_parser_does(tmp_path, capsys, monkeypatch):
    # main hands a command's words to that command's parser; every reply,
    # usage errors and help included, must be the full parser's, and the
    # full parser must not run for a request that parses
    edges = tmp_path / "g.txt"
    edges.write_text(format_edge_list(5, sequence_edges(nsg_to_creation(NsgForm([2], [3])))))
    valid = [["gen", "--seq", "0011", "--format", "json"],
             ["gen", "--order", "4", "--connected-only", "--format", "csv"],
             ["spectrum", "--nsg", "nsg(3;2)"],
             ["check-gap", "--edges", str(edges), "--format", "json"],
             ["check-gap", "--seq", "01", "--out", str(tmp_path / "out.txt")],
             ["scan-gap", "--order", "6", "--format", "json"],
             ["scan-conjecture", "--order", "6", "--workers", "2", "--format", "csv"],
             ["check-antiregular", "--order", "7"],
             ["reduce", "--seq", "0100111", "--format", "csv"],
             ["recognize", "--edges", str(edges)],
             ["scan-gap", "--ord", "4"],  # an abbreviated option
             ["check-gap", "--seq", "01", "--out", ""],
             ["check-gap", "--seq", "01", "--out", str(tmp_path / "missing" / "x")]]
    # the rest: usage errors, help, and a first word that is not a command
    # (which the full parser reads as "--" and then a command)
    rest = [["scan-gap", "--order", "4", "--bogus"], ["check-gap", "--seq", "01", "extra"],
            ["scan-gap", "--order", "5", "scan-gap"], ["scan-gap"],
            ["scan-gap", "--order", "5", "--workers", "\uff102"], ["scan-gap", "-h"],
            ["check-gap", "--help"], [], ["no-such-command"], ["--help"], ["-h", "gen"],
            ["check-gap", "--", "--seq", "01"], ["check-gap", "--seq", "01", "--he"],
            ["--", "scan-gap", "--order", "5"], ["--", "scan-conjecture", "--order", "5"]]
    parser = cli.build_parser()
    parses = []
    full_parse = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args, **kwargs: parses.append(args) or full_parse(*args, **kwargs))
    for argv in valid:
        reply = run(capsys, *argv)
        assert not parses, argv
        assert reply == (oracles.cli_main_reference(argv), *capsys.readouterr())
        parses.clear()
    for argv in rest:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (oracles.cli_main_reference(argv), *capsys.readouterr())
        assert code in (0, 1) and (out if code == 0 else err), argv
    assert run(capsys, "scan-gap", "--order", "4", "--bogus")[2].startswith("usage: thresholdlab [")
    # argv=None reads sys.argv
    for argv in (["check-gap", "--seq", "0011"], ["check-gap", "--seq"]):
        monkeypatch.setattr(sys, "argv", ["thresholdlab", *argv])
        code = cli.main()
        assert (code, *capsys.readouterr()) == (oracles.cli_main_reference(),
                                                *capsys.readouterr())
        assert code == (0 if len(argv) == 3 else 1)


def test_scan_cap_exit_1(capsys):
    code, _, err = run(capsys, "scan-gap", "--order", "30")
    assert code == 1
    assert "error:" in err


def test_scan_order_ceiling_exit_1(capsys, monkeypatch):
    # refused from the order alone, whatever the cap: no os.fork, no scan unit
    def refuse(*args, **kwargs):
        raise AssertionError("scan started above the ceiling")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(verify, "_scan_stride", refuse)
    for command in ("scan-gap", "scan-conjecture"):
        for order in (verify.ORDER_CEILING + 1, 70):
            code, out, err = run(capsys, command, "--order", str(order),
                                 "--order-cap", "100", "--workers", "2")
            assert (code, out) == (1, "")
            assert f"above the ceiling {verify.ORDER_CEILING}" in err


def test_workers_above_cap_exit_1(capsys, monkeypatch):
    # refused from the worker count alone: no os.fork, no scan unit
    def refuse(*args, **kwargs):
        raise AssertionError("scan started above the workers cap")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(verify, "_scan_stride", refuse)
    for command in ("scan-gap", "scan-conjecture"):
        for workers in (verify.MAX_WORKERS + 1, 100000):
            code, out, err = run(capsys, command, "--order", "3", "--workers", str(workers))
            assert (code, out) == (1, "")
            assert err == f"error: workers {workers} above the cap {verify.MAX_WORKERS}\n"


# a scan whose forked children end by os._exit(3) before sending any result
WORKER_DEATH = """\
import os, sys
from thresholdlab import cli, graphs, verify
parent, stride = os.getpid(), verify._scan_stride
verify._scan_stride = lambda *args: stride(*args) if os.getpid() == parent else os._exit(3)
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # every child was reaped
    sys.exit(code)
sys.exit(99)
"""


def test_worker_death_exit_1():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(thresholdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", WORKER_DEATH, "scan-gap", "--order", "8",
                           "--workers", "3"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: a scan worker ended with status 3 before sending its result\n")


def test_workers_without_fork_exit_1(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    for command in ("scan-gap", "scan-conjecture"):
        assert run(capsys, command, "--order", "8", "--workers", "2") == (
            1, "", "error: more than one worker needs os.fork, which this platform lacks\n")
        assert run(capsys, command, "--order", "8")[0] == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_commands_build_no_dense_matrix(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a command built a dense matrix")

    monkeypatch.setattr(cli.graphs, "build_adjacency", refuse)
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
    code, out, _ = run(capsys, "check-antiregular", "--order", "41")
    assert code == 0 and "verdict: pass" in out
    code, out, _ = run(capsys, "reduce", "--nsg", "nsg(3,2;2,1)", "--format", "json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


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


def test_out_in_a_missing_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # the directory is checked before dispatch, for every command: no scan
    # stride runs and no batch is enumerated only to fail at the last step
    def refuse(*args, **kwargs):
        raise AssertionError("work started for an --out that cannot be written")

    monkeypatch.setattr(verify, "_scan_stride", refuse)
    monkeypatch.setattr(graphs, "enumerate_threshold", refuse)
    missing = tmp_path / "missing"
    for argv in (("scan-gap", "--order", "22", "--format", "csv"),
                 ("scan-conjecture", "--order", "12", "--workers", "2"),
                 ("gen", "--order", "14"), ("check-gap", "--seq", "0011"),
                 ("check-antiregular", "--order", "5")):
        code, out, err = run(capsys, *argv, "--out", str(missing / "x.csv"))
        assert (code, out, err) == (1, "", f"error: --out directory {str(missing)!r} "
                                           "does not exist\n"), argv
    assert not missing.exists()


# ---------------------------------------------------------------- scripts


def script(tmp_path, name, *argv) -> subprocess.CompletedProcess:
    path = pathlib.Path(__file__).parents[1] / "scripts" / name
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(thresholdlab.__file__).parents[1])}
    return subprocess.run([sys.executable, str(path), *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)


def run_script(tmp_path, name, *argv):
    done = script(tmp_path, name, *argv)
    assert (done.returncode, done.stderr) == (0, ""), (name, done.stderr)
    return done.stdout.splitlines()


def test_scripts_run(tmp_path, capsys, monkeypatch):
    lines = run_script(tmp_path, "run_gap_scan.py", "--max-order", "7", "--csv-dir", "tmp")
    assert [line[:9] for line in lines] == [f"order {o:2d}:" for o in range(2, 8)] + ["total: 63"]
    assert all(" 0 failures" in line for line in lines[:-1])
    _, csv, _ = run(capsys, "scan-gap", "--order", "7", "--format", "csv")
    assert (tmp_path / "tmp" / "gap_7.csv").read_text() == csv
    lines = run_script(tmp_path, "run_conjecture_scan.py", "--max-order", "7")
    assert [line[:9] for line in lines] == [f"order {o:2d}:" for o in range(2, 8)]
    assert all("[anti-regular extremal]" in line for line in lines)
    lines = run_script(tmp_path, "antiregular_bounds.py", "--max-order", "12",
                       "--csv", "tmp/b.csv")
    assert [line[:6] for line in lines] == [f"n={o:4d}" for o in range(2, 13)]
    assert all(line.endswith("[pass]") for line in lines)
    assert len((tmp_path / "tmp" / "b.csv").read_text().splitlines()) == 12
    for step in ("0", "-1"):  # range() would refuse 0 in its own words, and run no -1 step
        done = script(tmp_path, "antiregular_bounds.py", "--max-order", "12", "--step", step)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", f"error: --step must be at least 1, got {step}\n"), step
    # refused before any order is solved: above the cap A_n's quotient outgrows
    # memory, and a missing --csv directory would be found only at the end
    for argv, message in ((("--min-order", "2001", "--max-order", "2001"),
                           f"--max-order 2001 is above the cap {EDGE_ORDER_CAP}"),
                          (("--max-order", "12", "--csv", "missing/b.csv"),
                           "--csv directory 'missing' does not exist")):
        done = script(tmp_path, "antiregular_bounds.py", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n"), argv
    # a copy of the package with no __pycache__, run by pythons that write
    # none: the script compiles the tree itself before it times a scan,
    # since a scan process that compiles its modules on import peaks higher
    package = tmp_path / "src" / "thresholdlab"
    shutil.copytree(pathlib.Path(thresholdlab.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    src = str(package.parent)
    lines = run_script(tmp_path, "bench_scan_csv.py", "--src", src, "--commit", "x",
                       "--orders", "5", "6", "--repeats", "1", "--out", "tmp/bench.json")
    modules = sorted(package.glob("*.py"))
    assert modules and all(pathlib.Path(importlib.util.cache_from_source(str(module))).exists()
                           for module in modules)
    points = json.loads((tmp_path / "tmp" / "bench.json").read_text())
    assert [json.loads(line) for line in lines] == points
    assert [(p["kind"], p["order"], p["workers"]) for p in points] == [
        ("gap", 5, 1), ("gap", 6, 1), ("conjecture", 5, 1), ("conjecture", 6, 1)]
    assert all(p["graphs_per_cpu_s"] > 0 and p["peak_rss_mb"] > 0 and p["cpu_s_norm"] > 0
               and p["minflt"] >= 0 for p in points)
    # times keep 4 significant digits, however short: these scans take a
    # few ms, which 3 decimals would cut to one digit
    times = [p[key] for p in points for key in ("wall_s", "cpu_s", "cpu_s_norm")]
    assert all(0 < t == float(f"{t:.4g}") for t in times)
    assert any(t != round(t, 3) for t in times)
    # refused before any scan runs: no point printed, no file written; an
    # order or a worker count the scan would refuse is found before the
    # orders ahead of it are timed
    ceiling, cap = verify.ORDER_CEILING, verify.MAX_WORKERS
    for argv, message in ((("--orders", "5", "--repeats", "0", "--out", "tmp/none.json"),
                           "--repeats must be at least 1, got 0"),
                          (("--orders", "5", "--out", "missing/bench.json"),
                           "--out directory 'missing' does not exist"),
                          (("--orders", "3", str(ceiling + 1), "--format", "json",
                            "--out", "tmp/none.json"),
                           f"--orders must lie within 2..{ceiling}, got {ceiling + 1}"),
                          (("--orders", "1", "5", "--out", "tmp/none.json"),
                           f"--orders must lie within 2..{ceiling}, got 1"),
                          (("--orders", "5", "--workers", "0", "--out", "tmp/none.json"),
                           f"--workers must lie within 1..{cap}, got 0"),
                          (("--orders", "5", "--workers", str(cap + 1), "--out", "tmp/none.json"),
                           f"--workers must lie within 1..{cap}, got {cap + 1}")):
        done = script(tmp_path, "bench_scan_csv.py", "--src", src, "--commit", "x", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n"), argv
    assert not (tmp_path / "tmp" / "none.json").exists()
    # request_split.py times one request in one python per tree, by stage,
    # and refuses what bench_scan_csv.py refuses before anything runs
    lines = run_script(tmp_path, "request_split.py", "--src", src, "--src", src, "--rounds", "2",
                       "--calls", "2", "--out", "tmp/split.json", "--",
                       "scan-gap", "--order", "6", "--format", "json")
    split = json.loads("\n".join(lines))
    assert split == json.loads((tmp_path / "tmp" / "split.json").read_text())
    assert split["same_output"] and [tree["exit_code"] for tree in split["trees"]] == [0, 0]
    assert all(tree[stage] > 0 for tree in split["trees"]
               for stage in ("main", "parse", "handler", "run_scan", "prune", "sweep"))
    assert all(tree["locate"] == tree["fixed_point"] == 0 for tree in split["trees"])
    # check-antiregular splits into its locator and the fixed-point steps within it
    lines = run_script(tmp_path, "request_split.py", "--src", src, "--rounds", "1", "--calls",
                       "1", "--", "check-antiregular", "--order", "40")
    tree = json.loads("\n".join(lines))["trees"][0]
    assert tree["locate"] >= tree["fixed_point"] > 0 == tree["sweep"]
    for argv, message in ((("--src", src, "--rounds", "0"), "--rounds must be at least 1, got 0"),
                          (("--src", src, "--calls", "0"), "--calls must be at least 1, got 0"),
                          (("--src", src, "--out", "missing/split.json"),
                           "--out directory 'missing' does not exist"),
                          (("--src", src, "--src", str(tmp_path / "tmp")),
                           f"--src {str(tmp_path / 'tmp')!r} holds no thresholdlab package")):
        done = script(tmp_path, "request_split.py", *argv, "--", "check-gap", "--seq", "01")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n"), argv
    # usage errors exit 1, as the CLI's do (2 claims a counterexample), and
    # integer options follow the CLI's integer rule
    for name in ("run_gap_scan.py", "run_conjecture_scan.py", "antiregular_bounds.py"):
        for value in ("x", "1_0"):
            done = script(tmp_path, name, "--max-order", value)
            assert (done.returncode, done.stdout) == (1, ""), (name, value)
            assert done.stderr.endswith(
                f"{name}: error: argument --max-order: value must be an integer, got '{value}'\n")


def test_scripts_reject_out_of_range_input(tmp_path):
    # a message and exit 1, as the CLI gives; exit 2 would claim a counterexample
    for name, *argv, message in (
            ("run_gap_scan.py", "--min-order", "23", "--max-order", "23",
             "order 23 above cap 22"),
            ("run_gap_scan.py", "--max-order", "3", "--workers", "0", "workers must be >= 1"),
            ("run_conjecture_scan.py", "--min-order", "23", "--max-order", "23",
             "order 23 above cap 22"),
            ("run_conjecture_scan.py", "--max-order", "3", "--workers", "0",
             "workers must be >= 1"),
            ("antiregular_bounds.py", "--min-order", "1",
             "anti-regular graphs need order >= 2, got 1")):
        done = script(tmp_path, name, *argv)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n"), (
            name, argv, done.stderr)
