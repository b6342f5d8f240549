"""Golden CLI outputs: exit code, stdout and stderr of all eight commands in
all three formats.

Plain and CSV output must match the fixture byte for byte.  JSON output is
parsed with its key order kept and its floats compared to 1e-12, so that a
different BLAS cannot break the test.  Regenerate the fixture with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile
from unittest import mock

from thresholdlab import cli

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")

# argv tokens "@name" stand for a file holding EDGE_FILES[name]
EDGE_FILES = {
    "paw": "4 4\n0 1\n0 3\n1 3\n2 3\n",
    "relabelled": "# nsg(2;2) with shuffled labels\n5 5\n4 0\n2 4\n0 2\n3 4\n1 4\n",
    "c4": "4 4\n0 1\n1 2\n2 3\n3 0\n",
    "p4": "4 3\n3 1\n1 0\n0 2\n",
    "2k2": "5 2\n0 4\n1 3\n",
    "c4_plus_star": "7 7\n0 1\n1 2\n2 3\n3 0\n4 5\n4 6\n0 4\n",
    "c4_peeled": "6 8\n1 2\n2 3\n3 4\n4 1\n0 1\n0 2\n3 0\n0 4\n",
    "edgeless": "3 0\n",
    "single": "1 0\n",
    "empty": "0 0\n",
    "loop": "2 1\n1 1\n",
    "duplicate": "3 2\n0 1\n1 0\n",
    "out_of_range": "3 1\n0 3\n",
    "huge": "100000000 0\n",
}

INVOCATIONS = [
    ["gen", "--seq", "0011"],
    ["gen", "--nsg", "nsg(1,2;1,1)"],
    ["gen", "--edges", "@relabelled"],
    ["gen", "--seq", "0"],
    ["gen", "--seq", "000"],
    ["gen", "--order", "1"],
    ["gen", "--order", "3"],
    ["gen", "--order", "4", "--connected-only"],
    ["gen", "--nsg", "nsg(oops"],
    ["spectrum", "--nsg", "nsg(3;2)"],
    ["spectrum", "--seq", "0101"],
    ["spectrum", "--seq", "01"],
    ["spectrum", "--seq", "0"],
    ["spectrum", "--seq", "000"],
    ["spectrum", "--edges", "@paw"],
    ["spectrum", "--order", "3"],
    ["spectrum", "--order", "4", "--connected-only"],
    ["check-gap", "--seq", "0011"],
    ["check-gap", "--nsg", "nsg(3;2)"],
    ["check-gap", "--nsg", "nsg(2,1;1,3;+2)"],
    ["check-gap", "--edges", "@paw"],
    ["check-gap", "--edges", "@relabelled"],
    ["check-gap", "--seq", "0"],
    ["check-gap", "--seq", "000"],
    ["check-gap", "--edges", "@c4"],
    ["check-gap", "--edges", "@huge"],
    ["check-gap", "--nsg", "nsg(1_0;\uff12)"],
    ["check-gap", "--nsg", "nsg(x;1)"],
    ["check-gap", "--nsg", "nsg(1;1;+1_0)"],
    ["scan-gap", "--order", "2", "--workers", "2"],
    ["scan-gap", "--order", "4", "--workers", "2"],
    ["scan-gap", "--order", "6", "--workers", "2"],
    ["scan-gap", "--order", "5"],
    ["scan-gap", "--order", "1"],
    ["scan-gap", "--order", "30"],
    ["scan-gap", "--order", "4", "--workers", "0"],
    ["scan-gap", "--order", "4", "--workers", "\uff102"],
    ["scan-conjecture", "--order", "2", "--workers", "2"],
    ["scan-conjecture", "--order", "4", "--workers", "2"],
    ["scan-conjecture", "--order", "6", "--workers", "2"],
    ["scan-conjecture", "--order", "7"],
    ["check-antiregular", "--order", "2"],
    ["check-antiregular", "--order", "3"],
    ["check-antiregular", "--order", "10"],
    ["check-antiregular", "--order", "41"],
    ["check-antiregular", "--order", "1_0"],
    ["reduce", "--nsg", "nsg(1,3;1,1)"],
    ["reduce", "--nsg", "nsg(3,2;2,1)"],
    ["reduce", "--seq", "0101"],
    ["reduce", "--seq", "01"],
    ["reduce", "--seq", "010"],
    ["reduce", "--seq", "0"],
    ["recognize", "--edges", "@paw"],
    ["recognize", "--edges", "@relabelled"],
    ["recognize", "--edges", "@c4"],
    ["recognize", "--edges", "@p4"],
    ["recognize", "--edges", "@2k2"],
    ["recognize", "--edges", "@c4_plus_star"],
    ["recognize", "--edges", "@c4_peeled"],
    ["recognize", "--edges", "@edgeless"],
    ["recognize", "--edges", "@single"],
    ["recognize", "--edges", "@empty"],
    ["recognize", "--edges", "@loop"],
    ["recognize", "--edges", "@duplicate"],
    ["recognize", "--edges", "@out_of_range"],
    ["recognize", "--edges", "@huge"],
]
CASES = [argv + ["--format", fmt] for argv in INVOCATIONS for fmt in cli.FORMATS]


def run(argv, files: pathlib.Path) -> dict:
    argv = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal's width: pin it
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.dict(os.environ, COLUMNS="80")):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: pathlib.Path) -> pathlib.Path:
    for name, text in EDGE_FILES.items():
        (directory / name).write_text(text)
    return directory


def _json_mismatch(expected, actual, where: str) -> str | None:
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=1e-12, abs_tol=1e-12):
            return None
    elif type(expected) is not type(actual):
        return f"{where}: {actual!r} is not {expected!r}"
    elif isinstance(expected, tuple):  # one key-value pair of an object
        if expected[0] != actual[0]:
            return f"{where}: key {actual[0]!r}, expected {expected[0]!r}"
        return _json_mismatch(expected[1], actual[1], f"{where}.{expected[0]}")
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            problem = _json_mismatch(e, a, f"{where}[{i}]")
            if problem:
                return problem
        return None
    elif expected == actual:
        return None
    return f"{where}: {actual!r}, expected {expected!r}"


def _parse_json(text: str):
    return json.loads(text, object_pairs_hook=list)


def mismatch(expected: dict, actual: dict, fmt: str) -> str | None:
    for key in ("code", "stderr"):
        if actual[key] != expected[key]:
            return f"{key} {actual[key]!r}, expected {expected[key]!r}"
    if fmt != "json" or not expected["stdout"]:
        if actual["stdout"] != expected["stdout"]:
            return f"stdout {actual['stdout']!r}, expected {expected['stdout']!r}"
        return None
    return _json_mismatch(_parse_json(expected["stdout"]), _parse_json(actual["stdout"]),
                          "stdout")


def test_cli_golden(tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert [case["argv"] for case in golden] == CASES
    files = write_files(tmp_path)
    problems = []
    for case in golden:
        problem = mismatch(case, run(case["argv"], files), case["argv"][-1])
        if problem:
            problems.append(f"{' '.join(case['argv'])}: {problem}")
    assert problems == []


def _not_json(name):
    raise ValueError(f"{name} is not a JSON value (RFC 8259)")


def test_golden_json_is_standard():
    # json.loads takes Infinity and NaN by default; standard JSON has neither
    golden = json.loads(FIXTURE.read_text())
    outputs = [case["stdout"] for case in golden if case["argv"][-1] == "json" and case["stdout"]]
    assert outputs
    for text in outputs:
        json.loads(text, parse_constant=_not_json)


def test_golden_json_is_indent_2(tmp_path):
    # the float bits of the JSON output depend on the BLAS, its layout does
    # not: the fixture and today's output are both what json.dumps(indent=2)
    # prints of their own values
    golden = json.loads(FIXTURE.read_text())
    files = write_files(tmp_path)
    cases = [case for case in golden if case["argv"][-1] == "json" and case["stdout"]]
    assert cases
    for case in cases:
        for text in (case["stdout"], run(case["argv"], files)["stdout"]):
            assert json.dumps(json.loads(text), indent=2) + "\n" == text, case["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(pathlib.Path(tmp))
        golden = [{"argv": argv, **run(argv, files)} for argv in CASES]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(case) for case in golden) + "\n]\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")
