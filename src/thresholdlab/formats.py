"""Text and file formats: NSG strings, edge-list files, record renderers.

Formats:
  * creation sequences: '0'/'1' strings;
  * NSG text: ``nsg(m1,...,mh;n1,...,nh[;+k])``, ``+k`` = isolated count,
    e.g. ``nsg(3;2)``, ``nsg(1,2;1,1)``, ``nsg(;;+3)`` for 3K_1;
  * edge lists: first line ``n m`` with 1 <= n <= EDGE_ORDER_CAP, then m lines
    ``u v`` (0-based); lines starting with ``#`` are comments.
    ``parse_edge_list`` returns ``(n, edges)`` with ``edges`` an ``(m, 2)``
    int64 array, read in one numpy call.

Command output is rendered from records: ordered dicts of numbers, strings,
``NsgForm``s, lists, arrays and (u, v) edge tuples.  ``to_plain`` and
``to_json`` turn them into ``key: value`` lines and JSON; ``to_csv`` takes
them as columns, a list per key.  Floats print at 12 significant digits
(``sig12``) in plain and CSV.  ``to_json`` prints exactly what
``json.dumps(indent=2)`` would, but by its own small recursive emitter: the
json module's C string encoder, ``repr`` for numbers, and one join per list
of ints or one ``%d`` template per row of an int table.  With an indent,
``json.dumps`` runs its pure-Python encoder (on 3.10 to 3.12 always), which
takes a generator step per number.
"""

from __future__ import annotations

import math
import re
import warnings
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

import numpy as np

from .graphs import NsgForm

# An edge file may not ask for more vertices than this, nor fewer than one.
# Recognition takes O(m log m + n log n), but check-gap then solves a
# quotient of up to n x n: at the cap, A_2000 (about a million edges) took
# 1.3 s of CPU and peaked at 145 MB, recognize alone 0.3 s (one BLAS thread,
# 2-core Xeon).  The command line holds every other single-graph input to it.
EDGE_ORDER_CAP = 2000
# Integers in any input (edge-list tokens, NSG class sizes, integer options)
# follow the rule numpy applies to the edge lines: an optional sign, then
# ASCII digits (int() would also take "1_0" and "２").
_INTEGER = re.compile(r"[+-]?[0-9]+")


def sig12(x: float) -> str:
    """12-significant-digit rendering used by plain and CSV output."""
    return f"{x:.12g}"


def parse_integer(token: str, what: str) -> int:
    """``token`` as an int by the edge-line rule; a ValueError naming it otherwise."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"{what} must be an integer, got {token!r}")
    return int(token)


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
        return tuple(parse_integer(tok.strip(), "class size") for tok in chunk.split(","))

    isolated = 0
    if len(parts) == 3:
        tail = parts[2].strip()
        if not tail.startswith("+"):
            raise ValueError(f"isolated count must look like '+k', got {tail!r}")
        isolated = parse_integer(tail[1:].strip(), "isolated count")
    return NsgForm(_sizes(parts[0]), _sizes(parts[1]), isolated)


def format_edge_list(order: int, edges: Iterable[tuple[int, int]]) -> str:
    lines = [f"{u} {v}" for u, v in edges]
    return "\n".join([f"{order} {len(lines)}"] + lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, np.ndarray]:
    """``(order, edges)`` of an edge-list text, ``edges`` an ``(m, 2)`` int64
    array in file order.  The header is checked before any edge line is read."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:  # without one, no line can be a comment: skip the scan
        lines = [ln for ln in lines if ln[0] != "#"]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_INTEGER.fullmatch, head)):
        raise ValueError(f"first line must be 'n m' integers, got {lines[0]!r}")
    order, count = int(head[0]), int(head[1])
    if order < 1:
        raise ValueError(f"edge-list order must be at least 1, got {order}")
    if order > EDGE_ORDER_CAP:
        raise ValueError(f"edge-list order {order} is above the cap {EDGE_ORDER_CAP}")
    if len(lines) - 1 != count:
        raise ValueError(f"header promises {count} edges, found {len(lines) - 1}")
    if not count:
        return order, np.empty((0, 2), dtype=np.int64)
    try:
        with warnings.catch_warnings():
            # Some numpy versions read a float token such as 1.5 as the int 1
            # and only warn; as an error it is refused like any non-integer.
            warnings.simplefilter("error", DeprecationWarning)
            edges = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning) as exc:  # a non-integer token, or ragged lines
        reason = str(exc).split(";")[0]  # drop numpy's hint about usecols
        raise ValueError(f"edge lines must be 'u v' integer pairs: {reason}") from None
    if edges.shape[1] != 2:
        raise ValueError(f"edge line must be 'u v', got {lines[1]!r}")
    return order, edges


def read_edge_list(path) -> tuple[int, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _json(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` prints it, at the indent ``nl``
    (a newline and two spaces per level).  Lists of ints, and lists of
    equal-length int rows such as edge lists, take one join or one ``%d``
    template per row instead of a call per number; bools are not ints here."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, NsgForm):
        return _quote(format_nsg(obj))
    if not isinstance(obj, (list, tuple, dict)):
        return _json(obj.tolist(), nl)  # an array or a numpy scalar
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        body = sep.join(f"{_quote(key)}: {_json(value, inner)}" for key, value in obj.items())
        return "{" + inner + body + nl + "}"
    width = len(obj[0]) if type(obj[0]) in (list, tuple) else 0
    if all(type(item) is int for item in obj):
        body = sep.join(map(int.__repr__, obj))
    elif (width and all(type(row) in (list, tuple) and len(row) == width for row in obj)
          and all(type(item) is int for row in obj for item in row)):
        cell = "," + inner + "  "
        row = "[" + cell[1:] + cell.join(["%d"] * width) + inner + "]"
        body = sep.join(map(row.__mod__, map(tuple, obj)))
    else:
        body = sep.join(_json(item, inner) for item in obj)
    return f"[{inner}{body}{nl}]"  # one copy of a long body, not one per +


def to_json(obj) -> str:
    """Indented JSON, byte for byte what ``json.dumps(obj, indent=2)`` prints,
    and a newline; NSG forms as their text, arrays and numpy scalars as
    lists and numbers.  JSON has no inf or nan, so a non-finite float is
    written as null."""
    return _json(obj, "\n") + "\n"


def _text(value, csv: bool = False) -> str:
    """One plain or CSV value: None absent (CSV: empty), bools true/false
    (CSV: True/False), NSG text (quoted in CSV), floats at 12 significant
    digits, lists and arrays space-joined, (u, v) edges as u-v."""
    if value is None:
        return "" if csv else "absent"
    if isinstance(value, bool):
        return str(value) if csv else str(value).lower()
    if isinstance(value, float):
        return sig12(value)
    if isinstance(value, NsgForm):
        return f'"{format_nsg(value)}"' if csv else format_nsg(value)
    if isinstance(value, tuple):
        return "-".join(map(str, value))
    if isinstance(value, (list, np.ndarray)):
        return " ".join(_text(item, csv) for item in value)
    return str(value)


def to_plain(records) -> str:
    """``key: value`` lines, one block per record, blocks split by a blank line."""
    blocks = ("\n".join(f"{key}: {_text(value)}" for key, value in record.items())
              for record in records)
    return "\n\n".join(blocks) + "\n"


def to_csv(keys, columns) -> str:
    """A header of ``keys``, then one row per index of the equal-length
    ``columns``, one list per key.

    None is empty, NSG text quoted, bools True/False, floats at 12 digits.
    """
    cells = ([_text(value, csv=True) for value in column] for column in columns)
    return "\n".join([",".join(keys), *map(",".join, zip(*cells))]) + "\n"
