"""Text and file formats: NSG strings, edge-list files, record renderers.

Formats:
  * creation sequences: '0'/'1' strings;
  * NSG text: ``nsg(m1,...,mh;n1,...,nh[;+k])``, ``+k`` = isolated count,
    e.g. ``nsg(3;2)``, ``nsg(1,2;1,1)``, ``nsg(;;+3)`` for 3K_1;
  * edge lists: first line ``n m`` with n <= EDGE_ORDER_CAP, then m lines
    ``u v`` (0-based); lines starting with ``#`` are comments.

Command output is rendered from records: ordered dicts of numbers, strings,
``NsgForm``s, lists, arrays and (u, v) edge tuples.  ``to_plain``,
``to_csv`` and ``to_json`` turn them into ``key: value`` lines, CSV rows and
JSON; floats print at 12 significant digits (``sig12``) in plain and CSV.
"""

from __future__ import annotations

import json
from functools import partial
from operator import itemgetter
from typing import Iterable

import numpy as np

from .graphs import NsgForm

# An edge file may not ask for more vertices than this.  Recognition takes
# O(m + n log n), but check-gap then solves a quotient of up to n x n: at the
# cap, A_2000 (about a million edges) took about 5 s and 260 MB.
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


def _json_default(obj):
    return format_nsg(obj) if isinstance(obj, NsgForm) else obj.tolist()


def to_json(obj) -> str:
    """Indented JSON; NSG forms as their text, arrays as lists."""
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


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


def _csv_str(value) -> str:
    return "" if value is None else str(value)


# Scans render thousands of rows, so float, int and str columns skip the
# per-value type tests of _text.
_CSV_COLUMN = {float: lambda value: "" if value is None else sig12(value),
               int: _csv_str, str: _csv_str}


def to_csv(keys, records) -> str:
    """A header of ``keys``, then one row per record of the sequence ``records``.

    None is empty, NSG text quoted, bools True/False, floats at 12 digits.
    Each column gets one formatter, picked by its first value that is not
    None, so a column must hold one type.
    """
    def column(key):
        sample = next((r[key] for r in records if r[key] is not None), None)
        cell = _CSV_COLUMN.get(type(sample), partial(_text, csv=True))
        return map(cell, map(itemgetter(key), records))

    return "\n".join([",".join(keys), *map(",".join, zip(*map(column, keys)))]) + "\n"
