"""Text and file formats: NSG strings, edge-list files, record renderers.

Formats:
  * creation sequences: '0'/'1' strings;
  * NSG text: ``nsg(m1,...,mh;n1,...,nh[;+k])``, ``+k`` = isolated count,
    e.g. ``nsg(3;2)``, ``nsg(1,2;1,1)``, ``nsg(;;+3)`` for 3K_1;
  * edge lists: first line ``n m`` with 1 <= n <= EDGE_ORDER_CAP, then m lines
    ``u v`` (0-based); lines starting with ``#`` are comments, and lines and
    blanks are those of ``str.splitlines`` and ``str.split``.
    ``parse_edge_list`` returns ``(n, edges)`` with ``edges`` an ``(m, 2)``
    int64 array.  It makes no string per line: numpy passes over the bytes
    count lines and words, and one ``np.fromstring`` reads every integer.

Command output is rendered from records: ordered dicts of numbers, strings,
``NsgForm``s, lists, arrays and (u, v) edge tuples.  ``to_plain`` and
``to_json`` turn them into ``key: value`` lines and JSON; ``to_csv`` takes
them as columns, a list per key.  Floats print at 12 significant digits
(``sig12``) in plain and CSV.  ``to_json`` prints exactly what
``json.dumps(indent=2)`` would, but by its own small recursive emitter: the
json module's C string encoder, ``repr`` for numbers, one join per list of
ints, and one ``%`` over a repeated ``%d`` row template per int table.  With
an indent, ``json.dumps`` runs its pure-Python encoder (on 3.10 to 3.12
always), which takes a generator step per number.
"""

from __future__ import annotations

import math
import re
import warnings
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

import numpy as np

from .graphs import NsgForm

# An edge file may not ask for more vertices than this, nor fewer than one.
# Recognition takes O(m log m + n log n), but check-gap then solves a
# quotient of up to n x n: at the cap, A_2000 (about a million edges) took
# 1.25 s of CPU and peaked at 112 MB, recognize alone 0.23 s and 97 MB (one
# BLAS thread, 2-core Xeon).  The command line holds every other
# single-graph input to it.
EDGE_ORDER_CAP = 2000
# Integers in any input (edge-list tokens, NSG class sizes, integer options)
# follow the rule numpy applies to the edge lines: an optional sign, then
# ASCII digits (int() would also take "1_0" and "２").
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = np.iinfo(np.int64).max
# The patterns of the edge-list parse are strings, compiled by re on first
# use and cached there: every command imports this module, and compiling
# them (the non-ASCII classes above all) took 1.7 ms on a 2-core Xeon.
# The line breaks of str.splitlines and the other blanks of str.split, as
# regex class bodies, the ASCII ones and the others.
_ASCII_BREAKS, _OTHER_BREAKS = "\n\r\v\f\x1c-\x1e", "\x85\u2028\u2029"
_ASCII_BLANKS, _OTHER_BLANKS = " \t\x1f", "\xa0\u1680\u2000-\u200a\u202f\u205f\u3000"
# The first line that is neither blank nor a comment.  The blank run before
# it stays on one line: \s* would rescan every blank line from each break.
_HEADER = (f"(?:^|[{_ASCII_BREAKS}{_OTHER_BREAKS}])[{_ASCII_BLANKS}{_OTHER_BLANKS}]*"
           f"([^\\s#][^{_ASCII_BREAKS}{_OTHER_BREAKS}]*)")
_SPACES_AND_NEWLINES = bytes.maketrans(b"\t\x1f\r\v\f\x1c\x1d\x1e", b"  \n\n\n\n\n\n")
# In edge-line bytes, whose blanks are b" " and line breaks b"\n":
_COMMENT = rb"\n *#[^\n]*"
_LONE_SIGN = rb"[+-](?![^ \n])"
# every word but an integer of at most 18 digits, leading zeros aside
_UNUSUAL_WORD = rb"(?<![^ \n])(?![+-]?0*[0-9]{1,18}(?![^ \n]))[^ \n]+"


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
    array in file order.  Lines and blanks are those of ``str.splitlines``
    and ``str.split``.  The header is checked before any edge line is read,
    and the edge lines never become strings: their bytes get a few numpy
    passes, which count the lines and the words on each, and one
    ``np.fromstring`` reads every integer."""
    head = re.search(_HEADER, text)
    if head is None:
        raise ValueError("empty edge-list input")
    line = head[1].strip()
    fields = line.split()
    if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
        raise ValueError(f"first line must be 'n m' integers, got {line!r}")
    order, count = int(fields[0]), int(fields[1])
    if order < 1:
        raise ValueError(f"edge-list order must be at least 1, got {order}")
    if order > EDGE_ORDER_CAP:
        raise ValueError(f"edge-list order {order} is above the cap {EDGE_ORDER_CAP}")
    # From the header on, as bytes in which every blank is b" " and every
    # line break b"\n"; no copy of a text that starts with its header.
    lines = text[head.start(1):]
    if not lines.isascii():
        lines = re.sub(f"[{_OTHER_BLANKS}]", " ", re.sub(f"[{_OTHER_BREAKS}]", "\n", lines))
    data = lines.encode(errors="surrogatepass").translate(_SPACES_AND_NEWLINES)
    del lines
    if b"#" in data:
        data = re.sub(_COMMENT, b"", data)
    breaks = _breaks_and_words(data)
    # a line's first word follows a break; the header is the first line
    found = np.count_nonzero(breaks[:-1] > breaks[1:]) - 1
    if found != count:
        raise ValueError(f"header promises {count} edges, found {found}")
    if not count:
        return order, np.empty((0, 2), dtype=np.int64)
    # two words a line: 2m + 2 words in all, and no word alone between breaks
    if (breaks.size - np.count_nonzero(breaks) != 2 * count + 2
            or (breaks[:-2] & ~breaks[1:-1] & breaks[2:]).any()):
        words = np.diff(np.flatnonzero(breaks)) - 1
        words = words[words > 0][1:]
        row = np.flatnonzero(words != 2)[0]
        raise ValueError(f"edge lines must be 'u v' integer pairs: edge line {row + 1} "
                         f"has word count {words[row]}")
    try:
        with warnings.catch_warnings():
            # Some numpy versions stop at a word that is not an integer with
            # only a warning; as an error it is refused like any other.
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(data, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        values = None
    # fromstring reads a lone sign as 0 or as the sign of the next word, and
    # an integer beyond int64 as the largest int64: only then, or when it
    # stops early, can a word be one to refuse
    if (values is None or values.size != 2 * count + 2 or values.max() == _INT64_MAX
            or ((b"-" in data or b"+" in data) and re.search(_LONE_SIGN, data))):
        word = _refused_word(data)
        if word is not None or values is None or values.size != 2 * count + 2:
            raise ValueError(f"edge lines must be 'u v' integer pairs: {word!r} is not "
                             "an int64 integer")
    return order, values[2:].reshape(count, 2)  # after the header's n and m


def _breaks_and_words(data: bytes) -> np.ndarray:
    """True for each line break and False for each word of ``data``, bytes
    whose blanks are b" " and line breaks b"\\n", in text order, with a
    break put before and after."""
    buf = np.frombuffer(data, np.uint8)
    newline = buf == 10
    word = buf != 32
    word ^= newline
    event = np.empty_like(word)  # a break, or a word byte after a non-word byte
    event[:1] = word[:1]
    np.greater(word[1:], word[:-1], out=event[1:])
    event |= newline
    return np.concatenate(([True], newline[np.flatnonzero(event)], [True]))


def _refused_word(data: bytes) -> str | None:
    """The first word of ``data`` that is not an int64 integer, or None."""
    for match in re.finditer(_UNUSUAL_WORD, data):
        word = match[0]
        if (not re.fullmatch(rb"[+-]?[0-9]+", word) or len(word.lstrip(b"+-0")) > 19
                or not -_INT64_MAX - 1 <= int(word) <= _INT64_MAX):
            return word.decode(errors="surrogatepass")
    return None


def read_edge_list(path) -> tuple[int, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _json(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` prints it, at the indent ``nl``
    (a newline and two spaces per level).  Lists of ints, and lists of
    equal-length int rows such as edge lists, take one join or one ``%``
    over a repeated row template instead of a call per number; bools are
    not ints here."""
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
    types = {*map(type, obj)}
    cells = (tuple(chain.from_iterable(obj))
             if types <= {list, tuple} and len({*map(len, obj)}) == 1 else ())
    if types == {int}:
        body = sep.join(map(int.__repr__, obj))
    elif cells and {*map(type, cells)} == {int}:
        cell = "," + inner + "  "
        row = "[" + cell[1:] + cell.join(["%d"] * (len(cells) // len(obj))) + inner + "]"
        body = sep.join([row] * len(obj)) % cells
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
