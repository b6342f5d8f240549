"""Threshold graphs: creation sequences, nested split graph form, adjacency.

A threshold graph is grown from a single vertex by repeatedly adding either
an isolated vertex ('0') or a dominating vertex ('1', adjacent to everything
present).  The binary record of the process is the creation sequence; pinning
the first symbol to '0' makes it canonical, so there are exactly 2^(n-1)
threshold graphs of order n and enumeration is a bit-counting exercise.

Every connected threshold graph is a nested split graph: the vertex set
splits into clique classes V_1..V_h and coclique classes U_1..U_h with
N(u) = V_1 + ... + V_i for u in U_i.  ``NsgForm`` records the class sizes
(m_i = |U_i|, n_i = |V_i|) plus a count of extra isolated vertices, which is
all the disconnectedness a threshold graph can have.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

ISOLATED = "0"
DOMINATING = "1"
_RUNS = re.compile("0+|1+")  # the maximal runs of a creation sequence


class EmptyInputError(ValueError):
    """Empty creation-sequence string."""


class InvalidCharacterError(ValueError):
    """Creation-sequence string contains a character other than '0'/'1'."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position}, expected '0' or '1'")


class InvalidEdgeError(ValueError):
    """Self-loop, out-of-range endpoint, or duplicate edge in an edge list."""


class OrderTooSmallError(ValueError):
    """Requested order below the smallest meaningful one."""


@dataclass(frozen=True)
class CreationSequence:
    """Canonical build recipe of a threshold graph.

    ``symbols`` is a '0'/'1' string whose i-th character says whether vertex i
    was added isolated or dominating.  The first symbol is always '0'.
    """

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise EmptyInputError("creation sequence must be nonempty")
        if self.symbols.strip(ISOLATED + DOMINATING):  # a bad symbol: name the first
            i = next(i for i, c in enumerate(self.symbols) if c not in (ISOLATED, DOMINATING))
            raise InvalidCharacterError(i, self.symbols[i])
        if self.symbols[0] != ISOLATED:
            raise ValueError("canonical creation sequence starts with '0'; use parse_creation_sequence")

    @property
    def order(self) -> int:
        return len(self.symbols)

    @property
    def connected(self) -> bool:
        """True iff the graph is connected (single vertex, or last vertex dominating)."""
        return self.order == 1 or self.symbols[-1] == DOMINATING

    def __str__(self) -> str:
        return self.symbols


@dataclass(frozen=True)
class NsgForm:
    """Nested-split-graph class sizes plus an isolated-vertex count.

    ``m[i-1]`` is the size of coclique class U_i and ``n[i-1]`` the size of
    clique class V_i (1-based, i = 1..h).  ``isolated`` counts isolated
    vertices outside the nontrivial component; h = 0 only for edgeless graphs.
    """

    m: tuple[int, ...]
    n: tuple[int, ...]
    isolated: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(map(int, self.m)))
        object.__setattr__(self, "n", tuple(map(int, self.n)))
        object.__setattr__(self, "isolated", int(self.isolated))
        if len(self.m) != len(self.n):
            raise ValueError("m and n must have the same length")
        if min(self.m, default=1) < 1 or min(self.n, default=1) < 1:
            raise ValueError("class sizes must be positive")
        if self.isolated < 0:
            raise ValueError("isolated count must be nonnegative")
        if self.order < 1:
            raise ValueError("graph must have at least one vertex")

    @property
    def h(self) -> int:
        return len(self.m)

    @property
    def order(self) -> int:
        return sum(self.m) + sum(self.n) + self.isolated

    @property
    def connected(self) -> bool:
        return (self.h >= 1 and self.isolated == 0) or self.order == 1

    @property
    def antiregular(self) -> bool:
        """True iff this is the connected anti-regular graph of its order.

        All class sizes are 1, except m_h = 2 when the order is odd.
        """
        if self.h == 0 or self.isolated:
            return False
        return all(x == 1 for x in self.n) and all(x == 1 for x in self.m[:-1]) and self.m[-1] in (1, 2)


@dataclass(frozen=True)
class WeightRealization:
    """Vertex weights and threshold with u ~ v iff w(u) + w(v) > threshold."""

    threshold: int
    weights: tuple[int, ...]


@dataclass(frozen=True)
class NotThreshold:
    """Witness returned when recognition gets stuck.

    The induced subgraph on ``vertices`` has no isolated and no dominating
    vertex, which certifies the input is not a threshold graph.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def parse_creation_sequence(text: str) -> CreationSequence:
    """Parse a '0'/'1' string, forcing the first symbol to '0'.

    The first vertex has no adjacency history, so the leading symbol carries
    no information; normalizing it makes the representation canonical.
    """
    if not text:
        raise EmptyInputError("creation sequence must be nonempty")
    if text[0] not in (ISOLATED, DOMINATING):
        raise InvalidCharacterError(0, text[0])
    return CreationSequence(ISOLATED + text[1:])  # which checks the other symbols


def creation_to_nsg(seq: CreationSequence) -> NsgForm:
    """Read off the nested-split-graph class sizes from a creation sequence.

    Maximal runs 0^a1 1^b1 ... 0^ah 1^bh (0^a trailing) give m_h = a1,
    n_h = b1, ..., m_1 = ah, n_1 = bh and ``isolated`` = the trailing run:
    the earliest isolated run is adjacent to every later dominating run, so
    it is the top coclique class U_h, and the last dominating run is V_1.
    """
    runs = list(map(len, _RUNS.findall(seq.symbols)))  # the first is a run of 0s
    zero_sizes, one_sizes = runs[::2], runs[1::2]
    h = len(one_sizes)
    trailing = zero_sizes[h] if len(zero_sizes) > h else 0
    m = tuple(reversed(zero_sizes[:h]))
    n = tuple(reversed(one_sizes))
    return NsgForm(m, n, trailing)


def nsg_to_creation(form: NsgForm) -> CreationSequence:
    """Inverse of :func:`creation_to_nsg` (exact round-trip)."""
    parts = []
    for mi, ni in zip(reversed(form.m), reversed(form.n)):
        parts.append(ISOLATED * mi + DOMINATING * ni)
    parts.append(ISOLATED * form.isolated)
    return CreationSequence("".join(parts))


def build_adjacency(seq: CreationSequence) -> np.ndarray:
    """Replay the creation process into a read-only uint8 adjacency matrix.

    Only the ``dense`` cross-check column of ``spectrum`` and the tests build
    one; every verdict comes from the sequence itself.
    """
    n = seq.order
    a = np.zeros((n, n), dtype=np.uint8)
    for i, c in enumerate(seq.symbols):
        if c == DOMINATING:
            a[i, :i] = 1
            a[:i, i] = 1
    a.setflags(write=False)
    return a


def sequence_edges(seq: CreationSequence) -> list[tuple[int, int]]:
    """Edges in row-major order, read off the sequence: for i < j, vertex j
    is adjacent to vertex i iff symbol j is dominating."""
    dominating = [j for j, c in enumerate(seq.symbols) if c == DOMINATING]
    return [(i, j) for i in range(seq.order) for j in dominating if j > i]


def anti_regular(order: int) -> NsgForm:
    """The unique connected anti-regular graph on ``order`` >= 2 vertices.

    All class sizes 1 for even order; m_h = 2 for odd order.
    """
    if order < 2:
        raise OrderTooSmallError(f"anti-regular graphs need order >= 2, got {order}")
    h = order // 2
    if order % 2 == 0:
        return NsgForm((1,) * h, (1,) * h)
    return NsgForm((1,) * (h - 1) + (2,), (1,) * h)


def count_threshold(order: int, connected_only: bool = False) -> int:
    """Number of canonical creation sequences of the given order."""
    if order < 1:
        raise OrderTooSmallError(f"order must be >= 1, got {order}")
    if order == 1:
        return 1
    return 2 ** (order - 2) if connected_only else 2 ** (order - 1)


def sequence_at(order: int, index: int, connected_only: bool = False) -> CreationSequence:
    """The ``index``-th sequence of :func:`enumerate_threshold`'s lexicographic order."""
    total = count_threshold(order, connected_only)
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range for {total} sequences")
    if order == 1:
        return CreationSequence(ISOLATED)
    if connected_only:
        bits = format(index, f"0{order - 2}b") if order > 2 else ""
        return CreationSequence(ISOLATED + bits + DOMINATING)
    bits = format(index, f"0{order - 1}b")
    return CreationSequence(ISOLATED + bits)


def enumerate_threshold(order: int, connected_only: bool = False):
    """Yield every canonical sequence of the order once, in lexicographic order."""
    for index in range(count_threshold(order, connected_only)):
        yield sequence_at(order, index, connected_only)


def _edge_pairs(order: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger endpoint of each edge, as two int64 arrays.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) array; anything else
    is refused.  So is the first bad edge in input order: a self-loop, else an
    endpoint outside 0..order-1, else a repeat of an earlier pair.
    """
    if order < 1:
        raise InvalidEdgeError(f"a graph needs at least one vertex, got order {order}")
    try:
        given = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except OverflowError:
        raise InvalidEdgeError(f"an edge endpoint is out of range for order {order}") from None
    except (TypeError, ValueError):
        raise InvalidEdgeError("edges must be (u, v) pairs of integers") from None
    if given.size == 0:
        given = given.reshape(0, 2)
    if given.ndim != 2 or given.shape[1] != 2:
        raise InvalidEdgeError(f"edges must be (u, v) pairs, got an array of shape {given.shape}")
    lo = np.minimum(given[:, 0], given[:, 1])
    hi = np.maximum(given[:, 0], given[:, 1])
    loop = lo == hi
    out = (lo < 0) | (hi >= order)
    # Bad edges share the key -1, so only a valid pair can repeat a valid one.
    key = np.where(loop | out, -1, lo * order + hi)
    ranked = np.sort(key)
    if ranked.size and (ranked[0] < 0 or (ranked[1:] == ranked[:-1]).any()):
        by_key = np.argsort(key, kind="stable")  # a repeated key's first edge comes first
        repeat = np.zeros(len(key), dtype=bool)
        repeat[by_key[1:]] = key[by_key[1:]] == key[by_key[:-1]]
        first = int(np.argmax(loop | out | repeat))
        u, v = given[first].tolist()
        if loop[first]:
            raise InvalidEdgeError(f"self-loop at vertex {u}")
        if out[first]:
            raise InvalidEdgeError(f"edge ({u}, {v}) out of range for order {order}")
        raise InvalidEdgeError(f"duplicate edge ({u}, {v})")
    return lo, hi


def recognize(edges, order: int) -> CreationSequence | NotThreshold:
    """Recognize a labeled graph as a threshold graph by peeling.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) integer array.
    Repeatedly removes an isolated or a dominating vertex of the current
    induced subgraph (Chvátal and Hammer 1977).  Degrees suffice: each
    removed dominating vertex was adjacent to every vertex still present and
    each removed isolated vertex to none, so a present vertex's current
    degree is its degree less the dominating vertices removed.  Hence the
    vertex of least degree is isolated if any is, and the one of greatest
    degree dominating if any is.  Sorting the m pair keys to find repeats
    and the n degrees to peel makes O(m log m + n log n).  Success yields the
    canonical creation sequence of an isomorphic threshold graph; otherwise
    the stuck subgraph (no isolated, no dominating vertex) is returned as a
    checkable witness.
    """
    small, large = _edge_pairs(order, edges)
    counts = np.bincount(small, minlength=order) + np.bincount(large, minlength=order)
    by_degree = np.argsort(counts, kind="stable").tolist()
    degree = counts.tolist()
    lo, hi = 0, order - 1  # by_degree[lo..hi] are still present
    removed_dominating = 0
    symbols_rev: list[str] = []
    while lo < hi:
        if degree[by_degree[lo]] == removed_dominating:
            lo += 1
            symbols_rev.append(ISOLATED)
        elif degree[by_degree[hi]] - removed_dominating == hi - lo:
            hi -= 1
            removed_dominating += 1
            symbols_rev.append(DOMINATING)
        else:
            stuck = np.zeros(order, dtype=bool)
            stuck[by_degree[lo:hi + 1]] = True
            keys = np.sort((small * order + large)[stuck[small] & stuck[large]])
            return NotThreshold(tuple(np.flatnonzero(stuck).tolist()),
                                tuple(zip((keys // order).tolist(), (keys % order).tolist())))
    symbols_rev.append(ISOLATED)
    return CreationSequence("".join(reversed(symbols_rev)))


def weight_realization(seq: CreationSequence) -> WeightRealization:
    """Integer weights realizing the graph with threshold 0.

    Vertex i (1-based) gets weight +i if dominating, -i if isolated.  For
    i < j the pair sum is dominated by the magnitude-j term, so adjacency
    matches the creation rule exactly.
    """
    weights = tuple(
        (i + 1) if c == DOMINATING else -(i + 1) for i, c in enumerate(seq.symbols)
    )
    return WeightRealization(0, weights)
