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

import itertools
from dataclasses import dataclass

import numpy as np

ISOLATED = "0"
DOMINATING = "1"


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
        for i, c in enumerate(self.symbols):
            if c not in (ISOLATED, DOMINATING):
                raise InvalidCharacterError(i, c)
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
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        object.__setattr__(self, "isolated", int(self.isolated))
        if len(self.m) != len(self.n):
            raise ValueError("m and n must have the same length")
        if any(x < 1 for x in self.m) or any(x < 1 for x in self.n):
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


@dataclass(frozen=True, eq=False)
class DenseGraph:
    """Adjacency-matrix form with per-vertex class tags.

    Tags are ("V", i) / ("U", i) with 1-based class index, or ("iso", 0) for
    isolated vertices outside the nontrivial component.
    """

    adjacency: np.ndarray
    class_of: tuple[tuple[str, int], ...]

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return list(zip(i.tolist(), j.tolist()))


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
    for i, c in enumerate(text):
        if c not in (ISOLATED, DOMINATING):
            raise InvalidCharacterError(i, c)
    return CreationSequence(ISOLATED + text[1:])


def _runs(symbols: str) -> list[tuple[str, int]]:
    return [(c, sum(1 for _ in grp)) for c, grp in itertools.groupby(symbols)]


def creation_to_nsg(seq: CreationSequence) -> NsgForm:
    """Read off the nested-split-graph class sizes from a creation sequence.

    Maximal runs 0^a1 1^b1 ... 0^ah 1^bh (0^a trailing) give m_h = a1,
    n_h = b1, ..., m_1 = ah, n_1 = bh and ``isolated`` = the trailing run:
    the earliest isolated run is adjacent to every later dominating run, so
    it is the top coclique class U_h, and the last dominating run is V_1.
    """
    runs = _runs(seq.symbols)
    zero_sizes = [size for c, size in runs if c == ISOLATED]
    one_sizes = [size for c, size in runs if c == DOMINATING]
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


def _class_tags(seq: CreationSequence) -> tuple[tuple[str, int], ...]:
    runs = _runs(seq.symbols)
    h = sum(1 for c, _ in runs if c == DOMINATING)
    tags: list[tuple[str, int]] = []
    zeros_seen = ones_seen = 0
    for c, size in runs:
        if c == ISOLATED:
            zeros_seen += 1
            tag = ("U", h + 1 - zeros_seen) if zeros_seen <= h else ("iso", 0)
        else:
            ones_seen += 1
            tag = ("V", h + 1 - ones_seen)
        tags.extend([tag] * size)
    return tuple(tags)


def build_adjacency(seq: CreationSequence) -> DenseGraph:
    """Replay the creation process into an adjacency matrix with class tags."""
    n = seq.order
    a = np.zeros((n, n), dtype=np.uint8)
    for i, c in enumerate(seq.symbols):
        if c == DOMINATING:
            a[i, :i] = 1
            a[:i, i] = 1
    a.setflags(write=False)
    return DenseGraph(a, _class_tags(seq))


def sequence_edges(seq: CreationSequence) -> list[tuple[int, int]]:
    """Edges in row-major order, read off the sequence: for i < j, vertex j
    is adjacent to vertex i iff symbol j is dominating."""
    dominating = [j for j, c in enumerate(seq.symbols) if c == DOMINATING]
    return [(i, j) for i in range(seq.order) for j in dominating if j > i]


def nsg_to_graph(form: NsgForm) -> DenseGraph:
    """Dense adjacency of an NSG form (via its creation sequence)."""
    return build_adjacency(nsg_to_creation(form))


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


def complement(seq: CreationSequence) -> CreationSequence:
    """Creation sequence of the edge-complement graph.

    Adding an isolated vertex to G adds a dominating vertex to the complement
    and vice versa, so flipping every symbol after the first complements the
    graph vertex-for-vertex.
    """
    flipped = "".join(DOMINATING if c == ISOLATED else ISOLATED for c in seq.symbols[1:])
    return CreationSequence(seq.symbols[0] + flipped)


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


def _edge_pairs(order: int, edges) -> set[tuple[int, int]]:
    """The edges as (smaller, larger) endpoint pairs.

    Refuses, at the first bad edge, a self-loop, an endpoint outside
    0..order-1 or a repeated pair.
    """
    if order < 0:
        raise InvalidEdgeError(f"order must be nonnegative, got {order}")
    pairs: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise InvalidEdgeError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise InvalidEdgeError(f"edge ({u}, {v}) out of range for order {order}")
        pair = (u, v) if u < v else (v, u)
        if pair in pairs:
            raise InvalidEdgeError(f"duplicate edge ({u}, {v})")
        pairs.add(pair)
    return pairs


def adjacency_from_edges(order: int, edges) -> np.ndarray:
    """Adjacency matrix from an edge list, validating simplicity."""
    pairs = _edge_pairs(order, edges)
    a = np.zeros((order, order), dtype=np.uint8)
    for u, v in pairs:
        a[u, v] = a[v, u] = 1
    return a


def recognize(edges, order: int) -> CreationSequence | NotThreshold:
    """Recognize a labeled graph as a threshold graph by peeling.

    Repeatedly removes an isolated or a dominating vertex of the current
    induced subgraph (Chvátal and Hammer 1977).  Degrees suffice: each
    removed dominating vertex was adjacent to every vertex still present and
    each removed isolated vertex to none, so a present vertex's current
    degree is its degree less the dominating vertices removed.  Hence the
    vertex of least degree is isolated if any is, and the one of greatest
    degree dominating if any is; O(m + n log n) in all.  Success yields the
    canonical creation sequence of an isomorphic threshold graph; otherwise
    the stuck subgraph (no isolated, no dominating vertex) is returned as a
    checkable witness.
    """
    pairs = _edge_pairs(order, edges)
    degree = [0] * order
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    by_degree = sorted(range(order), key=degree.__getitem__)
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
            stuck = set(by_degree[lo:hi + 1])
            return NotThreshold(tuple(sorted(stuck)),
                                tuple(sorted(p for p in pairs if p[0] in stuck and p[1] in stuck)))
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


def partition_classes(graph) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Maximal duplication and coduplication classes of any graph.

    Duplicates share open neighborhoods N(u) = N(v); coduplicates share
    closed neighborhoods N[u] = N[v].  Accepts a :class:`DenseGraph` or a
    plain adjacency matrix.  Classes are sorted by their smallest vertex.
    """
    a = graph.adjacency if isinstance(graph, DenseGraph) else np.asarray(graph)
    n = a.shape[0]
    open_classes: dict[bytes, list[int]] = {}
    closed_classes: dict[bytes, list[int]] = {}
    closed = a.copy()
    np.fill_diagonal(closed, 1)
    for v in range(n):
        open_classes.setdefault(a[v].tobytes(), []).append(v)
        closed_classes.setdefault(closed[v].tobytes(), []).append(v)

    def _ordered(classes: dict[bytes, list[int]]):
        return tuple(sorted((tuple(sorted(c)) for c in classes.values()), key=lambda c: c[0]))

    return _ordered(open_classes), _ordered(closed_classes)
