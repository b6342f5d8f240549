"""Independent reference routes used only by the tests.

Everything here is deliberately written against the definitions, not against
the library internals: forbidden-subgraph search by brute force over 4-subsets,
nested-split-graph edges straight from the class description, and eigenvalue
counting from a dense solve.  Agreement between these and the library is what
the test suite certifies.
"""

import itertools

import numpy as np

# (induced edge count, sorted degree multiset) signatures on 4 vertices
_P4 = (3, (1, 1, 2, 2))
_2K2 = (2, (1, 1, 1, 1))
_C4 = (4, (2, 2, 2, 2))


def find_forbidden_subgraph(adjacency):
    """First 4-subset inducing P_4, 2K_2, or C_4, or None.

    On 4 vertices each forbidden graph is determined by its edge count plus
    degree multiset, so no isomorphism test is needed.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    for quad in itertools.combinations(range(n), 4):
        degs = [sum(int(a[u, v]) for v in quad if v != u) for u in quad]
        sig = (sum(degs) // 2, tuple(sorted(degs)))
        if sig in (_P4, _2K2, _C4):
            return quad
    return None


def is_threshold_by_forbidden(adjacency) -> bool:
    return find_forbidden_subgraph(adjacency) is None


def nsg_edges(m, n, isolated=0):
    """Edge set of NSG(m;n) built directly from the class description.

    Vertices are numbered V_1..V_h first (class by class), then U_1..U_h,
    then isolated ones.  The V classes form one clique; a vertex of U_i is
    adjacent to V_1..V_i and nothing else.
    """
    h = len(m)
    v_blocks, u_blocks = [], []
    pos = 0
    for ni in n:
        v_blocks.append(range(pos, pos + ni))
        pos += ni
    for mi in m:
        u_blocks.append(range(pos, pos + mi))
        pos += mi
    order = pos + isolated
    clique = [v for block in v_blocks for v in block]
    edges = set(itertools.combinations(clique, 2))
    for i, block in enumerate(u_blocks, start=1):
        targets = [v for vb in v_blocks[:i] for v in vb]
        for u in block:
            for v in targets:
                edges.add((min(u, v), max(u, v)))
    return order, edges


def degree_multiset(adjacency):
    return sorted(int(d) for d in np.asarray(adjacency).sum(axis=1))


def class_structure_ok(graph) -> bool:
    """Check N(u) = V_1 + ... + V_i for u in U_i against the class tags."""
    a = graph.adjacency
    v_members = {}
    for vertex, (kind, idx) in enumerate(graph.class_of):
        if kind == "V":
            v_members.setdefault(idx, set()).add(vertex)
    for vertex, (kind, idx) in enumerate(graph.class_of):
        neigh = {w for w in range(graph.order) if a[vertex, w]}
        if kind == "U":
            expected = set().union(*(v_members[j] for j in range(1, idx + 1)))
            if neigh != expected:
                return False
        elif kind == "iso":
            if neigh:
                return False
    return True


def dense_count_leq(adjacency, x: float) -> int:
    vals = np.linalg.eigvalsh(np.asarray(adjacency, dtype=np.float64))
    return int(np.count_nonzero(vals <= x))


def neighborhood_classes(adjacency, closed=False):
    """Duplication (open) or coduplication (closed) classes by direct comparison."""
    a = np.asarray(adjacency).astype(np.int64)
    if closed:
        a = a.copy()
        np.fill_diagonal(a, 1)
    groups = {}
    for v in range(a.shape[0]):
        groups.setdefault(tuple(a[v]), []).append(v)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def peel_dense(adjacency):
    """Recognition by peeling on a dense matrix, rescanning for the first
    isolated, then the first dominating, vertex at every step.

    Returns the creation-sequence string, or (stuck vertices, their induced
    edges) when no vertex can be peeled.
    """
    a = np.asarray(adjacency)
    alive = list(range(a.shape[0]))
    symbols = []
    while len(alive) > 1:
        degree = {v: sum(int(a[v, w]) for w in alive) for v in alive}
        isolated = [v for v in alive if degree[v] == 0]
        dominating = [v for v in alive if degree[v] == len(alive) - 1]
        if not isolated and not dominating:
            return tuple(alive), tuple(e for e in itertools.combinations(alive, 2) if a[e])
        alive.remove((isolated or dominating)[0])
        symbols.append("0" if isolated else "1")
    return "0" + "".join(reversed(symbols))
