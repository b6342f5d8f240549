import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thresholdlab.graphs import (
    CreationSequence,
    EmptyInputError,
    InvalidCharacterError,
    InvalidEdgeError,
    NotThreshold,
    NsgForm,
    OrderTooSmallError,
    anti_regular,
    build_adjacency,
    count_threshold,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    parse_creation_sequence,
    recognize,
    sequence_at,
    sequence_edges,
    weight_realization,
)
from thresholdlab.spectra import TrivialMults, trivial_multiplicities

sequences = st.text(alphabet="01", min_size=1, max_size=14).map(parse_creation_sequence)


def all_sequences(max_order, connected_only=False):
    for order in range(1, max_order + 1):
        yield from enumerate_threshold(order, connected_only)


# ---------------------------------------------------------------- parsing


def test_parse_plain():
    assert parse_creation_sequence("0101").symbols == "0101"


def test_parse_normalizes_first_symbol():
    assert parse_creation_sequence("1101").symbols == "0101"


def test_parse_rejects_bad_character():
    # the first symbol is checked by the parser, the others by CreationSequence
    for text, position, char in (("01x1", 2, "x"), ("2011", 0, "2"), ("0a1", 1, "a")):
        with pytest.raises(InvalidCharacterError) as err:
            parse_creation_sequence(text)
        assert (err.value.position, err.value.char) == (position, char)


def test_parse_rejects_empty():
    with pytest.raises(EmptyInputError):
        parse_creation_sequence("")


def test_direct_construction_requires_canonical_form():
    with pytest.raises(ValueError):
        CreationSequence("11")


def test_connected_flag():
    assert parse_creation_sequence("0").connected
    assert parse_creation_sequence("0011").connected
    assert not parse_creation_sequence("0110").connected


# ---------------------------------------------------------------- conversions


def test_creation_to_nsg_examples():
    assert creation_to_nsg(parse_creation_sequence("0011")) == NsgForm([2], [2])
    assert creation_to_nsg(parse_creation_sequence("00101")) == NsgForm([1, 2], [1, 1])
    assert creation_to_nsg(parse_creation_sequence("010")) == NsgForm([1], [1], 1)


def test_nsg_to_creation_examples():
    assert nsg_to_creation(NsgForm([2], [2])).symbols == "0011"
    assert nsg_to_creation(NsgForm([1, 2], [1, 1])).symbols == "00101"
    assert nsg_to_creation(NsgForm([], [], 3)).symbols == "000"


def test_round_trip_exhaustive():
    for seq in all_sequences(12):
        assert nsg_to_creation(creation_to_nsg(seq)) == seq


def test_nsg_form_validation():
    with pytest.raises(ValueError):
        NsgForm([1], [1, 1])
    with pytest.raises(ValueError):
        NsgForm([0], [1])
    with pytest.raises(ValueError):
        NsgForm([], [], -1)
    with pytest.raises(ValueError):
        NsgForm([], [], 0)


def test_validation_names_the_first_fault():
    # each input's exception type and message, in the order of the checks:
    # characters before the leading symbol, lengths before sizes before the
    # isolated count, and conversions first of all
    bad = "invalid character 'x' at position {}, expected '0' or '1'"
    for make, kind, message in (
            (lambda: CreationSequence(""), EmptyInputError, "creation sequence must be nonempty"),
            (lambda: CreationSequence("x01"), InvalidCharacterError, bad.format(0)),
            (lambda: CreationSequence("0x1"), InvalidCharacterError, bad.format(1)),
            (lambda: CreationSequence("01x"), InvalidCharacterError, bad.format(2)),
            (lambda: CreationSequence("0xy"), InvalidCharacterError, bad.format(1)),
            (lambda: CreationSequence("1x"), InvalidCharacterError, bad.format(1)),
            (lambda: CreationSequence("10"), ValueError,
             "canonical creation sequence starts with '0'; use parse_creation_sequence"),
            (lambda: NsgForm([1, 2], [1]), ValueError, "m and n must have the same length"),
            (lambda: NsgForm([0], [1, 1]), ValueError, "m and n must have the same length"),
            (lambda: NsgForm([1, 0], [1, 1]), ValueError, "class sizes must be positive"),
            (lambda: NsgForm([1], [0]), ValueError, "class sizes must be positive"),
            (lambda: NsgForm([0], [1], -1), ValueError, "class sizes must be positive"),
            (lambda: NsgForm([1], [1], -1), ValueError, "isolated count must be nonnegative"),
            (lambda: NsgForm([], []), ValueError, "graph must have at least one vertex"),
            (lambda: NsgForm(["x"], [0]), ValueError, "invalid literal for int() with base 10: 'x'"),
            (lambda: NsgForm([1], [1], "a"), ValueError,
             "invalid literal for int() with base 10: 'a'"),
            (lambda: NsgForm(None, [1]), TypeError, "'NoneType' object is not iterable")):
        with pytest.raises((ValueError, TypeError)) as raised:
            make()
        assert (type(raised.value), str(raised.value)) == (kind, message)
    assert NsgForm(np.array([2, 1]), (1.0, 3), np.int64(2)) == NsgForm((2, 1), (1, 3), 2)


def test_creation_to_nsg_matches_the_groupby_reference():
    for seq in all_sequences(14):
        assert creation_to_nsg(seq) == oracles.creation_to_nsg_reference(seq.symbols), seq


def test_nsg_form_properties():
    form = NsgForm([1, 2], [1, 1])
    assert form.h == 2
    assert form.order == 5
    assert form.connected
    assert form.antiregular
    assert not NsgForm([1], [1], 1).connected
    assert not NsgForm([3], [2]).antiregular


def test_class_sizes_match_definition_oracle():
    # the NSG built straight from the class description is the same graph
    for seq in all_sequences(8):
        form = creation_to_nsg(seq)
        order, edges = oracles.nsg_edges(form.m, form.n, form.isolated)
        graph = build_adjacency(seq)
        assert order == graph.shape[0]
        assert len(edges) == len(oracles.dense_edges(graph))
        oracle_adj = oracles.adjacency_from_edges(order, edges)
        assert oracles.degree_multiset(oracle_adj) == oracles.degree_multiset(graph)


# ---------------------------------------------------------------- adjacency


def test_build_adjacency_k2():
    g = build_adjacency(parse_creation_sequence("01"))
    assert oracles.dense_edges(g) == [(0, 1)]


def test_build_adjacency_0011():
    g = build_adjacency(parse_creation_sequence("0011"))
    assert oracles.dense_edges(g) == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_build_adjacency_paw_degrees():
    g = build_adjacency(parse_creation_sequence("0101"))
    assert g.dtype == np.uint8
    assert sorted(g.sum(axis=1).tolist(), reverse=True) == [3, 2, 2, 1]


def test_adjacency_is_read_only():
    g = build_adjacency(parse_creation_sequence("0011"))
    with pytest.raises(ValueError):
        g[0, 1] = 1


def test_recognize_definition_graph_gives_sequence():
    # the NSG built straight from the class description, relabelled V first,
    # is recognized as exactly the sequence's threshold graph
    for seq in all_sequences(8):
        form = creation_to_nsg(seq)
        order, edges = oracles.nsg_edges(form.m, form.n, form.isolated)
        assert recognize(edges, order) == seq


# ---------------------------------------------------------------- anti-regular


def test_anti_regular_examples():
    assert anti_regular(4) == NsgForm([1, 1], [1, 1])
    assert anti_regular(5) == NsgForm([1, 2], [1, 1])
    assert anti_regular(2) == NsgForm([1], [1])


def test_anti_regular_rejects_small_order():
    with pytest.raises(OrderTooSmallError):
        anti_regular(1)


def test_anti_regular_flag_and_order():
    for order in range(2, 30):
        form = anti_regular(order)
        assert form.order == order
        assert form.antiregular


def test_anti_regular_is_the_only_flagged_form():
    for order in range(2, 11):
        flagged = [
            str(seq)
            for seq in enumerate_threshold(order, connected_only=True)
            if creation_to_nsg(seq).antiregular
        ]
        assert flagged == [str(nsg_to_creation(anti_regular(order)))]


def test_anti_regular_degree_sequence():
    # exactly one repeated degree, everything else distinct
    for order in range(2, 12):
        degs = oracles.degree_multiset(build_adjacency(nsg_to_creation(anti_regular(order))))
        assert len(set(degs)) == order - 1


# ---------------------------------------------------------------- enumeration


def test_enumerate_order_2():
    assert [s.symbols for s in enumerate_threshold(2)] == ["00", "01"]


def test_enumerate_order_4_counts():
    seqs = list(enumerate_threshold(4))
    assert len(seqs) == 8
    assert sum(1 for s in seqs if s.symbols[-1] == "1") == 4


def test_enumerate_order_1_connected():
    assert [s.symbols for s in enumerate_threshold(1, connected_only=True)] == ["0"]


def test_enumerate_distinct_and_lexicographic():
    for order in range(1, 10):
        seqs = [s.symbols for s in enumerate_threshold(order)]
        assert len(set(seqs)) == len(seqs) == count_threshold(order)
        assert seqs == sorted(seqs)
        connected = [s.symbols for s in enumerate_threshold(order, connected_only=True)]
        assert len(connected) == count_threshold(order, connected_only=True)
        assert all(s in seqs for s in connected)


def test_count_threshold_values():
    assert count_threshold(1) == 1
    assert count_threshold(1, connected_only=True) == 1
    assert count_threshold(6) == 32
    assert count_threshold(6, connected_only=True) == 16
    with pytest.raises(OrderTooSmallError):
        count_threshold(0)


def test_sequence_at_matches_enumeration():
    for connected in (False, True):
        for order in (1, 2, 5, 7):
            listed = list(enumerate_threshold(order, connected))
            assert [sequence_at(order, i, connected) for i in range(len(listed))] == listed
    with pytest.raises(IndexError):
        sequence_at(4, 8)
    with pytest.raises(IndexError):
        sequence_at(4, -1)


def test_sequence_edges_match_dense_build():
    for seq in all_sequences(9):
        assert sequence_edges(seq) == oracles.dense_edges(build_adjacency(seq))


def test_enumerated_graphs_pass_recognition():
    for seq in all_sequences(8):
        assert recognize(oracles.dense_edges(build_adjacency(seq)), seq.order) == seq


# ---------------------------------------------------------------- recognition


def test_recognize_path_3():
    assert recognize([(0, 1), (1, 2)], 3).symbols == "001"


def test_recognize_triangle():
    assert recognize([(0, 1), (0, 2), (1, 2)], 3).symbols == "011"


def test_recognize_c4_gives_witness():
    result = recognize([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    assert isinstance(result, NotThreshold)
    # the witness subgraph is stuck: no isolated, no dominating vertex
    k = len(result.vertices)
    deg = {v: 0 for v in result.vertices}
    for u, v in result.edges:
        deg[u] += 1
        deg[v] += 1
    assert all(0 < d < k - 1 for d in deg.values())


def test_recognize_rejects_bad_edges():
    # the first bad edge in input order is named; within one edge a self-loop
    # comes before an out-of-range endpoint, which comes before a repeat
    pairs = list(itertools.combinations(range(40), 2))
    random.Random(7).shuffle(pairs)
    for edges, order, message in (
        ([(0, 0)], 2, "self-loop at vertex 0"),
        ([(0, 5)], 3, "edge (0, 5) out of range for order 3"),
        ([(0, 1), (1, 0)], 2, "duplicate edge (1, 0)"),
        ([(0, 1), (0, 5), (1, 0)], 3, "edge (0, 5) out of range for order 3"),
        ([(0, 1), (1, 0), (2, 2)], 3, "duplicate edge (1, 0)"),
        ([(7, 7)], 3, "self-loop at vertex 7"),
        ([(1, 2), (-1, 0), (2, 1)], 3, "edge (-1, 0) out of range for order 3"),
        (np.array([[2, 0], [1, 2], [0, 2], [1, 2]]), 3, "duplicate edge (0, 2)"),
        (pairs + [(v, u) for u, v in pairs], 40, f"duplicate edge ({pairs[0][1]}, {pairs[0][0]})"),
    ):
        with pytest.raises(InvalidEdgeError, match=re.escape(message)):
            recognize(edges, order)
    # any iterable of pairs is read in its own order
    assert recognize({(0, 1)}, 2) == CreationSequence("01")
    assert recognize(((u, 2) for u in range(2)), 3) == CreationSequence("001")
    assert recognize(zip([2, 0], [3, 1]), 4) == NotThreshold((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(InvalidEdgeError, match=re.escape("self-loop at vertex 2")):
        recognize(iter([(0, 1), (2, 2), (0, 1)]), 3)
    # no reshaping of what is not a list of pairs, no OverflowError
    for edges in (np.zeros((2, 3), dtype=np.int64), [(0, 1, 2)], [(0, 1), (2,)],
                  np.arange(4), [(0, 10**20)]):
        with pytest.raises(InvalidEdgeError):
            recognize(edges, 3)


def _same_as_dense_peeling(edges, order):
    result = recognize(edges, order)
    expected = oracles.peel_dense(oracles.adjacency_from_edges(order, edges))
    if isinstance(result, NotThreshold):
        return (result.vertices, result.edges) == expected
    return result.symbols == expected


def test_recognize_matches_dense_peeling_oracle():
    # degree peeling gives the dense rescan's sequence and witness exactly
    for order in range(1, 6):
        pairs = list(itertools.combinations(range(order), 2))
        for mask in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            assert _same_as_dense_peeling(edges, order), edges
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        order = int(rng.integers(6, 16))
        symbols = "0" + "".join(rng.choice(["0", "1"], size=order - 1))
        edges = sequence_edges(CreationSequence(symbols))
        perm = rng.permutation(order).tolist()
        edges = [(perm[v], perm[u]) for u, v in edges]
        if edges and rng.random() < 0.5:  # one missing edge, usually not threshold
            edges.pop(int(rng.integers(len(edges))))
        assert _same_as_dense_peeling(edges, order), (order, edges)
    # Half of all pairs as edges: many vertices tie on degree and witnesses
    # are large, and sequence and witness must still be the dense rescan's.
    for _ in range(40):
        order = int(rng.integers(30, 81))
        target = order * (order - 1) / 4
        while True:
            symbols = "0" + "".join(rng.choice(["0", "1"], size=order - 1))
            if abs(sum(i for i, c in enumerate(symbols) if c == "1") - target) <= 0.05 * target:
                break
        edges = set(sequence_edges(CreationSequence(symbols)))
        edges ^= {tuple(sorted(rng.choice(order, size=2, replace=False).tolist()))}
        perm = rng.permutation(order).tolist()
        edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
                 for u, v in edges]
        rng.shuffle(edges)
        assert _same_as_dense_peeling(edges, order), (order, edges)


def test_recognition_matches_forbidden_subgraph_oracle_order_5():
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        result = recognize(edges, 5)
        adjacency = oracles.adjacency_from_edges(5, edges)
        assert isinstance(result, CreationSequence) == oracles.is_threshold_by_forbidden(
            adjacency
        ), edges


# ---------------------------------------------------------------- weights


def test_weight_realization_examples():
    assert weight_realization(parse_creation_sequence("01")).weights == (-1, 2)
    real = weight_realization(parse_creation_sequence("00"))
    assert real.threshold == 0
    assert real.weights == (-1, -2)


def test_weight_realization_valid_exhaustive():
    for seq in all_sequences(10):
        real = weight_realization(seq)
        a = build_adjacency(seq)
        for u in range(seq.order):
            for v in range(u + 1, seq.order):
                adjacent = real.weights[u] + real.weights[v] > real.threshold
                assert adjacent == bool(a[u, v]), (seq, u, v)


# ---------------------------------------------------------------- partitions


def test_partition_classes_nsg_3_2():
    # duplicates share open, coduplicates closed neighborhoods: here the
    # coclique class U_1 and the clique class V_1
    a = build_adjacency(nsg_to_creation(NsgForm([3], [2])))
    assert oracles.neighborhood_classes(a) == [(0, 1, 2), (3,), (4,)]
    assert oracles.neighborhood_classes(a, closed=True) == [(0,), (1,), (2,), (3, 4)]


def test_partition_classes_paw():
    # A_4: open neighborhoods all distinct; the two degree-2 vertices share a
    # closed neighborhood (they sit in a triangle with the dominating vertex)
    a = build_adjacency(parse_creation_sequence("0101"))
    assert oracles.neighborhood_classes(a) == [(0,), (1,), (2,), (3,)]
    assert oracles.neighborhood_classes(a, closed=True) == [(0, 1), (2,), (3,)]


def test_partition_classes_edgeless():
    a = build_adjacency(parse_creation_sequence("000"))
    assert oracles.neighborhood_classes(a) == [(0, 1, 2)]
    assert oracles.neighborhood_classes(a, closed=True) == [(0,), (1,), (2,)]


def test_trivial_multiplicities_match_partition_classes():
    # each extra duplicate gives a 0 and each extra coduplicate a -1, and
    # isolated vertices one more 0: the forecast counts exactly these
    for seq in all_sequences(9):
        a = build_adjacency(seq)
        extra = [sum(len(c) - 1 for c in oracles.neighborhood_classes(a, closed))
                 for closed in (False, True)]
        isolated = int(not a.any(axis=1).all())
        assert trivial_multiplicities(creation_to_nsg(seq)) == TrivialMults(
            extra[0] + isolated, extra[1]), seq


# ---------------------------------------------------------------- properties


@given(sequences)
def test_round_trip_property(seq):
    assert nsg_to_creation(creation_to_nsg(seq)) == seq


@given(sequences)
@settings(max_examples=60)
def test_recognize_recovers_sequence(seq):
    assert recognize(oracles.dense_edges(build_adjacency(seq)), seq.order) == seq


@given(sequences)
@settings(max_examples=60)
def test_threshold_graphs_have_no_forbidden_subgraph(seq):
    quad = oracles.find_forbidden_subgraph(build_adjacency(seq))
    assert quad is None


@given(sequences)
def test_nsg_order_matches_sequence(seq):
    form = creation_to_nsg(seq)
    assert form.order == seq.order
    assert form.connected == seq.connected
