import itertools

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
    adjacency_from_edges,
    anti_regular,
    build_adjacency,
    complement,
    count_threshold,
    creation_to_nsg,
    enumerate_threshold,
    nsg_to_creation,
    nsg_to_graph,
    parse_creation_sequence,
    partition_classes,
    recognize,
    sequence_at,
    sequence_edges,
    weight_realization,
)

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
    with pytest.raises(InvalidCharacterError) as err:
        parse_creation_sequence("01x1")
    assert err.value.position == 2
    assert err.value.char == "x"


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
        assert order == graph.order
        assert len(edges) == len(graph.edges())
        oracle_adj = adjacency_from_edges(order, edges)
        assert oracles.degree_multiset(oracle_adj) == oracles.degree_multiset(graph.adjacency)


# ---------------------------------------------------------------- adjacency


def test_build_adjacency_k2():
    g = build_adjacency(parse_creation_sequence("01"))
    assert g.edges() == [(0, 1)]


def test_build_adjacency_0011():
    g = build_adjacency(parse_creation_sequence("0011"))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_build_adjacency_paw_degrees():
    g = build_adjacency(parse_creation_sequence("0101"))
    assert sorted(g.degrees().tolist(), reverse=True) == [3, 2, 2, 1]


def test_adjacency_is_read_only():
    g = build_adjacency(parse_creation_sequence("0011"))
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 1


def test_class_tags_match_neighborhoods():
    for seq in all_sequences(8):
        assert oracles.class_structure_ok(build_adjacency(seq))


def test_nsg_to_graph_matches_sequence_route():
    form = NsgForm([1, 2], [1, 1])
    direct = nsg_to_graph(form)
    via_seq = build_adjacency(nsg_to_creation(form))
    assert np.array_equal(direct.adjacency, via_seq.adjacency)


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
        degs = oracles.degree_multiset(nsg_to_graph(anti_regular(order)).adjacency)
        assert len(set(degs)) == order - 1


# ---------------------------------------------------------------- complement


def test_complement_examples():
    assert complement(parse_creation_sequence("01")).symbols == "00"
    assert complement(parse_creation_sequence("0101")).symbols == "0010"


def test_complement_is_exact_edge_complement():
    for seq in all_sequences(8):
        a = build_adjacency(seq).adjacency.astype(int)
        b = build_adjacency(complement(seq)).adjacency.astype(int)
        off_diagonal = np.ones_like(a) - np.eye(seq.order, dtype=int)
        assert np.array_equal(a + b, off_diagonal)


def test_complement_involution_exhaustive():
    for seq in all_sequences(10):
        assert complement(complement(seq)) == seq


def test_complement_degree_sequence():
    for seq in all_sequences(9):
        n = seq.order
        d = oracles.degree_multiset(build_adjacency(seq).adjacency)
        dc = oracles.degree_multiset(build_adjacency(complement(seq)).adjacency)
        assert dc == sorted(n - 1 - x for x in d)


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
        assert sequence_edges(seq) == build_adjacency(seq).edges()


def test_enumerated_graphs_pass_recognition():
    for seq in all_sequences(8):
        g = build_adjacency(seq)
        assert recognize(g.edges(), seq.order) == seq


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
    with pytest.raises(InvalidEdgeError):
        recognize([(0, 0)], 2)
    with pytest.raises(InvalidEdgeError):
        recognize([(0, 5)], 3)
    with pytest.raises(InvalidEdgeError):
        recognize([(0, 1), (1, 0)], 2)


def _same_as_dense_peeling(edges, order):
    result = recognize(edges, order)
    expected = oracles.peel_dense(adjacency_from_edges(order, edges))
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


def test_recognition_matches_forbidden_subgraph_oracle_order_5():
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        result = recognize(edges, 5)
        adjacency = adjacency_from_edges(5, edges)
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
        a = build_adjacency(seq).adjacency
        for u in range(seq.order):
            for v in range(u + 1, seq.order):
                adjacent = real.weights[u] + real.weights[v] > real.threshold
                assert adjacent == bool(a[u, v]), (seq, u, v)


# ---------------------------------------------------------------- partitions


def test_partition_classes_nsg_3_2():
    dup, codup = partition_classes(nsg_to_graph(NsgForm([3], [2])))
    assert dup == ((0, 1, 2), (3,), (4,))
    assert codup == ((0,), (1,), (2,), (3, 4))


def test_partition_classes_paw():
    # A_4: open neighborhoods all distinct; the two degree-2 vertices share a
    # closed neighborhood (they sit in a triangle with the dominating vertex)
    dup, codup = partition_classes(build_adjacency(parse_creation_sequence("0101")))
    assert dup == ((0,), (1,), (2,), (3,))
    assert codup == ((0, 1), (2,), (3,))


def test_partition_classes_edgeless():
    dup, codup = partition_classes(build_adjacency(parse_creation_sequence("000")))
    assert dup == ((0, 1, 2),)
    assert codup == ((0,), (1,), (2,))


def test_partition_classes_accepts_plain_matrix():
    c4 = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dup, codup = partition_classes(c4)
    assert dup == ((0, 2), (1, 3))
    assert codup == ((0,), (1,), (2,), (3,))


def test_partition_classes_matches_oracle():
    for seq in all_sequences(6):
        g = build_adjacency(seq)
        dup, codup = partition_classes(g)
        assert list(dup) == oracles.neighborhood_classes(g.adjacency)
        assert list(codup) == oracles.neighborhood_classes(g.adjacency, closed=True)


# ---------------------------------------------------------------- properties


@given(sequences)
def test_round_trip_property(seq):
    assert nsg_to_creation(creation_to_nsg(seq)) == seq


@given(sequences)
def test_complement_involution_property(seq):
    assert complement(complement(seq)) == seq


@given(sequences)
@settings(max_examples=60)
def test_recognize_recovers_sequence(seq):
    g = build_adjacency(seq)
    assert recognize(g.edges(), seq.order) == seq


@given(sequences)
@settings(max_examples=60)
def test_threshold_graphs_have_no_forbidden_subgraph(seq):
    quad = oracles.find_forbidden_subgraph(build_adjacency(seq).adjacency)
    assert quad is None


@given(sequences)
def test_nsg_order_matches_sequence(seq):
    form = creation_to_nsg(seq)
    assert form.order == seq.order
    assert form.connected == seq.connected
