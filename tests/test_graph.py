import copy
import pickle

import pytest
from hypothesis import given

from signdom import (
    Graph,
    GraphParseError,
    GraphValidationError,
    degree_profile,
    gen_circulant,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_hajos,
    gen_path,
    gen_sun,
    is_connected,
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
)

from strategies import graphs


# --- construction and validation ---


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphValidationError, match="self-loop"):
        Graph.from_edges(3, [(0, 0)])


def test_from_edges_rejects_duplicate_in_either_orientation():
    with pytest.raises(GraphValidationError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphValidationError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_every_entry_point_refuses_a_broken_graph_alike():
    """Each simple-graph rule has one home: a negative order, a self-loop
    and a repeated edge get the same message from each entry point that
    can express them."""
    cases = [
        ("vertex_count must be nonnegative", [
            lambda: Graph(-1, ()),
            lambda: Graph.from_edges(-1, []),
            lambda: gen_complete(-1),
            lambda: gen_gnp(-1, 0.5, 0),
        ]),
        ("self-loop at vertex 1", [
            lambda: Graph(3, (frozenset(), frozenset({1}), frozenset())),
            lambda: Graph.from_edges(3, [(0, 2), (1, 1)]),
            lambda: parse_edge_list("0 2\n1 1\n"),
            lambda: parse_dimacs("p edge 3 2\ne 1 3\ne 2 2\n"),
        ]),
        ("duplicate edge (0, 1)", [
            lambda: Graph.from_edges(2, [(1, 0), (0, 1)]),
            lambda: parse_edge_list("0 1\n1 0\n"),
            lambda: parse_dimacs("p edge 2 2\ne 2 1\ne 2 1\n"),
        ]),
    ]
    for message, calls in cases:
        for call in calls:
            with pytest.raises(GraphValidationError) as info:
                call()
            assert str(info.value) == message


@pytest.mark.parametrize(
    "adjacency, message",
    [
        ((frozenset(),), "adjacency has 1 entries for 2 vertices"),
        ((frozenset({2}), frozenset()), "vertex id 2 out of range 0..1"),
        ((frozenset(), frozenset({-1})), "vertex id -1 out of range 0..1"),
    ],
)
def test_constructor_rejects_a_wrong_entry_count_or_neighbour_id(adjacency, message):
    with pytest.raises(GraphValidationError) as info:
        Graph(2, adjacency)
    assert str(info.value) == message


def test_constructor_rejects_asymmetric_adjacency():
    with pytest.raises(GraphValidationError, match="asymmetric"):
        Graph(2, (frozenset({1}), frozenset()))


def test_graph_is_immutable():
    g = gen_cycle(4)
    with pytest.raises(AttributeError):
        g.vertex_count = 5


@pytest.mark.parametrize(
    "adjacency, message",
    [
        (
            (frozenset({1, 3}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2})),
            "asymmetric adjacency between 3 and 0",
        ),
        (
            (frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2, 4})),
            "vertex id 4 out of range 0..3",
        ),
    ],
)
def test_replace_goes_through_the_constructor(adjacency, message):
    with pytest.raises(GraphValidationError) as info:
        gen_path(4)._replace(adjacency=adjacency)
    assert str(info.value) == message


def test_copy_and_pickle_go_through_the_constructor():
    g = gen_sun(2)
    assert copy.copy(g) == g
    assert pickle.loads(pickle.dumps(g)) == g
    # a tuple built around the constructor is refused when it is loaded back
    broken = tuple.__new__(Graph, (2, (frozenset({1}), frozenset())))
    with pytest.raises(GraphValidationError, match="asymmetric"):
        pickle.loads(pickle.dumps(broken))


def test_basic_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2
    assert g.adjacency[1] == frozenset({0, 2})
    assert g.closed_neighborhood(1) == frozenset({0, 1, 2})
    assert list(g.vertices()) == [0, 1, 2, 3]


# --- edge-list format ---


def test_parse_edge_list_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.vertex_count == 3
    assert g.edge_count == 3


def test_parse_edge_list_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError, match="duplicate"):
        parse_edge_list("0 1\n0 1")


def test_parse_edge_list_max_id_rule_with_comment():
    g = parse_edge_list("# c\n0 3")
    assert g.vertex_count == 4
    assert g.edge_count == 1
    assert g.degree(1) == 0 and g.degree(2) == 0


def test_parse_edge_list_empty_input():
    g = parse_edge_list("")
    assert g.vertex_count == 0


def test_parse_edge_list_reports_line_numbers():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("0 1\n\n0 1 2")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("a b")
    with pytest.raises(GraphParseError, match="negative"):
        parse_edge_list("0 -1")


def test_parse_edge_list_order_override():
    g = parse_edge_list("0 1", order=5)
    assert g.vertex_count == 5
    with pytest.raises(GraphValidationError, match="order"):
        parse_edge_list("0 3", order=2)


def test_parse_edge_list_trailing_comment():
    g = parse_edge_list("0 1 # the only edge")
    assert g.edges() == [(0, 1)]


# --- DIMACS format ---


def test_parse_dimacs_triangle():
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 3 1")
    assert g.vertex_count == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_parse_dimacs_out_of_range():
    with pytest.raises(GraphParseError, match="out of range"):
        parse_dimacs("p edge 2 1\ne 1 3")


def test_parse_dimacs_isolated_vertices():
    g = parse_dimacs("p edge 4 0")
    assert g.vertex_count == 4
    assert g.edge_count == 0


def test_parse_dimacs_missing_header():
    with pytest.raises(GraphParseError, match="missing"):
        parse_dimacs("c just a comment\n")
    with pytest.raises(GraphParseError, match="before problem line"):
        parse_dimacs("e 1 2\np edge 2 1")


def test_parse_dimacs_count_mismatch():
    with pytest.raises(GraphParseError, match="mismatch"):
        parse_dimacs("p edge 3 2\ne 1 2")


def test_parse_dimacs_duplicate_header_and_junk():
    with pytest.raises(GraphParseError, match="duplicate problem line"):
        parse_dimacs("p edge 2 0\np edge 2 0")
    with pytest.raises(GraphParseError, match="unrecognized"):
        parse_dimacs("p edge 2 0\nx 1 2")


def test_parse_dimacs_ignores_comments():
    g = parse_dimacs("c hello\np edge 2 1\nc mid\ne 1 2\n")
    assert g.edge_count == 1


def test_serialization_is_canonical():
    g = Graph.from_edges(3, [(2, 1), (1, 0)])
    assert to_edge_list(g) == "0 1\n1 2\n"
    assert to_dimacs(g) == "p edge 3 2\ne 1 2\ne 2 3\n"


def test_canonical_id_stable_under_edge_order():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(2, 1), (0, 1)])
    assert a.canonical_id() == b.canonical_id()


# --- degree profile ---


def test_degree_profile_k4():
    p = degree_profile(gen_complete(4))
    assert (p.n, p.m, p.delta, p.Delta) == (4, 6, 3, 3)
    assert (p.n_e, p.n_o) == (0, 4)


def test_degree_profile_sun2():
    p = degree_profile(gen_sun(2))
    assert (p.n, p.m, p.delta, p.Delta, p.n_e) == (8, 12, 2, 4, 8)


def test_degree_profile_hajos():
    p = degree_profile(gen_hajos())
    assert (p.n, p.m) == (6, 9)
    assert p.degrees_sorted == (2, 2, 2, 4, 4, 4)
    assert p.n_e == 6


def test_degree_profile_empty_graph():
    p = degree_profile(parse_edge_list(""))
    assert (p.n, p.m, p.delta, p.Delta, p.n_e, p.n_o) == (0, 0, 0, 0, 0, 0)


def test_ceil_half_sum_range_check():
    p = degree_profile(gen_cycle(4))
    with pytest.raises(ValueError):
        p.ceil_half_sum(0)
    with pytest.raises(ValueError):
        p.ceil_half_sum(5)
    assert p.ceil_half_sum(2) == 4


# --- connectivity ---


def test_is_connected_cases():
    assert is_connected(gen_cycle(5))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(gen_complete(1))
    assert is_connected(parse_edge_list(""))


# --- generators ---


def test_gen_sun_structure():
    g = gen_sun(2)
    assert g.vertex_count == 8
    assert g.edge_count == 12
    assert all(g.degree(v) % 2 == 0 for v in g.vertices())
    # gadget vertex 2t+i sits on cycle edge (i, i+1)
    assert g.adjacency[4] == frozenset({0, 1})
    assert g.adjacency[7] == frozenset({3, 0})


def test_gen_hajos_structure():
    g = gen_hajos()
    assert g.vertex_count == 6
    assert g.edge_count == 9
    assert g.adjacency[3] == frozenset({1, 2})
    assert g.adjacency[4] == frozenset({0, 2})
    assert g.adjacency[5] == frozenset({0, 1})
    assert g.adjacency[0] >= frozenset({1, 2})


def test_gen_circulant_offset_one_is_cycle():
    assert gen_circulant(8, [1]).edges() == gen_cycle(8).edges()


def test_gen_circulant_validation():
    with pytest.raises(ValueError):
        gen_circulant(8, [])
    with pytest.raises(ValueError):
        gen_circulant(8, [5])
    with pytest.raises(ValueError):
        gen_circulant(8, [0])


def test_gen_circulant_half_offset():
    g = gen_circulant(4, [2])
    assert g.edges() == [(0, 2), (1, 3)]


def test_gen_parameter_domains():
    with pytest.raises(ValueError):
        gen_cycle(2)
    with pytest.raises(ValueError):
        gen_sun(1)
    with pytest.raises(ValueError):
        gen_path(0)
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 0)


def test_gen_complete_even_vertex_counts():
    for n in range(1, 10):
        p = degree_profile(gen_complete(n))
        assert p.n_e == (n if n % 2 == 1 else 0)


def test_gen_gnp_deterministic():
    a = gen_gnp(10, 0.5, 42)
    b = gen_gnp(10, 0.5, 42)
    assert a == b
    assert gen_gnp(10, 0.5, 43) != a


def test_gen_gnp_extreme_probabilities():
    assert gen_gnp(6, 0.0, 7).edge_count == 0
    assert gen_gnp(6, 1.0, 7).edge_count == 15


def test_gen_gnp_frozen_stream():
    # regression pin for the documented splitmix64 generator
    g = gen_gnp(6, 0.5, 42)
    assert g.edges() == [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5)]


# --- properties ---


@given(graphs())
def test_adjacency_symmetric_and_simple(g):
    for v in g.vertices():
        assert v not in g.adjacency[v]
        for u in g.adjacency[v]:
            assert v in g.adjacency[u]


@given(graphs())
def test_degree_identity(g):
    p = degree_profile(g)
    assert p.n_e + p.n_o == p.n
    assert sum(p.degrees_sorted) == 2 * p.m
    if p.n:
        assert p.delta == p.degrees_sorted[0]
        assert p.Delta == p.degrees_sorted[-1]
        assert 2 * p.ceil_half_sum(p.n) == 2 * p.m + p.n + p.n_e


@given(graphs())
def test_dimacs_round_trip(g):
    assert parse_dimacs(to_dimacs(g)) == g


@given(graphs())
def test_edge_list_round_trip_modulo_trailing_isolated(g):
    restored = parse_edge_list(to_edge_list(g), order=g.vertex_count)
    assert restored == g
