import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signdom import (
    BRUTE_FORCE_CAP,
    EvalResult,
    Graph,
    Mode,
    SearchStats,
    SignAssignment,
    bnb_optima,
    bound_report,
    bruteforce_optima_both,
    degree_profile,
    evaluate,
    exact_cycle_signed,
    gen_circulant,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_hajos,
    gen_path,
    gen_sun,
    greedy_upper,
    result_record,
    solve_bnb,
    solve_bruteforce,
)
from signdom import solver

from oracles import greedy_sweep, milp_lexmin_witness, milp_optimum, naive_closed_sums, naive_minimum
from strategies import graphs, sign_vectors


# --- Mode and SignAssignment ---


def test_mode_thresholds():
    assert Mode.NONNEG.threshold == 0
    assert Mode.SIGNED.threshold == 1


def test_sign_assignment_basics():
    f = SignAssignment((1, -1, 1))
    assert f.weight == 1
    assert f.to_string() == "+-+"
    assert SignAssignment((1,) * 3).weight == 3
    with pytest.raises(ValueError):
        SignAssignment((1, 0, -1))


def test_make_and_replace_check_the_signs():
    with pytest.raises(ValueError, match="got 0"):
        SignAssignment._make([(0,)])
    with pytest.raises(ValueError, match="got 2"):
        SignAssignment((1, -1))._replace(values=(1, 2))


def _records():
    """One of each record type, with its first field."""
    graph = gen_hajos()
    f = greedy_upper(graph, 3, Mode.NONNEG)
    result = solve_bnb(graph, 3, Mode.NONNEG)
    cases = [
        (graph, "vertex_count"),
        (degree_profile(graph), "n"),
        (f, "values"),
        (evaluate(graph, f, Mode.NONNEG), "weight"),
        (result.stats, "nodes"),
        (result, "optimum"),
    ]
    return [pytest.param(record, field, id=type(record).__name__) for record, field in cases]


@pytest.mark.parametrize("record, field", _records())
def test_every_record_refuses_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


# --- evaluate ---


def test_evaluate_c4_example():
    ev = evaluate(gen_cycle(4), SignAssignment((1, 1, -1, -1)), Mode.NONNEG)
    assert ev.weight == 0
    # the satisfied vertices 0 and 1 (sums >= 0) are both positive
    assert ev.closed_sums == (1, 1, -1, -1)
    assert ev.satisfied_count == 2
    # a positive v has (d_v + 1 - closed sum) / 2 negative neighbours, so the
    # closed sums of the positives count the edges (1,2) and (3,0)
    assert sum((3 - ev.closed_sums[v]) // 2 for v in (0, 1)) == 2


def test_evaluate_hajos_triangle_positive():
    # +1 on the triangle 0,1,2 and -1 on the degree-2 vertices: every
    # closed sum is exactly 1, all six vertices satisfied, weight 0.
    ev = evaluate(gen_hajos(), SignAssignment((1, 1, 1, -1, -1, -1)), Mode.NONNEG)
    assert ev.weight == 0
    assert ev.closed_sums == (1, 1, 1, 1, 1, 1)
    assert ev.satisfied_count == 6


def test_evaluate_k1_negative():
    ev = evaluate(gen_complete(1), SignAssignment((-1,)), Mode.NONNEG)
    assert ev.weight == -1
    assert ev.closed_sums == (-1,)
    assert ev.satisfied_count == 0


def test_evaluate_signed_threshold():
    ev = evaluate(gen_complete(2), SignAssignment((1, -1)), Mode.SIGNED)
    assert ev.closed_sums == (0, 0)
    assert ev.satisfied_count == 0
    assert evaluate(gen_complete(2), SignAssignment((1, -1)), Mode.NONNEG).satisfied_count == 2


def test_evaluate_requires_total_assignment():
    with pytest.raises(ValueError, match="total|covers"):
        evaluate(gen_cycle(4), SignAssignment((1, 1)), Mode.NONNEG)


# --- brute force ---


def test_bruteforce_known_values():
    assert solve_bruteforce(gen_complete(5), 5, Mode.NONNEG).optimum == 1
    assert solve_bruteforce(gen_cycle(6), 6, Mode.SIGNED).optimum == 2
    assert solve_bruteforce(gen_complete(4), 2, Mode.NONNEG).optimum == 0
    assert solve_bruteforce(gen_cycle(4), 2, Mode.NONNEG).optimum == 0


def test_bruteforce_k2_modes():
    assert solve_bruteforce(gen_complete(2), 2, Mode.NONNEG).optimum == 0
    assert solve_bruteforce(gen_complete(2), 2, Mode.SIGNED).optimum == 2


def test_bruteforce_witness_is_lex_min():
    r = solve_bruteforce(gen_complete(4), 2, Mode.NONNEG)
    assert r.witness.values == (1, 1, -1, -1)
    assert r.satisfied_count >= 2
    assert r.stats.nodes == 16


def test_bruteforce_cap():
    g = gen_cycle(21)
    with pytest.raises(ValueError, match="capped"):
        solve_bruteforce(g, 21, Mode.NONNEG)
    assert solve_bruteforce(g, 21, Mode.NONNEG, cap=21).optimum == 7


def test_k_range_errors():
    g = gen_cycle(4)
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            solve_bruteforce(g, bad, Mode.NONNEG)
        with pytest.raises(ValueError):
            solve_bnb(g, bad, Mode.NONNEG)
    with pytest.raises(ValueError):
        solve_bnb(Graph.from_edges(0, []), 1, Mode.NONNEG)


# --- branch and bound ---


def test_bnb_known_values():
    assert solve_bnb(gen_sun(3), 12, Mode.NONNEG).optimum == 0
    assert solve_bnb(gen_circulant(12, [1]), 12, Mode.NONNEG).optimum == 4
    assert solve_bnb(gen_complete(6), 6, Mode.NONNEG).optimum == 0


def test_bnb_terminates_on_global_bound():
    g = gen_sun(4)
    r = solve_bnb(g, 16, Mode.NONNEG)
    assert r.optimum == 0
    assert r.stats.prunes_global_lb == 1
    # greedy already meets the root bound; the search only walks down to
    # the canonical witness
    assert r.stats.nodes <= 2 * g.vertex_count + 1
    assert r.witness == solve_bruteforce(g, 16, Mode.NONNEG).witness


def test_bnb_counts_nodes_when_searching():
    r = solve_bnb(gen_cycle(7), 3, Mode.SIGNED)
    assert r.optimum == solve_bruteforce(gen_cycle(7), 3, Mode.SIGNED).optimum
    assert r.stats.nodes > 0
    assert r.stats.prunes_residual > 0


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_bnb_matches_bruteforce_on_seeded_gnp(n, p):
    ks = range(1, n + 1) if n == 12 else sorted({1, n // 2, n})
    for seed in range(3):
        g = gen_gnp(n, p, seed)
        both = bruteforce_optima_both(g, ks)
        for mode in (Mode.NONNEG, Mode.SIGNED):
            for k in ks:
                bnb = solve_bnb(g, k, mode)
                brute = both[mode][k]
                assert (bnb.optimum, bnb.witness) == (brute.optimum, brute.witness), (seed, k, mode)
                assert bnb.satisfied_count == brute.satisfied_count


# Edge cases of the packed search state: one field, fields no branch
# touches, one field every branch touches, several components, and every
# field touched by every branch.
_PACKING_EDGE_GRAPHS = [
    pytest.param(Graph.from_edges(1, []), id="n1"),
    pytest.param(Graph.from_edges(6, []), id="isolated6"),
    pytest.param(Graph.from_edges(8, [(0, v) for v in range(1, 8)]), id="star8"),
    pytest.param(
        Graph.from_edges(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8)]),
        id="disconnected10",
    ),
    pytest.param(gen_complete(9), id="K9"),
]


@pytest.mark.parametrize("g", _PACKING_EDGE_GRAPHS)
def test_bnb_matches_bruteforce_on_packing_edges(g):
    for k in range(1, g.vertex_count + 1):
        for mode in (Mode.NONNEG, Mode.SIGNED):
            bnb = solve_bnb(g, k, mode)
            brute = solve_bruteforce(g, k, mode)
            assert (bnb.optimum, bnb.witness) == (brute.optimum, brute.witness), (k, mode)
            assert bnb.satisfied_count == brute.satisfied_count


# (nodes, prunes_weight, prunes_satisfiability, prunes_residual,
# prunes_global_lb). The k < n rows were recorded from the list-based
# search state that the packed one replaced, and the search must stay
# the same there node for node; the k = n rows, from the search that
# also prunes every node at its largest unmet demand. k = 1 is answered
# at the root with no search, so its rows count nothing.
@pytest.mark.parametrize(
    "g, k, mode, counters",
    [
        pytest.param(gen_sun(4), 16, Mode.NONNEG, (25, 7, 0, 0, 1), id="sun4-k16-nonneg"),
        pytest.param(gen_sun(4), 16, Mode.SIGNED, (25, 7, 0, 0, 1), id="sun4-k16-signed"),
        pytest.param(gen_sun(4), 8, Mode.NONNEG, (469, 9, 19, 205, 0), id="sun4-k8-nonneg"),
        pytest.param(gen_sun(4), 8, Mode.SIGNED, (469, 9, 19, 205, 0), id="sun4-k8-signed"),
        pytest.param(gen_cycle(46), 46, Mode.SIGNED, (62, 0, 0, 14, 1), id="C46-signed"),
        pytest.param(gen_gnp(16, 0.5, 0), 8, Mode.NONNEG, (3639, 1, 473, 1344, 0), id="gnp16s0-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 0), 8, Mode.SIGNED, (5533, 1, 918, 1846, 0), id="gnp16s0-signed"),
        pytest.param(gen_gnp(16, 0.5, 1), 8, Mode.NONNEG, (3933, 1, 564, 1400, 0), id="gnp16s1-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 1), 8, Mode.SIGNED, (4473, 1, 738, 1496, 0), id="gnp16s1-signed"),
        pytest.param(gen_sun(4), 1, Mode.NONNEG, (0, 0, 0, 0, 0), id="sun4-k1-nonneg"),
        pytest.param(gen_sun(4), 1, Mode.SIGNED, (0, 0, 0, 0, 0), id="sun4-k1-signed"),
        pytest.param(gen_cycle(46), 1, Mode.SIGNED, (0, 0, 0, 0, 0), id="C46-k1-signed"),
        pytest.param(gen_complete(9), 1, Mode.NONNEG, (0, 0, 0, 0, 0), id="K9-k1-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 0), 1, Mode.NONNEG, (0, 0, 0, 0, 0), id="gnp16s0-k1-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 0), 1, Mode.SIGNED, (0, 0, 0, 0, 0), id="gnp16s0-k1-signed"),
        pytest.param(gen_gnp(16, 0.5, 1), 1, Mode.NONNEG, (0, 0, 0, 0, 0), id="gnp16s1-k1-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 1), 1, Mode.SIGNED, (0, 0, 0, 0, 0), id="gnp16s1-k1-signed"),
        # dense searches at k = n (the solve-full shape) and one at k = n/2
        pytest.param(gen_gnp(16, 0.5, 0), 16, Mode.NONNEG, (1643, 0, 372, 448, 0), id="gnp16s0-k16-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 0), 16, Mode.SIGNED, (316, 0, 73, 79, 1), id="gnp16s0-k16-signed"),
        pytest.param(gen_gnp(16, 0.5, 1), 16, Mode.NONNEG, (477, 1, 122, 114, 0), id="gnp16s1-k16-nonneg"),
        pytest.param(gen_gnp(16, 0.5, 1), 16, Mode.SIGNED, (1155, 1, 314, 261, 0), id="gnp16s1-k16-signed"),
        pytest.param(gen_gnp(20, 0.5, 0), 10, Mode.SIGNED, (69209, 2, 13776, 20825, 0), id="gnp20s0-k10-signed"),
        pytest.param(gen_gnp(24, 0.5, 1), 24, Mode.NONNEG, (39451, 0, 9382, 10342, 0), id="gnp24s1-k24-nonneg"),
        pytest.param(gen_gnp(20, 0.5, 0), 20, Mode.NONNEG, (8001, 1, 1633, 2365, 0), id="gnp20s0-k20-nonneg"),
        pytest.param(gen_gnp(20, 0.5, 0), 20, Mode.SIGNED, (11057, 0, 2828, 2698, 0), id="gnp20s0-k20-signed"),
        # k = n where the field width steps from 8 to 9 bits, and a path,
        # whose leaves need both vertices of N[v] positive in signed mode
        pytest.param(gen_cycle(63), 63, Mode.NONNEG, (85, 0, 0, 20, 1), id="C63-nonneg"),
        pytest.param(gen_cycle(64), 64, Mode.NONNEG, (86, 0, 0, 20, 1), id="C64-nonneg"),
        pytest.param(gen_path(33), 33, Mode.SIGNED, (337, 0, 112, 56, 0), id="P33-signed"),
        # sparse k < n, where the demand scan keeps the search small: a
        # per-node k-th-demand test alone takes sun(10) to 56,196,393 nodes
        pytest.param(gen_sun(10), 20, Mode.NONNEG, (190577, 27, 43, 95217, 0), id="sun10-k20-nonneg"),
        pytest.param(gen_circulant(40, (1, 2)), 20, Mode.NONNEG, (50525, 19, 665, 24577, 0), id="circ40-k20-nonneg"),
        pytest.param(gen_cycle(60), 30, Mode.SIGNED, (4575, 29, 46, 2211, 0), id="C60-k30-signed"),
        pytest.param(gen_path(40), 20, Mode.NONNEG, (1925, 19, 28, 914, 0), id="P40-k20-nonneg"),
    ],
)
def test_bnb_search_counters_pinned(g, k, mode, counters):
    s = solve_bnb(g, k, mode).stats
    assert (s.nodes, s.prunes_weight, s.prunes_satisfiability, s.prunes_residual, s.prunes_global_lb) == counters


def test_bnb_checks_its_satisfied_count_against_evaluate(monkeypatch):
    # At the accepted leaf every vertex is assigned, so the search's own
    # count of satisfiable vertices is the satisfied count; an evaluation
    # that disagrees, even by one above it, is an internal error.
    real = solver.evaluate

    def overcount(graph, f, mode):
        ev = real(graph, f, mode)
        return EvalResult(ev.weight, ev.closed_sums, ev.satisfied_count + 1)

    monkeypatch.setattr(solver, "evaluate", overcount)
    with pytest.raises(RuntimeError, match="inconsistent"):
        solve_bnb(gen_gnp(8, 0.5, 0), 4, Mode.NONNEG)


@pytest.mark.parametrize("n", range(1, 11))
def test_kth_demand_bound_is_below_every_optimum_and_sharp_at_k1(n):
    # A satisfied vertex needs ceil((d_v + 1 + tau) / 2) positives, and one
    # of k satisfied vertices needs at least the k-th smallest of these.
    for p in (0.2, 0.5, 0.8):
        for seed in range(3):
            g = gen_gnp(n, p, seed)
            both = bruteforce_optima_both(g, range(1, n + 1))
            for mode in Mode:
                demands = sorted((len(nbrs) + 2 + mode.threshold) // 2 for nbrs in g.adjacency)
                for k, r in both[mode].items():
                    assert 2 * demands[k - 1] - n <= r.optimum, (p, seed, k, mode)
                assert 2 * demands[0] - n == both[mode][1].optimum, (p, seed, mode)


_BNB_OPTIMA_GRAPHS = [
    *(
        pytest.param(gen_gnp(n, p, seed), id=f"gnp{n}-p{p}-s{seed}")
        for n in (4, 8, 12)
        for p in (0.2, 0.5, 0.8)
        for seed in range(2)
    ),
    *(pytest.param(gen_sun(t), id=f"sun{t}") for t in range(2, 7)),
    *(pytest.param(gen_circulant(n, (1, 2)), id=f"circulant{n}") for n in range(5, 17)),
]


@pytest.mark.parametrize("g", _BNB_OPTIMA_GRAPHS)
def test_bnb_optima_match_per_k_solves(g):
    n = g.vertex_count
    for mode in (Mode.NONNEG, Mode.SIGNED):
        optima = bnb_optima(g, mode, range(1, n + 1))
        assert list(optima) == list(range(1, n + 1))
        for k, r in optima.items():
            one = solve_bnb(g, k, mode)
            assert (r.optimum, r.witness, r.satisfied_count) == (
                one.optimum,
                one.witness,
                one.satisfied_count,
            ), (k, mode)
        # the least k is searched exactly as alone
        assert optima[1].stats == solve_bnb(g, 1, mode).stats


def _labelled_graphs(n_max):
    """Every labelled graph on 1..n_max vertices."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_bnb_answers_k1_at_the_root_on_every_small_graph():
    # every labelled graph with n <= 5: the optimum 2 c_1 - n, the least
    # demanding N[v] with positives on its lowest ids, and no search
    for g in _labelled_graphs(5):
        brute = bruteforce_optima_both(g, [1])
        for mode in Mode:
            r = solve_bnb(g, 1, mode)
            assert r.stats == SearchStats()
            b = brute[mode][1]
            assert (r.optimum, r.witness, r.satisfied_count) == (b.optimum, b.witness, b.satisfied_count)


def test_bnb_matches_the_oracle_at_every_k_on_every_small_graph():
    # every labelled graph with n <= 5 and every k, each solved alone: the
    # k < n demand scan and the k = n prune at the largest unmet demand cut
    # no node with an acceptable leaf below it
    for g in _labelled_graphs(5):
        n = g.vertex_count
        brute = bruteforce_optima_both(g, range(1, n + 1))
        for mode in Mode:
            for k in range(1, n + 1):
                r = solve_bnb(g, k, mode)
                b = brute[mode][k]
                assert (r.optimum, r.witness, r.satisfied_count) == (b.optimum, b.witness, b.satisfied_count), (
                    g.edges(),
                    k,
                    mode,
                )


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [24, 28])
def test_bnb_matches_the_milp_above_the_brute_force_cap(n, mode):
    # dense full domination, past the n <= 20 reach of enumeration: the
    # optimum and the canonical witness of an independent 0/1 program
    pytest.importorskip("scipy")
    g = gen_gnp(n, 0.5, 1)
    r = solve_bnb(g, n, mode)
    optimum = milp_optimum(g, n, mode)
    assert r.optimum == optimum
    assert r.witness.values == milp_lexmin_witness(g, n, mode, optimum)


def test_bnb_optima_reuse_a_witness_that_satisfies_k():
    g = gen_sun(4)
    optima = bnb_optima(g, Mode.NONNEG, range(1, 17))
    reused = [k for k in range(2, 17) if optima[k - 1].satisfied_count >= k]
    assert reused and len(reused) < 15
    for k in range(2, 17):
        if k in reused:
            assert optima[k].stats == SearchStats()
            assert optima[k].witness == optima[k - 1].witness
        else:
            assert optima[k].stats.nodes > 0


def test_bnb_optima_keys_and_errors():
    g = gen_cycle(7)
    optima = bnb_optima(g, Mode.SIGNED, [7, 3, 3, 1])
    assert list(optima) == [1, 3, 7]
    assert optima[3] == bnb_optima(g, Mode.SIGNED, [3])[3] == solve_bnb(g, 3, Mode.SIGNED)
    assert bnb_optima(g, Mode.SIGNED, []) == {}
    for bad in ([0, 3], [3, 8]):
        with pytest.raises(ValueError, match="k must satisfy"):
            bnb_optima(g, Mode.SIGNED, bad)
    with pytest.raises(ValueError, match="n >= 1"):
        bnb_optima(Graph.from_edges(0, []), Mode.NONNEG, [1])


def test_every_many_k_entry_point_refuses_an_invalid_k_alike():
    """The k rule has one home: the empty graph, k = 0 and k = n + 1 get
    the same message from each entry point that checks it."""
    c5 = gen_cycle(5)
    cases = [
        (Graph.from_edges(0, []), [], 1, "the graph must have n >= 1 vertices"),
        (c5, [0, 3], 0, "k must satisfy 1 <= k <= 5, got 0"),
        (c5, [3, 6], 6, "k must satisfy 1 <= k <= 5, got 6"),
    ]
    for graph, ks, k, message in cases:
        profile = degree_profile(graph)
        calls = [
            lambda: bnb_optima(graph, Mode.NONNEG, ks),
            lambda: bruteforce_optima_both(graph, ks),
            lambda: bound_report(graph, k),
            lambda: profile.ceil_half_sum(k),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def test_bnb_cycles_signed_match_reference_quickly():
    for n in [*range(15, 47), 63, 64]:  # past the field-width steps at 32 and 64
        g = gen_cycle(n)
        r = solve_bnb(g, n, Mode.SIGNED)
        assert r.optimum == exact_cycle_signed(n)
        ev = evaluate(g, r.witness, Mode.SIGNED)
        assert ev.weight == r.optimum and ev.satisfied_count == n
        assert r.stats.nodes < 1000  # the witness comes from the one search


def test_bnb_solves_cycles_past_the_recursion_limit():
    for n in range(991, 1001):
        assert solve_bnb(gen_cycle(n), n, Mode.SIGNED).optimum == exact_cycle_signed(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_bnb_stops_exactly_when_the_optimum_meets_the_stop_weight(n):
    # The stop weight from the degree sequence alone: D is the sum of the k
    # smallest demands ceil((d_v + 1 + tau) / 2), p the fewest of the
    # largest d_u + 1 that sum to at least D, and c_k the k-th smallest demand.
    for p in (0.2, 0.5, 0.8):
        for seed in range(3):
            g = gen_gnp(n, p, seed)
            sizes = sorted((len(nbrs) + 1 for nbrs in g.adjacency), reverse=True)
            both = bruteforce_optima_both(g, range(1, n + 1))
            for mode in Mode:
                demands = sorted((len(nbrs) + 2 + mode.threshold) // 2 for nbrs in g.adjacency)
                # k = 1 is answered at the root, with no search to stop
                assert solve_bnb(g, 1, mode).stats == SearchStats()
                for k in range(2, n + 1):
                    need = sum(demands[:k])
                    fewest = next(i for i in range(n + 1) if sum(sizes[:i]) >= need)
                    stop = max(2 * fewest - n, 2 * demands[k - 1] - n)
                    stopped = solve_bnb(g, k, mode).stats.prunes_global_lb
                    assert stopped in (0, 1)
                    assert (stopped == 1) == (both[mode][k].optimum == stop), (p, seed, mode, k)


# --- greedy upper bound ---


def test_greedy_always_feasible_and_all_plus_fallback():
    g = gen_complete(2)
    f = greedy_upper(g, 2, Mode.SIGNED)
    assert f.values == (1, 1)
    assert f.weight == 2


def test_greedy_sun_reaches_zero():
    f = greedy_upper(gen_sun(2), 8, Mode.NONNEG)
    assert f.weight <= 0
    assert evaluate(gen_sun(2), f, Mode.NONNEG).satisfied_count >= 8


@given(graphs(min_n=1, max_n=7), st.data())
def test_greedy_feasible_everywhere(g, data):
    k = data.draw(st.integers(1, g.vertex_count))
    mode = data.draw(st.sampled_from((Mode.NONNEG, Mode.SIGNED)))
    f = greedy_upper(g, k, mode)
    assert evaluate(g, f, mode).satisfied_count >= k


@given(graphs(min_n=1, max_n=9), st.data())
def test_greedy_is_maximal(g, data):
    # one sweep leaves no +1 vertex whose flip would keep k satisfied
    k = data.draw(st.integers(1, g.vertex_count))
    mode = data.draw(st.sampled_from((Mode.NONNEG, Mode.SIGNED)))
    f = greedy_upper(g, k, mode)
    for v in (u for u, x in enumerate(f.values) if x > 0):
        flipped = SignAssignment(tuple(-1 if u == v else x for u, x in enumerate(f.values)))
        assert evaluate(g, flipped, mode).satisfied_count < k


# --- serialization ---


def test_result_record_fields():
    g = gen_hajos()
    r = solve_bnb(g, 6, Mode.NONNEG)
    record = result_record(g, 6, Mode.NONNEG, r)
    assert record["graph"] == g.canonical_id()
    assert record["optimum"] == 0
    assert record["mode"] == "nonneg"
    assert record["witness"] == "+++---"
    assert set(record) >= {"n", "m", "k", "satisfied_count", "stats.nodes", "stats.prunes_residual"}


# --- cross-engine properties ---


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7), st.data())
def test_engines_match_oracle(g, data):
    n = g.vertex_count
    k = data.draw(st.integers(1, n))
    mode = data.draw(st.sampled_from((Mode.NONNEG, Mode.SIGNED)))
    opt, witness = naive_minimum(g, k, mode)
    brute = solve_bruteforce(g, k, mode)
    bnb = solve_bnb(g, k, mode)
    assert brute.optimum == opt
    assert bnb.optimum == opt
    assert brute.witness.values == witness
    assert bnb.witness.values == witness
    assert brute.satisfied_count >= k
    assert bnb.satisfied_count >= k
    assert (opt - n) % 2 == 0


def test_bruteforce_rejects_empty_and_oversized_graphs():
    with pytest.raises(ValueError, match="n >= 1"):
        solve_bruteforce(Graph.from_edges(0, []), 1, Mode.NONNEG)
    with pytest.raises(ValueError, match="capped"):
        solve_bruteforce(gen_cycle(8), 8, Mode.SIGNED, cap=7)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_bruteforce_optima_both_match_oracle_in_each_mode(g):
    n = g.vertex_count
    both = bruteforce_optima_both(g, range(1, n + 1))
    assert list(both) == [Mode.NONNEG, Mode.SIGNED]
    for mode, optima in both.items():
        assert sorted(optima) == list(range(1, n + 1))
        for k, r in optima.items():
            assert (r.optimum, r.witness.values) == naive_minimum(g, k, mode)
            assert r.satisfied_count == evaluate(g, r.witness, mode).satisfied_count >= k
            assert r.stats.nodes == 1 << n
        values = [optima[k].optimum for k in range(1, n + 1)]
        assert values == sorted(values)


@pytest.mark.parametrize(
    "g",
    [
        *(
            pytest.param(gen_gnp(n, p, seed), id=f"gnp{n}-p{p}-s{seed}")
            for n in (9, 11, 13)
            for p in (0.2, 0.5, 0.8)
            for seed in range(2)
        ),
        *(pytest.param(gen_sun(t), id=f"sun{t}") for t in range(2, 5)),
        pytest.param(Graph.from_edges(10, [(0, 1), (1, 2), (5, 6)]), id="isolated-vertices"),
    ],
)
def test_bruteforce_optima_both_match_one_mode_enumeration(g):
    n = g.vertex_count
    ks = range(1, n + 1) if n <= 13 else (1, (n + 1) // 2, n)
    both = bruteforce_optima_both(g, ks)
    for mode in (Mode.NONNEG, Mode.SIGNED):
        for k in ks:
            assert both[mode][k] == solve_bruteforce(g, k, mode), (k, mode)


@pytest.mark.parametrize("n", [1, 5, 9, 12])
def test_bruteforce_optima_both_answers_the_ks_asked(n):
    subsets = ([1], [n], [n, 1, n], sorted({1, (n + 1) // 2, n}), range(2, n + 1, 3))
    for seed in range(3):
        g = gen_gnp(n, 0.5, seed)
        every = bruteforce_optima_both(g, range(1, n + 1))
        for ks in subsets:
            some = bruteforce_optima_both(g, ks)
            for mode in Mode:
                # optimum, witness, satisfied_count and stats alike
                assert some[mode] == {k: every[mode][k] for k in sorted(set(ks))}, (seed, ks, mode)
    for bad in ([0, 1], [1, n + 1]):
        with pytest.raises(ValueError, match="k must satisfy"):
            bruteforce_optima_both(g, bad)


def test_bruteforce_optima_both_rejects_empty_and_oversized_graphs():
    with pytest.raises(ValueError, match="n >= 1"):
        bruteforce_optima_both(Graph.from_edges(0, []), [])
    with pytest.raises(ValueError, match="capped"):
        bruteforce_optima_both(gen_cycle(BRUTE_FORCE_CAP + 1), [1])


# The counter field is 5 bits wide up to n = 15 and 6 from n = 16; 20 is
# the cap.
@pytest.mark.parametrize("n", [15, 16, 20])
@pytest.mark.parametrize("family", ["cycle", "circulant"])
def test_bruteforce_optima_both_match_bnb_where_the_field_widens_and_at_the_cap(n, family):
    g = gen_cycle(n) if family == "cycle" else gen_circulant(n, (1, 2))
    ks = (1, (n + 1) // 2, n)
    both = bruteforce_optima_both(g, ks)
    for mode in Mode:
        bnb = bnb_optima(g, mode, ks)
        for k in ks:
            brute = both[mode][k]
            assert (brute.optimum, brute.witness) == (bnb[k].optimum, bnb[k].witness), (k, mode)
            assert brute.satisfied_count == bnb[k].satisfied_count
    if family == "cycle":
        assert both[Mode.SIGNED][n].optimum == exact_cycle_signed(n)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_monotone_in_k_and_mode(g):
    n = g.vertex_count
    prev = {Mode.NONNEG: None, Mode.SIGNED: None}
    for k in range(1, n + 1):
        lo = solve_bruteforce(g, k, Mode.NONNEG).optimum
        hi = solve_bruteforce(g, k, Mode.SIGNED).optimum
        assert lo <= hi
        for mode, value in ((Mode.NONNEG, lo), (Mode.SIGNED, hi)):
            if prev[mode] is not None:
                assert prev[mode] <= value
            prev[mode] = value


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7), st.data())
def test_even_graphs_collapse_modes(g, data):
    if any(len(nbrs) % 2 for nbrs in g.adjacency):
        return
    k = data.draw(st.integers(1, g.vertex_count))
    assert (
        solve_bruteforce(g, k, Mode.NONNEG).optimum
        == solve_bruteforce(g, k, Mode.SIGNED).optimum
    )


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7), st.data())
def test_eval_structure(g, data):
    n = g.vertex_count
    values = data.draw(sign_vectors(n))
    f = SignAssignment(values)
    ev = evaluate(g, f, Mode.NONNEG)
    pos = {v for v, x in enumerate(values) if x > 0}
    assert ev.weight == 2 * len(pos) - n
    # closed sums have the parity of |N[v]| = deg(v) + 1
    for v, nbrs in enumerate(g.adjacency):
        assert (ev.closed_sums[v] - len(nbrs) - 1) % 2 == 0
        # satisfied even-degree vertices clear 1, not just 0
        if len(nbrs) % 2 == 0 and ev.closed_sums[v] >= 0:
            assert ev.closed_sums[v] >= 1
    # |E(P,M)| counted edge by edge agrees with the count read off the
    # closed sums: a positive v has (d_v + 1 - closed sum) / 2 negative neighbours
    assert sum((len(g.adjacency[v]) + 1 - ev.closed_sums[v]) // 2 for v in pos) == sum(
        1 for u, v in g.edges() if (u in pos) != (v in pos)
    )
    assert ev.satisfied_count == sum(1 for s in ev.closed_sums if s >= 0)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=9), st.data())
def test_evaluate_matches_naive_closed_sums(g, data):
    values = data.draw(sign_vectors(g.vertex_count))
    sums = naive_closed_sums(g, values)
    for mode in Mode:
        ev = evaluate(g, SignAssignment(values), mode)
        assert list(ev.closed_sums) == sums
        assert ev.satisfied_count == sum(1 for s in sums if s >= mode.threshold)


@pytest.mark.parametrize("n", range(1, 13))
def test_greedy_matches_the_first_sweep(n):
    for p in (0.2, 0.5, 0.8):
        for seed in range(3):
            g = gen_gnp(n, p, seed)
            for k in range(1, n + 1):
                for mode in Mode:
                    assert greedy_upper(g, k, mode).values == greedy_sweep(g, k, mode)
