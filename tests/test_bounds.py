import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signdom import (
    BOUND_NAMES,
    Graph,
    bound_ksub_1,
    bound_ksub_2,
    bound_nn_1,
    bound_nn_2,
    bound_nn_3,
    bound_nn_4,
    bound_nn_5,
    bound_prior_deltaceil,
    bound_prior_halfn,
    bound_prior_hua,
    bound_regular,
    bound_report,
    bound_values,
    degree_profile,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_hajos,
    gen_path,
    gen_sun,
    is_connected,
    parity_lift,
)

import oracles
from oracles import oracle_nn4, oracle_nn5
from strategies import graphs


def profile_of(g):
    return degree_profile(g)


K1 = profile_of(gen_complete(1))
K4 = profile_of(gen_complete(4))
K5 = profile_of(gen_complete(5))
C3 = profile_of(gen_cycle(3))
C6 = profile_of(gen_cycle(6))
HAJOS = profile_of(gen_hajos())
SUN2 = profile_of(gen_sun(2))
SUN3 = profile_of(gen_sun(3))


# --- individual bound values ---


def test_prior_halfn():
    assert bound_prior_halfn(SUN2) == -8
    assert bound_prior_halfn(K1) == Fraction(1, 2)
    assert bound_prior_halfn(C6) == -3


def test_prior_deltaceil():
    assert bound_prior_deltaceil(SUN2) == Fraction(-8, 7)
    assert math.ceil(bound_prior_deltaceil(SUN2)) == -1
    assert bound_prior_deltaceil(K5) == 0
    assert bound_prior_deltaceil(C6) == Fraction(6, 7)


def test_prior_hua():
    assert bound_prior_hua(SUN2) == -2
    assert bound_prior_hua(SUN3) == -3
    assert bound_prior_hua(K4) == 0
    assert bound_prior_hua(C6) == 0


def test_nn_1():
    assert bound_nn_1(C6) == 2
    assert bound_nn_1(SUN2) == 0
    assert bound_nn_1(SUN3) == 0
    assert bound_nn_1(K5) == 1


def test_nn_2():
    assert bound_nn_2(K4) == 0
    assert bound_nn_2(SUN2) == 0
    assert bound_nn_2(C6) == 2


def test_nn_3():
    assert bound_nn_3(SUN2) == 0
    assert bound_nn_3(C6) == 2
    assert bound_nn_3(K5) == 1


def test_nn_4():
    assert bound_nn_4(HAJOS) == 0
    assert bound_nn_4(K5) == 1  # frozen from the bracketing oracle
    assert bound_nn_4(C3) == 1


def test_nn_5():
    assert bound_nn_5(HAJOS) == 0
    assert bound_nn_5(K4) == 0
    assert bound_nn_5(C6) == -1


def test_ksub_1():
    # cycles at k=n: 4n/3 - n = n/3
    for n in (3, 6, 9, 12):
        assert bound_ksub_1(profile_of(gen_cycle(n)), n) == Fraction(n, 3)
    assert bound_ksub_1(K4, 2) == -2
    assert bound_ksub_1(C6, 6) == bound_nn_2(C6)


def test_ksub_2():
    assert bound_ksub_2(C6, 3) == -2
    assert bound_ksub_2(K4, 4) == 0
    assert bound_ksub_2(C6, 6) == bound_nn_3(C6)


def test_ksub_k_range():
    for fn in (bound_ksub_1, bound_ksub_2):
        with pytest.raises(ValueError):
            fn(C6, 0)
        with pytest.raises(ValueError):
            fn(C6, 7)


def test_bounds_reject_empty_graph():
    empty = profile_of(Graph.from_edges(0, []))
    with pytest.raises(ValueError):
        bound_prior_halfn(empty)


def test_regular_bound():
    assert bound_regular(C6, 6) == 2  # n/(r+1) for even r
    assert bound_regular(K4, 4) == 0  # odd r
    assert bound_regular(K4, 2) == -2  # k - n for odd r
    assert bound_regular(profile_of(gen_cycle(9)), 9) == 3
    with pytest.raises(ValueError, match="regular"):
        bound_regular(SUN2, 8)


# --- parity lifting ---


def test_parity_lift_basics():
    assert parity_lift(Fraction(-8, 7), 8) == 0  # ceil -1, lift to even
    assert parity_lift(Fraction(1, 2), 1) == 1
    assert parity_lift(2, 6) == 2
    assert parity_lift(2, 5) == 3
    assert parity_lift(Fraction(-5, 2), 4) == -2
    assert parity_lift(Fraction(-5, 2), 5) == -1


@given(
    st.one_of(st.integers(-60, 60), st.fractions(-60, 60, max_denominator=30)),
    st.integers(1, 40),
)
def test_parity_lift_is_never_below_its_argument(value, n):
    # so a lifted bound that holds implies the raw one, and the lift is
    # the least integer of n's parity that does
    lifted = parity_lift(value, n)
    assert value <= lifted < value + 2
    assert (lifted - n) % 2 == 0


# --- the aggregated report ---


def test_report_sun2_sharpness():
    rep = bound_report(gen_sun(2), 8)
    assert rep["nn1"].raw == rep["nn2"].raw == rep["nn3"].raw == 0
    assert rep["prior_halfn"].raw == -8
    assert rep["prior_hua"].raw == -2
    assert rep["prior_deltaceil"].ceil == -1


def test_report_hajos_sharpness():
    rep = bound_report(gen_hajos(), 6)
    assert rep["nn4"].raw == 0
    assert rep["nn5"].raw == 0


def test_report_k1_all_bounds_at_most_exact():
    rep = bound_report(gen_complete(1), 1)
    for name in BOUND_NAMES:
        b = rep[name]
        assert b.raw is not None and b.raw <= 1
        assert b.parity_lifted == 1  # the exact value; every bound is sharp on K_1


def test_report_applicability_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    rep = bound_report(g, 4)
    assert not rep.connected
    for name in ("nn1", "nn2", "nn3", "nn4", "nn5"):
        assert not rep[name].applicable
    for name in ("prior_halfn", "prior_deltaceil", "prior_hua", "ksub1", "ksub2"):
        assert rep[name].applicable
    assert rep["regular"].applicable  # 1-regular


def test_report_applicability_partial_k():
    rep = bound_report(gen_cycle(6), 3)
    for name in ("prior_halfn", "prior_hua", "nn1", "nn5"):
        assert not rep[name].applicable
    assert rep["ksub1"].applicable and rep["ksub2"].applicable


def test_report_regular_entry_empty_for_irregular():
    rep = bound_report(gen_path(4), 4)
    b = rep["regular"]
    assert b.raw is None and b.ceil is None and b.parity_lifted is None
    assert not b.applicable


def test_report_k_range():
    with pytest.raises(ValueError):
        bound_report(gen_cycle(4), 0)
    with pytest.raises(ValueError):
        bound_report(gen_cycle(4), 5)


def test_report_record_field_names():
    record = bound_report(gen_cycle(6), 6).to_record()
    assert record["n"] == 6 and record["k"] == 6 and record["connected"] is True
    assert record["bound.nn1.raw"] == "2"
    assert record["bound.nn1.lifted"] == 2
    assert record["bound.prior_deltaceil.raw"] == "6/7"
    for name in BOUND_NAMES:
        for part in ("raw", "ceil", "lifted", "applicable"):
            assert f"bound.{name}.{part}" in record


def test_best_applicable_lifted():
    rep = bound_report(gen_cycle(6), 6)
    assert rep.best_applicable_lifted() == 2


def test_best_applicable_lifted_refuses_a_report_with_no_applicable_entry():
    rep = bound_report(gen_cycle(6), 6)
    bounds = {name: dataclasses.replace(b, applicable=False) for name, b in rep.bounds.items()}
    with pytest.raises(ValueError) as info:
        dataclasses.replace(rep, bounds=bounds).best_applicable_lifted()
    assert str(info.value) == "no applicable bound available"


# --- properties ---


@given(graphs(min_n=1))
def test_sqrt_bounds_match_bracketing_oracle(g):
    p = degree_profile(g)
    assert bound_nn_4(p) == oracle_nn4(p.n, p.delta, p.n_e)
    assert bound_nn_5(p) == oracle_nn5(p.n, p.m, p.n_e)


@given(graphs(min_n=1))
def test_report_value_invariants(g):
    n = g.vertex_count
    rep = bound_report(g, max(1, n // 2))
    for name in BOUND_NAMES:
        b = rep[name]
        if b.raw is None:
            continue
        assert b.raw <= b.ceil <= b.parity_lifted <= b.ceil + 1
        assert (b.parity_lifted - n) % 2 == 0


@given(graphs(min_n=1))
def test_ksub_bounds_reduce_to_full_bounds_at_k_n(g):
    p = degree_profile(g)
    assert bound_ksub_1(p, p.n) == bound_nn_2(p)
    assert bound_ksub_2(p, p.n) == bound_nn_3(p)


@given(graphs(min_n=1))
def test_nn1_and_nn3_extend_the_prior_bounds(g):
    """nn1 >= prior_hua on every graph, and nn3 >= prior_halfn on every
    connected graph, where delta >= 1 unless the graph is K_1."""
    p = degree_profile(g)
    assert bound_nn_1(p) - bound_prior_hua(p) == Fraction(2 * p.n_e, p.Delta + p.delta + 2) >= 0
    gap = bound_nn_3(p) - bound_prior_halfn(p)
    assert gap == Fraction((p.delta - 1) * (p.n + 2 * p.m) + 2 * p.n_e, 2 * (p.delta + 1))
    if is_connected(g):
        assert gap >= 0


@pytest.mark.parametrize("p, seed, below", [(0.2, 39, {"nn4", "nn5"}), (0.1, 18, {"nn5"})])
def test_nn4_and_nn5_do_not_extend_prior_halfn(p, seed, below):
    # connected trees on 13 vertices, where prior_halfn = 13/2 - 12 = -11/2
    g = gen_gnp(13, p, seed)
    profile = degree_profile(g)
    assert is_connected(g) and profile.m == 12
    values = {"nn4": bound_nn_4(profile), "nn5": bound_nn_5(profile)}
    assert {name for name, v in values.items() if v < bound_prior_halfn(profile)} == below


@given(graphs(min_n=1))
def test_regular_bound_equals_ksub1_on_regular_graphs(g):
    p = degree_profile(g)
    if not p.is_regular:
        return
    for k in range(1, p.n + 1):
        assert bound_regular(p, k) == bound_ksub_1(p, k)


@given(graphs(min_n=1, max_n=9))
def test_report_ceilings_and_closed_forms(g):
    n = g.vertex_count
    regular = degree_profile(g).is_regular
    for k in range(1, n + 1):
        rep = bound_report(g, k)
        for name in BOUND_NAMES:
            b = rep[name]
            if b.raw is None:
                continue
            assert b.ceil == math.ceil(b.raw)
            assert b.parity_lifted == parity_lift(b.raw, n)
        assert rep["prior_halfn"].raw == oracles.prior_halfn(g)
        assert rep["ksub1"].raw == oracles.ksub1(g, k)
        if regular:
            assert rep["regular"].raw == oracles.regular(g, k)


def test_bound_report_full_domination_values_do_not_depend_on_k():
    # below k = n a full-domination bound is reported with its k = n value,
    # flagged not applicable
    grid = [gen_gnp(n, p, seed) for n in (1, 4, 7, 10) for p in (0.2, 0.5, 0.8) for seed in range(3)]
    grid += [gen_cycle(6), gen_sun(2), gen_complete(5), gen_hajos(), gen_path(4)]
    full_domination = [name for name in BOUND_NAMES if not name.startswith(("ksub", "regular"))]
    for g in grid:
        n = g.vertex_count
        full = bound_report(g, n)
        for k in range(1, n):
            report = bound_report(g, k)
            assert (report.n, report.k, report.connected) == (n, k, is_connected(g))
            for name in full_domination:
                assert report[name] == dataclasses.replace(full[name], applicable=False), (name, k)
    c6 = gen_cycle(6)
    for bad in (0, 7):
        with pytest.raises(ValueError, match="k must satisfy"):
            bound_report(c6, bad)


def test_bound_values_are_the_applicable_report_entries():
    # what the campaign's bound-dominance check compares with the optimum:
    # each raw value from bound_values, its ceiling and parity_lift of it
    grid = [gen_gnp(n, p, seed) for n in range(1, 9) for p in (0.2, 0.5, 0.9) for seed in range(4)]
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    grid += [gen_complete(1), gen_complete(5), gen_cycle(7), Graph.from_edges(4, []), two_triangles]
    kinds = set()
    for g in grid:
        profile, connected = degree_profile(g), is_connected(g)
        n = g.vertex_count
        kinds.add((connected, profile.is_regular))
        for k in range(1, n + 1):
            report = bound_report(g, k)
            values = bound_values(profile, connected, k)
            applicable = [name for name in BOUND_NAMES if report[name].applicable]
            assert [name for name, _ in values] == applicable, (g, k)
            for name, raw in values:
                b = report[name]
                assert (b.raw, b.ceil, b.parity_lifted) == (raw, math.ceil(raw), parity_lift(raw, n))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert any(g.vertex_count == 1 for g in grid)
