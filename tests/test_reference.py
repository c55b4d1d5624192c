import pytest

from signdom import (
    Mode,
    evaluate,
    exact_complete_nn,
    exact_cycle_nn,
    exact_cycle_signed,
    exact_hajos_nn,
    exact_path_signed,
    exact_sun_nn,
    gen_complete,
    gen_cycle,
    gen_hajos,
    gen_path,
    gen_sun,
    reference_table,
    solve_bnb,
    solve_bruteforce,
    SignAssignment,
)


def test_cycle_signed_formula():
    assert exact_cycle_signed(6) == 2
    assert exact_cycle_signed(7) == 3
    assert exact_cycle_signed(8) == 4
    assert exact_cycle_signed(9) == 3
    with pytest.raises(ValueError):
        exact_cycle_signed(2)


def test_cycle_nn_equals_signed():
    assert exact_cycle_nn(6) == 2
    assert exact_cycle_nn(9) == 3
    assert exact_cycle_nn(4) == 2
    for n in range(3, 31):
        assert exact_cycle_nn(n) == exact_cycle_signed(n)


def test_complete_formula():
    assert exact_complete_nn(4) == 0
    assert exact_complete_nn(5) == 1
    assert exact_complete_nn(1) == 1
    with pytest.raises(ValueError):
        exact_complete_nn(0)


def test_sun_and_hajos():
    assert exact_sun_nn(2) == 0
    assert exact_sun_nn(3) == 0
    with pytest.raises(ValueError):
        exact_sun_nn(1)
    assert exact_hajos_nn() == 0


def test_path_signed_formula():
    assert exact_path_signed(2) == 2
    assert exact_path_signed(4) == 4
    assert exact_path_signed(5) == 3
    assert exact_path_signed(8) == 4
    with pytest.raises(ValueError):
        exact_path_signed(1)


def test_paths_against_solver():
    for n in range(2, 19):
        assert solve_bnb(gen_path(n), n, Mode.SIGNED).optimum == exact_path_signed(n), n


def test_cycles_against_solver():
    for n in range(3, 12):
        g = gen_cycle(n)
        assert solve_bruteforce(g, n, Mode.SIGNED).optimum == exact_cycle_signed(n)
        assert solve_bruteforce(g, n, Mode.NONNEG).optimum == exact_cycle_nn(n)


def test_completes_against_solver():
    for n in range(1, 11):
        assert solve_bruteforce(gen_complete(n), n, Mode.NONNEG).optimum == exact_complete_nn(n)


def test_sun_and_hajos_against_solver():
    assert solve_bruteforce(gen_sun(2), 8, Mode.NONNEG).optimum == 0
    assert solve_bruteforce(gen_hajos(), 6, Mode.NONNEG).optimum == 0


def test_hajos_witness_assignment():
    ev = evaluate(gen_hajos(), SignAssignment((1, 1, 1, -1, -1, -1)), Mode.NONNEG)
    assert ev.weight == 0
    assert ev.satisfied_count == 6


def test_reference_table_reproducible_and_parity():
    rows = reference_table()
    assert len(rows) > 40
    for rv in rows:
        g = rv.build_graph()
        n = g.vertex_count
        assert (rv.value - n) % 2 == 0  # full-domination weights share n's parity
        assert rv.provenance
        assert solve_bnb(g, n, rv.mode).optimum == rv.value, rv
