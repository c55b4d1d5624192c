import dataclasses
import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import signdom
import signdom.bounds as bounds_mod
import signdom.verify as verify_mod
from signdom import (
    CHECK_NAMES,
    Counterexample,
    EnsembleSpec,
    Mode,
    SignAssignment,
    bound_report,
    build_ensemble,
    is_connected,
    parse_dimacs,
    run_campaign,
    solve_bruteforce,
)
from signdom.verify import MAX_COUNTEREXAMPLES, _k_values

from oracles import naive_closed_sums


SMALL = EnsembleSpec(
    families=("cycle", "complete", "hajos"),
    n_max=6,
    p_values=(0.5,),
    seeds_per_cell=3,
)


def test_k_values_policies():
    assert _k_values(7, "default") == (1, 4, 7)
    assert _k_values(1, "default") == (1,)
    assert _k_values(4, "all") == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        _k_values(4, "sometimes")
    with pytest.raises(ValueError, match="k_policy"):  # also with no graph to take ks for
        run_campaign(EnsembleSpec(families=("hajos",), n_max=5), k_policy="bogus")


def test_build_ensemble_contents():
    spec = EnsembleSpec(n_min=4, n_max=5, p_values=(0.5,), seeds_per_cell=4)
    ensemble = build_ensemble(spec)
    labels = [label for label, _ in ensemble]
    assert "complete(n=5)" in labels
    assert "cycle(n=3)" in labels
    assert "path(n=1)" in labels
    assert "circulant(n=5,offsets=1:2)" in labels
    assert all("sun" not in label and "hajos" not in label for label in labels)
    for label, g in ensemble:
        if label.startswith("gnp"):
            assert is_connected(g)
            assert 4 <= g.vertex_count <= 5


def test_build_ensemble_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        build_ensemble(EnsembleSpec(families=("petersen",)))


def test_small_campaign_passes():
    report = run_campaign(SMALL)
    assert report.all_passed
    assert report.graph_count == len(build_ensemble(SMALL))
    assert [c.name for c in report.checks] == sorted(CHECK_NAMES)
    assert all(c.failed == 0 for c in report.checks)
    assert all(c.passed > 0 for c in report.checks)


def test_empty_campaign_does_not_pass():
    report = run_campaign(EnsembleSpec(families=("gnp",), n_max=3))
    assert report.graph_count == 0
    assert report.checks_recorded == 0
    assert not report.all_passed
    assert not report.to_dict()["all_passed"]


def test_campaign_check_filter():
    report = run_campaign(SMALL, checks=("degree-identity", "ksub-reduction"))
    assert [c.name for c in report.checks] == ["degree-identity", "ksub-reduction"]
    with pytest.raises(ValueError, match="unknown check"):
        run_campaign(SMALL, checks=("no-such-check",))


MIXED = EnsembleSpec(
    families=("cycle", "sun", "hajos", "complete", "gnp"), n_max=8, seeds_per_cell=3
)


@pytest.fixture(scope="module")
def mixed_all_checks():
    return {c.name: c for c in run_campaign(MIXED, k_policy="all").checks}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_a_single_check_campaign_counts_as_the_all_checks_campaign(mixed_all_checks, name):
    """Selecting one check changes which results are kept, never how many
    that check records."""
    (alone,) = run_campaign(MIXED, k_policy="all", checks=(name,)).checks
    full = mixed_all_checks[name]
    assert (alone.name, alone.passed, alone.failed) == (name, full.passed, full.failed)
    assert alone.passed > 0


def test_campaign_full_k_sweep():
    spec = EnsembleSpec(families=("cycle", "hajos"), n_max=6, seeds_per_cell=1)
    report = run_campaign(spec, k_policy="all")
    assert report.all_passed
    assert report.k_policy == "all"
    # every k in 1..n is exercised: C_6 alone contributes 6 k values x 2 modes
    assert report.check("mode-dominance").passed >= 6 + 4 + 5 + 6


def test_campaign_checks_every_graph_against_the_oracle_above_n14():
    spec = EnsembleSpec(families=("gnp",), n_min=15, n_max=16, p_values=(0.5,), seeds_per_cell=2)
    report = run_campaign(spec, checks=("oracle-equivalence",))
    assert report.graph_count > 0
    check = report.check("oracle-equivalence")
    # optimum and witness, at 3 ks, in 2 modes, on every graph
    assert (check.passed, check.failed) == (2 * 3 * 2 * report.graph_count, 0)


def test_campaign_deterministic_up_to_timestamp():
    a = run_campaign(SMALL).to_dict()
    b = run_campaign(SMALL).to_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_campaign_parallel_matches_sequential():
    spec = EnsembleSpec(families=("cycle", "path", "complete"), n_max=9)
    assert len(build_ensemble(spec)) > 16  # more than one chunk, so a real pool runs
    a = run_campaign(spec, workers=1).to_dict()
    b = run_campaign(spec, workers=2).to_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


@pytest.mark.parametrize(
    "spec, workers, pool_size",
    [
        (EnsembleSpec(families=("cycle",), n_max=4), 6, None),  # 2 graphs: one chunk, no pool
        (EnsembleSpec(families=("gnp",), n_max=5, p_values=(0.5, 0.8), seeds_per_cell=10), 6, 3),
        (EnsembleSpec(families=("gnp",), n_max=5, p_values=(0.5, 0.8), seeds_per_cell=20), 2, 2),
    ],
)
def test_worker_pool_is_capped_by_the_chunks(monkeypatch, spec, workers, pool_size):
    import concurrent.futures

    sizes = []

    class InProcessPool:  # records its size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == 16
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    pooled = run_campaign(spec, workers=workers).to_dict()
    assert sizes == ([] if pool_size is None else [pool_size])
    sequential = run_campaign(spec, workers=1).to_dict()
    pooled.pop("generated_at")
    sequential.pop("generated_at")
    assert pooled == sequential


def test_import_loads_no_process_pool_or_hashlib():
    # only run_campaign(workers > 1) and Graph.canonical_id need these, and
    # loading them up front costs about a third of the package's import time
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import signdom\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(signdom.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "signdom" in out
    assert not {"multiprocessing", "concurrent.futures", "hashlib"} & set(out)


def test_injected_mutant_is_caught_and_replayable(monkeypatch):
    original = bounds_mod.bound_nn_3

    def mutant(profile):  # numerator off by one
        return original(profile) + Fraction(1, profile.delta + 1)

    monkeypatch.setattr(bounds_mod, "bound_nn_3", mutant)

    spec = EnsembleSpec(families=("cycle",), n_max=6)
    report = run_campaign(spec, checks=("bound-dominance",))
    assert not report.all_passed
    check = report.check("bound-dominance")
    assert check.failed > 0
    assert check.counterexamples

    # the counterexample replays to the same observed/expected values
    ce = check.counterexamples[0]
    graph = parse_dimacs(ce.graph_dimacs)
    replayed = bound_report(graph, ce.k)
    assert "nn3" in ce.detail
    assert f">= {replayed['nn3'].raw}" == ce.expected


@pytest.mark.parametrize("excess", [Fraction(0), Fraction(1, 2)])
def test_bound_dominance_is_exact_at_the_optimum(monkeypatch, excess):
    # on K_n the nonneg optimum at k = n is n mod 2
    monkeypatch.setattr(bounds_mod, "bound_nn_3", lambda p: Fraction(p.n % 2) + excess)
    spec = EnsembleSpec(families=("complete",), n_max=5)
    check = run_campaign(spec, checks=("bound-dominance",)).check("bound-dominance")
    if not excess:
        assert check.failed == 0 and check.passed > 0
        return
    raw = [ce for ce in check.counterexamples if ce.detail == "exact optimum vs nn3 raw"]
    assert len(raw) == 5
    for ce in raw:
        n = parse_dimacs(ce.graph_dimacs).vertex_count
        assert (ce.k, ce.mode) == (n, "nonneg")
        assert (ce.observed, ce.expected) == (str(n % 2), f">= {Fraction(n % 2) + excess}")


def _last_optimal_witness(graph, k, mode, optimum):
    """The lexicographically largest feasible sign vector of weight optimum."""
    for values in itertools.product((-1, 1), repeat=graph.vertex_count):
        satisfied = sum(1 for s in naive_closed_sums(graph, values) if s >= mode.threshold)
        if sum(values) == optimum and satisfied >= k:
            return SignAssignment(values)
    raise AssertionError("no optimal witness")


def test_degree_inequalities_evaluate_the_oracle_witness(monkeypatch):
    real_solve = verify_mod.bnb_optima
    real_evaluate = verify_mod.evaluate
    evaluated = []

    def other_witness(graph, mode, ks):  # the optima with other optimal witnesses
        return {
            k: dataclasses.replace(r, witness=_last_optimal_witness(graph, k, mode, r.optimum))
            for k, r in real_solve(graph, mode, ks).items()
        }

    def spy(graph, f, mode):
        evaluated.append((graph, f, mode))
        return real_evaluate(graph, f, mode)

    monkeypatch.setattr(verify_mod, "bnb_optima", other_witness)
    monkeypatch.setattr(verify_mod, "evaluate", spy)
    spec = EnsembleSpec(families=("cycle",), n_max=6)
    checks = ("oracle-equivalence", "witness-validity", "degree-inequalities")
    report = run_campaign(spec, checks=checks)

    assert report.check("oracle-equivalence").failed > 0
    assert report.check("witness-validity").failed == 0
    differ = 0
    for _, graph in build_ensemble(spec):
        ks = _k_values(graph.vertex_count, "default")
        others = other_witness(graph, Mode.NONNEG, ks)
        for k in ks:
            oracle = solve_bruteforce(graph, k, Mode.NONNEG).witness
            if others[k].witness != oracle:
                differ += 1
                assert (graph, oracle, Mode.NONNEG) in evaluated
    assert differ > 0


def test_witness_validity_checks_the_oracle_satisfied_count(monkeypatch):
    real = verify_mod.bruteforce_optima_both

    def miscounted(graph, ks):  # every answer claims one satisfied vertex too many
        return {
            mode: {k: dataclasses.replace(r, satisfied_count=r.satisfied_count + 1) for k, r in by_k.items()}
            for mode, by_k in real(graph, ks).items()
        }

    monkeypatch.setattr(verify_mod, "bruteforce_optima_both", miscounted)
    report = run_campaign(EnsembleSpec(families=("cycle",), n_max=6), checks=("witness-validity",))
    check = report.check("witness-validity")
    assert check.passed == 0 and check.failed > 0
    assert "satisfied=" in check.counterexamples[0].expected


def test_counterexample_payload_fields(monkeypatch):
    monkey_spec = EnsembleSpec(families=("cycle",), n_max=6)
    report = run_campaign(monkey_spec)
    d = report.to_dict()
    assert d["ensemble"]["families"] == ["cycle"]
    assert d["k_policy"] == "default"
    assert isinstance(d["generated_at"], str)

    original = bounds_mod.bound_nn_3
    monkeypatch.setattr(
        bounds_mod, "bound_nn_3", lambda p: original(p) + Fraction(1, p.delta + 1)
    )
    spec = EnsembleSpec(families=("cycle", "path", "complete"), n_max=9)
    report = run_campaign(spec, checks=("bound-dominance",))
    assert report.check("bound-dominance").failed > MAX_COUNTEREXAMPLES
    (payload,) = report.to_dict()["checks"]
    assert payload["failed"] == report.check("bound-dominance").failed
    assert len(payload["counterexamples"]) == MAX_COUNTEREXAMPLES
    graphs = dict(build_ensemble(spec))
    fields = [f.name for f in dataclasses.fields(Counterexample)]
    for ce in payload["counterexamples"]:
        assert list(ce) == fields
        graph = parse_dimacs(ce["graph_dimacs"])
        assert graph == graphs[ce["graph_label"]]  # the same vertex count and edges
