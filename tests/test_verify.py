import dataclasses
import itertools
import re
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
from signdom.graph import FAMILIES, DegreeProfile
from signdom.verify import MAX_COUNTEREXAMPLES, _k_values, _slices

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


def test_every_ensemble_member_is_connected():
    # the battery treats every bound and degree inequality that needs a
    # connected graph as applicable, so no member may be disconnected
    spec = EnsembleSpec(n_min=1, n_max=12, p_values=(0.0, 0.1, 0.5, 1.0), seeds_per_cell=8)
    ensemble = build_ensemble(spec)
    for label, g in ensemble:
        assert is_connected(g), label
    assert {label.split("(")[0] for label, _ in ensemble} == set(FAMILIES)


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


def test_campaign_counts_the_graphs_without_an_oracle():
    # C_3..C_22; the count stays out of the report's dict, so the
    # determinism of criterion 10 reads the same keys
    spec = EnsembleSpec(families=("cycle",), n_max=22)
    for checks, unchecked in (
        (("parity",), 20),  # no check reads the oracle, so it checks no graph
        (("degree-identity",), 20),  # no solve at all
        (("oracle-equivalence",), 2),  # C_21 and C_22 are above BRUTE_FORCE_CAP
        (("oracle-equivalence", "parity"), 2),
    ):
        report = run_campaign(spec, checks=checks)
        assert report.graph_count == 20
        assert report.graphs_without_oracle == unchecked, checks
        assert "graphs_without_oracle" not in report.to_dict()


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


def test_a_campaign_without_oracle_equivalence_never_calls_the_oracle(monkeypatch, mixed_all_checks):
    def refused(graph, ks):
        raise AssertionError("the oracle ran for a campaign that does not read it")

    monkeypatch.setattr(verify_mod, "bruteforce_optima_both", refused)
    checks = tuple(name for name in CHECK_NAMES if name != "oracle-equivalence")
    report = run_campaign(MIXED, k_policy="all", checks=checks)
    assert report.all_passed
    assert [c.name for c in report.checks] == sorted(checks)
    for check in report.checks:  # parity among them: the same counts as with the oracle
        full = mixed_all_checks[check.name]
        assert (check.passed, check.failed) == (full.passed, full.failed)


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
    assert len(_slices(spec)) > 1  # more than one slice, so a real pool runs
    a = run_campaign(spec, workers=1).to_dict()
    b = run_campaign(spec, workers=2).to_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


@pytest.mark.parametrize(
    "spec, workers, pool_size",
    [
        # 17 graphs, more than a slice holds of G(n, p), in one slice: no pool
        (EnsembleSpec(families=("path",), n_max=17), 6, None),
        # one cell of 40 seeds: slices of 16, 16 and 8 seeds
        (EnsembleSpec(families=("gnp",), n_min=5, n_max=5, p_values=(0.5,), seeds_per_cell=40), 6, 3),
        (EnsembleSpec(families=("gnp",), n_max=5, p_values=(0.5, 0.8), seeds_per_cell=20), 2, 2),
    ],
)
def test_worker_pool_is_capped_by_the_chunks(monkeypatch, spec, workers, pool_size):
    import concurrent.futures

    sizes, sent = [], []

    class InProcessPool:  # records its size and its tasks, and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):  # no chunksize: a task is already one slice
            tasks = list(tasks)
            sent.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    pooled = run_campaign(spec, workers=workers).to_dict()
    assert sizes == ([] if pool_size is None else [pool_size])
    assert sent == ([] if pool_size is None else [len(_slices(spec))])
    assert all(size <= count for size, count in zip(sizes, sent))  # no idle worker
    sequential = run_campaign(spec, workers=1).to_dict()
    pooled.pop("generated_at")
    sequential.pop("generated_at")
    assert pooled == sequential


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(seeds_per_cell=0),
        EnsembleSpec(seeds_per_cell=1),
        EnsembleSpec(seeds_per_cell=16),
        EnsembleSpec(seeds_per_cell=17),
        EnsembleSpec(seeds_per_cell=37),
        EnsembleSpec(base_seed=5),
        EnsembleSpec(n_min=3),
        EnsembleSpec(families=("hajos", "gnp", "path"), n_max=7),  # a subset, out of order
        EnsembleSpec(families=("gnp",)),
        EnsembleSpec(families=tuple(f for f in EnsembleSpec().families if f != "gnp")),
    ],
)
def test_slices_concatenate_to_the_ensemble(spec):
    parts = [build_ensemble(part) for part in _slices(spec)]
    joined = [item for part in parts for item in part]
    whole = build_ensemble(spec)
    assert [label for label, _ in joined] == [label for label, _ in whole]
    assert [graph.adjacency for _, graph in joined] == [graph.adjacency for _, graph in whole]
    assert all(sum(label.startswith("gnp(") for label, _ in part) <= 16 for part in parts)


def test_default_ensemble_is_78_slices_of_at_most_16_graphs():
    parts = [build_ensemble(part) for part in _slices(EnsembleSpec())]
    assert len(parts) == 78
    assert max(map(len, parts)) <= 16


def test_campaign_builds_one_slice_at_a_time(monkeypatch):
    real = verify_mod.build_ensemble
    lengths = []

    def recording(spec):
        ensemble = real(spec)
        lengths.append(len(ensemble))
        return ensemble

    monkeypatch.setattr(verify_mod, "build_ensemble", recording)
    spec = EnsembleSpec(families=("gnp",), seeds_per_cell=50)
    report = run_campaign(spec, checks=("degree-identity",), workers=1)
    assert max(lengths) <= 16
    assert sum(lengths) == report.graph_count > 16


@pytest.mark.parametrize(
    "field, message",
    [
        ({"families": ("petersen",)}, "unknown family 'petersen'"),
        ({"n_min": 0}, "n_min must be >= 1, got 0"),
        ({"seeds_per_cell": -1}, "seeds_per_cell must be >= 0, got -1"),
        ({"p_values": (0.5, 1.5)}, "p must lie in [0, 1]"),
        ({"p_values": (-0.1,)}, "p must lie in [0, 1]"),
        ({"p_values": (float("nan"),)}, "p must lie in [0, 1]"),
    ],
)
def test_campaign_refuses_a_bad_spec_when_made_or_replaced(field, message):
    # each slice is made by dataclasses.replace, so the rules hold for it too
    with pytest.raises(ValueError, match=re.escape(message)):
        run_campaign(EnsembleSpec(**field))
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(EnsembleSpec(), **field)


def test_a_family_with_no_ensemble_rule_is_refused(monkeypatch):
    # a family added to FAMILIES gets a slice of its own, which must not be
    # built as some other family
    monkeypatch.setattr(verify_mod, "FAMILIES", {**verify_mod.FAMILIES, "petersen": None})
    spec = EnsembleSpec(families=("petersen",))
    assert _slices(spec) == [spec]
    with pytest.raises(ValueError) as info:
        build_ensemble(spec)
    assert str(info.value) == "no ensemble rule for family 'petersen'"


def test_report_check_refuses_a_check_the_campaign_did_not_run():
    report = run_campaign(SMALL, checks=("degree-identity",))
    assert report.check("degree-identity").passed > 0
    with pytest.raises(KeyError) as info:
        report.check("parity")
    assert info.value.args == ("parity",)


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


@pytest.mark.parametrize(
    "function, name, spec, mutant",
    [
        # a k < n bound, raised by 2 so that a sharp case fails both records
        ("bound_ksub_1", "ksub1", EnsembleSpec(families=("cycle", "path"), n_max=6),
         lambda original: lambda profile, k: original(profile, k) + 2),
        # an integer bound
        ("bound_nn_4", "nn4", EnsembleSpec(families=("complete",), n_max=6),
         lambda original: lambda profile: original(profile) + 2),
    ],
)
def test_bound_dominance_catches_mutants_and_each_replays(monkeypatch, function, name, spec, mutant):
    monkeypatch.setattr(bounds_mod, function, mutant(getattr(bounds_mod, function)))
    check = run_campaign(spec, checks=("bound-dominance",)).check("bound-dominance")
    assert check.failed == len(check.counterexamples) > 0
    below_n = 0
    for ce in check.counterexamples:
        graph = parse_dimacs(ce.graph_dimacs)
        below_n += ce.k < graph.vertex_count
        replayed = bound_report(graph, ce.k)[name]
        assert replayed.applicable and ce.mode == "nonneg"
        assert ce.observed == str(solve_bruteforce(graph, ce.k, Mode.NONNEG).optimum)
        if ce.detail == f"exact optimum vs {name} raw":
            assert ce.expected == f">= {replayed.raw}"
        else:
            assert ce.detail == f"exact optimum vs {name} parity-lifted"
            assert ce.expected == f">= {replayed.parity_lifted}"
    assert below_n > 0 if name == "ksub1" else below_n == 0


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


def test_degree_inequalities_evaluate_the_bnb_witness(monkeypatch):
    real_solve = verify_mod.bnb_optima
    real_evaluate = verify_mod.evaluate
    evaluated = []

    def other_witness(graph, mode, ks):  # the optima with other optimal witnesses and their counts
        answers = {}
        for k, r in real_solve(graph, mode, ks).items():
            f = _last_optimal_witness(graph, k, mode, r.optimum)
            satisfied = real_evaluate(graph, f, mode).satisfied_count
            answers[k] = r._replace(witness=f, satisfied_count=satisfied)
        return answers

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
    assert report.check("degree-inequalities").failed == 0
    differ = 0
    for _, graph in build_ensemble(spec):
        ks = _k_values(graph.vertex_count, "default")
        others = other_witness(graph, Mode.NONNEG, ks)
        for k in ks:
            assert (graph, others[k].witness, Mode.NONNEG) in evaluated
            differ += others[k].witness != solve_bruteforce(graph, k, Mode.NONNEG).witness
    assert differ > 0


def test_oracle_equivalence_checks_the_oracle_satisfied_count(monkeypatch):
    real = verify_mod.bruteforce_optima_both

    def miscounted(graph, ks):  # every answer claims one satisfied vertex too many
        return {
            mode: {k: r._replace(satisfied_count=r.satisfied_count + 1) for k, r in by_k.items()}
            for mode, by_k in real(graph, ks).items()
        }

    monkeypatch.setattr(verify_mod, "bruteforce_optima_both", miscounted)
    checks = ("oracle-equivalence", "witness-validity")
    report = run_campaign(EnsembleSpec(families=("cycle",), n_max=6), checks=checks)
    check = report.check("oracle-equivalence")
    # the witness result of every graph, mode and k fails; every optimum agrees
    assert check.failed == 2 * sum(len(_k_values(n, "default")) for n in range(3, 7)) == 24
    ce = check.counterexamples[0]
    assert (ce.observed, ce.expected) == ("++-, satisfied=3", "++-, satisfied=4")
    assert ce.detail == "canonical witness and its satisfied count"
    # witness-validity reads bnb_optima's answer, which the oracle does not touch
    assert report.check("witness-validity").failed == 0


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


def _each_answer(change):
    """A mutant of bnb_optima that passes each of its answers through
    ``change(mode, answer)``."""
    return lambda original: lambda graph, mode, ks: {
        k: change(mode, r) for k, r in original(graph, mode, ks).items()
    }


def _shifted_sums(shift):
    """A mutant of evaluate that adds ``shift`` to each closed sum."""
    def wrap(original):
        def mutant(graph, f, mode):
            ev = original(graph, f, mode)
            return ev._replace(closed_sums=tuple(s + shift for s in ev.closed_sums))

        return mutant

    return wrap


# One mutant per check, and three more for details a first mutant leaves
# holding, on the Hajos graph (n = 6, ks 1, 3, 6, every degree even): the
# count of failed results and the first counterexample of each detail, as
# (k, mode, observed, expected, detail).
PINNED_COUNTEREXAMPLES = [
    ("degree-identity", DegreeProfile, "ceil_half_sum",
     lambda original: lambda profile, k: original(profile, k) + 1,
     (1, [(None, None, "32", "30", "2*sum ceil((d_i+1)/2) vs 2m+n+n_e")])),
    ("ksub-reduction", bounds_mod, "bound_nn_2",
     lambda original: lambda profile: original(profile) + 1,
     (1, [(6, None, "0", "1", "ksub1 at k=n vs nn2")])),
    ("oracle-equivalence", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(optimum=r.optimum + 2)),
     (6, [(1, "nonneg", "0", "-2", "branch-and-bound optimum vs exhaustive optimum")])),
    ("witness-validity", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(satisfied_count=r.satisfied_count + 1)),
     (6, [(1, "nonneg", "weight=-2, satisfied=1", "weight=-2, satisfied=2>=1",
           "witness evaluates to the reported optimum, count and feasibility")])),
    ("parity", verify_mod, "evaluate", _shifted_sums(1),
     (6, [(1, "nonneg", "(0, 0, 0, 0, 0, 2)", "each sum congruent to deg+1 mod 2", "closed-sum parity")])),
    ("parity", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(optimum=r.optimum + 1)),
     (6, [(1, "nonneg", "-1", "congruent to 6 mod 2", "optimum weight parity")])),
    ("bound-dominance", bounds_mod, "bound_nn_3",
     lambda original: lambda profile: original(profile) + 3,
     (2, [(6, "nonneg", "0", ">= 3", "exact optimum vs nn3 raw"),
          (6, "nonneg", "0", ">= 4", "exact optimum vs nn3 parity-lifted")])),
    ("degree-inequalities", verify_mod, "greedy_upper",
     lambda original: lambda graph, k, mode: SignAssignment((-1,) * graph.vertex_count),
     (1, [(6, "nonneg", "0", ">= 30", "sum of P-degrees vs n + n_e - 2|P| + sum of M-degrees")])),
    ("degree-inequalities", verify_mod, "evaluate", _shifted_sums(-1),
     (2, [(6, "nonneg", "3", ">= 6", "induced P-degrees vs sum of ceil((deg-1)/2) over P")])),
    ("degree-inequalities", verify_mod, "evaluate", _shifted_sums(1),
     (1, [(1, "nonneg", "10", ">= 15", "sum of P-degrees + |P1| vs sum of ceil((deg+1)/2) over P1 u M1")])),
    ("monotonicity", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(optimum=-r.satisfied_count)),
     (2, [(None, "nonneg", "{1: -1, 3: -6, 6: -6}", "nondecreasing in k", "optimum as a function of k")])),
    ("mode-dominance", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(optimum=r.optimum + 4 * (mode is Mode.NONNEG))),
     (3, [(1, None, "nonneg=2, signed=-2", "nonneg <= signed", "threshold relaxation can only lower the optimum")])),
    ("even-graph-equality", verify_mod, "bnb_optima",
     _each_answer(lambda mode, r: r._replace(optimum=r.optimum - 2 * (mode is Mode.NONNEG))),
     (3, [(1, None, "nonneg=-4, signed=-2", "equal on even graphs", "all degrees even forces both modes to coincide")])),
]


def _first_of_each_detail(check):
    firsts = {}
    for ce in check.counterexamples:
        assert (ce.check, ce.graph_label) == (check.name, "hajos()")
        firsts.setdefault(ce.detail, (ce.k, ce.mode, ce.observed, ce.expected, ce.detail))
    return check.failed, list(firsts.values())


@pytest.mark.parametrize(
    "name, target, attribute, mutant, pinned",
    PINNED_COUNTEREXAMPLES,
    ids=[f"{case[0]}:{case[2]}:{i}" for i, case in enumerate(PINNED_COUNTEREXAMPLES)],
)
def test_each_check_reports_its_pinned_counterexample(monkeypatch, name, target, attribute, mutant, pinned):
    monkeypatch.setattr(target, attribute, mutant(getattr(target, attribute)))
    report = run_campaign(EnsembleSpec(families=("hajos",), n_max=6), checks=(name,))
    assert _first_of_each_detail(report.check(name)) == pinned
