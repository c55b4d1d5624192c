"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 5-9 share one run of the default verification campaign
(connected G(n,p) for n in 4..9, p in {0.2, 0.5, 0.8}, 50 seeds per
cell, plus all named families with n <= 9, k swept over {1, ceil(n/2),
n} in both modes).
"""

import math
import time
from fractions import Fraction

import pytest

from signdom import (
    Mode,
    bound_report,
    bnb_optima,
    build_ensemble,
    EnsembleSpec,
    exact_cycle_signed,
    gen_complete,
    gen_cycle,
    gen_hajos,
    gen_sun,
    run_campaign,
    solve_bnb,
)
import signdom.verify as verify_mod
from signdom.verify import _k_values


def _report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def default_campaign():
    start = time.monotonic()
    report = run_campaign()
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_01_complete_graphs():
    start = time.monotonic()
    for n in range(1, 13):
        result = solve_bnb(gen_complete(n), n, Mode.NONNEG)
        assert result.optimum == n % 2, f"K_{n}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"complete graphs took {elapsed:.2f}s"
    _report_pass(1, "complete-graphs", f"{elapsed:.2f}s")


def test_criterion_02_cycles():
    start = time.monotonic()
    for n in range(3, 21):
        expected = exact_cycle_signed(n)
        g = gen_cycle(n)
        assert solve_bnb(g, n, Mode.SIGNED).optimum == expected, f"C_{n} signed"
        assert solve_bnb(g, n, Mode.NONNEG).optimum == expected, f"C_{n} nonneg"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"cycles took {elapsed:.2f}s"
    _report_pass(2, "cycles", f"{elapsed:.2f}s")


def test_criterion_03_sun_gadget():
    start = time.monotonic()
    for t in range(2, 5):
        g = gen_sun(t)
        n = 4 * t
        assert solve_bnb(g, n, Mode.NONNEG).optimum == 0, f"sun({t})"
        rep = bound_report(g, n)
        assert rep["nn1"].raw == rep["nn2"].raw == rep["nn3"].raw == 0
        assert rep["prior_halfn"].raw == -4 * t
        assert rep["prior_hua"].raw == -t
        assert rep["prior_deltaceil"].ceil == math.ceil(Fraction(-4 * t, 7))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sun gadgets took {elapsed:.2f}s"
    _report_pass(3, "sun-gadget", f"{elapsed:.2f}s")


def test_criterion_04_hajos_graph():
    start = time.monotonic()
    g = gen_hajos()
    assert solve_bnb(g, 6, Mode.NONNEG).optimum == 0
    rep = bound_report(g, 6)
    assert rep["nn4"].raw == 0
    assert rep["nn5"].raw == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"hajos took {elapsed:.2f}s"
    _report_pass(4, "hajos-graph", f"{elapsed:.2f}s")


def test_criterion_05_oracle_equivalence(default_campaign):
    report, elapsed = default_campaign
    # the default ensemble is the one this criterion prescribes
    assert report.ensemble["n_min"] == 4 and report.ensemble["n_max"] == 9
    assert report.ensemble["p_values"] == ["0.2", "0.5", "0.8"]
    assert report.ensemble["seeds_per_cell"] == 50
    assert report.k_policy == "default"
    check = report.check("oracle-equivalence")
    assert check.failed == 0, check.counterexamples[:3]
    assert check.passed > 0
    assert elapsed < 300.0, f"campaign took {elapsed:.1f}s"
    _report_pass(5, "oracle-equivalence",
                 f"{check.passed} comparisons, {report.graph_count} graphs, {elapsed:.1f}s")


def test_criterion_06_bound_dominance(default_campaign):
    report, _ = default_campaign
    check = report.check("bound-dominance")
    assert check.failed == 0, check.counterexamples[:3]
    assert check.passed > 0
    _report_pass(6, "bound-dominance", f"{check.passed} comparisons")


def test_criterion_07_witness_degree_inequalities(default_campaign):
    report, _ = default_campaign
    check = report.check("degree-inequalities")
    assert check.failed == 0, check.counterexamples[:3]
    assert check.passed > 0
    _report_pass(7, "degree-inequalities", f"{check.passed} inequalities")


def test_criterion_08_identities_and_reductions(default_campaign):
    report, _ = default_campaign
    for name in ("degree-identity", "ksub-reduction"):
        check = report.check(name)
        assert check.failed == 0, check.counterexamples[:3]
        assert check.passed > 0
    _report_pass(8, "identities-and-reductions")


def test_criterion_09_structural_properties(default_campaign):
    report, _ = default_campaign
    for name in ("monotonicity", "mode-dominance", "even-graph-equality"):
        check = report.check(name)
        assert check.failed == 0, check.counterexamples[:3]
        assert check.passed > 0
    # the ensemble really contains even graphs of each advertised kind
    labels = [label for label, _ in build_ensemble(EnsembleSpec())]
    assert "cycle(n=6)" in labels
    assert "circulant(n=6,offsets=1:2)" in labels
    assert "sun(t=2)" in labels
    _report_pass(9, "structural-properties")


# What the default campaign records, check by check: a battery that drops
# or repeats a record changes one of these counts.
DEFAULT_CAMPAIGN_PASSED = {
    "bound-dominance": 17032,
    "degree-identity": 598,
    "degree-inequalities": 5376,
    "even-graph-equality": 113,
    "ksub-reduction": 1196,
    "mode-dominance": 1788,
    "monotonicity": 1196,
    "oracle-equivalence": 7152,
    "parity": 7152,
    "witness-validity": 3576,
}


def test_default_campaign_counts_are_pinned(default_campaign):
    report, _ = default_campaign
    assert report.graph_count == 598
    assert {c.name: c.passed for c in report.checks} == DEFAULT_CAMPAIGN_PASSED
    assert all(c.failed == 0 for c in report.checks)
    assert report.checks_recorded == sum(DEFAULT_CAMPAIGN_PASSED.values())
    assert report.graphs_without_oracle == 0  # all n <= 9


# The same for every k of a small ensemble of 80 graphs, K_1 and P_1
# among them.
ALL_K_SPEC = EnsembleSpec(n_max=7, seeds_per_cell=8)
ALL_K_CAMPAIGN_PASSED = {
    "bound-dominance": 3146,
    "degree-identity": 80,
    "degree-inequalities": 899,
    "even-graph-equality": 82,
    "ksub-reduction": 160,
    "mode-dominance": 419,
    "monotonicity": 160,
    "oracle-equivalence": 1676,
    "parity": 1676,
    "witness-validity": 838,
}


def test_all_k_campaign_counts_are_pinned():
    report = run_campaign(ALL_K_SPEC, k_policy="all")
    assert report.graph_count == 80
    assert {c.name: c.passed for c in report.checks} == ALL_K_CAMPAIGN_PASSED
    assert all(c.failed == 0 for c in report.checks)
    assert report.checks_recorded == sum(ALL_K_CAMPAIGN_PASSED.values())


def _bnb_optimum_plus_2(original):
    return lambda graph, mode, ks: {
        k: r._replace(optimum=r.optimum + 2) for k, r in original(graph, mode, ks).items()
    }


def _closed_sums_plus_1(original):
    def mutant(graph, f, mode):
        ev = original(graph, f, mode)
        return ev._replace(closed_sums=tuple(s + 1 for s in ev.closed_sums))

    return mutant


@pytest.mark.parametrize(
    "attribute, mutant", [("bnb_optima", _bnb_optimum_plus_2), ("evaluate", _closed_sums_plus_1)]
)
def test_a_failed_result_is_one_of_the_all_k_counts(monkeypatch, attribute, mutant):
    # a failed result takes the place of a passed one, so a check records
    # as many results whether they hold or not
    monkeypatch.setattr(verify_mod, attribute, mutant(getattr(verify_mod, attribute)))
    report = run_campaign(ALL_K_SPEC, k_policy="all")
    assert {c.name: c.passed + c.failed for c in report.checks} == ALL_K_CAMPAIGN_PASSED
    assert not report.all_passed
    assert report.checks_recorded == sum(ALL_K_CAMPAIGN_PASSED.values())


def test_default_campaign_search_nodes_are_pinned():
    # The battery's searches, one bnb_optima call per graph and mode. The
    # stop at the k-th smallest demand saves a third of them: without it
    # the total is 126,563 (47,840 of them at k = 1). Answering k = 1 at
    # the root, with no search, saves the other 19,399 (81,091 before),
    # and pruning every k = n node at its largest unmet demand saves
    # 4,620 more (61,692 before).
    total = 0
    for _, graph in build_ensemble(EnsembleSpec()):
        ks = _k_values(graph.vertex_count, "default")
        for mode in Mode:
            total += sum(r.stats.nodes for r in bnb_optima(graph, mode, ks).values())
    assert total == 57_072


def test_criterion_10_determinism(default_campaign):
    first, _ = default_campaign
    second = run_campaign()
    a = first.to_dict()
    b = second.to_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
    _report_pass(10, "determinism")
