"""Verification campaigns: run every cross-module invariant over a
reproducible graph ensemble and report failures with replayable
counterexamples.

A campaign is deterministic given its ensemble description and seed. It
cuts the ensemble into slices (a named family, or a run of at most 16
seeds of one G(n, p) cell); each slice is built and checked on its own,
optionally in a worker process, and the slices' tallies are merged in
ensemble order, so reports are byte-identical across runs and worker
counts, up to the timestamp field, and no process holds the whole
ensemble.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator

from . import bounds as bounds_mod
from .graph import (
    FAMILIES,
    DegreeProfile,
    Graph,
    degree_profile,
    gen_circulant,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_hajos,
    gen_path,
    gen_sun,
    is_connected,
    to_dimacs,
)
from .solver import (
    BRUTE_FORCE_CAP,
    EvalResult,
    Mode,
    SignAssignment,
    SolveResult,
    bnb_optima,
    bruteforce_optima_both,
    evaluate,
    greedy_upper,
)

__all__ = [
    "CHECK_NAMES",
    "MAX_COUNTEREXAMPLES",
    "EnsembleSpec",
    "Counterexample",
    "CheckResult",
    "CampaignReport",
    "build_ensemble",
    "run_campaign",
]

CHECK_NAMES = (
    "degree-identity",
    "ksub-reduction",
    "oracle-equivalence",
    "witness-validity",
    "parity",
    "bound-dominance",
    "degree-inequalities",
    "monotonicity",
    "mode-dominance",
    "even-graph-equality",
)

_SOLVE_CHECKS = frozenset(CHECK_NAMES) - {"degree-identity", "ksub-reduction"}

# A slice of the ensemble holds at most this many seeds of one G(n, p)
# cell; it is the unit a campaign builds, checks and sends to a worker.
_CHUNK = 16

# A report lists at most this many counterexamples per check; the failed
# count covers them all.
MAX_COUNTEREXAMPLES = 20


@dataclass(frozen=True)
class EnsembleSpec:
    """Which graphs a campaign runs on; ``_slices`` gives their order.

    The n range and p values parameterize the seeded G(n, p) cells
    (``seeds_per_cell`` seeds each, numbered from ``base_seed``;
    disconnected draws are discarded). Named families are bounded by
    ``n_max`` only. Every rule on the fields is checked when a spec is
    made or replaced, so a bad spec is refused before any slice runs.
    """

    families: tuple[str, ...] = tuple(FAMILIES)
    n_min: int = 4
    n_max: int = 9
    p_values: tuple[float, ...] = (0.2, 0.5, 0.8)
    seeds_per_cell: int = 50
    base_seed: int = 0

    def __post_init__(self) -> None:
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if self.seeds_per_cell < 0:
            raise ValueError(f"seeds_per_cell must be >= 0, got {self.seeds_per_cell}")
        if not all(0.0 <= p <= 1.0 for p in self.p_values):  # NaN too
            raise ValueError("p must lie in [0, 1]")  # gen_gnp's rule, before any slice runs

    def describe(self) -> dict[str, object]:
        return dict(vars(self), families=list(self.families), p_values=list(map(repr, self.p_values)))


def _slices(spec: EnsembleSpec) -> list[EnsembleSpec]:
    """The one description of the ensemble: one spec per named family, in
    ``FAMILIES`` order, then one per G(n, p) cell and run of at most
    ``_CHUNK`` seeds, by (n, p, seed). A slice cuts into itself alone."""
    out = [replace(spec, families=(f,)) for f in FAMILIES if f != "gnp" and f in spec.families]
    if "gnp" in spec.families:
        out.extend(
            replace(spec, families=("gnp",), n_min=n, n_max=n, p_values=(p,),
                    seeds_per_cell=min(_CHUNK, spec.seeds_per_cell - j), base_seed=spec.base_seed + j)
            for n in range(spec.n_min, spec.n_max + 1)
            for p in spec.p_values
            for j in range(0, spec.seeds_per_cell, _CHUNK)
        )
    return out


def _members(part: EnsembleSpec) -> list[tuple[str, Graph]]:
    """The (label, graph) pairs of one slice: a named family up to
    ``n_max``, or the connected draws of one G(``n_max``, p) cell run."""
    (family,), top = part.families, part.n_max
    if family == "complete":
        return [(f"complete(n={n})", gen_complete(n)) for n in range(1, top + 1)]
    if family == "cycle":
        return [(f"cycle(n={n})", gen_cycle(n)) for n in range(3, top + 1)]
    if family == "path":
        return [(f"path(n={n})", gen_path(n)) for n in range(1, top + 1)]
    if family == "sun":
        return [(f"sun(t={t})", gen_sun(t)) for t in range(2, top // 4 + 1)]
    if family == "hajos":
        return [("hajos()", gen_hajos())] if top >= 6 else []
    if family == "circulant":
        return [(f"circulant(n={n},offsets=1:2)", gen_circulant(n, (1, 2))) for n in range(5, top + 1)]
    if family == "gnp":
        (p,), first = part.p_values, part.base_seed
        draws = ((seed, gen_gnp(top, p, seed)) for seed in range(first, first + part.seeds_per_cell))
        return [(f"gnp(n={top},p={p!r},seed={seed})", g) for seed, g in draws if is_connected(g)]
    raise ValueError(f"no ensemble rule for family {family!r}")


def build_ensemble(spec: EnsembleSpec) -> list[tuple[str, Graph]]:
    """Deterministic (label, graph) list: each slice's members, in order."""
    return [member for part in _slices(spec) for member in _members(part)]


@dataclass(frozen=True)
class Counterexample:
    """A single failed assertion, with enough context to replay it."""

    check: str
    graph_label: str
    graph_dimacs: str
    k: int | None
    mode: str | None
    observed: str
    expected: str
    detail: str

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        shown = self.counterexamples[:MAX_COUNTEREXAMPLES]
        return dict(vars(self), counterexamples=[ce.to_dict() for ce in shown])


@dataclass
class CampaignReport:
    ensemble: dict[str, object]
    k_policy: str
    graph_count: int
    checks: list[CheckResult]
    checks_recorded: int  # results recorded, passed or failed; 0: nothing tested
    graphs_without_oracle: int  # graphs above BRUTE_FORCE_CAP, checked by no second engine
    all_passed: bool
    generated_at: str

    def to_dict(self) -> dict[str, object]:
        return {
            "ensemble": self.ensemble,
            "k_policy": self.k_policy,
            "graph_count": self.graph_count,
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "generated_at": self.generated_at,
        }

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _k_values(n: int, k_policy: str) -> tuple[int, ...]:
    if k_policy == "all":
        return tuple(range(1, n + 1))
    if k_policy == "default":
        return tuple(sorted({1, math.ceil(n / 2), n}))
    raise ValueError(f"k_policy must be 'default' or 'all', got {k_policy!r}")


class _Tally:
    """Pass/fail accumulator of one graph, shared by all checks; it counts
    into ``results``, one per active check, which every graph of a slice
    shares."""

    def __init__(self, label: str, graph: Graph, results: dict[str, CheckResult]):
        self.label = label
        self.graph = graph  # rendered as DIMACS only for a counterexample
        self.results = results

    def record(
        self,
        check: str,
        ok: bool,
        shown: Callable[[], tuple[object, object]],
        detail: str,
        k: int | None = None,
        mode: Mode | None = None,
    ) -> None:
        """Count one result of ``check``. ``shown`` returns the observed
        and expected values; it is called, and its values rendered with
        str(), only for a failed result."""
        result = self.results.get(check)
        if result is None:  # not an active check
            return
        if ok:
            result.passed += 1
        else:
            result.failed += 1
            observed, expected = shown()
            result.counterexamples.append(
                Counterexample(
                    check=check,
                    graph_label=self.label,
                    graph_dimacs=to_dimacs(self.graph),
                    k=k,
                    mode=mode.value if mode is not None else None,
                    observed=str(observed),
                    expected=str(expected),
                    detail=detail,
                )
            )


def _degree_inequalities_full_domination(
    graph: Graph, profile: DegreeProfile, degrees: list[int], f: SignAssignment, tally: _Tally
) -> None:
    """Degree inequalities that every fully-satisfying nonneg assignment on
    a connected graph must obey."""
    n = graph.vertex_count
    vals = f.values
    pos = [v for v, x in enumerate(vals) if x > 0]
    deg = degrees.__getitem__
    lhs1 = sum(map(deg, pos))
    rhs1 = n + profile.n_e - 2 * len(pos) + 2 * profile.m - lhs1  # M-degrees: 2m less P-degrees
    tally.record(
        "degree-inequalities",
        lhs1 >= rhs1,
        lambda: (lhs1, f">= {rhs1}"),
        "sum of P-degrees vs n + n_e - 2|P| + sum of M-degrees",
        k=n,
        mode=Mode.NONNEG,
    )
    # a positive v with neighbour sum s has (d_v + s) / 2 positive neighbours
    value = vals.__getitem__
    lhs2 = sum((deg(v) + sum(map(value, graph.adjacency[v]))) // 2 for v in pos)
    rhs2 = sum(deg(v) // 2 for v in pos)  # ceil((d-1)/2) == d//2
    tally.record(
        "degree-inequalities",
        lhs2 >= rhs2,
        lambda: (lhs2, f">= {rhs2}"),
        "induced P-degrees vs sum of ceil((deg-1)/2) over P",
        k=n,
        mode=Mode.NONNEG,
    )


def _degree_inequality_subdomination(
    degrees: list[int], f: SignAssignment, ev: EvalResult, k: int, tally: _Tally
) -> None:
    """Degree inequality every optimal nonneg k-subdominating assignment
    must obey, in terms of the satisfied positive/negative split; ``ev``
    is the nonneg evaluation of ``f``, so P1 u M1 are the vertices with a
    closed sum of at least 0 and P1 the positive ones among them."""
    lhs = rhs = 0
    for d, x, s in zip(degrees, f.values, ev.closed_sums):
        if x > 0:
            lhs += d + (s >= 0)
        if s >= 0:
            rhs += (d + 2) // 2
    tally.record(
        "degree-inequalities",
        lhs >= rhs,
        lambda: (lhs, f">= {rhs}"),
        "sum of P-degrees + |P1| vs sum of ceil((deg+1)/2) over P1 u M1",
        k=k,
        mode=Mode.NONNEG,
    )


def _graph_battery(
    label: str, graph: Graph, ks: tuple[int, ...], results: dict[str, CheckResult]
) -> None:
    """Run every active check on one graph, counting into ``results``."""
    tally = _Tally(label, graph, results)
    active = results.keys()
    profile = degree_profile(graph)
    n = graph.vertex_count
    connected = is_connected(graph)

    # A check not in ``active`` is dropped by tally.record; the gates below
    # only skip work: the solves, bound_reports and greedy_upper.
    lhs = 2 * profile.ceil_half_sum(n)
    rhs = 2 * profile.m + n + profile.n_e
    tally.record(
        "degree-identity", lhs == rhs, lambda: (lhs, rhs), "2*sum ceil((d_i+1)/2) vs 2m+n+n_e"
    )
    left1 = bounds_mod.bound_ksub_1(profile, n)
    right1 = bounds_mod.bound_nn_2(profile)
    tally.record(
        "ksub-reduction", left1 == right1, lambda: (left1, right1), "ksub1 at k=n vs nn2", k=n
    )
    left2 = bounds_mod.bound_ksub_2(profile, n)
    right2 = bounds_mod.bound_nn_3(profile)
    tally.record(
        "ksub-reduction", left2 == right2, lambda: (left2, right2), "ksub2 at k=n vs nn3", k=n
    )

    if not (_SOLVE_CHECKS & active):
        return

    oracles = bruteforce_optima_both(graph, ks) if n <= BRUTE_FORCE_CAP else {}
    degrees = [len(nbrs) for nbrs in graph.adjacency]
    exact: dict[tuple[Mode, int], SolveResult] = {}
    evals: dict[tuple[Mode, int], EvalResult] = {}  # of exact's witness, evaluated once
    for mode in Mode:
        oracle = oracles.get(mode, {})
        solved = bnb_optima(graph, mode, ks)
        for k in ks:
            bnb = solved[k]
            brute = oracle.get(k)
            best = exact[(mode, k)] = brute if brute is not None else bnb

            if brute is not None:
                tally.record(
                    "oracle-equivalence",
                    bnb.optimum == brute.optimum,
                    lambda: (bnb.optimum, brute.optimum),
                    "branch-and-bound optimum vs exhaustive optimum",
                    k=k,
                    mode=mode,
                )
                tally.record(
                    "oracle-equivalence",
                    bnb.witness == brute.witness,
                    lambda: (bnb.witness.to_string(), brute.witness.to_string()),
                    "canonical witness agreement",
                    k=k,
                    mode=mode,
                )
            ev = evals[(mode, k)] = evaluate(graph, best.witness, mode)
            tally.record(
                "witness-validity",
                ev.weight == best.optimum
                and ev.satisfied_count == best.satisfied_count
                and ev.satisfied_count >= k,
                lambda: (
                    f"weight={ev.weight}, satisfied={ev.satisfied_count}",
                    f"weight={best.optimum}, satisfied={best.satisfied_count}>={k}",
                ),
                "witness evaluates to the reported optimum, count and feasibility",
                k=k,
                mode=mode,
            )
            tally.record(
                "parity",
                (best.optimum - n) % 2 == 0,
                lambda: (best.optimum, f"congruent to {n} mod 2"),
                "optimum weight parity",
                k=k,
                mode=mode,
            )
            tally.record(
                "parity",
                all((s - (d + 1)) % 2 == 0 for s, d in zip(ev.closed_sums, degrees)),
                lambda: (tuple(ev.closed_sums), "each sum congruent to deg+1 mod 2"),
                "closed-sum parity",
                k=k,
                mode=mode,
            )

    if "bound-dominance" in active:
        reports = bounds_mod.bound_reports(profile, connected, ks)
        for k in ks:
            report = reports[k]
            opt = exact[(Mode.NONNEG, k)].optimum
            for name in bounds_mod.BOUND_NAMES:
                b = report[name]
                if not b.applicable:
                    continue
                raw = b.raw
                tally.record(
                    "bound-dominance",
                    raw.numerator <= opt * raw.denominator,  # raw <= opt, without Fraction.__le__
                    lambda: (opt, f">= {raw}"),
                    f"exact optimum vs {name} raw",
                    k=k,
                    mode=Mode.NONNEG,
                )
                tally.record(
                    "bound-dominance",
                    b.parity_lifted <= opt,
                    lambda: (opt, f">= {b.parity_lifted}"),
                    f"exact optimum vs {name} parity-lifted",
                    k=k,
                    mode=Mode.NONNEG,
                )

    if "degree-inequalities" in active:
        if n in ks and connected:
            full = [exact[(Mode.NONNEG, n)].witness, greedy_upper(graph, n, Mode.NONNEG)]
            full.append(SignAssignment.all_plus(n))
            for f in full:
                _degree_inequalities_full_domination(graph, profile, degrees, f, tally)
        for k in ks:
            f = exact[(Mode.NONNEG, k)].witness
            _degree_inequality_subdomination(degrees, f, evals[(Mode.NONNEG, k)], k, tally)

    for mode in Mode:
        optima = [exact[(mode, k)].optimum for k in ks]
        tally.record(
            "monotonicity",
            all(a <= b for a, b in zip(optima, optima[1:])),
            lambda: (dict(zip(ks, optima)), "nondecreasing in k"),
            "optimum as a function of k",
            mode=mode,
        )

    for k in ks:
        lo = exact[(Mode.NONNEG, k)].optimum
        hi = exact[(Mode.SIGNED, k)].optimum
        tally.record(
            "mode-dominance",
            lo <= hi,
            lambda: (f"nonneg={lo}, signed={hi}", "nonneg <= signed"),
            "threshold relaxation can only lower the optimum",
            k=k,
        )
        if profile.n_o == 0:
            tally.record(
                "even-graph-equality",
                lo == hi,
                lambda: (f"nonneg={lo}, signed={hi}", "equal on even graphs"),
                "all degrees even forces both modes to coincide",
                k=k,
            )


def _slice_battery(
    task: tuple[EnsembleSpec, str, frozenset[str]]
) -> tuple[int, int, list[CheckResult]]:
    """Build one slice of the ensemble and check each of its graphs: its
    graph count, its count of graphs above ``BRUTE_FORCE_CAP`` and one
    result per active check, in name order."""
    spec, k_policy, active = task
    results = {name: CheckResult(name) for name in sorted(active)}
    ensemble = build_ensemble(spec)
    for label, graph in ensemble:
        _graph_battery(label, graph, _k_values(graph.vertex_count, k_policy), results)
    above = sum(graph.vertex_count > BRUTE_FORCE_CAP for _, graph in ensemble)
    return len(ensemble), above, list(results.values())


def _replies(
    tasks: list[tuple[EnsembleSpec, str, frozenset[str]]], workers: int
) -> Iterator[tuple[int, int, list[CheckResult]]]:
    """``_slice_battery`` of each task, in task order, on a pool of
    ``workers`` processes, or in this process at 1 worker or none."""
    if workers < 2:
        yield from map(_slice_battery, tasks)
        return
    # imported here: loading the pool machinery costs every `import signdom`
    # a third of its time, and only a pooled campaign needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_slice_battery, tasks)


def run_campaign(
    spec: EnsembleSpec | None = None,
    k_policy: str = "default",
    checks: tuple[str, ...] | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Run the selected checks over the ensemble and aggregate a report.

    Every graph is solved by branch-and-bound, one call per mode for all
    of its k; graphs with at most ``BRUTE_FORCE_CAP`` (20) vertices are
    also solved by one exhaustive enumeration for both modes, the oracle
    of the oracle-equivalence check. Each slice of the ensemble
    (``_slices``) is built, checked and tallied on its own, so memory
    does not grow with the ensemble. ``workers`` > 1 hands the slices to a
    process pool of at most one worker per slice, and a single slice
    runs in-process; the tallies are merged in ensemble order either way.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _k_values(1, k_policy)  # refuses an unknown policy even if the ensemble is empty
    spec = spec or EnsembleSpec()
    names = checks if checks is not None else CHECK_NAMES
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    active = frozenset(names)

    tasks = [(part, k_policy, active) for part in _slices(spec)]
    merged = {name: CheckResult(name) for name in sorted(active)}
    graph_count = without_oracle = 0
    # a worker beyond the number of slices would start and get no work
    for count, above, results in _replies(tasks, min(workers, len(tasks))):
        graph_count += count
        without_oracle += above
        for result in results:
            target = merged[result.name]
            target.passed += result.passed
            target.failed += result.failed
            target.counterexamples.extend(result.counterexamples)

    checks_out = list(merged.values())
    recorded = sum(c.passed + c.failed for c in checks_out)
    return CampaignReport(
        ensemble=spec.describe(),
        k_policy=k_policy,
        graph_count=graph_count,
        checks=checks_out,
        checks_recorded=recorded,
        graphs_without_oracle=without_oracle,
        # a campaign that recorded no result has shown nothing, so it fails
        all_passed=recorded > 0 and all(c.failed == 0 for c in checks_out),
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
