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
from typing import Iterator

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
    ``n_max``, or the connected draws of one G(``n_max``, p) cell run.

    Every member is connected: each named family member is (K_1 and P_1
    included), and a disconnected G(n, p) draw is discarded here. The
    checks of ``_graph_battery`` rely on that rule."""
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


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)


@dataclass
class CampaignReport:
    ensemble: dict[str, object]
    k_policy: str
    graph_count: int
    checks: list[CheckResult]
    checks_recorded: int  # results recorded, passed or failed; 0: nothing tested
    graphs_without_oracle: int  # graphs no oracle checked: none ran, or n > BRUTE_FORCE_CAP
    all_passed: bool
    generated_at: str

    def to_dict(self) -> dict[str, object]:
        """The report's JSON payload: every field in order but the two
        counts, with at most ``MAX_COUNTEREXAMPLES`` per check."""
        shown = [replace(c, counterexamples=c.counterexamples[:MAX_COUNTEREXAMPLES]) for c in self.checks]
        payload = asdict(replace(self, checks=shown))
        del payload["checks_recorded"], payload["graphs_without_oracle"]
        return payload

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
    shares. A check site counts its results as passed, then fails each one
    that does not hold."""

    def __init__(self, label: str, graph: Graph, results: dict[str, CheckResult]):
        self.label = label
        self.graph = graph  # rendered as DIMACS only for a counterexample
        self.results = results

    def count(self, check: str, results: int) -> None:
        """Count ``results`` results of ``check`` as passed."""
        result = self.results.get(check)
        if result is not None:  # an active check
            result.passed += results

    def fail(
        self,
        check: str,
        observed: object,
        expected: object,
        detail: str,
        k: int | None = None,
        mode: Mode | None = None,
    ) -> None:
        """Turn one counted result of ``check`` into a failed one, with the
        counterexample that shows it; the values are rendered with str()."""
        result = self.results.get(check)
        if result is None:  # not an active check
            return
        result.passed -= 1
        result.failed += 1
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
    profile: DegreeProfile, degrees: list[int], f: SignAssignment, sums: tuple[int, ...],
    tally: _Tally,
) -> None:
    """Degree inequalities that every fully-satisfying nonneg assignment on
    a connected graph must obey; ``sums`` are the closed sums of ``f``."""
    n = profile.n
    positives = lhs1 = lhs2 = rhs2 = 0
    for d, x, s in zip(degrees, f.values, sums):
        if x > 0:
            positives += 1
            lhs1 += d
            lhs2 += (d + s - 1) // 2  # neighbour sum s - 1: (d + s - 1) / 2 positive neighbours
            rhs2 += d // 2  # ceil((d-1)/2) == d//2
    rhs1 = n + profile.n_e - 2 * positives + 2 * profile.m - lhs1  # M-degrees: 2m less P-degrees
    tally.count("degree-inequalities", 2)
    if lhs1 < rhs1:
        tally.fail(
            "degree-inequalities",
            lhs1,
            f">= {rhs1}",
            "sum of P-degrees vs n + n_e - 2|P| + sum of M-degrees",
            k=n,
            mode=Mode.NONNEG,
        )
    if lhs2 < rhs2:
        tally.fail(
            "degree-inequalities",
            lhs2,
            f">= {rhs2}",
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
    tally.count("degree-inequalities", 1)
    if lhs < rhs:
        tally.fail(
            "degree-inequalities",
            lhs,
            f">= {rhs}",
            "sum of P-degrees + |P1| vs sum of ceil((deg+1)/2) over P1 u M1",
            k=k,
            mode=Mode.NONNEG,
        )


def _graph_battery(
    label: str, graph: Graph, ks: tuple[int, ...], results: dict[str, CheckResult]
) -> bool:
    """Run every active check on one graph, counting into ``results``;
    true when the exhaustive oracle checked it.

    ``graph`` is connected, as every ``_members`` graph is, so every
    bound and degree inequality that needs connectivity applies to it,
    and ``ks`` holds n under either policy of ``_k_values``. The bounds
    are read from ``bound_values``, once for each k checked and once
    for k = n, which ksub-reduction compares.

    Every check but oracle-equivalence reads the answer of
    ``bnb_optima``, the engine that ``signdom solve`` prints, for each
    mode and k at every n. The exhaustive oracle is read by
    oracle-equivalence alone, so it runs only when that check is active
    and n <= ``BRUTE_FORCE_CAP``. On a searched answer, witness-validity
    repeats ``bnb_optima``'s own check of its witness; it still tests
    the k = 1 answers and the reused answers, which no internal check
    covers."""
    tally = _Tally(label, graph, results)
    active = results.keys()
    profile = degree_profile(graph)
    n = graph.vertex_count

    # A check not in ``active`` is dropped by tally.count and tally.fail;
    # the gates below only skip work: the solves, the oracle, the bounds
    # and greedy_upper.
    lhs = 2 * profile.ceil_half_sum(n)
    rhs = 2 * profile.m + n + profile.n_e
    tally.count("degree-identity", 1)
    if lhs != rhs:
        tally.fail("degree-identity", lhs, rhs, "2*sum ceil((d_i+1)/2) vs 2m+n+n_e")
    at_n = bounds_mod.bound_values(profile, True, n)  # bound-dominance reads it at k = n
    tally.count("ksub-reduction", 2)
    for ksub, nn in (("ksub1", "nn2"), ("ksub2", "nn3")):
        if at_n[ksub] != at_n[nn]:
            tally.fail("ksub-reduction", at_n[ksub], at_n[nn], f"{ksub} at k=n vs {nn}", k=n)

    if not (_SOLVE_CHECKS & active):
        return False

    checked = n <= BRUTE_FORCE_CAP and "oracle-equivalence" in active
    oracles = bruteforce_optima_both(graph, ks) if checked else {}
    degrees = [len(nbrs) for nbrs in graph.adjacency]
    parities = [(d + 1) & 1 for d in degrees]  # a closed sum has the parity of |N[v]|
    exact = {mode: bnb_optima(graph, mode, ks) for mode in Mode}
    evals: dict[Mode, dict[int, EvalResult]] = {}  # of exact's witness, evaluated once
    tally.count("witness-validity", 2 * len(ks))  # one per mode and k
    tally.count("parity", 4 * len(ks))  # optimum and closed sums, per mode and k
    if checked:
        tally.count("oracle-equivalence", 4 * len(ks))  # optimum and witness, per mode and k
    for mode in Mode:
        evals_of = evals[mode] = {}
        for k in ks:
            bnb = exact[mode][k]
            ev = evals_of[k] = evaluate(graph, bnb.witness, mode)
            if checked:
                brute = oracles[mode][k]
                if bnb.optimum != brute.optimum:
                    tally.fail(
                        "oracle-equivalence",
                        bnb.optimum,
                        brute.optimum,
                        "branch-and-bound optimum vs exhaustive optimum",
                        k=k,
                        mode=mode,
                    )
                if (bnb.witness, bnb.satisfied_count) != (brute.witness, brute.satisfied_count):
                    tally.fail(
                        "oracle-equivalence",
                        f"{bnb.witness.to_string()}, satisfied={bnb.satisfied_count}",
                        f"{brute.witness.to_string()}, satisfied={brute.satisfied_count}",
                        "canonical witness and its satisfied count",
                        k=k,
                        mode=mode,
                    )
            if not (
                ev.weight == bnb.optimum
                and ev.satisfied_count == bnb.satisfied_count
                and ev.satisfied_count >= k
            ):
                tally.fail(
                    "witness-validity",
                    f"weight={ev.weight}, satisfied={ev.satisfied_count}",
                    f"weight={bnb.optimum}, satisfied={bnb.satisfied_count}>={k}",
                    "witness evaluates to the reported optimum, count and feasibility",
                    k=k,
                    mode=mode,
                )
            if (bnb.optimum - n) % 2 != 0:
                tally.fail(
                    "parity",
                    bnb.optimum,
                    f"congruent to {n} mod 2",
                    "optimum weight parity",
                    k=k,
                    mode=mode,
                )
            if [s & 1 for s in ev.closed_sums] != parities:
                tally.fail(
                    "parity",
                    tuple(ev.closed_sums),
                    "each sum congruent to deg+1 mod 2",
                    "closed-sum parity",
                    k=k,
                    mode=mode,
                )

    nonneg, nonneg_evals = exact[Mode.NONNEG], evals[Mode.NONNEG]
    if "bound-dominance" in active:
        lift = bounds_mod.parity_lift
        for k in ks:
            opt = nonneg[k].optimum
            values = at_n if k == n else bounds_mod.bound_values(profile, True, k)
            tally.count("bound-dominance", 2 * len(values))  # raw and parity-lifted
            for name, raw in values.items():
                if raw.numerator > opt * raw.denominator:  # raw > opt, without Fraction.__gt__
                    tally.fail(
                        "bound-dominance",
                        opt,
                        f">= {raw}",
                        f"exact optimum vs {name} raw",
                        k=k,
                        mode=Mode.NONNEG,
                    )
                lifted = lift(raw, n)
                if lifted > opt:
                    tally.fail(
                        "bound-dominance",
                        opt,
                        f">= {lifted}",
                        f"exact optimum vs {name} parity-lifted",
                        k=k,
                        mode=Mode.NONNEG,
                    )

    if "degree-inequalities" in active:
        # a signed k = n witness satisfies every vertex at threshold 1, so at 0
        # too; closed sums do not depend on the mode, so its signed ones serve
        greedy = greedy_upper(graph, n, Mode.NONNEG)
        full = [
            (nonneg[n].witness, nonneg_evals[n].closed_sums),
            (greedy, evaluate(graph, greedy, Mode.NONNEG).closed_sums),
            (exact[Mode.SIGNED][n].witness, evals[Mode.SIGNED][n].closed_sums),
        ]
        for f, sums in full:
            _degree_inequalities_full_domination(profile, degrees, f, sums, tally)
        for k in ks:
            _degree_inequality_subdomination(degrees, nonneg[k].witness, nonneg_evals[k], k, tally)

    tally.count("monotonicity", 2)  # one per mode
    for mode in Mode:
        optima = [exact[mode][k].optimum for k in ks]
        if any(a > b for a, b in zip(optima, optima[1:])):
            tally.fail(
                "monotonicity",
                dict(zip(ks, optima)),
                "nondecreasing in k",
                "optimum as a function of k",
                mode=mode,
            )

    tally.count("mode-dominance", len(ks))
    if profile.n_o == 0:
        tally.count("even-graph-equality", len(ks))
    for k in ks:
        lo = nonneg[k].optimum
        hi = exact[Mode.SIGNED][k].optimum
        if lo > hi:
            tally.fail(
                "mode-dominance",
                f"nonneg={lo}, signed={hi}",
                "nonneg <= signed",
                "threshold relaxation can only lower the optimum",
                k=k,
            )
        if profile.n_o == 0 and lo != hi:
            tally.fail(
                "even-graph-equality",
                f"nonneg={lo}, signed={hi}",
                "equal on even graphs",
                "all degrees even forces both modes to coincide",
                k=k,
            )
    return checked


def _slice_battery(
    task: tuple[EnsembleSpec, str, frozenset[str]]
) -> tuple[int, int, list[CheckResult]]:
    """Build one slice of the ensemble and check each of its graphs: its
    graph count, its count of graphs no oracle checked and one result per
    active check, in name order."""
    spec, k_policy, active = task
    results = {name: CheckResult(name) for name in sorted(active)}
    ensemble = build_ensemble(spec)
    unchecked = 0
    for label, graph in ensemble:
        unchecked += not _graph_battery(label, graph, _k_values(graph.vertex_count, k_policy), results)
    return len(ensemble), unchecked, list(results.values())


def _replies(
    tasks: list[tuple[EnsembleSpec, str, frozenset[str]]], workers: int
) -> Iterator[tuple[int, int, list[CheckResult]]]:
    """``_slice_battery`` of each task, in task order, on a pool of
    ``workers`` processes, or in this process at 1 worker or none."""
    if workers < 2:
        yield from map(_slice_battery, tasks)
        return
    # imported here, so no `signdom` command and no 1-worker campaign loads
    # the pool machinery: 15-22 ms CPU on top of the 52-74 ms that
    # `import signdom.cli` takes (7 fresh interpreters, 2-vCPU VM)
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
    of its k, and every check reads that answer. Only when
    oracle-equivalence is selected are graphs with at most
    ``BRUTE_FORCE_CAP`` (20) vertices also solved by one exhaustive
    enumeration for both modes, the oracle that check compares with;
    ``graphs_without_oracle`` counts the graphs it did not check. Each
    slice of the ensemble (``_slices``) is built, checked and tallied on
    its own, so memory does not grow with the ensemble. ``workers`` > 1
    hands the slices to a process pool of at most one worker per slice,
    and a single slice runs in-process; the tallies are merged in
    ensemble order either way.
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
    for count, unchecked, results in _replies(tasks, min(workers, len(tasks))):
        graph_count += count
        without_oracle += unchecked
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
