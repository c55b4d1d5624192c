"""Exact minimum-weight solvers for signed k-subdomination problems.

An assignment f maps every vertex to -1 or +1; vertex v is *satisfied*
when the sum of f over the closed neighborhood N[v] clears the mode's
threshold (0 in nonneg mode, 1 in signed mode). The optimum for
parameter k is the minimum total weight over assignments that satisfy
at least k vertices.

Two independent engines compute it: exhaustive enumeration
(:func:`solve_bruteforce`, the oracle) and depth-first branch-and-bound
(:func:`solve_bnb`). One enumeration per mode answers every k
(:func:`bruteforce_optima`): it keeps the least weight for each exact
satisfied count, and the optimum for k is the least over counts >= k.
Both engines return the same canonical witness: the
lexicographically smallest optimal sign vector under the ordering
+1 < -1, vertex 0 most significant. Branch-and-bound finds it in its one
search: it branches vertices in id order, +1 first, accepts ties with the
greedy incumbent only until its first leaf, and prunes with a residual
form of the double counting sum_v f(N[v]) = sum_u (d_u+1) f(u), counting
the positives still needed by the k least demanding vertices. Its state
is two integers with one fixed-width field per vertex, so a branch is one
subtraction and needs no undo; the fields are wide enough that no
subtraction borrows from a neighbouring field.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import mul

from .graph import Graph

__all__ = [
    "Mode",
    "SignAssignment",
    "EvalResult",
    "SearchStats",
    "SolveResult",
    "evaluate",
    "greedy_upper",
    "solve_bruteforce",
    "bruteforce_optima",
    "solve_bnb",
    "solve",
    "result_record",
    "BRUTE_FORCE_CAP",
]

BRUTE_FORCE_CAP = 20


class Mode(enum.Enum):
    """Satisfaction threshold for closed-neighborhood sums."""

    NONNEG = "nonneg"  # f(N[v]) >= 0
    SIGNED = "signed"  # f(N[v]) >= 1

    @property
    def threshold(self) -> int:
        return 0 if self is Mode.NONNEG else 1


@dataclass(frozen=True)
class SignAssignment:
    """Total function V -> {-1, +1}, stored as a tuple indexed by vertex."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in self.values:
            if x not in (-1, 1):
                raise ValueError(f"signs must be -1 or +1, got {x!r}")

    @classmethod
    def all_plus(cls, n: int) -> "SignAssignment":
        return cls((1,) * n)

    @classmethod
    def from_string(cls, text: str) -> "SignAssignment":
        return cls(tuple(1 if ch == "+" else -1 for ch in text))

    def to_string(self) -> str:
        return "".join("+" if x > 0 else "-" for x in self.values)

    @property
    def weight(self) -> int:
        return sum(self.values)

    def positives(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.values) if x > 0)

    def negatives(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.values) if x < 0)


@dataclass(frozen=True)
class EvalResult:
    """Assignment evaluation: per-vertex closed-neighborhood sums, the
    satisfied set and its split by sign (p1 = positives satisfied,
    m1 = negatives satisfied)."""

    weight: int
    closed_sums: tuple[int, ...]
    satisfied: frozenset[int]
    satisfied_count: int
    p1: frozenset[int]
    m1: frozenset[int]


def evaluate(graph: Graph, f: SignAssignment, mode: Mode) -> EvalResult:
    n = graph.vertex_count
    if len(f.values) != n:
        raise ValueError(f"assignment covers {len(f.values)} vertices, graph has {n}")
    vals = f.values
    value = vals.__getitem__
    sums = tuple([x + sum(map(value, nbrs)) for x, nbrs in zip(vals, graph.adjacency)])
    tau = mode.threshold
    satisfied = [v for v, s in enumerate(sums) if s >= tau]
    return EvalResult(
        weight=sum(vals),
        closed_sums=sums,
        satisfied=frozenset(satisfied),
        satisfied_count=len(satisfied),
        p1=frozenset([v for v in satisfied if vals[v] > 0]),
        m1=frozenset([v for v in satisfied if vals[v] < 0]),
    )


@dataclass(frozen=True)
class SearchStats:
    """Work done by one solve: nodes visited (every assignment for brute
    force; every node of the one search, witness included, for
    branch-and-bound) and branch-and-bound prunes by reason."""

    nodes: int = 0
    prunes_weight: int = 0
    prunes_satisfiability: int = 0
    prunes_residual: int = 0
    prunes_global_lb: int = 0


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: SignAssignment
    satisfied_count: int
    stats: SearchStats


def _check_k(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("solving requires a graph with n >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")


def greedy_upper(graph: Graph, k: int, mode: Mode) -> SignAssignment:
    """Feasible assignment found by greedy sign flips.

    Starts from all-(+1), which satisfies every vertex in both modes, and
    sweeps the vertices once (ascending degree, ties by id), flipping each
    to -1 when at least k vertices stay satisfied. One sweep suffices: the
    vertices that stay satisfied if u flips only shrink as sums drop, so a
    vertex refused once is refused again. The result is feasible and
    maximal (flipping any remaining +1 vertex leaves fewer than k
    satisfied) but carries no optimality guarantee.
    """
    n = graph.vertex_count
    _check_k(n, k)
    adj = graph.adjacency
    tau = mode.threshold
    signs = [1] * n
    # slack[u] = f(N[u]) - tau; a flip inside N[u] unsatisfies u at slack 0 or 1
    slack = [len(nbrs) + 1 - tau for nbrs in adj]
    satisfied = n
    # slack still ranks by degree here, and the sort is stable: ascending
    # degree, ties by id
    for v in sorted(range(n), key=slack.__getitem__):
        closed = (v, *adj[v])
        lost = 0
        for u in closed:
            if 0 <= slack[u] < 2:
                lost += 1
        if satisfied - lost >= k:
            signs[v] = -1
            for u in closed:
                slack[u] -= 2
            satisfied -= lost
    return SignAssignment(tuple(signs))


def _brute_force(graph: Graph, mode: Mode, cap: int, ks: range) -> dict[int, SolveResult]:
    """Exact results for every k in ``ks`` from one pass over all 2^n
    assignments.

    For each exact satisfied count c >= min(ks) it records the least
    weight and the first mask reaching it; the result for k is the least
    (weight, mask) over c >= k, and its satisfied count is that c. A mask
    is skipped, uncounted, when its weight is at least the current optimum
    for max(ks): since optima never decrease in k, it cannot lower the
    optimum for any k in ``ks``.
    """
    n = graph.vertex_count
    if n > cap:
        raise ValueError(f"brute force capped at {cap} vertices (graph has {n}); raise cap to override")
    tau = mode.threshold
    # Bit n-1-v holds vertex v (1 = sign -1), so ascending mask order is
    # lexicographic order on sign vectors with +1 < -1.
    closed = [
        (
            sum(1 << (n - 1 - u) for u in graph.closed_neighborhood(v)),
            (graph.degree(v) + 1 - tau) // 2,  # most negatives N[v] may hold
        )
        for v in range(n)
    ]
    k_lo, k_hi = ks[0], ks[-1]
    best_weight = [n + 1] * (n + 1)  # per exact count; n + 1: none yet
    best_mask = [0] * (n + 1)
    cutoff = n + 1  # current optimum for k_hi
    for mask in range(1 << n):
        weight = n - 2 * mask.bit_count()
        if weight >= cutoff:
            continue
        count = 0
        for cmask, most in closed:
            if (mask & cmask).bit_count() <= most:
                count += 1
        if count >= k_lo and weight < best_weight[count]:
            best_weight[count] = weight
            best_mask[count] = mask
            if count >= k_hi:
                cutoff = weight
    results: dict[int, SolveResult] = {}
    best = (n + 1, 0, n)  # (weight, mask, count), least over counts >= k
    for k in range(n, k_lo - 1, -1):
        best = min(best, (best_weight[k], best_mask[k], k))
        if k in ks:
            weight, mask, count = best
            witness = SignAssignment(
                tuple(-1 if (mask >> (n - 1 - v)) & 1 else 1 for v in range(n))
            )
            results[k] = SolveResult(weight, witness, count, SearchStats(nodes=1 << n))
    return results


def solve_bruteforce(graph: Graph, k: int, mode: Mode, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact optimum by enumerating all 2^n assignments.

    Refuses graphs with more than ``cap`` vertices (default 20) unless the
    cap is raised explicitly. The witness is the lexicographically
    smallest optimal sign vector.
    """
    _check_k(graph.vertex_count, k)
    return _brute_force(graph, mode, cap, range(k, k + 1))[k]


def bruteforce_optima(graph: Graph, mode: Mode, cap: int = BRUTE_FORCE_CAP) -> dict[int, SolveResult]:
    """:func:`solve_bruteforce` for every k in 1..n, keyed by k, from one
    enumeration of the 2^n assignments."""
    n = graph.vertex_count
    if n < 1:
        raise ValueError("solving requires a graph with n >= 1")
    return _brute_force(graph, mode, cap, range(1, n + 1))


def solve_bnb(graph: Graph, k: int, mode: Mode) -> SolveResult:
    """Exact optimum and canonical witness by one depth-first branch-and-bound.

    Vertices are branched in id order, +1 before -1, so leaves are met in
    lexicographic order. The incumbent starts at the weight of
    :func:`greedy_upper` with no witness attached. Until the first leaf is
    accepted, a feasible leaf is accepted when its weight is at most the
    incumbent; after that, only when it is strictly lower. The first
    optimal leaf accepted is thus the lexicographically smallest one, and
    no later leaf replaces it.

    Pruning uses the double counting sum_v f(N[v]) = sum_u (d_u+1) f(u)
    behind the paper's bounds, applied to the unassigned vertices U of a
    node of weight w. A satisfied vertex v needs ceil((d_v+1+tau)/2)
    positives in N[v]; its demand is that minus the positives already
    there, floored at 0. Let D be the sum of the k smallest demands among
    vertices that can still be satisfied. New positives P within U have
    sum_{u in P} (d_u+1) >= D, so |P| is at least p, the fewest of the
    largest d_u+1 over U that cover D, and every leaf below weighs at
    least w - |U| + 2p. At k = n this is the paper's cap on negatives:
    the demands and the negatives N[v] may still take sum to |N[v] & U|.

    The search state is two integers, ``room`` (negatives N[v] may still
    take) and ``short`` (positives N[v] still lacks), each packing one
    field per vertex: vertex v's counter x sits at bit v*width as big + x,
    with big = 2^bit_length(n) > n and width = bit_length(n) + 2. A child
    subtracts the indicator of N[v] from one of them, which moves each
    counter of N[v] down by 1. A counter starts at most (n+2)/2 and drops
    at most d_v+1 <= n times, so every field stays in [big - n, 2*big):
    no subtraction borrows from the next field, and adding up to big - 1
    keeps a field below 4*big = 2^width, so no add carries into the next.
    Vertex v can still be satisfied while its room field has bit big set;
    the number of such vertices with demand above x is one add of
    big-1-x to every short field and a popcount of the bits 2*big, so D
    costs one popcount per demand value at every k.

    The bound already has the parity of n. A node is pruned when no
    leaf below it can be accepted: all remaining -1 is still too heavy
    (``prunes_weight``), fewer than k vertices stay satisfiable
    (``prunes_satisfiability``), or the residual bound is too high
    (``prunes_residual``). The bound at the root is a lower bound on the
    optimum, and the search stops once a leaf of that weight is accepted
    (``prunes_global_lb``).
    """
    n = graph.vertex_count
    _check_k(n, k)
    tau = mode.threshold
    adj = graph.adjacency
    size = [len(nbrs) + 1 for nbrs in adj]  # d_v + 1
    big = 1 << n.bit_length()
    width = n.bit_length() + 2
    field = [1 << (v * width) for v in range(n)]  # 1 in vertex v's field
    one = sum(field)  # 1 in every field
    top = one * big  # bit big of every field
    nb = [f + sum(map(field.__getitem__, nbrs)) for f, nbrs in zip(field, adj)]  # packed N[v]
    lacks = [(s + tau + 1) // 2 for s in size]
    # room0: negatives N[v] may still take; short0: positives N[v] still lacks
    room0 = top + sum([f * ((s - tau) // 2) for f, s in zip(field, size)])
    short0 = top + sum(map(mul, field, lacks))
    # adds[x] lifts a short field to 2*big or more exactly when its demand > x.
    adds = [one * (big - 1 - x) for x in range(max(lacks))]
    # prefix[depth]: prefix sums of d_u + 1 over the unassigned u >= depth,
    # largest first, built from the last vertex back.
    prefix = [[0]] * (n + 1)
    rest: list[int] = []  # size[depth:], ascending
    for depth in range(n - 1, -1, -1):
        insort(rest, size[depth])
        prefix[depth] = list(accumulate(reversed(rest), initial=0))

    cutoff = greedy_upper(graph, k, mode).weight + 1  # accepts ties with greedy
    root_lb: int | None = None  # the residual bound at the root, set on its visit
    signs = [0] * n
    witness: tuple[int, ...] | None = None
    stop = False
    nodes = prunes_w = prunes_s = prunes_r = prunes_lb = 0

    def dfs(v: int, weight: int, room: int, short: int) -> None:
        nonlocal cutoff, root_lb, witness, stop
        nonlocal nodes, prunes_w, prunes_s, prunes_r, prunes_lb
        nodes += 1
        live = room & top
        alive = live.bit_count()
        if alive < k:
            prunes_s += 1
            return
        if v == n:
            if weight < cutoff:
                cutoff = weight  # from now on only strictly lower leaves
                witness = tuple(signs)
                if weight == root_lb:
                    stop = True
                    prunes_lb += 1
            return
        if weight - (n - v) >= cutoff:
            prunes_w += 1
            return
        spare = alive - k  # satisfiable vertices the k smallest demands leave out
        live <<= 1
        demand = 0
        for add in adds:
            over = ((short + add) & live).bit_count()
            if over <= spare:
                break
            demand += over - spare
        cover = prefix[v]
        p = bisect_left(cover, demand)
        if p == len(cover):  # the unassigned vertices cannot meet the demand
            prunes_r += 1
            return
        bound = weight - (n - v) + 2 * p
        if not v:
            root_lb = bound
        if bound >= cutoff:
            prunes_r += 1
            return
        signs[v] = 1
        dfs(v + 1, weight + 1, room, short - nb[v])
        if stop:
            return
        signs[v] = -1
        dfs(v + 1, weight - 1, room - nb[v], short)

    dfs(0, 0, room0, short0)
    if witness is None:
        raise RuntimeError("internal error: the search accepted no leaf")
    best = SignAssignment(witness)
    ev = evaluate(graph, best, mode)
    if ev.weight != cutoff or ev.satisfied_count < k:
        raise RuntimeError("internal error: the accepted witness is inconsistent")
    return SolveResult(
        optimum=cutoff,
        witness=best,
        satisfied_count=ev.satisfied_count,
        stats=SearchStats(nodes, prunes_w, prunes_s, prunes_r, prunes_lb),
    )


def solve(
    graph: Graph,
    k: int,
    mode: Mode,
    algorithm: str = "bnb",
    brute_cap: int = BRUTE_FORCE_CAP,
) -> SolveResult:
    """Dispatch to an exact engine: ``bnb`` (the default) runs
    branch-and-bound, ``brute`` the exhaustive oracle, which refuses
    graphs with more than ``brute_cap`` vertices."""
    if algorithm == "bnb":
        return solve_bnb(graph, k, mode)
    if algorithm == "brute":
        return solve_bruteforce(graph, k, mode, cap=brute_cap)
    raise ValueError(f"algorithm must be 'bnb' or 'brute', got {algorithm!r}")


def result_record(graph: Graph, k: int, mode: Mode, result: SolveResult) -> dict[str, object]:
    """Flat record of a solve, for JSON-lines output."""
    return {
        "graph": graph.canonical_id(),
        "n": graph.vertex_count,
        "m": graph.edge_count,
        "k": k,
        "mode": mode.value,
        "optimum": result.optimum,
        "satisfied_count": result.satisfied_count,
        "witness": result.witness.to_string(),
        **{f"stats.{f.name}": getattr(result.stats, f.name) for f in fields(SearchStats)},
    }
