"""Exact minimum-weight solvers for signed k-subdomination problems.

An assignment f maps every vertex to -1 or +1; vertex v is *satisfied*
when the sum of f over the closed neighborhood N[v] clears the mode's
threshold (0 in nonneg mode, 1 in signed mode). The optimum for
parameter k is the minimum total weight over assignments that satisfy
at least k vertices.

Two independent engines compute it, each with one entry point for one k
and one for many; the docstrings of the second say how each works:

- exhaustive enumeration, the oracle: :func:`solve_bruteforce` and
  :func:`bruteforce_optima_both`;
- depth-first branch-and-bound: :func:`solve_bnb` and :func:`bnb_optima`.

Both return the same canonical witness: the lexicographically smallest
optimal sign vector under the ordering +1 < -1, vertex 0 most
significant.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from itertools import accumulate
from operator import mul
from typing import Iterable, NamedTuple

from .graph import Graph, check_ks

__all__ = [
    "Mode",
    "SignAssignment",
    "EvalResult",
    "SearchStats",
    "SolveResult",
    "evaluate",
    "greedy_upper",
    "solve_bruteforce",
    "bruteforce_optima_both",
    "bnb_optima",
    "solve_bnb",
    "result_record",
    "BRUTE_FORCE_CAP",
]

BRUTE_FORCE_CAP = 20


class Mode(enum.Enum):
    """Satisfaction threshold for closed-neighborhood sums."""

    NONNEG = "nonneg"  # f(N[v]) >= 0
    SIGNED = "signed"  # f(N[v]) >= 1

    def __init__(self, value: str) -> None:
        # a plain attribute: every evaluation and greedy sweep reads it
        self.threshold = 0 if value == "nonneg" else 1

    __hash__ = object.__hash__  # in C, not Enum's Python hash; equality is identity


class _SignFields(NamedTuple):
    values: tuple[int, ...]


class SignAssignment(_SignFields):
    """Total function V -> {-1, +1}, stored as a tuple indexed by vertex."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "SignAssignment":
        if values.count(1) + values.count(-1) != len(values):  # one pass each, in C
            bad = next(x for x in values if x not in (-1, 1))
            raise ValueError(f"signs must be -1 or +1, got {bad!r}")
        return super().__new__(cls, values)

    @classmethod
    def _make(cls, iterable: Iterable) -> "SignAssignment":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def to_string(self) -> str:
        return "".join("+" if x > 0 else "-" for x in self.values)

    @property
    def weight(self) -> int:
        return sum(self.values)


class EvalResult(NamedTuple):
    """Assignment evaluation: weight, per-vertex closed-neighborhood sums
    and the number of vertices whose sum clears the mode's threshold."""

    weight: int
    closed_sums: tuple[int, ...]
    satisfied_count: int


def evaluate(graph: Graph, f: SignAssignment, mode: Mode) -> EvalResult:
    n = graph.vertex_count
    if len(f.values) != n:
        raise ValueError(f"assignment covers {len(f.values)} vertices, graph has {n}")
    vals = f.values
    # f(N[v]) = f(v) + |N(v)| - 2 |N(v) & M|, with M the -1 vertices
    minus = {v for v, x in enumerate(vals) if x < 0}
    sums = tuple([x + len(nbrs) - 2 * len(nbrs & minus) for x, nbrs in zip(vals, graph.adjacency)])
    tau = mode.threshold
    return EvalResult(sum(vals), sums, sum([s >= tau for s in sums]))


class SearchStats(NamedTuple):
    """Work done by one solve: nodes visited (every assignment for brute
    force; every node of the one search, witness included, for
    branch-and-bound) and branch-and-bound prunes by reason."""

    nodes: int = 0
    prunes_weight: int = 0
    prunes_satisfiability: int = 0
    prunes_residual: int = 0
    prunes_global_lb: int = 0


_NO_SEARCH = SearchStats()  # shared by every answer found without a search


class SolveResult(NamedTuple):
    optimum: int
    witness: SignAssignment
    satisfied_count: int
    stats: SearchStats


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
    check_ks(n, (k,))
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


def solve_bruteforce(graph: Graph, k: int, mode: Mode, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact optimum by enumerating all 2^n assignments.

    Refuses graphs with more than ``cap`` vertices (default 20) unless the
    cap is raised explicitly. Masks are visited in ascending order, and a
    mask is skipped, uncounted, when its weight is at least the current
    optimum; the first mask of each lower weight that satisfies at least k
    vertices is accepted. The witness is thus the lexicographically
    smallest optimal sign vector.
    """
    n = graph.vertex_count
    check_ks(n, (k,))
    if n > cap:
        raise ValueError(f"brute force capped at {cap} vertices (graph has {n}); raise cap to override")
    tau = mode.threshold
    # Bit n-1-v holds vertex v (1 = sign -1), so ascending mask order is
    # lexicographic order on sign vectors with +1 < -1.
    closed = [
        (
            sum(1 << (n - 1 - u) for u in (v, *nbrs)),
            (len(nbrs) + 1 - tau) // 2,  # most negatives N[v] may hold
        )
        for v, nbrs in enumerate(graph.adjacency)
    ]
    optimum = n + 1  # none accepted yet
    best_mask = best_count = 0
    for mask in range(1 << n):
        weight = n - 2 * mask.bit_count()
        if weight >= optimum:
            continue
        count = 0
        for cmask, most in closed:
            if (mask & cmask).bit_count() <= most:
                count += 1
        if count >= k:
            optimum, best_mask, best_count = weight, mask, count
    witness = SignAssignment(tuple(-1 if (best_mask >> (n - 1 - v)) & 1 else 1 for v in range(n)))
    return SolveResult(optimum, witness, best_count, SearchStats(nodes=1 << n))


def bruteforce_optima_both(graph: Graph, ks: Iterable[int]) -> dict[Mode, dict[int, SolveResult]]:
    """:func:`solve_bruteforce` for every k in ``ks`` and both modes, keyed
    by mode and then k in ascending order, from one enumeration of the 2^n
    assignments, run on all of them at once.

    One integer holds a counter for every mask: mask m, whose bit n-1-v
    set means vertex v is -1 as in :func:`solve_bruteforce`, owns the
    field of ``width`` bits at bit m*width, so one integer add counts for
    every assignment. A counter never exceeds n < big = 2^bit_length(n),
    and width = bit_length(n) + 1, so adding big-1-c to every field sets
    bit big exactly in the fields whose counter exceeds c, and no add
    carries into the next field. Each vertex's negatives in N[v] are
    counted once and compared with the threshold of each mode, and the
    satisfied vertices are counted per mode. The optimum for k is set by
    the most negatives among the masks that satisfy at least k vertices,
    and the lowest such mask is the canonical witness; only the ks asked
    for pay for that extraction, each starting from the last k's count of
    negatives. Refuses graphs with more than ``BRUTE_FORCE_CAP`` vertices.
    """
    n = graph.vertex_count
    ks = check_ks(n, ks)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_CAP} vertices (graph has {n})")
    big = 1 << n.bit_length()
    width = n.bit_length() + 1
    one = 1  # 1 in the field of every mask below 2^i
    column = [0] * n  # column[v]: 1 in the field of every mask with vertex v at -1
    for i in range(n):
        bits = one << (width << i)  # the masks below 2^(i+1) with bit i set
        one |= bits
        for s in range(i + 1, n):  # repeat them with period 2^(i+1) masks
            bits |= bits << (width << s)
        column[n - 1 - i] = bits
    top = one * big  # bit big of every field

    def above(counts: int, c: int) -> int:
        """Bit big of the fields whose counter exceeds c, for -1 <= c < n."""
        return (counts + one * (big - 1 - c)) & top

    negatives = sum(column)
    satisfied = dict.fromkeys(Mode, 0)
    for v, nbrs in enumerate(graph.adjacency):
        held = column[v] + sum(map(column.__getitem__, nbrs))  # negatives in N[v]
        for mode in satisfied:
            most = (len(nbrs) + 1 - mode.threshold) // 2  # most negatives N[v] may hold
            # 1 in the field of every mask that satisfies v
            satisfied[mode] += (top ^ above(held, most)) >> (width - 1)
    stats = SearchStats(nodes=1 << n)  # one enumeration answers every k and mode
    results: dict[Mode, dict[int, SolveResult]] = {}
    for mode, counts in satisfied.items():
        results[mode] = {}
        j = n  # optima never decrease in k, so j only falls
        for k in ks:
            enough = above(counts, k - 1)
            hit = enough & above(negatives, j - 1)
            while j > 0 and not hit:
                j -= 1
                hit = enough & above(negatives, j - 1)
            # hit: the masks with j negatives that satisfy k vertices
            mask = (hit & -hit).bit_length() // width - 1
            witness = SignAssignment(
                tuple(-1 if (mask >> (n - 1 - v)) & 1 else 1 for v in range(n))
            )
            count = (counts >> mask * width) % big
            results[mode][k] = SolveResult(n - 2 * j, witness, count, stats)
    return results


def solve_bnb(graph: Graph, k: int, mode: Mode) -> SolveResult:
    """Exact optimum and canonical witness by one depth-first
    branch-and-bound: the one-k case of :func:`bnb_optima`."""
    return bnb_optima(graph, mode, (k,))[k]


def bnb_optima(graph: Graph, mode: Mode, ks: Iterable[int]) -> dict[int, SolveResult]:
    """:func:`solve_bnb` for every k in ``ks``, keyed by k in ascending
    order, from one build of the search state per graph and mode.

    The k are solved in ascending order, each after the last one solved,
    k' < k. The search for k stops once it accepts a leaf of the stop
    weight max(2p - n, 2c - n, optimum for k'), computed before the search.
    Here 2p - n is the residual bound below taken at the root, where every
    vertex is satisfiable and D is the sum of the k smallest demands. The optimum
    never decreases in k, and c is the k-th smallest ceil((d_v+1+tau)/2):
    one of the k or more satisfied vertices needs at least c positives in
    N[v], so c positives at least. When the witness for k' satisfies at
    least k vertices, it is the optimum and the canonical witness for k as
    well: every assignment feasible for k is feasible for k'. Such a k is
    answered without a search, with ``SearchStats()`` (0 nodes), and so is
    k = 1: 2c - n is its optimum, and an optimal assignment has exactly c
    positives, all in N[v] for some v that needs c, so the canonical
    witness is the lexicographically least "+1 on the c lowest ids of
    N[v]" over those v. A single k >= 2 is searched as below, node for
    node.

    Vertices are branched in id order. A node is (v, floor, room, short,
    neg, owed), neg the bitmask of the -1 vertices, owed as below, and
    floor = weight - (n - v):
    -n at the root, kept by a -1 child, raised by 2 for a +1 child, and a
    leaf's weight. Only the -1 child is pushed on the explicit stack; the
    +1 child, which keeps the parent's room and so its satisfiable count,
    is searched in place first, so leaves are met in lexicographic order.
    Nothing bounds the depth but memory: the ``prefix`` table takes O(n^2).
    The incumbent starts at the weight of :func:`greedy_upper` with no
    witness attached. Until the first leaf is accepted, a feasible leaf is
    accepted when its weight is at most the incumbent; after that, only
    when it is strictly lower. The first optimal leaf accepted is thus the
    lexicographically smallest one, and no later leaf replaces it.

    Pruning uses the double counting sum_v f(N[v]) = sum_u (d_u+1) f(u)
    behind the paper's bounds, applied to the unassigned vertices U of a
    node of weight w. A satisfied vertex v needs ceil((d_v+1+tau)/2)
    positives in N[v]; its demand is that minus the positives already
    there, floored at 0. Let D be the sum of the k smallest demands among
    vertices that can still be satisfied. New positives P within U have
    sum_{u in P} (d_u+1) >= D, so |P| is at least p, the fewest of the
    largest d_u+1 over U that cover D, and every leaf below weighs at
    least w - |U| + 2p = floor + 2p. With cutoff the weight an accepted
    leaf must be below and q = ceil((cutoff - floor)/2), the node is
    pruned when p >= q, that is, when D exceeds the sum of the min(q, |U|)
    largest d_u+1, one read of the ``prefix`` table. At k = n this is the
    paper's cap on negatives: the demands and the negatives N[v] may still
    take sum to |N[v] & U|. At k = n every vertex must be satisfied, so a
    vertex of demand x alone needs x new positives, every leaf below
    weighs at least floor + 2x, and the node is also pruned when some
    demand is q or more.

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
    big-1-x to every short field and a popcount of the bits 2*big. Below
    k = n, D is that count summed over the demand values x, less the
    satisfiable vertices beyond the k, and the scan stops as soon as D
    passes the threshold. At k = n every vertex satisfiable at a node
    that reaches the test leaves none out, so D is the sum of all
    positive demands, carried down the search as ``owed``: it starts at
    the sum of the demands, a -1 child keeps it, and a +1 child on v
    lowers it by the number of fields of N[v] with a positive demand, one
    popcount of bit 2*big of short + big-1 over N[v]. Some demand is q or
    more exactly when short + big-q has bit 2*big set in some field.

    The bound already has the parity of n. A node is pruned when no
    leaf below it can be accepted: its floor is not below the cutoff
    (``prunes_weight``), fewer than k vertices stay satisfiable
    (``prunes_satisfiability``), or the residual bound or, at k = n, the
    largest demand is too high (``prunes_residual``). The search stops
    once a leaf of the stop weight is accepted (``prunes_global_lb``).
    """
    n = graph.vertex_count
    ks = check_ks(n, ks)
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
    ranked = sorted(lacks)
    # room0: negatives N[v] may still take; short0: positives N[v] still lacks
    room0 = top + sum([f * (s - x) for f, s, x in zip(field, size, lacks)])
    short0 = top + sum(map(mul, field, lacks))
    # adds[x] lifts a short field to 2*big or more exactly when its demand > x.
    deepest = max(lacks)
    adds = [one * (big - 1 - x) for x in range(deepest)]
    top2 = top << 1  # bit 2*big of every field
    nbhi = [b << (n.bit_length() + 1) for b in nb]  # bit 2*big of each field of N[v]
    # prefix[depth]: prefix sums of d_u + 1 over the unassigned u >= depth,
    # largest first, built from the last vertex back.
    prefix = [[0]] * (n + 1)
    rest: list[int] = []  # size[depth:], ascending
    for depth in range(n - 1, -1, -1):
        insort(rest, size[depth])
        prefix[depth] = list(accumulate(reversed(rest), initial=0))

    results: dict[int, SolveResult] = {}
    last: SolveResult | None = None
    for k in ks:
        if last is not None and last.satisfied_count >= k:
            results[k] = SolveResult(last.optimum, last.witness, last.satisfied_count, _NO_SEARCH)
            continue
        if k == 1:
            # the least demanding N[v] with positives on its lowest ids
            c = ranked[0]
            plus = set(min(sorted((v, *adj[v]))[:c] for v in range(n) if lacks[v] == c))
            best = SignAssignment(tuple([1 if v in plus else -1 for v in range(n)]))
            satisfied = evaluate(graph, best, mode).satisfied_count
            results[k] = last = SolveResult(2 * c - n, best, satisfied, _NO_SEARCH)
            continue
        cutoff = greedy_upper(graph, k, mode).weight + 1  # accepts ties with greedy
        # The stop weight: the residual bound at the root, where every
        # vertex is satisfiable and D is the sum of the k smallest demands,
        # and 2 * ranked[k - 1] - n, since some satisfied vertex lacks at
        # least the k-th smallest demand. It only ends the search, so the
        # search visits the same nodes as without it until the stop fires.
        # At k = n the search also prunes every node at its largest demand;
        # below k = n, pruning with the k-th demand at every node would cut
        # far more nodes but change every search (ROADMAP item 5).
        stop = max(2 * bisect_left(prefix[0], sum(ranked[:k])) - n, 2 * ranked[k - 1] - n)
        if last is not None:
            stop = max(stop, last.optimum)
        witness: int | None = None  # bitmask of the -1 vertices of the accepted leaf
        count = 0  # vertices the accepted leaf satisfies
        nodes = prunes_w = prunes_s = prunes_r = prunes_lb = 0
        full = k == n  # every vertex satisfiable, so spare = 0 and D is owed
        stack = [(0, -n, room0, short0, 0, sum(lacks))]
        while stack:
            v, floor, room, short, neg, owed = stack.pop()
            nodes += 1
            live = room & top
            alive = live.bit_count()
            if alive < k:
                prunes_s += 1
                continue
            if not full:
                spare = alive - k  # satisfiable vertices the k smallest demands leave out
                live <<= 1
            # descend to each +1 child in place: room, so alive and spare, carry over
            while True:
                if v == n:
                    if floor < cutoff:
                        cutoff = floor  # from now on only strictly lower leaves
                        witness = neg
                        count = alive
                        if floor == stop:
                            prunes_lb += 1
                            stack.clear()
                    break
                if floor >= cutoff:
                    prunes_w += 1
                    break
                q = (cutoff - floor + 1) >> 1
                # at k = n every vertex must be satisfied, so a vertex that
                # still lacks q positives alone puts every leaf below at cutoff
                if full and q <= deepest and (short + adds[q - 1]) & top2:
                    prunes_r += 1
                    break
                # prune when D needs more than q of the largest d_u + 1
                cover = prefix[v]
                most = cover[q - 1] if q <= n - v else cover[-1]
                if full:
                    demand = owed
                else:
                    demand = 0
                    for add in adds:
                        over = ((short + add) & live).bit_count() - spare
                        if over <= 0:
                            break
                        demand += over
                        if demand > most:
                            break
                if demand > most:
                    prunes_r += 1
                    break
                stack.append((v + 1, floor, room - nb[v], short, neg | 1 << v, owed))
                if full:  # a +1 on v gives one owed positive to each vertex of N[v] that lacks one
                    owed -= ((short + adds[0]) & nbhi[v]).bit_count()
                v, floor, short = v + 1, floor + 2, short - nb[v]
                nodes += 1
        if witness is None:
            raise RuntimeError("internal error: the search accepted no leaf")
        best = SignAssignment(tuple([-1 if witness >> v & 1 else 1 for v in range(n)]))
        ev = evaluate(graph, best, mode)
        if ev.weight != cutoff or ev.satisfied_count != count or count < k:
            raise RuntimeError("internal error: the accepted witness is inconsistent")
        results[k] = last = SolveResult(
            optimum=cutoff,
            witness=best,
            satisfied_count=ev.satisfied_count,
            stats=SearchStats(nodes, prunes_w, prunes_s, prunes_r, prunes_lb),
        )
    return results


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
        **{f"stats.{name}": value for name, value in zip(SearchStats._fields, result.stats)},
    }
