"""Independent oracles for the test suite.

These recompute optima and bound ceilings by the most literal method
available (full enumeration with itertools.product, rational square-root
bracketing, a 0/1 program for SciPy's HiGHS above the enumeration's
reach) and deliberately share no code with the package's bitset
enumeration, branch-and-bound, or parity-based ceiling tricks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from signdom import Graph, Mode


def naive_closed_sums(graph: Graph, values: tuple[int, ...]) -> list[int]:
    return [
        values[v] + sum(values[u] for u in nbrs)
        for v, nbrs in enumerate(graph.adjacency)
    ]


def naive_minimum(graph: Graph, k: int, mode: Mode) -> tuple[int, tuple[int, ...]]:
    """Exact optimum and lexicographically smallest witness (+1 < -1),
    by trying all 2^n sign vectors in lexicographic order."""
    n = graph.vertex_count
    assert 1 <= k <= n
    tau = mode.threshold
    best_weight: int | None = None
    best_values: tuple[int, ...] | None = None
    for values in itertools.product((1, -1), repeat=n):
        sums = naive_closed_sums(graph, values)
        if sum(1 for s in sums if s >= tau) >= k:
            weight = sum(values)
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_values = values
    assert best_weight is not None and best_values is not None
    return best_weight, best_values


def ceil_sqrt_affine(offset: Fraction, coeff: Fraction, x: int) -> int:
    """ceil(offset + coeff * sqrt(x)) for integer x >= 0 and coeff > 0,
    by refining a rational bracket of sqrt(x) until the ceiling is pinned."""
    root = math.isqrt(x)
    if root * root == x:
        return math.ceil(offset + coeff * root)
    scale = 1 << 10
    while True:
        s = math.isqrt(x * scale * scale)
        lo = offset + coeff * Fraction(s, scale)
        hi = offset + coeff * Fraction(s + 1, scale)
        if math.ceil(lo) == math.ceil(hi):
            return math.ceil(lo)
        scale <<= 10


def oracle_nn4(n: int, delta: int, n_e: int) -> int:
    a = delta + 1
    x = a * a + 8 * (n * delta + n + n_e)
    return ceil_sqrt_affine(Fraction(-a, 2) - n, Fraction(1, 2), x)


def oracle_nn5(n: int, m: int, n_e: int) -> int:
    return ceil_sqrt_affine(Fraction(-n), Fraction(1), 2 * m + n + n_e)


def prior_halfn(graph: Graph) -> Fraction:
    """n/2 - m, in Fraction arithmetic."""
    return Fraction(graph.vertex_count, 2) - graph.edge_count


def ksub1(graph: Graph, k: int) -> Fraction:
    """2 * sum_{i<=k} ceil((d_i+1)/2) / (Delta + 1) - n, in Fraction arithmetic."""
    degrees = sorted(len(nbrs) for nbrs in graph.adjacency)
    ceil_half = sum(math.ceil(Fraction(d + 1, 2)) for d in degrees[:k])
    return Fraction(2 * ceil_half, degrees[-1] + 1) - graph.vertex_count


def regular(graph: Graph, k: int) -> Fraction:
    """k(r+2)/(r+1) - n for even r, k - n for odd r, on an r-regular graph."""
    r = len(graph.adjacency[0])
    if r % 2 == 0:
        return Fraction(k * (r + 2), r + 1) - graph.vertex_count
    return Fraction(k - graph.vertex_count)


def greedy_sweep(graph: Graph, k: int, mode: Mode) -> tuple[int, ...]:
    """The greedy sweep as first written: from all-(+1), in (degree, id)
    order, flip a vertex to -1 when at least k vertices stay satisfied,
    keeping every closed sum in a list."""
    n = graph.vertex_count
    tau = mode.threshold
    signs = [1] * n
    adj = graph.adjacency
    sums = [len(adj[v]) + 1 for v in range(n)]
    satisfied = n
    for v in sorted(range(n), key=lambda v: (len(adj[v]), v)):
        closed = adj[v] | {v}
        lost = sum(1 for u in closed if tau <= sums[u] < tau + 2)
        if satisfied - lost >= k:
            signs[v] = -1
            for u in closed:
                sums[u] -= 2
            satisfied -= lost
    return tuple(signs)


def _milp_program(graph: Graph, k: int, mode: Mode, weight: int | None = None):
    """The 0/1 program over (x, s) as SciPy's ``milp`` and its constraint.
    SciPy is imported here, so only its callers need it.

    x_v = 1 marks a negative vertex and s_v = 1 a satisfied one. Vertex v
    is satisfied when 2 * |N[v] & negatives| <= d_v + 1 - tau; the term
    (d_v + 1 + tau) * (1 - s_v) relaxes that row fully when s_v = 0. One
    row asks for at least k satisfied vertices and, when ``weight`` is
    given, one fixes the number of negatives to match it.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    n, tau = graph.vertex_count, mode.threshold
    rows = n + 1 + (weight is not None)
    a = np.zeros((rows, 2 * n))
    lower, upper = np.full(rows, -np.inf), np.full(rows, np.inf)
    for v in range(n):
        closed = [v, *graph.adjacency[v]]
        a[v, closed] = 2
        a[v, n + v] = len(closed) + tau
        upper[v] = 2 * len(closed)
    a[n, n:] = 1
    lower[n] = k
    if weight is not None:
        a[n + 1, :n] = 1
        lower[n + 1] = upper[n + 1] = (n - weight) // 2
    return milp, LinearConstraint(a, lower, upper)


def milp_optimum(graph: Graph, k: int, mode: Mode) -> int:
    """Optimum of the 0/1 program, solved by SciPy's HiGHS."""
    milp, constraint = _milp_program(graph, k, mode)
    n = graph.vertex_count
    res = milp([-2.0] * n + [0.0] * n, constraints=constraint, integrality=[1] * (2 * n), bounds=(0, 1))
    assert res.success, res.message
    return n + round(res.fun)


def milp_lexmin_witness(graph: Graph, k: int, mode: Mode, optimum: int) -> tuple[int, ...]:
    """Lexicographically smallest (+1 < -1, vertex 0 first) sign vector of
    weight ``optimum`` that satisfies at least k vertices, by fixing one
    vertex at a time and asking the 0/1 program whether a completion
    exists."""
    milp, constraint = _milp_program(graph, k, mode, weight=optimum)
    n = graph.vertex_count
    lo, hi = [0] * (2 * n), [1] * (2 * n)
    signs = []
    for v in range(n):
        hi[v] = 0  # try +1 at v
        res = milp([0.0] * (2 * n), constraints=constraint, integrality=[1] * (2 * n), bounds=(lo, hi))
        if res.status == 0:
            signs.append(1)
        else:
            assert res.status == 2, res.message  # infeasible: v must be -1
            hi[v] = lo[v] = 1
            signs.append(-1)
    return tuple(signs)
