"""Benchmark inputs and the checks that do not rely on signdom.

The benchmark makes its own graphs: fixed families (cycle, sun gadget)
and seeded random draws from Python's ``random.Random``, written as
DIMACS text. signdom only ever sees that text, parsed by its own
``parse_dimacs`` during set-up. The evaluator and the MILP oracle here
are independent of the package and decide whether its answers are right.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

MODES = ("nonneg", "signed")

# Solve suites. Fixed instances are the same on every seed; each random
# cell (n, p, draws) adds `draws` graphs per seed, each solved in both
# modes. A draw has exactly round(p * n(n-1)/2) edges, chosen uniformly
# (G(n, m) at the density of G(n, p)): fixing the edge count removes the
# largest source of seed-to-seed variation in solve time.
#
# The seed-to-seed spread of a suite's total is about sqrt(sum of cv^2 * mu
# over its draws) / total, where mu is a draw's mean solve time and cv its
# coefficient of variation over draws. Measured per solve on 2 vCPUs:
# cv^2 * mu is about 0.003 s at n = 16, 0.008 s at n = 18 and 0.016 s at
# n = 20 (p = 0.5, both modes), so many n = 16 draws give the steadiest
# total for the time; at that size search and witness still take nearly
# all of a solve. The fixed instances carry the seed-independent
# extremes: C_40 spends all its time in witness search and is the slowest
# solve of its suite; sun(6) stops at the global lower bound at k = n,
# and at k = 12 it is a deep search with no witness work and the slowest
# solve of its suite.
SUITES = {
    "solve-full": {
        "k": "full",
        "fixed": (("cycle", 40, ("signed",)), ("sun", 6, MODES)),
        "cells": ((16, 0.5, 40),),
    },
    "solve-sub": {
        "k": "half",
        "fixed": (("sun", 6, MODES),),
        "cells": ((16, 0.5, 20),),
    },
}

THRESHOLD = {"nonneg": 0, "signed": 1}


@dataclass(frozen=True)
class Instance:
    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    mode: str

    @property
    def dimacs(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}\n"]
        lines.extend(f"e {u + 1} {v + 1}\n" for u, v in self.edges)
        return "".join(lines)

    @property
    def key(self) -> str:
        """Content key for pinned answers: graph text, k and mode."""
        digest = hashlib.sha256(self.dimacs.encode("ascii")).hexdigest()[:16]
        return f"{digest}:k={self.k}:{self.mode}"


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def cycle_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({_edge(i, (i + 1) % n) for i in range(n)}))


def sun_edges(t: int) -> tuple[tuple[int, int], ...]:
    """Cycle 0..2t-1 plus vertex 2t+i adjacent to i and i+1 (mod 2t)."""
    c = 2 * t
    edges = set(cycle_edges(c))
    for i in range(c):
        edges.add(_edge(i, c + i))
        edges.add(_edge((i + 1) % c, c + i))
    return tuple(sorted(edges))


def gnm_edges(n: int, p: float, seed: int, draw: int) -> tuple[tuple[int, int], ...]:
    """Uniform graph with round(p * n(n-1)/2) edges, from a string-seeded
    ``random.Random`` (reproducible across platforms and Python versions)."""
    rng = random.Random(f"gnm:{n}:{p!r}:{seed}:{draw}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return tuple(sorted(rng.sample(pairs, round(p * len(pairs)))))


def fixed_instance(family: str, size: int) -> tuple[str, int, tuple[tuple[int, int], ...]]:
    if family == "cycle":
        return f"cycle({size})", size, cycle_edges(size)
    if family == "sun":
        return f"sun({size})", 4 * size, sun_edges(size)
    raise ValueError(f"unknown family {family!r}")


def build_suite(workload: str, seed: int) -> list[Instance]:
    spec = SUITES[workload]

    def k_of(n: int) -> int:
        return n if spec["k"] == "full" else n // 2

    out = []
    for family, size, modes in spec["fixed"]:
        label, n, edges = fixed_instance(family, size)
        out.extend(Instance(label, n, edges, k_of(n), mode) for mode in modes)
    for n, p, draws in spec["cells"]:
        for draw in range(draws):
            edges = gnm_edges(n, p, seed, draw)
            label = f"gnm({n},{len(edges)},seed={seed},draw={draw})"
            out.extend(Instance(label, n, edges, k_of(n), mode) for mode in MODES)
    return out


def closed_neighborhoods(n: int, edges) -> list[list[int]]:
    closed = [[v] for v in range(n)]
    for u, v in edges:
        closed[u].append(v)
        closed[v].append(u)
    return closed


def witness_problems(inst: Instance, optimum: int, witness: str) -> list[str]:
    """Why ``witness`` is not a feasible assignment of weight ``optimum``
    (empty when it is)."""
    if len(witness) != inst.n or set(witness) - {"+", "-"}:
        return [f"witness {witness!r} is not a sign string of length {inst.n}"]
    signs = [1 if ch == "+" else -1 for ch in witness]
    problems = []
    if sum(signs) != optimum:
        problems.append(f"witness weight {sum(signs)} != reported optimum {optimum}")
    tau = THRESHOLD[inst.mode]
    satisfied = sum(
        1 for nb in closed_neighborhoods(inst.n, inst.edges) if sum(signs[u] for u in nb) >= tau
    )
    if satisfied < inst.k:
        problems.append(f"witness satisfies {satisfied} < k={inst.k} vertices")
    return problems


def _program(inst: Instance, weight: int | None = None):
    """The 0/1 program over (x, s), as SciPy's ``milp`` and its constraint,
    or None when SciPy is not installed.

    x_v = 1 marks a negative vertex and s_v = 1 a satisfied one. Vertex v
    is satisfied when 2 * |N[v] & negatives| <= d_v + 1 - tau; the term
    (d_v + 1 + tau) * (1 - s_v) relaxes that row fully when s_v = 0. One
    row asks for at least k satisfied vertices and, when ``weight`` is
    given, one fixes the number of negatives to match it.
    """
    try:
        import numpy as np
        from scipy.optimize import LinearConstraint, milp
    except ImportError:
        return None
    n, tau = inst.n, THRESHOLD[inst.mode]
    rows = n + 1 + (weight is not None)
    a = np.zeros((rows, 2 * n))
    lower, upper = np.full(rows, -np.inf), np.full(rows, np.inf)
    for v, nb in enumerate(closed_neighborhoods(n, inst.edges)):
        a[v, nb] = 2
        a[v, n + v] = len(nb) + tau
        upper[v] = 2 * len(nb)
    a[n, n:] = 1
    lower[n] = inst.k
    if weight is not None:
        a[n + 1, :n] = 1
        lower[n + 1] = upper[n + 1] = (n - weight) // 2
    return milp, LinearConstraint(a, lower, upper)


def milp_optimum(inst: Instance) -> int | None:
    """Optimum of the 0/1 program (SciPy's HiGHS), or None without SciPy."""
    program = _program(inst)
    if program is None:
        return None
    milp, constraint = program
    n = inst.n
    cost = [-2.0] * n + [0.0] * n
    res = milp(cost, constraints=constraint, integrality=[1] * (2 * n), bounds=(0, 1))
    if not res.success:
        raise RuntimeError(f"MILP failed on {inst.label}: {res.message}")
    return n + round(res.fun)


def milp_lexmin_witness(inst: Instance, optimum: int) -> str | None:
    """Lexicographically smallest (+ before -, vertex 0 first) feasible
    sign string of weight ``optimum``, by fixing one vertex at a time and
    asking the 0/1 program whether a completion exists; None without SciPy."""
    program = _program(inst, weight=optimum)
    if program is None:
        return None
    milp, constraint = program
    n = inst.n
    lo, hi = [0] * (2 * n), [1] * (2 * n)
    signs = []
    for v in range(n):
        hi[v] = 0  # try +1 at v
        res = milp([0.0] * (2 * n), constraints=constraint, integrality=[1] * (2 * n), bounds=(lo, hi))
        if res.status == 0:
            signs.append("+")
        elif res.status == 2:  # infeasible: v must be negative
            hi[v], lo[v] = 1, 1
            signs.append("-")
        else:
            raise RuntimeError(f"MILP failed on {inst.label}: {res.message}")
    return "".join(signs)
