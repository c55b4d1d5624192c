"""Closed-form exact values for graph families, used as regression ground truth.

Every entry is reproducible with the exact solvers; the test suite does
exactly that. Values live in code rather than a data file so that a
failing regression prints its derivation note.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FAMILIES, Graph
from .solver import Mode

__all__ = [
    "ReferenceValue",
    "exact_cycle_signed",
    "exact_cycle_nn",
    "exact_path_signed",
    "exact_complete_nn",
    "exact_sun_nn",
    "exact_hajos_nn",
    "reference_table",
]


def exact_cycle_signed(n: int) -> int:
    """Signed full-domination optimum of the cycle C_n:
    n/3, floor(n/3)+1, floor(n/3)+2 for n = 0, 1, 2 mod 3."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    r = n % 3
    if r == 0:
        return n // 3
    return n // 3 + r


def exact_cycle_nn(n: int) -> int:
    """Nonneg full-domination optimum of C_n. Every cycle vertex has even
    degree, which forces equality with the signed value."""
    return exact_cycle_signed(n)


def exact_path_signed(n: int) -> int:
    """Signed full-domination optimum of the path P_n: n - 2*floor((n-2)/3)
    for n >= 2 (Dunbar, Hedetniemi, Henning and Slater, 1995). Both
    endpoints and their neighbours are forced to +1."""
    if n < 2:
        raise ValueError("paths need n >= 2")
    return n - 2 * ((n - 2) // 3)


def exact_complete_nn(n: int) -> int:
    """Nonneg full-domination optimum of K_n: every closed neighborhood is
    all of V, so every closed sum equals the weight, and the least
    nonnegative achievable weight is n mod 2."""
    if n < 1:
        raise ValueError("complete graphs need n >= 1")
    return n % 2


def exact_sun_nn(t: int) -> int:
    """Nonneg full-domination optimum of the sun gadget on 4t vertices: the
    cycle-positive / gadget-negative assignment has weight 0 and meets
    the degree-based lower bounds, which are all 0 for this family."""
    if t < 2:
        raise ValueError("sun gadget needs t >= 2")
    return 0


def exact_hajos_nn() -> int:
    """Nonneg full-domination optimum of the Hajos graph: the
    triangle-positive assignment has weight 0 and meets the square-root
    lower bounds, which are both 0 here."""
    return 0


@dataclass(frozen=True)
class ReferenceValue:
    """One known exact value: family, parameters, k (symbolic "n" for full
    domination), mode, the value, and a short derivation note."""

    family: str
    params: tuple[tuple[str, int], ...]
    k: str
    mode: Mode
    value: int
    provenance: str

    def build_graph(self) -> Graph:
        build, reads = FAMILIES[self.family]
        params = dict(self.params)
        return build(*(params[name] for name in reads))


_CYCLE_NOTE = "closed form by residue of n mod 3 (classical result for signed domination of cycles)"
_CYCLE_NN_NOTE = "equals the signed value: cycles are even graphs, where both modes coincide"
_PATH_NOTE = "n - 2*floor((n-2)/3) (Dunbar, Hedetniemi, Henning and Slater, 1995)"
_COMPLETE_NOTE = "every closed sum in K_n equals the weight; least feasible weight is n mod 2"
_SUN_NOTE = "cycle-positive/gadget-negative assignment of weight 0 meets the degree-based bounds"
_HAJOS_NOTE = "triangle-positive assignment of weight 0 meets the square-root bounds"


def reference_table() -> tuple[ReferenceValue, ...]:
    """The full table of known values across standard parameter ranges."""
    rows: list[ReferenceValue] = []
    for n in range(1, 13):
        rows.append(
            ReferenceValue("complete", (("n", n),), "n", Mode.NONNEG, exact_complete_nn(n), _COMPLETE_NOTE)
        )
    for n in range(3, 21):
        rows.append(
            ReferenceValue("cycle", (("n", n),), "n", Mode.SIGNED, exact_cycle_signed(n), _CYCLE_NOTE)
        )
        rows.append(
            ReferenceValue("cycle", (("n", n),), "n", Mode.NONNEG, exact_cycle_nn(n), _CYCLE_NN_NOTE)
        )
    for n in range(2, 21):
        rows.append(
            ReferenceValue("path", (("n", n),), "n", Mode.SIGNED, exact_path_signed(n), _PATH_NOTE)
        )
    for t in range(2, 6):
        rows.append(ReferenceValue("sun", (("t", t),), "n", Mode.NONNEG, exact_sun_nn(t), _SUN_NOTE))
    rows.append(ReferenceValue("hajos", (), "n", Mode.NONNEG, exact_hajos_nn(), _HAJOS_NOTE))
    return tuple(rows)
