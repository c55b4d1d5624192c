"""Closed-form lower bounds on signed-domination weights, as exact rationals.

Every bound is computed with integer/rational arithmetic only: each
rational bound is one Fraction built from an integer numerator and
denominator, and the two square-root bounds are resolved by integer
square-root bracketing so that their ceilings are bit-exact. A report
takes each ceiling once, by integer floor division of the numerator by
the denominator. Parity lifting raises a rational bound to the least
integer of the same parity as n, valid because every achievable weight of
a {-1,+1} assignment on n vertices is congruent to n mod 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .graph import DegreeProfile, Graph, check_ks, degree_profile, is_connected

__all__ = [
    "bound_prior_halfn",
    "bound_prior_deltaceil",
    "bound_prior_hua",
    "bound_nn_1",
    "bound_nn_2",
    "bound_nn_3",
    "bound_nn_4",
    "bound_nn_5",
    "bound_ksub_1",
    "bound_ksub_2",
    "bound_regular",
    "parity_lift",
    "BoundValue",
    "BoundReport",
    "bound_report",
    "bound_reports",
    "BOUND_NAMES",
]

BOUND_NAMES = (
    "prior_halfn",
    "prior_deltaceil",
    "prior_hua",
    "nn1",
    "nn2",
    "nn3",
    "nn4",
    "nn5",
    "ksub1",
    "ksub2",
    "regular",
)


def parity_lift(value: Fraction | int, n: int) -> int:
    """Least integer >= value congruent to n mod 2."""
    c = math.ceil(value)
    return c if (c - n) % 2 == 0 else c + 1


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def bound_prior_halfn(profile: DegreeProfile) -> Fraction:
    """n/2 - m."""
    check_ks(profile.n, ())
    return Fraction(profile.n - 2 * profile.m, 2)


def bound_prior_deltaceil(profile: DegreeProfile) -> Fraction:
    """(-4m + 3n*ceil((delta+1)/2) - n) / (3*ceil((delta+1)/2) + 1)."""
    check_ks(profile.n, ())
    c = (profile.delta + 2) // 2
    return Fraction(-4 * profile.m + 3 * profile.n * c - profile.n, 3 * c + 1)


def bound_prior_hua(profile: DegreeProfile) -> Fraction:
    """(delta - Delta) * n / (delta + Delta + 2)."""
    check_ks(profile.n, ())
    return Fraction((profile.delta - profile.Delta) * profile.n, profile.delta + profile.Delta + 2)


def bound_nn_1(profile: DegreeProfile) -> Fraction:
    """(n*delta - n*Delta + 2*n_e) / (Delta + delta + 2)."""
    check_ks(profile.n, ())
    return Fraction(
        profile.n * profile.delta - profile.n * profile.Delta + 2 * profile.n_e,
        profile.Delta + profile.delta + 2,
    )


def bound_nn_2(profile: DegreeProfile) -> Fraction:
    """(2m + n_e - n*Delta) / (Delta + 1)."""
    check_ks(profile.n, ())
    return Fraction(2 * profile.m + profile.n_e - profile.n * profile.Delta, profile.Delta + 1)


def bound_nn_3(profile: DegreeProfile) -> Fraction:
    """(n*delta + n_e - 2m) / (delta + 1)."""
    check_ks(profile.n, ())
    return Fraction(profile.n * profile.delta + profile.n_e - 2 * profile.m, profile.delta + 1)


def bound_nn_4(profile: DegreeProfile) -> int:
    """ceil((-(delta+1) + sqrt((delta+1)^2 + 8(n*delta + n + n_e))) / 2 - n).

    Computed without real arithmetic: the result is the least integer t
    with 2(t+n) + delta + 1 >= 0 and (2(t+n) + delta + 1)^2 >= the
    radicand, found by taking the least integer y >= sqrt(radicand) of
    the same parity as delta + 1.
    """
    check_ks(profile.n, ())
    a = profile.delta + 1
    x = a * a + 8 * (profile.n * profile.delta + profile.n + profile.n_e)
    y = _ceil_sqrt(x)
    if (y - a) % 2 != 0:
        y += 1
    return (y - a) // 2 - profile.n


def bound_nn_5(profile: DegreeProfile) -> int:
    """ceil(sqrt(2m + n + n_e) - n), via exact integer square root."""
    check_ks(profile.n, ())
    return _ceil_sqrt(2 * profile.m + profile.n + profile.n_e) - profile.n


def bound_ksub_1(profile: DegreeProfile, k: int) -> Fraction:
    """2 * sum_{i<=k} ceil((d_i+1)/2) / (Delta + 1) - n, over the k smallest degrees."""
    check_ks(profile.n, (k,))
    size = profile.Delta + 1
    return Fraction(2 * profile.ceil_half_sum(k) - profile.n * size, size)


def bound_ksub_2(profile: DegreeProfile, k: int) -> Fraction:
    """(n*delta - 4m - n + 2 * sum_{i<=k} ceil((d_i+1)/2)) / (delta + 1)."""
    check_ks(profile.n, (k,))
    return Fraction(
        profile.n * profile.delta - 4 * profile.m - profile.n + 2 * profile.ceil_half_sum(k),
        profile.delta + 1,
    )


def bound_regular(profile: DegreeProfile, k: int) -> Fraction:
    """Lower bound for r-regular graphs: k(r+2)/(r+1) - n for even r, k - n
    for odd r; k = n gives the full-domination form.
    """
    check_ks(profile.n, (k,))
    if not profile.is_regular:
        raise ValueError("bound_regular requires a regular graph")
    r = profile.delta
    if r % 2 == 0:
        return Fraction(k * (r + 2) - profile.n * (r + 1), r + 1)
    return Fraction(k - profile.n)


@dataclass(frozen=True)
class BoundValue:
    """One bound's exact value, its ceiling, and the parity-lifted integer
    form; a report keys it by the bound's name. ``applicable`` is False
    when the bound's hypothesis (connectivity, k = n, regularity) does not
    hold for the graph at hand; the value is still reported when it is
    defined.
    """

    raw: Fraction | None
    ceil: int | None
    parity_lifted: int | None
    applicable: bool


@dataclass(frozen=True)
class BoundReport:
    """All named bounds for one graph and one subdomination parameter k."""

    n: int
    k: int
    connected: bool
    bounds: Mapping[str, BoundValue]

    def __getitem__(self, name: str) -> BoundValue:
        return self.bounds[name]

    def best_applicable_lifted(self) -> int:
        """Strongest parity-lifted lower bound among applicable entries."""
        candidates = [
            b.parity_lifted
            for b in self.bounds.values()
            if b.applicable and b.parity_lifted is not None
        ]
        if not candidates:
            raise ValueError("no applicable bound available")
        return max(candidates)

    def to_record(self) -> dict[str, object]:
        """Flat record with stable field names, for CSV rows or JSON lines."""
        record: dict[str, object] = {"n": self.n, "k": self.k, "connected": self.connected}
        for name in BOUND_NAMES:
            b = self.bounds[name]
            record[f"bound.{name}.raw"] = "" if b.raw is None else str(b.raw)
            record[f"bound.{name}.ceil"] = "" if b.ceil is None else b.ceil
            record[f"bound.{name}.lifted"] = "" if b.parity_lifted is None else b.parity_lifted
            record[f"bound.{name}.applicable"] = b.applicable
        return record


def _value(raw: Fraction | int, n: int, applicable: bool) -> BoundValue:
    if isinstance(raw, int):  # nn4 and nn5 are integers already
        raw = Fraction(raw)
    ceil = -(-raw.numerator // raw.denominator)
    return BoundValue(raw, ceil, ceil + (ceil - n) % 2, applicable)


def bound_report(graph: Graph, k: int) -> BoundReport:
    """Evaluate every named bound on ``graph`` for parameter ``k``: the
    one-k case of :func:`bound_reports`."""
    return bound_reports(degree_profile(graph), is_connected(graph), (k,))[k]


def bound_reports(profile: DegreeProfile, connected: bool, ks: Iterable[int]) -> dict[int, BoundReport]:
    """Evaluate every named bound on the graph with degree profile
    ``profile`` and connectivity ``connected`` for each parameter k in
    ``ks``, keyed by k in ascending order.

    Full-domination bounds (the prior_* and nn* families) constrain only
    the k = n problem, so they are flagged inapplicable for k < n; the nn*
    family additionally requires a connected graph. The ksub bounds hold
    for any graph and any valid k. The regular-graph bound is reported
    with empty values on non-regular graphs. The full-domination bounds,
    which do not depend on k, are computed once for all of ``ks``.
    """
    ks = check_ks(profile.n, ks)
    n = profile.n
    full = {  # name -> its value at k = n, where it may apply
        "prior_halfn": _value(bound_prior_halfn(profile), n, True),
        "prior_deltaceil": _value(bound_prior_deltaceil(profile), n, True),
        "prior_hua": _value(bound_prior_hua(profile), n, True),
        "nn1": _value(bound_nn_1(profile), n, connected),
        "nn2": _value(bound_nn_2(profile), n, connected),
        "nn3": _value(bound_nn_3(profile), n, connected),
        "nn4": _value(bound_nn_4(profile), n, connected),
        "nn5": _value(bound_nn_5(profile), n, connected),
    }
    below = {}  # the same values at k < n, where none applies
    if ks and ks[0] < n:
        below = {name: replace(b, applicable=False) for name, b in full.items()}
    reports: dict[int, BoundReport] = {}
    for k in ks:
        bounds = dict(full if k == n else below)
        bounds["ksub1"] = _value(bound_ksub_1(profile, k), n, True)
        bounds["ksub2"] = _value(bound_ksub_2(profile, k), n, True)
        if profile.is_regular:
            bounds["regular"] = _value(bound_regular(profile, k), n, True)
        else:
            bounds["regular"] = BoundValue(None, None, None, False)
        reports[k] = BoundReport(n=n, k=k, connected=connected, bounds=bounds)
    return reports
