#!/usr/bin/env python3
"""Write ``perfbench/pinned.json``: answers for the pinned seed, each
checked by a method other than the branch-and-bound solver.

    python3 perfbench/pin.py

Solve instances are keyed by graph content, k and mode, so the fixed
instances are checked on every seed and the random draws on the pinned
seed. Each optimum is confirmed by every method that applies:

  reference.*        closed forms in signdom.reference (C_n signed and
                     sun(t) nonneg at k = n),
  solve_bruteforce   exhaustive search, n <= 20 (optimum and witness),
  milp               the 0/1 program in suite.py (SciPy HiGHS),
  milp-lexmin        the canonical witness rebuilt vertex by vertex
                     with the same program.

The campaign pin is the default ensemble's graph count, per-check pass
counts and all_passed. The script refuses to write on any disagreement.
"""

from __future__ import annotations

import json
import sys

import suite
from run import PINS, SRC, CampaignWorkload

PIN_SEED = 1


def pin_instance(sd, inst: suite.Instance) -> dict:
    graph = sd.parse_dimacs(inst.dimacs)
    mode = sd.Mode(inst.mode)
    res = sd.solve_bnb(graph, inst.k, mode)
    opt, wit = res.optimum, res.witness.to_string()
    checks = {}
    if inst.k == inst.n and inst.label.startswith("cycle(") and inst.mode == "signed":
        checks["reference.exact_cycle_signed"] = (sd.exact_cycle_signed(inst.n), None)
    if inst.k == inst.n and inst.label.startswith("sun(") and inst.mode == "nonneg":
        checks["reference.exact_sun_nn"] = (sd.exact_sun_nn(inst.n // 4), None)
    if inst.n <= sd.BRUTE_FORCE_CAP:
        brute = sd.solve_bruteforce(graph, inst.k, mode)
        checks["solve_bruteforce"] = (brute.optimum, brute.witness.to_string())
    exact = suite.milp_optimum(inst)
    if exact is not None:
        checks["milp"] = (exact, None)
        checks["milp-lexmin"] = (exact, suite.milp_lexmin_witness(inst, exact))
    if not checks:
        raise SystemExit(f"{inst.label}: no independent check applies")
    for method, (other_opt, other_wit) in checks.items():
        if other_opt != opt or (other_wit is not None and other_wit != wit):
            raise SystemExit(
                f"{inst.label} k={inst.k} {inst.mode}: solve_bnb ({opt}, {wit}) "
                f"!= {method} ({other_opt}, {other_wit})"
            )
    problems = suite.witness_problems(inst, opt, wit)
    if problems:
        raise SystemExit(f"{inst.label}: {problems}")
    print(f"{inst.label} k={inst.k} {inst.mode}: {opt} {wit} [{', '.join(checks)}]", flush=True)
    return {"label": inst.label, "optimum": opt, "witness": wit, "checked_by": sorted(checks)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import signdom as sd

    solve = {}
    for workload in suite.SUITES:
        for inst in suite.build_suite(workload, PIN_SEED):
            if inst.key not in solve:
                solve[inst.key] = pin_instance(sd, inst)
    spec = CampaignWorkload(sd, PIN_SEED).spec
    report = sd.run_campaign(spec)
    if not report.all_passed:
        raise SystemExit("default campaign does not pass")
    campaign = {
        str(spec.base_seed): {
            "graph_count": report.graph_count,
            "all_passed": report.all_passed,
            "passed": {c.name: c.passed for c in report.checks},
        }
    }
    PINS.write_text(json.dumps({"seed": PIN_SEED, "solve": solve, "campaign": campaign}, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
