#!/usr/bin/env python3
"""Outside-in benchmark for signdom.

    python3 perfbench/run.py --workload solve-full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every workload is closed loop: one caller, and each call waits for the
previous one. A run alternates a 1-worker pass and a 2-worker pass until
``--seconds`` is used up, and reports medians over the passes.

  campaign    ``run_campaign()`` on the default ensemble, its G(n, p) base
              seed taken from ``--seed`` (seed 1 is the package default).
              The 2-worker pass is ``run_campaign(workers=2)``.
  solve-full  ``solve_bnb`` at k = n over the suite in ``suite.py``.
  solve-sub   ``solve_bnb`` at k = floor(n/2) over its suite.
              Their 2-worker pass solves the suite on a pool of 2 processes.

With ``--trace 0`` the run reports the end-to-end metrics, untraced. With
``--trace 1`` it adds traced passes (see ``spans.py``) and reports the
per-layer metrics plus the tracing overhead. Every output is checked
(see ``check_solves`` and ``check_campaign``); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Raw per-pass numbers, the machine record and, when traced,
the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import spans
import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pinned.json"

WORKLOADS = ("campaign", "solve-full", "solve-sub")
# Set-up is timed this many times before and again after the measured
# passes, so its median spans the run as the other metrics do.
SETUP_REPEATS = 5
STATS_FIELDS = ("nodes", "prunes_weight", "prunes_satisfiability", "prunes_global_lb")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import signdom\n"
    "print(time.process_time() - t)\n"
)

# Single-process work is timed in CPU time of this process. On a shared
# virtual machine the hypervisor steals a varying share of each vCPU
# (measured: 0 to 40 % over a few seconds), which lands in elapsed time
# but not in CPU time; for the single-threaded, compute-bound calls timed
# here CPU time is the elapsed time they take when nothing is stolen.
# The 2-worker passes span processes and are timed in elapsed time.
cpu_clock = time.process_time
wall_clock = time.perf_counter


def _stats_tuple(stats) -> tuple[int, ...]:
    return tuple(getattr(stats, name, 0) for name in STATS_FIELDS)


def solve_one(solver, graph, k, mode):
    """One solve, as (optimum, witness string, stats) or the error text."""
    try:
        res = solver.solve_bnb(graph, k, mode)
        return (res.optimum, res.witness.to_string(), _stats_tuple(res.stats))
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def solve_task(task):
    """Pool entry point of the 2-worker solve pass."""
    from signdom import solver

    return solve_one(solver, *task)


class CampaignWorkload:
    def __init__(self, sd, seed: int):
        self.sd = sd
        per_cell = sd.EnsembleSpec().seeds_per_cell
        self.spec = sd.EnsembleSpec(base_seed=(seed - 1) * per_cell)
        self.graph_count = None

    def build(self) -> None:
        self.graph_count = len(self.sd.verify.build_ensemble(self.spec))

    def run_pass(self, workers: int):
        """(seconds, per-call seconds, outputs) of one pass; CPU seconds at
        1 worker, elapsed seconds at 2. The campaign pass is one call."""
        clock = cpu_clock if workers == 1 else wall_clock
        start = clock()
        try:
            report = self.sd.verify.run_campaign(self.spec, workers=workers)
        except Exception as exc:
            traceback.print_exc()
            report = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        return elapsed, [elapsed], [report]


class SolveWorkload:
    def __init__(self, sd, seed: int, name: str):
        self.sd = sd
        self.instances = suite.build_suite(name, seed)
        self.texts = [inst.dimacs for inst in self.instances]
        self.graphs = None

    def build(self) -> None:
        self.graphs = [self.sd.graph.parse_dimacs(text) for text in self.texts]

    def tasks(self):
        mode = self.sd.solver.Mode
        return [(g, inst.k, mode(inst.mode)) for g, inst in zip(self.graphs, self.instances)]

    def run_pass(self, workers: int):
        """As ``CampaignWorkload.run_pass``, one call per instance; the
        2-worker pass reports no per-call times."""
        tasks = self.tasks()
        if workers == 1:
            solver = self.sd.solver
            outputs, times = [], []
            start = cpu_clock()
            for graph, k, mode in tasks:
                t0 = cpu_clock()
                outputs.append(solve_one(solver, graph, k, mode))
                times.append(cpu_clock() - t0)
            return cpu_clock() - start, times, outputs
        # fork starts no helper process; spawn and forkserver start a
        # resource tracker (and a fork server) that outlive the pool.
        ctx = multiprocessing.get_context("fork")
        start = wall_clock()
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            outputs = list(pool.map(solve_task, tasks, chunksize=1))
        return wall_clock() - start, [], outputs


def make_workload(sd, name: str, seed: int):
    if name == "campaign":
        return CampaignWorkload(sd, seed)
    return SolveWorkload(sd, seed, name)


# --- correctness -----------------------------------------------------------


def check_solves(sd, workload: SolveWorkload, passes, pins) -> tuple[int, int, list[str], dict]:
    """Check every solve output of every pass.

    The first pass's answer to each instance must be a feasible witness of
    the reported weight (checked by the benchmark's own evaluator), have
    the parity of n, lie at or above every applicable lifted bound, equal
    the MILP optimum when SciPy is present, and equal the pinned optimum
    and canonical witness when the instance is pinned. Every later pass
    must repeat it exactly, search counts included.
    """
    attempted = failed = 0
    problems: list[str] = []
    independent = {"pinned": 0, "milp": 0}
    for i, inst in enumerate(workload.instances):
        ref = passes[0][i]
        if isinstance(ref, str):
            bad = [f"raised {ref}"]
        else:
            opt, wit, _ = ref
            bad = suite.witness_problems(inst, opt, wit)
            if (opt - inst.n) % 2:
                bad.append(f"optimum {opt} has the wrong parity for n={inst.n}")
            lb = sd.bounds.bound_report(workload.graphs[i], inst.k).best_applicable_lifted()
            if opt < lb:
                bad.append(f"optimum {opt} is below the lifted bound {lb}")
            pin = pins.get("solve", {}).get(inst.key)
            if pin is not None:
                independent["pinned"] += 1
                if (opt, wit) != (pin["optimum"], pin["witness"]):
                    bad.append(f"({opt}, {wit}) != pinned ({pin['optimum']}, {pin['witness']})")
            exact = suite.milp_optimum(inst)
            if exact is not None:
                independent["milp"] += 1
                if opt != exact:
                    bad.append(f"optimum {opt} != MILP optimum {exact}")
        for outputs in passes:
            attempted += 1
            out = outputs[i]
            why = bad if out == ref else [f"{out!r} differs from the first pass {ref!r}"]
            if why:
                failed += 1
                problems.append(f"{inst.label} k={inst.k} {inst.mode}: {'; '.join(why)}")
    return attempted, failed, problems, independent


def _report_body(report) -> dict:
    body = report.to_dict()
    body.pop("generated_at", None)
    return body


def check_campaign(sd, workload: CampaignWorkload, passes, pins) -> tuple[int, int, list[str], dict]:
    """Check every campaign report: one output per check tally.

    A report must pass every check, cover the ensemble built in set-up and
    every check name, record at least one result, repeat the first report
    exactly (worker count included), and match the pinned graph count and
    per-check pass counts when its base seed is pinned.
    """
    names = set(sd.verify.CHECK_NAMES)
    pin = pins.get("campaign", {}).get(str(workload.spec.base_seed))
    reports = [outputs[0] for outputs in passes]
    first = reports[0] if not isinstance(reports[0], str) else None
    attempted = failed = 0
    problems: list[str] = []
    for report in reports:
        attempted += len(names)
        if isinstance(report, str):
            failed += len(names)
            problems.append(f"run_campaign raised {report}")
            continue
        bad = []
        if _report_body(report) != _report_body(first):
            bad.append("report differs from the first pass")
        if report.graph_count != workload.graph_count:
            bad.append(f"graph_count {report.graph_count} != ensemble size {workload.graph_count}")
        if {c.name for c in report.checks} != names:
            bad.append("report does not cover every check")
        if sum(c.passed + c.failed for c in report.checks) == 0:
            bad.append("campaign recorded no check results")
        if not report.all_passed:
            bad.append("all_passed is false")
        if pin is not None and report.graph_count != pin["graph_count"]:
            bad.append(f"graph_count {report.graph_count} != pinned {pin['graph_count']}")
        for c in report.checks:
            why = list(bad)
            if c.failed:
                why.append(f"{c.failed} failures")
            if pin is not None and c.passed != pin["passed"].get(c.name):
                why.append(f"passed {c.passed} != pinned {pin['passed'].get(c.name)}")
            if why:
                failed += 1
                problems.append(f"{c.name}: {'; '.join(why)}")
    return attempted, failed, problems, {"pinned": len(reports) if pin else 0}


def check(sd, workload, passes, pins):
    if isinstance(workload, CampaignWorkload):
        return check_campaign(sd, workload, passes, pins)
    return check_solves(sd, workload, passes, pins)


# --- set-up and measurement ------------------------------------------------


def time_import() -> float:
    """Seconds to import signdom in a fresh interpreter (stdlib deps included)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def time_setup(workload, setup: dict) -> None:
    """Add SETUP_REPEATS import and input-build times to ``setup``."""
    setup["import_s"] += [time_import() for _ in range(SETUP_REPEATS)]
    for _ in range(SETUP_REPEATS):
        start = cpu_clock()
        workload.build()
        setup["build_s"].append(cpu_clock() - start)


def traced_iteration(workload):
    """Set-up build plus one 1-worker pass, with every TARGETS function wrapped."""
    tracer = spans.Tracer()
    with tracer:
        workload.build()
        elapsed, _, outputs = workload.run_pass(1)
    return tracer, elapsed, outputs


def measure(workload, seconds: float, traced: bool) -> dict:
    rounds = []
    passes = []
    start = wall_clock()
    while True:
        r0 = wall_clock()
        one = workload.run_pass(1)
        two = workload.run_pass(2)
        passes += [one[2], two[2]]
        rnd = {"w1_s": one[0], "w1_call_s": one[1], "w2_s": two[0]}
        if traced:
            tracer, elapsed, outputs = traced_iteration(workload)
            passes.append(outputs)
            rnd["traced_w1_s"] = elapsed
            rnd["tracer"] = tracer
            rnd["outputs"] = outputs
        rnd["round_s"] = wall_clock() - r0
        rounds.append(rnd)
        # Start another round only if it would end nearer the target.
        if wall_clock() - start + statistics.median(r["round_s"] for r in rounds) / 2 >= seconds:
            break
    return {"rounds": rounds, "passes": passes, "measured_s": wall_clock() - start}


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    """Each call of the 1-worker pass is timed on every round; its median
    over the rounds rejects a slow spell of the machine that hits one
    round only. ``wall_s`` sums those medians over the calls of a pass and
    ``solve_max_s`` is the largest; the campaign pass is a single call."""
    med = statistics.median
    per_call = [med(times) for times in zip(*(r["w1_call_s"] for r in rounds))]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(per_call), "unit": "s"},
        "wall_2w_s": {"value": med(r["w2_s"] for r in rounds), "unit": "s"},
        "solve_max_s": {"value": max(per_call), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(sd, rounds) -> dict:
    """Per-layer numbers from the traced iterations: times are medians
    over iterations, counts come from the first (they repeat exactly)."""
    med = statistics.median
    sums = [spans.summarize(r["tracer"].spans) for r in rounds]
    traced_s = [r["traced_w1_s"] for r in rounds]
    untraced_s = med(r["w1_s"] for r in rounds)

    def get(name, field, i=0):
        return sums[i].get(name, {}).get(field, 0)

    def time_of(name, field="s"):
        return med(get(name, field, i) for i in range(len(sums)))

    def share(name):
        return med(get(name, "s", i) / traced_s[i] for i in range(len(sums)))

    captured = rounds[0]["tracer"].captured
    totals = dict.fromkeys(STATS_FIELDS, 0)
    greedy_gap = root_gap = 0
    for (graph, k, mode, *_), result in captured:
        for name, value in zip(STATS_FIELDS, _stats_tuple(result.stats)):
            totals[name] += value
        greedy_gap += sd.solver.greedy_upper(graph, k, mode).weight - result.optimum
        root_gap += result.optimum - sd.bounds.bound_report(graph, k).best_applicable_lifted()

    report = rounds[0]["outputs"][0]
    campaign = hasattr(report, "checks")
    bnb_self = time_of("solver.solve_bnb", "self_s")
    overhead = med(traced_s) - untraced_s
    values = {
        "bounds.bound_report.calls": (get("bounds.bound_report", "calls"), "count"),
        "bounds.bound_report.s": (time_of("bounds.bound_report"), "s"),
        "bounds.bound_report.share": (share("bounds.bound_report"), "frac"),
        "solver.solve_bnb.calls": (get("solver.solve_bnb", "calls"), "count"),
        "solver.solve_bnb.s": (time_of("solver.solve_bnb"), "s"),
        "solver.solve_bnb.self_s": (bnb_self, "s"),
        "solver.witness.s": (time_of("solver.witness"), "s"),
        "solver.witness.share": (share("solver.witness"), "frac"),
        "solver.nodes": (totals["nodes"], "count"),
        "solver.prunes_weight": (totals["prunes_weight"], "count"),
        "solver.prunes_satisfiability": (totals["prunes_satisfiability"], "count"),
        "solver.prunes_global_lb": (totals["prunes_global_lb"], "count"),
        "solver.nodes_per_s": (totals["nodes"] / bnb_self if bnb_self > 0 else 0.0, "1/s"),
        "solver.greedy_upper.s": (time_of("solver.greedy_upper"), "s"),
        "solver.greedy_gap": (greedy_gap, "weight"),
        "solver.root_gap": (root_gap, "weight"),
        "solver.solve_bruteforce.calls": (get("solver.solve_bruteforce", "calls"), "count"),
        "solver.solve_bruteforce.s": (time_of("solver.solve_bruteforce"), "s"),
        "solver.evaluate.calls": (get("solver.evaluate", "calls"), "count"),
        "solver.evaluate.s": (time_of("solver.evaluate"), "s"),
        "graph.parse_dimacs.s": (time_of("graph.parse_dimacs"), "s"),
        "graph.degree_profile.calls": (get("graph.degree_profile", "calls"), "count"),
        "graph.degree_profile.s": (time_of("graph.degree_profile"), "s"),
        "graph.is_connected.s": (time_of("graph.is_connected"), "s"),
        "verify.build_ensemble.s": (time_of("verify.build_ensemble"), "s"),
        "verify.self_s": (time_of("verify.run_campaign", "self_s"), "s"),
        "verify.graphs": (report.graph_count if campaign else 0, "count"),
        "verify.checks_recorded": (
            sum(c.passed + c.failed for c in report.checks) if campaign else 0,
            "count",
        ),
        "verify.parallel_efficiency": (
            untraced_s / (2 * med(r["w2_s"] for r in rounds)),
            "frac",
        ),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / untraced_s, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# --- records ---------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Content hash of the package sources; identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}


# --- entry -----------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    """One benchmark run; returns the full record (the result line is its
    ``result`` entry)."""
    import signdom as sd

    workload = make_workload(sd, workload_name, seed)
    if trace:
        workload.build()
        setup = None
    else:
        setup = {"import_s": [], "build_s": []}
        time_setup(workload, setup)
    measured = measure(workload, seconds, trace)
    rounds = measured["rounds"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if setup is not None:
        time_setup(workload, setup)
        setup["setup_s"] = statistics.median(setup["import_s"]) + statistics.median(setup["build_s"])

    attempted, failed, problems, independent = check(sd, workload, measured["passes"], pins)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        metrics = per_layer(sd, rounds)
    else:
        metrics = end_to_end(rounds, setup["setup_s"], peak_rss_mb)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_record(),
        "setup": setup,
        "rounds": [
            {k: v for k, v in r.items() if k not in ("tracer", "outputs")} for r in rounds
        ],
        "measured_s": measured["measured_s"],
        "independent_checks": independent,
        "failed_frac": failed / attempted,
        "problems": problems,
        "result": result,
        "_tracers": [r["tracer"] for r in rounds] if trace else [],
    }


def write_out(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    tracers = record.pop("_tracers")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracers:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for it, tracer in enumerate(tracers):
                for idx, (name, parent, start, end) in enumerate(tracer.spans):
                    fh.write(json.dumps([it, idx, parent, name, start, end]) + "\n")


def stop_children() -> None:
    """Wait for every process this run started, helpers included, so no
    process outlives the benchmark."""
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "signdom" / "__init__.py").is_file():
        print(f"error: no signdom package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), load_pins())
    finally:
        stop_children()
    write_out(record)
    print(json.dumps({"machine": record["machine"], "independent_checks": record["independent_checks"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
