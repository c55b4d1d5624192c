#!/usr/bin/env python3
"""Run the benchmark on several seeds and write a results file.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 -o perfbench/baseline.json

For each workload: one untraced run per seed (end-to-end metrics, with
median, quartiles and spread = (q3 - q1) / median over the seeds, plus
the range of single back-to-back passes), then one traced run on the
first seed (per-layer metrics and tracing overhead). Runs are
sequential, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT, WORKLOADS


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed={seed} trace={trace}: {json.dumps(result['metrics'])}", flush=True)
    return {"result": result, "record": record}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def workload_summary(runs: list[dict], traced: dict) -> dict:
    """Seed-to-seed summary of one workload's untraced runs, the range of
    its back-to-back passes, and the traced run's per-layer metrics."""
    names = runs[0]["result"]["metrics"]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    passes = [rnd for r in runs for rnd in r["record"]["rounds"]]
    return {
        "correct": all(r["result"]["correct"] for r in runs + [traced]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {
            name: {
                "unit": names[name]["unit"],
                **summarize([r["result"]["metrics"][name]["value"] for r in runs]),
            }
            for name in names
        },
        "rounds_per_run": [len(r["record"]["rounds"]) for r in runs],
        "pass_range_s": {
            "w1": [min(p["w1_s"] for p in passes), max(p["w1_s"] for p in passes)],
            "w2": [min(p["w2_s"] for p in passes), max(p["w2_s"] for p in passes)],
        },
        "traced_seed": traced["record"]["seed"],
        "per_layer": traced["result"]["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args()

    out = {"seconds": args.seconds, "seeds": args.seeds, "machine": None, "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = bench(workload, args.seeds[0], args.seconds, 1)
        out["machine"] = out["machine"] or runs[0]["record"]["machine"]
        out["workloads"][workload] = workload_summary(runs, traced)
        args.output.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
