"""The benchmark's own check that its correctness gate fires.

    python3 -m pytest -q perfbench/test_gate.py

One pinned witness and one pinned optimum are corrupted; the run must
report exactly those two answers as failed on every pass, so
``failed_frac`` is above 0 and the run is marked incorrect.
"""

import copy
import sys

import run
import suite


def test_corrupted_pins_fail_the_run():
    pins = run.load_pins()
    keys = [inst.key for inst in suite.build_suite("solve-full", pins["seed"])]
    witness_key, optimum_key = keys[0], keys[1]
    bad = copy.deepcopy(pins)
    wit = bad["solve"][witness_key]["witness"]
    bad["solve"][witness_key]["witness"] = ("-" if wit[0] == "+" else "+") + wit[1:]
    bad["solve"][optimum_key]["optimum"] += 2

    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    record = run.run("solve-full", pins["seed"], 0, False, bad)
    result = record["result"]
    passes = len(record["rounds"]) * 2

    assert not result["correct"]
    assert record["failed_frac"] > 0
    assert result["failed"] == 2 * passes
    labels = {bad["solve"][k]["label"] for k in (witness_key, optimum_key)}
    assert all(any(label in p for label in labels) for p in record["problems"])
