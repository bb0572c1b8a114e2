"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) this runs two traced rounds of one
seed, under different hash seeds, and checks that

* every gate passes in both rounds;
* every work count of the per-layer trace repeats exactly;
* every wrapper the workload must reach recorded at least one call;

and, once, that ``BENCHMARK.json`` names exactly the metrics the runner
prints.  Prints every mismatch and exits nonzero if there is one.
"""

from __future__ import annotations

import json
import sys
import time

import run
import spans

SEED = 1
HASH_SEEDS = ("0", "1")


def _traced_round(workload, hash_seed):
    try:
        return run._round(workload, SEED, True, False, time.perf_counter(),
                          hash_seed)
    except run.RoundError as exc:
        raise SystemExit(f"{workload}: {exc}") from exc


def check_manifest():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append(f"end_to_end {e2e} != runner {list(run.END_TO_END)}")
    layer = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    table = [(name, unit) for name, unit, _ in spans.LAYER_METRICS]
    if layer != table:
        problems.append("per_layer differs from spans.LAYER_METRICS")
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"workloads {names} != runner {list(run.WORKLOADS)}")
    return problems


def check_workload(workload):
    problems = []
    rounds = [_traced_round(workload, h) for h in HASH_SEEDS]
    for hash_seed, r in zip(HASH_SEEDS, rounds):
        problems += [f"PYTHONHASHSEED={hash_seed}: {line}"
                     for line in r["failures"]]
        problems += [f"{name} recorded no call"
                     for name, calls in r["called"].items() if calls == 0]
    for name, unit, _ in spans.LAYER_METRICS:
        if unit in run.COUNT_UNITS:
            values = [r["layer"].get(name) for r in rounds]
            if values[0] != values[1]:
                problems.append(f"{name} differs across hash seeds: {values}")
    return problems


def main(argv):
    workloads = argv or list(run.WORKLOADS)
    run.OUT.mkdir(exist_ok=True)
    failed = False
    for label, problems in [("BENCHMARK.json", check_manifest())] + [
            (w, check_workload(w)) for w in workloads]:
        for p in problems:
            print(f"FAIL {label}: {p}")
        print(f"{'FAIL' if problems else 'ok'} {label}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
