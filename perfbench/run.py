"""Benchmark runner for gshe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from ``src/``.
A run is a closed loop of rounds, one at a time: each round is a fresh,
single-threaded interpreter (perfbench/child.py) that imports numpy and
gshe, builds the workload's seeded inputs, and runs the workload once with
its correctness gates, so every lazily filled cache starts empty as it does
for every ``gshe`` call.  Rounds start while the next one is predicted to
end within ``--seconds``; at least one always runs.

With ``--trace 0`` the run reports the end-to-end metrics.  Untraced rounds
sample the host's speed with a fixed probe, and their times are converted
to reference seconds, the time at the probe's full speed on the host the
benchmark was defined on (speed.py).  ``wall_s`` and ``cpu_s`` add up,
over the operations of a round, each operation's fastest execution in the
run (``fastest_pass``); ``setup_s`` is the fastest set-up and
``peak_rss_mb`` the median over the rounds.  The lines before the result
also give the fastest pass as measured, in plain seconds.  With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (medians for times; work counts must repeat exactly across
rounds), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the failure share, and one ``REPRO`` line
per failed check.  The exit status is 0 only when every gate passed.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

WORKLOADS = ("symbolic", "symmetric", "jets", "numerics")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
LAYER_UNITS = {name: unit for name, unit, _ in spans.LAYER_METRICS}
COUNT_UNITS = ("count", "bits", "bytes")
CHILD_LIMIT_S = 170        # no round may outlive the 180 s a run is allowed
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


class RoundError(RuntimeError):
    """A round exited abnormally or printed no result."""


def _child_env(hash_seed):
    env = dict(os.environ)
    env.pop("GSHE_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    for var in THREAD_VARIABLES:
        env[var] = "1"
    return env


def _round(workload, seed, trace, setup_only, run_start, hash_seed="0"):
    """Start one fresh interpreter, wait for it, and return its result."""
    timeout = max(5.0, CHILD_LIMIT_S - (time.perf_counter() - run_start))
    argv = [sys.executable, str(CHILD), workload, str(seed),
            "1" if trace else "0", "1" if setup_only else "0", str(OUT)]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(hash_seed),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise RoundError(f"round exited with {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - launched
    return result


def fastest_pass(rounds, key, clock):
    """One pass of the workload, each operation at its fastest in the run.

    Every round of a run executes the same operations on the same inputs,
    so operation k does the same work in each; what differs is how fast the
    shared host ran it.  ``key`` is "ops" for the times as measured and
    "ops_norm" for the times in reference seconds (speed.py); ``clock`` is
    0 for wall time and 1 for CPU time.
    """
    return sum(min(r[key][k][clock] for r in rounds)
               for k in range(min(len(r[key]) for r in rounds)))


def run_workload(workload, seed, seconds, trace):
    """Measure one workload for ``seconds``; returns the summary dict."""
    run_start = time.perf_counter()
    deadline = run_start + seconds
    setups, plain, traced, repro = [], [], [], []
    summary = {"workload": workload, "seed": seed, "attempted": 0,
               "failed": 0, "repro": repro}
    try:
        durations = []
        while True:
            use_trace = trace and len(traced) < len(plain)
            enough = plain and (traced or not trace)
            if enough and (time.perf_counter()
                           + statistics.median(durations) > deadline):
                break
            begun = time.perf_counter()
            res = _round(workload, seed, use_trace, False, run_start)
            durations.append(time.perf_counter() - begun)
            (traced if use_trace else plain).append(res)
            summary["attempted"] += res["attempted"]
            summary["failed"] += len(res["failures"])
            repro.extend(res["failures"])
        setups.append(_round(workload, seed, False, True, run_start))
    except RoundError as exc:
        summary["attempted"] += 1
        summary["failed"] += 1
        repro.append(f"REPRO workload={workload} seed={seed} "
                     f"op=round check=round detail={json.dumps(str(exc))}")
        return summary

    rounds = plain + traced
    summary["rounds"], summary["traced_rounds"] = len(plain), len(traced)
    summary["round_wall_s"] = [round(r["wall_s"], 4) for r in plain]
    # Times in reference seconds (speed.py), and as measured for the record.
    probed = setups + plain
    setup_samples = [(r["setup_s"] - r["setup_probe"][0]) * r["setup_probe"][1]
                     for r in probed]
    summary["setup_samples"] = len(setup_samples)
    summary["probe_fastest_ms"] = round(
        min(r["probe_fastest"] for r in probed) * 1e3, 4)
    summary["measured_wall_s"] = round(fastest_pass(plain, "ops", 0), 4)
    summary["end_to_end"] = {
        "setup_s": min(setup_samples),
        "wall_s": fastest_pass(plain, "ops_norm", 0),
        "cpu_s": fastest_pass(plain, "ops_norm", 1),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        summary["layer"] = _layer_summary(workload, seed, setups + rounds,
                                          plain, traced, summary)
    return summary


def _layer_summary(workload, seed, all_rounds, plain, traced, summary):
    """Medians of the traced rounds' layer times; counts must repeat."""
    def fail(check, detail):
        summary["attempted"] += 1
        summary["failed"] += 1
        summary["repro"].append(f"REPRO workload={workload} seed={seed} "
                                f"op=trace check={check} "
                                f"detail={json.dumps(detail)}")

    layer = {}
    for name, unit, _ in spans.LAYER_METRICS:
        if name.startswith(("setup.", "trace.overhead")):
            continue
        values = [r["layer"][name] for r in traced]
        if unit in COUNT_UNITS:
            summary["attempted"] += 1
            if len(set(values)) != 1:
                fail("work_counts_repeat", f"{name}: {values}")
            layer[name] = values[0]
        else:
            layer[name] = statistics.median(values)
    for key in ("import_gshe_s", "import_numpy_s", "inputs_s"):
        layer[f"setup.{key}"] = statistics.median(r["setup"][key]
                                                  for r in all_rounds)
    layer["trace.overhead_s"] = (fastest_pass(traced, "ops", 0)
                                 - fastest_pass(plain, "ops", 0))
    for r in traced:
        for name, calls in r["called"].items():
            summary["attempted"] += 1
            if calls == 0:
                fail("wrapper_called", f"{name} recorded no call")
    return layer


def _report(summary, trace, prefix=""):
    """Print the human-readable lines; return the metrics for the JSON."""
    for line in summary["repro"]:
        print(line)
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload={summary['workload']} seed={summary['seed']} "
          f"rounds={summary.get('rounds', 0)} "
          f"traced_rounds={summary.get('traced_rounds', 0)} "
          f"setup_samples={summary.get('setup_samples', 0)} "
          f"probe_fastest_ms={summary.get('probe_fastest_ms')} "
          f"measured_wall_s={summary.get('measured_wall_s')} "
          f"round_wall_s={summary.get('round_wall_s', [])}")
    print(f"{prefix}fail_share {failed / max(attempted, 1):.6g} "
          f"(failed {failed} of checks_run {attempted})")
    metrics = {}
    if trace:
        table = [(n, LAYER_UNITS[n], v)
                 for n, v in summary.get("layer", {}).items()]
    else:
        table = [(n, u, summary["end_to_end"][n])
                 for n, u in END_TO_END if "end_to_end" in summary]
    for name, unit, value in table:
        print(f"{prefix}{name} {value} {unit}")
        metrics[prefix + name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gshe" / "__init__.py").is_file():
        print(f"no gshe sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "gshe"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(_report(summary, args.trace, prefix))
        attempted += summary["attempted"]
        failed += summary["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
