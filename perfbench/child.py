"""One cold round of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE SETUP_ONLY OUT_DIR

Imports numpy and the package, builds the seeded inputs, then (unless
SETUP_ONLY is 1) runs the workload once with every gate, and prints one
JSON line with absolute ``time.perf_counter`` stamps (CLOCK_MONOTONIC, so the
parent can subtract its launch time), the time of every operation, resource
usage, the gate counts and, when TRACE is 1, the per-layer metrics.  An
untraced round samples the host's speed throughout (speed.py) and also
gives its set-up and operation times in reference seconds.  run.py starts this; it is not
meant to be called by hand.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv):
    workload, seed, trace, setup_only, out_dir = argv
    seed, trace, setup_only = int(seed), trace == "1", setup_only == "1"

    # Untraced rounds sample the host's speed throughout (speed.py).
    speedo = None
    if not trace:
        import speed
        speedo = speed.Speedometer()
        speedo.start()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import gshe.checks  # noqa: F401
    import gshe.cli  # noqa: F401
    import gshe.jets  # noqa: F401
    import gshe.morphisms  # noqa: F401
    import gshe.randgraphs  # noqa: F401
    import gshe.renorm  # noqa: F401
    import gshe.subspaces  # noqa: F401
    t2 = time.perf_counter()
    import workloads
    build, run = workloads.WORKLOADS[workload]
    inputs = build(seed, out_dir)
    setup_end = time.perf_counter()
    result = {"setup_end": setup_end,
              "setup": {"import_numpy_s": t1 - t0, "import_gshe_s": t2 - t1,
                        "inputs_s": setup_end - t2}}
    if speedo is not None:
        result["setup_probe"] = speedo.window(0.0, setup_end)
    if setup_only:
        speedo.stop()
        result["probe_fastest"] = speedo.fastest()
        return result

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, [workloads])
    gate = workloads.Gate(workload, seed, tracer)
    start, cpu0 = workloads.stamp()
    try:
        run(inputs, gate)
    except Exception:
        gate.attempted += 1
        last = traceback.format_exc().strip().splitlines()[-1]
        gate.failures.append(f"REPRO workload={workload} seed={seed} "
                             f"op={gate.op} check=exception "
                             f"detail={json.dumps(last)}")
        traceback.print_exc()
    end, cpu1 = stop = workloads.stamp()
    if speedo is not None:
        speedo.stop()
        result["probe_fastest"] = speedo.fastest()
        # Each operation's wall and CPU time outside the probes, in
        # reference seconds.
        norm = []
        for a, b in zip(gate.marks, gate.marks[1:] + [stop]):
            probed, scale = speedo.window(a[0], b[0])
            norm.append(((b[0] - a[0] - probed) * scale,
                         (b[1] - a[1] - probed) * scale))
        result["ops_norm"] = norm
    result.update({
        "wall_s": end - start,
        "cpu_s": cpu1 - cpu0,
        "ops": gate.op_times(stop),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failures": gate.failures,
    })
    if tracer is not None:
        layer = spans.layer_metrics(tracer)
        layer["cli.output_bytes"] = gate.output_bytes
        layer["trace.spans"] = tracer.n_spans()
        result["layer"] = layer
        result["called"] = {name: tracer.calls(name)
                            for name in workloads.EXPECT_CALLED[workload]}
        tracer.write(Path(out_dir) / f"spans-{workload}.npz",
                     {"workload": workload, "seed": seed})
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
