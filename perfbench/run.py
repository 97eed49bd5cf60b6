#!/usr/bin/env python3
"""Benchmark command for ltvadapt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
`src/`. Set-up (import, input generation, warm-up) is timed on its own;
then timed passes over the workload repeat while another pass still fits
in S seconds (at least one). Each pass is checked right after it ends,
outside the timed region. With --trace 1 the run makes one untraced and
one traced pass: the difference of their wall times is the tracing
overhead, and the spans of the traced pass give the per-layer metrics.
All times are read from `refclock.RefClock`, in reference-seconds.

Standard output is a report (every metric with its unit and sample
count, the output checks, the outcome fingerprint and the machine), then
one JSON line with `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json lists for the mode: end-to-end with --trace 0, per-layer
with --trace 1. The full result goes to .perfbench/results/ (or --out)
for perfbench/compare.py; traced spans go to .perfbench/traces/. Exits 1
when an output check fails, 2 when the package, BENCHMARK.json or a
listed metric is missing.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3  # imports and redesign inputs; certify simulates once
OPS = {"event-redesign": "redesign", "scheduled-redesign": "redesign",
       "certify": "certify"}


def unit_of(name):
    if name.endswith(("_ms", "ms_per_step")):
        return "ms"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    return "count"


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return "%.6g" % v


def machine_info():
    import numpy as np
    blas = {}
    try:
        b = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": b.get("name"), "version": b.get("version")}
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v, "unset")
                             for v in ("OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS")},
            "platform": platform.platform()}


def import_seconds():
    """Import time of the package in a fresh interpreter (numpy already
    loaded), in reference-seconds."""
    code = ("import sys\nsys.path[:0] = [%r, %r]\nimport refclock\n"
            "with refclock.RefClock() as clock:\n"
            "    t = clock()\n    import ltvadapt\n    print(clock() - t)"
            % (SRC, HERE))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def end_to_end(workload, setup_s, passes):
    """End-to-end metrics under their per-workload names, plus the
    workload-independent latency names BENCHMARK.json uses, and a note on
    each giving its sample count."""
    import stats
    op = OPS[workload]
    n = len(passes[0].op_latencies)
    # contention on a shared host only ever slows a pass down, so the
    # fastest pass and each operation's fastest repeat estimate the cost
    ops = sorted(min(p.op_latencies[i] for p in passes) for i in range(n))
    p50 = 1e3 * stats.percentile(ops, 50)
    p90 = 1e3 * stats.percentile(ops, 90)
    first = passes[0].checked
    m = {
        "setup_s": setup_s,
        "wall_s": min(p.wall_s for p in passes),
        op + "_p50_ms": p50,
        op + "_p90_ms": p90,
        "failed_frac": first.failed / first.ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
    }
    tail = stats.tail_percentile(n)
    notes = {
        "wall_s": "fastest of %d pass(es): %s; raw wall clock %s s" % (
            len(passes), " ".join("%.4g" % p.wall_s for p in passes),
            " ".join("%.4g" % p.raw_wall_s for p in passes)),
        op + "_p50_ms": "n=%d %s calls" % (n, op),
        op + "_p90_ms": "n=%d, %.1f beyond%s" % (
            n, 0.1 * n, "" if tail and tail >= 90 else
            " (too few; highest percentile with 10 beyond: p%s)" % tail),
        "failed_frac": "attempted %d, failed %d, per pass"
                       % (first.ops, first.failed),
        "peak_rss_mb": "whole process",
    }
    return m, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench",
                                                  "results"))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print("perfbench: cannot read BENCHMARK.json: %s" % exc,
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    try:
        import ltvadapt
    except ImportError as exc:
        print("perfbench: cannot import ltvadapt from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    if not os.path.abspath(ltvadapt.__file__).startswith(SRC + os.sep):
        print("perfbench: ltvadapt imported from %s, not from %s"
              % (ltvadapt.__file__, SRC), file=sys.stderr)
        return 2
    import refclock
    import tracing
    import workloads

    # set-up
    import_s = statistics.median(import_seconds()
                                 for _ in range(SETUP_REPEATS))
    with refclock.RefClock() as clock:
        certify = args.workload == workloads.CERTIFY
        repeats = 1 if certify else SETUP_REPEATS
        prep = []
        for _ in range(repeats):
            t = clock()
            inp = workloads.prepare(args.workload, args.seed, clock)
            if not certify:
                workloads.warm_up()
            prep.append(clock() - t)
        setup_s = import_s + statistics.median(prep)

        # timed passes, each checked when it ends
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workloads.summarize(inp,
                                              workloads.run_pass(inp, clock)))
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + passes[-1].raw_wall_s > args.seconds:
                break
        checked = list(passes)
        layer = tracer = None
        if args.trace:
            tracer = tracing.Tracer(clock)
            with tracing.instrument(tracer):
                res = workloads.run_pass(inp, clock)
            traced = workloads.summarize(inp, res)
            checked.append(traced)
            layer = tracing.layer_metrics(tracer.spans)
            layer["trace.overhead_s"] = traced.wall_s - passes[0].wall_s
            shares = tracing.layer_shares(tracer.spans, traced.wall_s)

    problems = [p for s in checked for p in s.checked.problems]
    if len({s.outcome["digest"] for s in checked}) > 1:
        problems.append("outcome differs between passes over one input")
    correct = not problems
    attempted = sum(p.checked.ops for p in passes)
    failed = sum(p.checked.errors for p in passes)
    metrics, notes = end_to_end(args.workload, setup_s, passes)
    fp_in = workloads.input_fingerprint(args.workload, args.seed)
    outcome = passes[0].outcome
    machine = machine_info()

    # report
    print("workload %s  seed %d  trace %d  passes %d"
          % (args.workload, args.seed, args.trace, len(passes)))
    notes["setup_s"] = "import %.4g s (median of %d) + median of %d x %s" % (
        import_s, SETUP_REPEATS, repeats,
        "simulating the checked runs" if certify else "inputs and warm-up")
    op = OPS[args.workload]
    for name in ("setup_s", "wall_s", op + "_p50_ms", op + "_p90_ms",
                 "failed_frac", "peak_rss_mb"):
        print("  %-22s %-14s %s" % (name, fmt(metrics[name]) + " "
                                    + unit_of(name), notes.get(name, "")))
    if layer is not None:
        print("per-layer, traced pass (%d spans):" % len(tracer.spans))
        for name, v in layer.items():
            print("  %-42s %s %s" % (name, fmt(v), unit_of(name)))
        print("  self-time share of the traced pass: " + ", ".join(
            "%s %.3f" % kv for kv in shares.items()))
    print("checks: %s (%d operations per pass)"
          % ("ok" if correct else "FAILED", passes[0].checked.ops))
    for p in problems[:20]:
        print("  problem: %s" % p)
    print("fingerprint: input %s outcome %s" % (fp_in, outcome["digest"]))
    for row in outcome["runs"]:
        print("  " + json.dumps(row, sort_keys=True))
    for key in ("bundles", "violations", "setup_attempts"):
        if key in outcome:
            print("  %s: %s" % (key, json.dumps(outcome[key])))
    print("machine: " + json.dumps(machine, sort_keys=True))

    # full result for compare.py, spans of the traced pass
    stem = "%s-s%d-t%d-%d-%d" % (args.workload, args.seed, args.trace,
                                 int(time.time() * 1000), os.getpid())
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, stem + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "stamp": time.time(),
                   "correct": correct, "attempted": attempted,
                   "failed": failed, "problems": problems,
                   "metrics": metrics, "layer": layer,
                   "input_fingerprint": fp_in, "outcome": outcome,
                   "passes": len(passes), "machine": machine},
                  fh, indent=1, sort_keys=True)
    if tracer:
        tdir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(tdir, exist_ok=True)
        with gzip.open(os.path.join(tdir, stem + ".jsonl.gz"), "wt") as fh:
            tracer.write_jsonl(fh)

    # the result line that BENCHMARK.json describes
    source = layer if args.trace else metrics
    line = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value = source.get(entry["name"])
        if value is None:
            print("perfbench: metric %s has no value on %s"
                  % (entry["name"], args.workload), file=sys.stderr)
            return 2
        line[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
