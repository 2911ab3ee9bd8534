#!/usr/bin/env python3
"""Benchmark of the diraclab equiconvergence pipeline.

    python3 bench/run.py --workload equiconv --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy, and the run fails without
a result line when those sources are missing.  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json with tracing off; ``--trace 1`` runs
one untraced and one traced round, then a traced layer probe, and reports
the per-layer metrics.  The last line of standard output is the JSON
result; the lines before it give the machine facts, every op, and every
metric with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")
STAGES = ("setup", "root_system", "comparison_system", "partial_sums",
          "metadata")


def import_package():
    """Pin BLAS to one thread, then import numpy and diraclab from this
    checkout; returns the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "diraclab", "__init__.py")):
        raise SystemExit(f"error: no diraclab sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import diraclab
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(diraclab.__file__)) != \
            os.path.join(SRC, "diraclab"):
        raise SystemExit(f"error: diraclab imported from {diraclab.__file__}")
    return elapsed


def catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed(op):
    """(seconds, result, error) of one op; an op that raises has failed."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def run_round(w, outcomes, on_op=None, keep=False):
    """Run every op of the workload once, checking each result after its
    clock stops; returns the seconds spent inside ops.  keep=True keeps
    the results in the outcomes."""
    busy = 0.0
    for i, op in enumerate(w.ops):
        seconds, result, error = on_op(i, op) if on_op else timed(op)
        busy += seconds
        reason = error or w.check(op, result)
        outcomes.append({"op": op.label, "seconds": seconds,
                         "failure": reason,
                         "result": result if keep else None})
    return busy


def end_to_end(w_cls, seed, seconds, reference, import_s):
    import refkernel
    from measure import (op_times_with_failures, ops_per_s, percentile,
                         relative_times, reportable, round_cost)
    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w = w_cls(seed, reference)
        builds.append(time.perf_counter() - t0)
    outcomes = []
    kernel = []

    def op_then_kernel(i, op):
        out = timed(op)
        kernel.append(refkernel.seconds())
        return out

    with w.hooks():
        warmup_s = timed(w.ops[0])[0]
        kernel.append(refkernel.seconds())
        t0 = time.perf_counter()
        # whole rounds only, so every run times each op equally often
        while time.perf_counter() - t0 < seconds:
            run_round(w, outcomes, op_then_kernel)
    ok = [o["failure"] is None for o in outcomes]
    times = [o["seconds"] for o in outcomes]
    # the first op's cost is taken as the median of the warm-up and that
    # op's timed repeats: one sample alone carries the host's noise whole
    first_op_s = statistics.median([warmup_s] + times[::len(w.ops)])
    rel = relative_times(times, kernel)
    labels = [o["op"] for o in outcomes]
    for o, r in zip(outcomes, rel):
        o["rel"] = r
    metrics = {
        "setup_s": import_s + statistics.median(builds) + first_op_s,
        "round_ref": reportable(round_cost(labels, rel, ok)),
        "ok_ratio": sum(ok) / len(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "eig_refine_err": w.refine_err(),
    }
    # wall-clock figures, printed but not bounded: they carry the host's
    # slow phases whole (README.md, "Why op time is relative")
    wall = {
        "op_p50_s": reportable(
            percentile(op_times_with_failures(times, ok), 50)),
        "round_s": reportable(round_cost(labels, times, ok)),
        "ops_per_s": ops_per_s(sum(ok), sum(times)),
        "kernel_p50_s": statistics.median(kernel),
    }
    return metrics, outcomes, {"wall": wall}


def traced(w_cls, seed, reference):
    import spans
    import workloads
    w = w_cls(seed, reference)
    with w.hooks():
        timed(w.ops[0])
        plain_s = run_round(w, [])
    rec = spans.Recorder()
    outcomes = []

    def on_op(i, op):
        rec.enabled = True
        with rec.op(f"{i}:{op.label}"):
            out = timed(op)
        rec.enabled = False             # checks stay out of the trace
        return out

    with spans.installed(rec):
        with rec.op("setup"):
            wt = w_cls(seed, reference)
        with wt.hooks():
            traced_s = run_round(wt, outcomes, on_op, keep=True)
        rec.enabled = True
        with rec.op(spans.PROBE_OP):
            probe_report = workloads.layer_probe()
    recorded = rec.spans
    # the probe fills in only metrics the workload leaves at 0, so that no
    # time reads a constant 0 on a layer the workload never calls
    metrics, from_probe = spans.workload_layer_metrics(recorded)
    reports = [r for o in outcomes if o["result"] is not None
               for r in wt.reports(o["result"])]
    if not reports:
        from_probe += [f"harness.stage.{stage}_s" for stage in STAGES]
        reports = [probe_report]
    for stage in STAGES:
        metrics[f"harness.stage.{stage}_s"] = sum(
            r.metadata["timings"][stage] for r in reports)
    metrics.update(wt.accuracy())
    (metrics["harness.sweep_speedup"], metrics["harness.sweep_busy_frac"],
     pool_calls) = thread_pool(seed, reference, outcomes)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    defects = wt.defect_failures()
    metrics["known_defects.failing"] = sum(r is not None
                                           for r in defects.values())
    extra = {"untraced_round_s": plain_s, "traced_round_s": traced_s,
             "from_probe": from_probe,
             "known_defects": defects,
             "calls_by_thread": spans.calls_by(recorded, "thread"),
             "calls_by_op": spans.calls_by(recorded, "op"),
             "sweep_calls_by_thread": pool_calls,
             "spans": spans.dump(recorded)}
    return metrics, outcomes, extra


def thread_pool(seed, reference, outcomes):
    """(sweep_speedup, sweep_busy_frac, calls by thread) of harness.sweep
    on two workers: the sweep's configs run one after another over one
    untraced sweep, and worker run_equiconv time over (workers x wall) of
    one traced sweep, recorded apart from the workload's spans.  The traced
    sweep's outcome joins the run's outcomes."""
    import spans
    import workloads
    sw = workloads.Sweep(seed, reference)
    rec = spans.Recorder()
    with sw.hooks():
        serial_s = sw.serial_seconds()
        plain_s = timed(sw.ops[0])[0]
        with spans.installed(rec), rec.op("sweep"):
            traced_s = run_round(sw, outcomes)
    worker_s = sum(s.end - s.start for s in rec.spans
                   if s.name == "harness.run_equiconv")
    return (serial_s / plain_s, worker_s / (sw.threads * traced_s),
            spans.calls_by(rec.spans, "thread"))


def machine_facts(seed, workload, trace):
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(),
            "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    e2e_units, layer_units = catalogue()
    import_s = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w_cls = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    facts = machine_facts(args.seed, args.workload, args.trace)
    print("# machine " + json.dumps(facts))
    if args.trace:
        metrics, outcomes, extra = traced(w_cls, args.seed, reference)
        units = layer_units
    else:
        metrics, outcomes, extra = end_to_end(w_cls, args.seed, args.seconds,
                                              reference, import_s)
        units = e2e_units
    if set(metrics) != set(units):
        raise SystemExit("error: metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(o["failure"] is not None for o in outcomes)
    for o in outcomes:
        rel = f"{o['rel']:8.3f} ref  " if "rel" in o else ""
        print(f"# op {o['op']:<20} {o['seconds']:9.4f} s  {rel}"
              f"{'ok' if o['failure'] is None else 'FAILED: ' + o['failure']}")
    for op, calls in extra.get("calls_by_op", {}).items():
        print(f"# calls in op {op}: " + ", ".join(
            f"{name}={calls.get(name, 0)}" for name in
            ("ode.bvp_eigenfunction", "ode.propagate", "ode.char_det")))
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    for name, value in extra.get("wall", {}).items():
        print(f"# wall clock, not bounded: {name} = {value:.6g}")
    if extra.get("from_probe"):
        print("# taken from the probe: " + ", ".join(extra["from_probe"]))
    print(f"# fail_ratio = {failed}/{len(outcomes)}")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"facts": facts, "metrics": metrics,
                       "ops": [{k: o[k] for k in ("op", "seconds", "failure")}
                               for o in outcomes], **extra}, fh)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
