"""One workload process: set up, signal readiness, run a closed loop, report.

Started by run.py, never by hand.  Prints ``READY`` once the package is
imported and the inputs are built, then (unless ``--probe``) one JSON line
with the raw measurements.  One client: each operation starts after the
previous one and its correctness check have finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import specdesign as sd  # noqa: E402
import workloads  # noqa: E402  (also imports specdesign.cli)
from reference import Reference  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT


class Loop:
    """Attempts, failures and per-operation times of one run."""

    def __init__(self, w, out_root):
        self.w = w
        self.out_root = out_root
        self.times: list[float] = []
        self.failures: list[dict] = []

    def attempt(self, i, tracer=None) -> float:
        """Run and check operation i, under a root span if traced; returns its time."""
        out_dir = os.path.join(self.out_root, f"op{i}")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.w.run(i, out_dir)
            else:
                result = tracer.operation(lambda: self.w.run(i, out_dir))
            dt = time.perf_counter() - t0
            problems = self.w.check(i, result)
        except Exception:  # an operation that raises is a failed operation, not a crash
            dt = time.perf_counter() - t0
            problems = [traceback.format_exc(limit=3)]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.times.append(dt)
        if problems:
            self.failures.append({"op": i, "input": self.w.describe(i), "problems": problems})
            print(f"operation {i} failed: {problems}", file=sys.stderr)
        return dt


def timed_run(w, seconds, out_root) -> dict:
    loop = Loop(w, out_root)
    ref = Reference()
    t_start = time.perf_counter()
    i = 0
    # at least the cold operation and two warm ones
    while i < 3 or time.perf_counter() - t_start < seconds:
        ref.sample(loop.attempt(i))
        i += 1
    warm = loop.times[1:]
    # warm operation i lies between reference samples i - 1 and i
    local = [ref.unit_s(i - 1, i + 1) for i in range(1, len(loop.times))]
    ratios = [t / u for t, u in zip(warm, local)]
    return {
        "attempted": len(loop.times),
        "failures": loop.failures,
        "first_op_s": loop.times[0],
        "op_times_s": warm,
        "ops_per_s": len(warm) / sum(warm),
        "op_p50_s": statistics.median(warm),
        "ref_unit_s": ref.unit_s(),
        "ref_samples": ref.samples,
        "op_mean_ref": statistics.fmean(ratios),
        "op_p50_ref": statistics.median(ratios),
    }


def _probe_ns(call, work, repeats):
    """Median ns per unit of work over repeated calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        call()
        samples.append((time.perf_counter_ns() - t0) / work)
    return statistics.median(samples)


def l0_probes() -> dict:
    cell = sd.comb_cell(n_points=2001)
    scalar = _probe_ns(lambda: sd.band_discriminant(cell, 2.5), cell.grid.n_points, 21)
    well = sd.soliton_well(1.0)
    energies = np.linspace(0.5, 10.0, 64)
    vector = _probe_ns(lambda: sd.scattering_curve(well, energies),
                       well.grid.n_points * energies.size, 3)
    return {"solver.probe.scalar_ns_per_node": (scalar, "ns"),
            "solver.probe.vector_ns_per_node_energy": (vector, "ns")}


def traced_run(w, workload, seconds, out_root, trace_path) -> dict:
    """Alternate untraced and traced passes over the same operations.

    The passes repeat the same operations, so per-operation counts do not
    depend on how many passes fit into the run.
    """
    from spans import Tracer, per_layer_metrics

    ops = range(1, 1 + workloads.TRACE_OPS[workload])
    loop = Loop(w, out_root)
    tracer = Tracer()
    loop.attempt(0)  # cold operation: warms the process, not measured
    untraced_s = traced_s = 0.0
    t_start = time.perf_counter()
    while traced_s == 0.0 or time.perf_counter() - t_start < seconds:
        untraced_s += sum(loop.attempt(i) for i in ops)
        tracer.install()
        try:
            traced_s += sum(loop.attempt(i, tracer) for i in ops)
        finally:
            tracer.uninstall()
    tracer.dump(trace_path)
    totals, n_ops, root_s = tracer.layer_totals()
    metrics = per_layer_metrics(totals, n_ops, root_s)
    # the same operations ran untraced as often as traced
    metrics["trace.untraced_op_s"] = (untraced_s / n_ops, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    metrics.update(l0_probes())
    metrics["setup.import_s"] = (IMPORT_S, "s")
    # counts that are not metrics: how many traced operations fit the run
    # depends on the host; zone edges are fixed by the comb and gated
    zones = totals.get("bands.zones", {})
    return {"attempted": len(loop.times), "failures": loop.failures, "layers": metrics,
            "trace_ops": n_ops, "zone_edges_per_op": zones.get("edges", 0.0) / n_ops}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for run outputs")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.probe:
        return
    os.makedirs(args.out, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        if args.trace:
            trace_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
            report = traced_run(w, args.workload, args.seconds, out_root, trace_path)
        else:
            report = timed_run(w, args.seconds, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    report.update({
        "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    })
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
