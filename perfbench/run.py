"""specdesign benchmark: one command, three seeded workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-chain --seed 1 --seconds 30 --trace 0

Runs the workload as one worker process with one client against the
package in ``src/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details (thread caps, versions, tail latency,
every failed operation with its inputs).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("design-chain", "bsec-scan", "band-track")

#: extra processes that only set up, so that setup_s is a median of this
#: many starts plus the measured one
SETUP_PROBES = 4
#: the whole command must end within this many seconds
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _start(args, env, probe: bool, deadline: float):
    """Start a worker; returns (process, seconds until it printed READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline().strip()
    ready_s = time.perf_counter() - t0
    if line != "READY":
        _stop(proc)
        raise BenchError(f"worker did not get ready (printed {line!r})")
    if time.perf_counter() > deadline:
        _stop(proc)
        raise BenchError("deadline passed during set-up")
    return proc, ready_s


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if the run has one."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"value_s": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def measure(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "specdesign", "__init__.py")):
        raise BenchError(f"no specdesign sources under {SRC}")
    deadline = time.perf_counter() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    os.makedirs(OUT, exist_ok=True)

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready_s = _start(args, env, True, deadline)
            _finish(proc, deadline)
            setup.append(ready_s)
    proc, ready_s = _start(args, env, False, deadline)
    setup.append(ready_s)
    report = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    failures = report.pop("failures")
    layers = report.pop("layers", None)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        **report,
        "failed_frac": len(failures) / report["attempted"],
        "failures": failures,
    }
    if args.trace:
        metrics = layers
    else:
        detail.update(setup_samples_s=setup, op_tail=_tail(report["op_times_s"]))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_mean_ref": (report.pop("op_mean_ref"), "ref"),
            "op_p50_ref": (report.pop("op_p50_ref"), "ref"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
