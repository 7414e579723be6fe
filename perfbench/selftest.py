"""Check that the hardware-independent counts repeat exactly for one seed.

Runs the traced benchmark twice per workload with the same seed, for 1 s
and for 20 s (long enough to repeat the traced pass on the faster
workloads), and compares every per-operation count (calls, levels,
node_energies, edges, repeat_frac, bytes_written) for exact equality.

    python3 perfbench/selftest.py

Exits 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS

SEED = 7
COUNT_SUFFIXES = (".calls", ".levels", ".node_energies", ".repeat_frac", "cli.bytes_written")


def counts(workload: str, seconds: int) -> tuple[dict, int]:
    """The counts of one traced run and the number of traced operations."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE),
    )
    lines = out.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} operations failed")
    found = {name: m["value"] for name, m in result["metrics"].items()
             if name.endswith(COUNT_SUFFIXES)}
    found["bands.zones.edges"] = detail["zone_edges_per_op"]
    return found, detail["trace_ops"]


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        (first, ops1), (second, ops2) = counts(workload, 1), counts(workload, 20)
        differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} counts over {ops1} and {ops2} traced operations, "
              + ("all repeat" if not differ else f"differ: {differ}"))
        ok &= not differ and first.keys() == second.keys()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
