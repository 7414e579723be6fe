"""Print the sha256 of every artifact a fixed set of runs writes.

Usage (from the repository root):

    python3 tools/csv_digests.py > digests.txt

The runs are the first 48 ``design-chain`` operations of seed 5, two
``band-track`` and two ``bsec-scan`` operations of seed 5 (inputs from
``perfbench/workloads.py``) and every figure bundle, README included, each
built by ``cli.run_figure`` as the ``figure`` command builds it.  Each
output line is ``<run>/<file> <sha256>``; a ``design-chain``,
``band-track`` or figure run also gets one line for its manifest's
``oracle_work`` block, which holds counts only: the sha256 of its sorted JSON,
then that JSON in compact form, so that a diff names the count that moved.  Manifests themselves carry
timings and are not digested.  A ``bsec-scan`` run writes no files: its
embedded potential and its scattering curve are digested as the CLI would
write them.  Last come the body, delta spikes, spectrum and 40-energy
scattering curve of a free line with spikes of both signs where the scan's
segments start and end, and the ``oracle_work`` of solving them
(``spike_line_digests``); no workload or figure has a spike off a cell edge,
and no other run here leaves a level to node-count bisection.
Then the body and the scattering curve, at the 40 energies of a ``design``
run's ``scattering.csv``, of a free line with a barrier of 2 on |x| < 1
(``barrier_line_digests``): the scan shares one stepped map among each run
of equal neighbouring segments, and this line has such runs on both sides
of its barrier.
Then come the artifacts and ``oracle_work`` of a ``band`` run at e_max 10 on
each comb of ``COMBS``, whose lowest zone is 7e-10 down to about 1e-20 wide,
in three of them narrower than the rounding of the discriminant
(``comb_digests``).

A change that must keep the program's output is checked by running this on
both commits and comparing the two outputs with ``diff``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from specdesign import cli, csvio  # noqa: E402
from specdesign.potentials import Potential, free_line  # noqa: E402
from specdesign.solver import (  # noqa: E402
    _segment_bounds, bound_states, oracle_scope, scattering_curve)

SEED = 5
#: operations per workload
OPERATIONS = {"design-chain": 48, "band-track": 2, "bsec-scan": 2}
#: (period, strength) of the tight-binding combs of ``comb_digests``
COMBS = ((10.0, -5.0), (15.0, -4.0), (15.0, -5.0), (20.0, -3.0), (20.0, -4.0), (20.0, -5.0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_digests(name: str, count: int, out_root: Path):
    w = workloads.WORKLOADS[name](SEED)
    for i in range(count):
        run = f"{name}/op{i:02d}"
        result = w.run(i, str(out_root / run))
        if name == "bsec-scan":
            res, curve = result
            yield f"{run}/potential.csv", _sha(csvio.sampled_fn_bytes(res.potential.body, "V"))
            yield f"{run}/scattering.csv", _sha(csvio.scattering_bytes(curve))
            continue
        yield from _manifest_digests(run, result)


def _work_digest(work: dict) -> str:
    """The sha256 of a sorted ``oracle_work`` block, followed by its compact JSON."""
    sha = _sha(json.dumps(work, sort_keys=True).encode())
    return f"{sha} {json.dumps(work, sort_keys=True, separators=(',', ':'))}"


def _manifest_digests(run: str, manifest: dict):
    for entry in manifest["artifacts"]:
        yield f"{run}/{entry['path']}", entry["sha256"]
    yield f"{run}/oracle_work", _work_digest(manifest["oracle_work"])


def figure_digests(out_root: Path):
    for tag in cli.figure_tags():
        yield from _manifest_digests(f"figure/{tag}", cli.run_figure(tag, out_root / "figure" / tag))


def spike_line():
    """The 19,109-node free line with three spikes, by node of the right-to-left scan.

    They sit on the last step of a longer segment (its extra step), on the
    first step of another and on the last step of a shorter one; the well of
    -2 near x = 0 and the well of -1 near x = -8.7 hold one level each.
    """
    line = free_line()
    n = line.grid.n_points
    bounds = _segment_bounds(n - 2)
    sweep = {int(bounds[503]) - 1: -2.0, int(bounds[300]): 1.5, int(bounds[800]) - 1: -1.0}
    spikes = tuple((float(line.grid.x[n - 1 - j]), g) for j, g in sweep.items())
    return Potential(line.body, line.bc_kind, spikes)


def spike_line_digests():
    v = spike_line()
    yield "spike-line/potential.csv", _sha(csvio.sampled_fn_bytes(v.body, "V"))
    yield "spike-line/deltas", _sha(json.dumps(v.deltas).encode())
    with oracle_scope() as work:
        states = bound_states(v, 3)
        curve = scattering_curve(v, np.linspace(0.05, 12.0, 40))
    yield "spike-line/spectrum.csv", _sha(csvio.spectrum_bytes(states))
    yield "spike-line/scattering.csv", _sha(csvio.scattering_bytes(curve))
    yield "spike-line/oracle_work", _work_digest(work.ledger())


def barrier_line_digests():
    line = free_line()
    v = line.with_body(np.where(np.abs(line.grid.x) < 1.0, 2.0, 0.0))
    yield "barrier-line/potential.csv", _sha(csvio.sampled_fn_bytes(v.body, "V"))
    with oracle_scope() as work:
        curve = scattering_curve(v, np.linspace(0.25, 10.0, 40))
    yield "barrier-line/scattering.csv", _sha(csvio.scattering_bytes(curve))
    yield "barrier-line/oracle_work", _work_digest(work.ledger())


def comb_digests(out_root: Path):
    for period, strength in COMBS:
        run = f"band/comb_{period:g}_{strength:g}"
        config = cli.RunConfig(base="comb", params={"period": period, "strength": strength},
                               numerics={"e_max": 10.0}, out=str(out_root / run))
        yield from _manifest_digests(run, cli.run(config))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, count in OPERATIONS.items():
            for key, digest in workload_digests(name, count, Path(tmp)):
                print(key, digest)
        for key, digest in itertools.chain(figure_digests(Path(tmp)), spike_line_digests(),
                                           barrier_line_digests(), comb_digests(Path(tmp))):
            print(key, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
