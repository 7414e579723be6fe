"""Seeded inputs, one operation and its correctness gate for each workload.

Every workload is a class with three members:

* ``__init__(seed)`` builds the inputs (part of the measured set-up);
* ``run(i, out_dir)`` performs operation ``i`` through the package's public
  API and returns what the gate needs;
* ``check(i, result)`` returns a list of problems, empty when the output is
  correct.

The gates compare against reference values that do not come from the
oracle: box levels are k^2, comb zone tops of period pi sit at n^2 and
four zones start below the comb's e_max, the embedded state's norm obeys a closed-form identity and its energy is totally
reflected.  Parameters are drawn inside the documented preconditions of
each transform; they are never narrowed to avoid an operation that fails.
"""

from __future__ import annotations

import math
import random

import numpy as np

import specdesign as sd
from specdesign import cli

#: inputs generated per run; operations cycle through them when a run is
#: long enough to use them all
POOL = 256

#: a level shift moves a level at most this share of the way to a neighbour
GAP_FRACTION = 0.75

#: tolerances taken from the acceptance criteria
TOL_SPECTRUM = 1e-5
TOL_PINNED_EDGE = 1e-8
TOL_MOVING_EDGE = 1e-6
TOL_NORM_IDENTITY = 1e-8
MIN_ABS_R = 0.999


def _status_problems(manifest: dict) -> list[str]:
    if manifest["status"] == "ok":
        return []
    return [f"manifest status {manifest['status']!r}: {manifest.get('error', '')}"]


def _config_text(head: dict, steps: list[dict]) -> str:
    """The flat config format ``cli.parse_config`` reads; floats round-trip exactly."""
    return "[step]\n".join(
        "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                for k, v in block.items())
        for block in [head] + steps
    )


def _shift_range(levels: list[float], n: int, floor: float) -> tuple[float, float]:
    """dE range keeping level n strictly between its neighbours."""
    e_n = levels[n - 1]
    lo = -GAP_FRACTION * (e_n - levels[n - 2]) if n >= 2 else floor
    return lo, GAP_FRACTION * (levels[n] - e_n)


class DesignChain:
    """``cli.run`` on verified design chains: three box chains, then one line chain.

    Box chains are shift, scale_swf, shift, remove on the width-pi box
    (levels k^2, 2001 nodes).  Line chains are create, shift on the free line
    (19,109 nodes) and end in a scattering sweep.  The level indices rotate
    through a fixed schedule so that runs of equal length do the same mix of
    work; the seed draws every continuous parameter.
    """

    #: (shifted level, weighted level, shifted level, removed level)
    BOX_SCHEDULE = ((1, 2, 2, 1), (2, 1, 3, 2), (3, 3, 1, 4))
    BOX_LEVELS = [float(k * k) for k in range(1, 6)]
    VERIFY = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = []
        for i in range(POOL):
            if i % 4 == 3:
                self.specs.append(self._line_chain(rng))
            else:
                self.specs.append(self._box_chain(rng, self.BOX_SCHEDULE[i % 4]))
        self.configs = [_config_text(head, steps) for head, steps, _ in self.specs]

    def _box_chain(self, rng, schedule):
        n1, n2, n3, n4 = schedule
        levels = list(self.BOX_LEVELS)
        expected = []
        lo, hi = _shift_range(levels, n1, -5.0)
        de1 = rng.uniform(lo, hi)
        levels[n1 - 1] += de1
        expected.append(levels[: self.VERIFY])
        lam = rng.uniform(-0.75, 3.0)
        expected.append(levels[: self.VERIFY])
        lo, hi = _shift_range(levels, n3, -5.0)
        de3 = rng.uniform(lo, hi)
        levels[n3 - 1] += de3
        expected.append(levels[: self.VERIFY])
        del levels[n4 - 1]
        expected.append(levels[: self.VERIFY - 1])
        steps = [
            {"kind": "shift", "n": n1, "dE": de1},
            {"kind": "scale_swf", "n": n2, "lambda": lam},
            {"kind": "shift", "n": n3, "dE": de3},
            {"kind": "remove", "n": n4},
        ]
        return {"base": "box", "verify_levels": self.VERIFY}, steps, expected

    def _line_chain(self, rng):
        e_new = rng.uniform(-3.0, -0.5)
        sigma = rng.uniform(0.3, 0.7)
        # the continuum edge 0 is the upper neighbour of the only level
        de = rng.uniform(-2.0, -0.5 * e_new)
        steps = [
            {"kind": "create", "E": e_new, "sigma": sigma},
            {"kind": "shift", "n": 1, "dE": de},
        ]
        expected = [[e_new], [e_new + de]]
        return {"base": "free-line", "verify_levels": self.VERIFY}, steps, expected

    def describe(self, i: int) -> str:
        return self.configs[i % POOL]

    def run(self, i: int, out_dir: str) -> dict:
        cfg = cli.parse_config(self.configs[i % POOL])
        cfg.out = out_dir
        return cli.run(cfg)

    def check(self, i: int, manifest: dict) -> list[str]:
        problems = _status_problems(manifest)
        _, steps, expected = self.specs[i % POOL]
        if len(manifest["steps"]) != len(steps):
            return problems + [f"{len(manifest['steps'])} of {len(steps)} steps ran"]
        for k, (entry, want) in enumerate(zip(manifest["steps"], expected), start=1):
            got = [row["measured"] for row in entry["oracle"]["levels"]]
            if len(got) != len(want) or any(
                g is None or abs(g - w) > TOL_SPECTRUM for g, w in zip(got, want)
            ):
                problems.append(f"step {k}: levels {got} differ from reference {want}")
        return problems


class BsecScan:
    """``embed_bsec`` then ``bsec_reflection_curve`` around the embedded level.

    The state sits at E_b in [6, 14] with weight lambda in [0.5, 2]; the
    whole-line extension spans [-6, 80 pi] (163,903 nodes) and is scanned at
    181 energies E_b + 0.02 j, j = -90..90.  No bound-state solve happens.
    """

    HALF_WIDTH = 80.0 * math.pi
    OFFSETS = 0.02 * np.arange(-90, 91)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.params = [(rng.uniform(6.0, 14.0), rng.uniform(0.5, 2.0)) for _ in range(POOL)]
        self.energies = [e_b + self.OFFSETS for e_b, _ in self.params]
        self.grid = sd.make_grid(0.0, self.HALF_WIDTH, sd.default_points(self.HALF_WIDTH))

    def describe(self, i: int) -> str:
        e_b, lam = self.params[i % POOL]
        return f"embed_bsec E_b={e_b!r} lambda={lam!r} half_width=80pi, 181 energies"

    def run(self, i: int, out_dir: str):
        e_b, lam = self.params[i % POOL]
        k = math.sqrt(e_b)
        res = sd.embed_bsec(k, lam, self.grid)
        curve = sd.bsec_reflection_curve(k, lam, self.energies[i % POOL],
                                         half_width=self.HALF_WIDTH)
        return res, curve

    def check(self, i: int, result) -> list[str]:
        res, curve = result
        e_b, lam = self.params[i % POOL]
        k = math.sqrt(e_b)
        length = self.HALF_WIDTH
        d_l = 1.0 + lam * (length / 2.0 - math.sin(2.0 * k * length) / (4.0 * k))
        want = (1.0 / lam) * (1.0 - 1.0 / d_l)
        got = res.step_log[0]["norm_on_grid"]
        problems = []
        if not abs(got - want) < TOL_NORM_IDENTITY:
            problems.append(f"norm on grid {got!r} differs from (1/lam)(1-1/D(L)) = {want!r}")
        centre = curve[len(curve) // 2]
        if not abs(centre.energy - e_b) < 1e-12:
            problems.append(f"scan centre {centre.energy!r} is not E_b = {e_b!r}")
        if not abs(centre.R) > MIN_ABS_R:
            problems.append(f"|R(E_b)| = {abs(centre.R)!r} is not above {MIN_ABS_R}")
        return problems


class BandTrack:
    """``cli.run`` on the comb base: zone layout under four shifts of one edge.

    The comb of period pi has a seeded strength in [1.5, 2.5]; the zone edge
    tied to the auxiliary level E_aux = 4 moves by four increasing dE values,
    one from each of DE_RANGES.  The gap above that edge closes at a shift
    between 0.45 and 0.72 over the strength range, so every shift here
    narrows the gap without closing it: each operation does the same five
    zone layouts and no closure bisection, which keeps it short enough for
    several operations per run.

    Zone n of the comb lies in ((n-1)^2, n^2] with its top pinned at n^2, and
    zone 4 starts below 10.5 over the strength range, so every layout has
    ZONES zones below E_MAX, the last one cut there: 2 * ZONES - 1 edges.
    """

    DE_RANGES = ((0.05, 0.12), (0.12, 0.2), (0.2, 0.3), (0.3, 0.4))
    E_AUX = 4.0
    PINNED = (1.0, 4.0, 9.0)
    E_MAX = 11.0
    ZONES = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.params = []
        for _ in range(POOL):
            strength = rng.uniform(1.5, 2.5)
            des = [rng.uniform(lo, hi) for lo, hi in self.DE_RANGES]
            self.params.append((strength, des))
        self.configs = [
            _config_text({"base": "comb", "strength": g, "e_max": self.E_MAX},
                         [{"kind": "shift_zone", "aux_level": 2, "dE": d} for d in des])
            for g, des in self.params
        ]

    def describe(self, i: int) -> str:
        return self.configs[i % POOL]

    def run(self, i: int, out_dir: str) -> dict:
        cfg = cli.parse_config(self.configs[i % POOL])
        cfg.out = out_dir
        return cli.run(cfg)

    def check(self, i: int, manifest: dict) -> list[str]:
        problems = _status_problems(manifest)
        if problems:
            return problems
        _, des = self.params[i % POOL]
        rows = manifest["steps"][0]["rows"]
        if [r["dE"] for r in rows] != [0.0] + des:
            return [f"rows for dE {[r['dE'] for r in rows]} instead of {[0.0] + des}"]
        tops = [hi for _, hi in rows[0]["zones"]]
        for e in self.PINNED:
            if not any(abs(t - e) < TOL_PINNED_EDGE for t in tops):
                problems.append(f"no zone top within {TOL_PINNED_EDGE} of {e} in {tops}")
        for row in rows:
            edges = sum(1 + (hi < self.E_MAX) for _, hi in row["zones"])
            if edges != 2 * self.ZONES - 1:
                problems.append(f"dE={row['dE']!r}: {edges} zone edges below {self.E_MAX} "
                                f"instead of {2 * self.ZONES - 1}")
        for row in rows[1:]:
            edge = self.E_AUX + row["dE"]
            bounds = [b for z in row["zones"] for b in z]
            if not any(abs(b - edge) < TOL_MOVING_EDGE for b in bounds):
                problems.append(f"dE={row['dE']!r}: no zone edge within "
                                f"{TOL_MOVING_EDGE} of {edge!r}")
        return problems


WORKLOADS = {"design-chain": DesignChain, "bsec-scan": BsecScan, "band-track": BandTrack}

#: operations per traced pass: one full design cycle, two of the long ones
TRACE_OPS = {"design-chain": 4, "bsec-scan": 2, "band-track": 2}
