"""Command-line front door: declarative runs with oracle-verified output.

Subcommands
-----------
solve    bound states (and scattering sweep, where defined) of a base system
design   execute a transformation chain from a config file, verifying the
         spectrum after every step
band     zone layout of a Dirac comb, optionally shifting a zone edge
lattice  site-potential spectra and Stark ladders
figure   one of the demonstration bundles of ``_FIGURES``, checked like a design

Configs are flat ``key = value`` text with repeated ``[step]`` blocks; a
flag that is given overrides the file, and the file overrides the defaults
in ``_BASES`` and ``_NUMERICS``.  Every subcommand is one checked run
(``_checked_run``) with the exit codes 0 success, 2 invalid input (nothing
is written), 3 numerical failure or a failed verification (partial
artifacts plus a manifest marking the failed step).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import csvio
from .bands import PeriodicSystem, bisect_gap_closure, track_zone_shift, zones
from .darboux import (
    DEFAULT_CAP,
    bargmann_reflectionless,
    bsec_reflection_curve,
    darboux_create,
    embed_bsec,
    remove_level_by_swf,
    scale_swf,
    shift_level,
)
from .errors import NumericalFailure, SingularityError, ValidationError
from .lattice import ladder_index, lattice_bound_states, single_site, stark_ladder
from .potentials import (
    DECAYING_HALF_LINE,
    DECAYING_LINE,
    HARD_WALLS,
    Potential,
    box,
    comb_cell,
    free_line,
    half_line,
)
from .solver import band_discriminant_curve, bound_states, oracle_scope, scattering_curve
from .verify import (delta_v_sign_pattern, isospectral_check, orthonormality_defect, peak_width,
                     reflection_check)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    base: str = "box"
    params: dict = field(default_factory=dict)
    chain: list = field(default_factory=list)
    numerics: dict = field(default_factory=dict)
    out: str = "out"

    def validate(self):
        spec = _BASES.get(self.base)
        if spec is None:
            raise ValidationError(f"unknown base {self.base!r}; expected one of {tuple(_BASES)}")
        spec.check(f"{self.base} base:", self.params)
        _NUMERICS.check("numerics:", self.numerics)
        for i, step in enumerate(self.chain):
            name = step.get("kind")
            kind = _STEPS.get(name)
            if kind is None:
                raise ValidationError(f"unknown step kind {name!r}")
            if self.base not in kind.bases:
                raise ValidationError(f"{name} steps need one of the bases {', '.join(kind.bases)}")
            if name == "bsec" and i:
                # embed_bsec builds its potential on the bare half-line, so a
                # bsec step would discard every step before it
                raise ValidationError(f"a bsec step must be the chain's first, not step {i + 1}")
            kind.check(f"{name} step:", {key: v for key, v in step.items() if key != "kind"})
        aux_levels = {_STEPS["shift_zone"].with_defaults(step)["aux_level"]
                      for step in self.chain if step["kind"] == "shift_zone"}
        if len(aux_levels) > 1:
            raise ValidationError(f"shift_zone steps disagree on aux_level: {sorted(aux_levels)}")


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value / [step] format."""
    cfg = RunConfig()
    target: dict | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[step]":
            target = {}
            cfg.chain.append(target)
            continue
        if "=" not in line:
            raise ValidationError(f"cannot parse config line: {raw!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        parsed = _parse_value(value)
        if target is not None:
            target[key] = parsed
        elif key in ("base", "out"):
            setattr(cfg, key, str(parsed))
        elif key in _NUMERICS.optional:
            cfg.numerics[key] = parsed
        else:
            cfg.params[key] = parsed
    return cfg


def _parse_value(s: str):
    for conv in (int, float):
        try:
            return conv(s)
        except ValueError:
            continue
    return s


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc.strerror}") from exc


class _Artifacts:
    """Buffered output: nothing hits the disk until the run decides to.

    ``format_s`` sums the seconds spent formatting the files' bytes.
    """

    def __init__(self):
        self.files: dict[str, bytes] = {}
        self.format_s = 0.0
        self.prefix = ""

    def add(self, name: str, fmt, *args):
        """Store the bytes fmt(*args) as file prefix + name; a bundle's prefix is its tag."""
        t0 = time.perf_counter()
        self.files[self.prefix + name] = fmt(*args)
        self.format_s += time.perf_counter() - t0

    def write(self, out_dir: Path) -> list[dict]:
        out_dir.mkdir(parents=True, exist_ok=True)
        listing = []
        for name in sorted(self.files):
            data = self.files[name]
            (out_dir / name).write_bytes(data)
            listing.append({
                "path": name,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            })
        return listing


def run(config: RunConfig) -> dict:
    """Execute a configured run through ``_checked_run``; returns the manifest
    (also written to disk).  Raises ValidationError before anything is written.
    """
    config.validate()
    spec = _BASES[config.base]
    params = spec.with_defaults(config.params)
    numerics = _NUMERICS.with_defaults(config.numerics)
    base = spec.build(params, numerics)
    manifest = {"config": asdict(config), "resolved": _resolved(params, numerics)}
    return _checked_run(partial(spec.run, base, config.chain, numerics), manifest, Path(config.out))


def _resolved(params: dict, numerics: dict) -> dict:
    """The manifest's record of a run's inputs with their defaults filled in."""
    return {
        "params": params,
        "tol_spectrum": numerics["tol_spectrum"], "tol_reflection": numerics["tol_reflection"],
        "verify_levels": numerics["verify_levels"], "emission_cap": DEFAULT_CAP,
    }


def _checked_run(body: Callable, manifest: dict, out_dir: Path) -> dict:
    """Run ``body(manifest, artifacts, timing)``, True if its checks pass, in one oracle
    scope; write its artifacts and manifest.json whatever the outcome."""
    artifacts = _Artifacts()
    timing: dict = {"steps_ms": [], "scattering_ms": 0.0}
    manifest.update(steps=[], status="ok")
    t_start = time.perf_counter()

    with oracle_scope() as work:
        try:
            if not body(manifest, artifacts, timing):
                manifest["status"] = "verification-failed"
        except (NumericalFailure, SingularityError) as exc:
            manifest.update(status="numerical-failure", error=str(exc),
                            failed_step=len(manifest["steps"]))

    timing["total_ms"] = 1000.0 * (time.perf_counter() - t_start)
    timing["csv_ms"] = 1000.0 * artifacts.format_s
    manifest["oracle_work"] = work.ledger()
    manifest["timing"] = timing
    manifest["artifacts"] = artifacts.write(out_dir)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return manifest


def _chain_start(v: Potential, numerics: dict, manifest: dict) -> list[float]:
    """Record v's grid and oracle levels as the chain's base; returns the levels."""
    g = v.grid
    manifest["resolved"]["grid"] = {"x_min": g.x_min, "x_max": g.x_max, "n_points": g.n_points}
    if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE):
        manifest["resolved"]["truncation"] = g.x_max
    expected = [s.energy for s in bound_states(v, numerics["verify_levels"])]
    manifest["resolved"]["base_spectrum"] = list(expected)
    return expected


def _add_step(manifest: dict, timing: dict, t0: float, **entry):
    """Append one step's manifest entry and its time since t0: one timing per step."""
    timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
    manifest["steps"].append(entry)


def _checked_step(v: Potential, step: dict, expected: list, numerics: dict, manifest: dict,
                  timing: dict):
    """Apply one step to v and check it with the oracle against `expected`, the levels
    before it, and on a line against v's |R(E)|, which every edit keeps; the manifest
    records both.  Returns (the TransformResult, the levels expected after it, True if
    its checks pass)."""
    t0 = time.perf_counter()
    kind = _STEPS[step["kind"]]
    result = kind.apply(v, kind.with_defaults(step))
    v_new = result.potential
    expected = kind.expected(expected, step)
    entry = {"step": dict(step), "log": [dict(e) for e in result.step_log]}
    ok = True

    if step["kind"] != "bsec":   # the embedded level is no bound state to re-solve
        check = isospectral_check(v_new, expected[:numerics["verify_levels"]],
                                  numerics["tol_spectrum"])
        entry["oracle"] = check
        ok = check["pass"]
        if step["kind"] == "scale_swf":
            n = int(step["n"])
            want = math.sqrt(1.0 + float(step["lambda"]))
            before = bound_states(v, n)
            after = bound_states(v_new, n)
            if len(before) >= n and len(after) >= n:
                ratio = after[n - 1].swf / before[n - 1].swf
                entry["swf_ratio"] = {"measured": ratio, "expected": want,
                                      "pass": bool(abs(ratio - want) < 1e-5)}
                ok &= entry["swf_ratio"]["pass"]
    if v_new.bc_kind == DECAYING_LINE:
        entry["reflection"] = reflection_check(v_new, [0.5, 1.0, 2.5, 5.0],
                                               numerics["tol_reflection"], before=v)
        ok &= entry["reflection"]["pass"]
    _add_step(manifest, timing, t0, **entry)
    return result, expected, ok


def _run_chain(v, chain, numerics, manifest, artifacts, timing):
    verify_levels = numerics["verify_levels"]
    expected = _chain_start(v, numerics, manifest)
    all_ok = True
    step_log_all = []

    for step in chain:
        result, expected, ok = _checked_step(v, step, expected, numerics, manifest, timing)
        v = result.potential
        all_ok &= ok
        step_log_all.extend(result.step_log)

    if expected:
        count = min(verify_levels, len(expected))
    else:
        count = 0 if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE) else verify_levels
    states = bound_states(v, count) if count else []
    artifacts.add("potential.csv", csvio.sampled_fn_bytes, v.body, "V")
    artifacts.add("spectrum.csv", csvio.spectrum_bytes, states)
    if states:
        artifacts.add("states.csv", csvio.states_bytes, v.grid, states)
    if step_log_all:
        artifacts.add("steplog.csv", csvio.steplog_bytes, step_log_all)
    if v.bc_kind == DECAYING_LINE:
        t0 = time.perf_counter()
        curve = scattering_curve(v, np.linspace(0.25, 10.0, 40))
        timing["scattering_ms"] = 1000.0 * (time.perf_counter() - t0)
        artifacts.add("scattering.csv", csvio.scattering_bytes, curve)
    return all_ok


def _run_band(system, chain, numerics, manifest, artifacts, timing):
    e_max = numerics["e_max"]
    if chain:
        aux_level = _STEPS["shift_zone"].with_defaults(chain[0])["aux_level"]
        rows = _zone_track(system, aux_level, [float(step["dE"]) for step in chain], e_max,
                           manifest, artifacts, timing)
        closure = bisect_gap_closure(system, aux_level, rows, e_max)
        if closure is not None:
            manifest["resolved"]["gap_closure_dE"] = closure
        final = rows[-1]["zones"]
    else:
        final = zones(system, e_max)
    artifacts.add("zones.csv", csvio.zones_bytes, final)
    es = np.linspace(float(system.cell.values.min()) - 1.0, e_max, 501)
    artifacts.add("discriminant.csv",
                  csvio.discriminant_bytes, es, band_discriminant_curve(system.cell, es))
    return True


def _zone_track(system, aux_level, track_values, e_max, manifest, artifacts, timing) -> list[dict]:
    """The zones as one edge moves by each of track_values, as a timed step and a CSV."""
    t0 = time.perf_counter()
    rows = track_zone_shift(system, aux_level, [0.0] + track_values, e_max)
    _add_step(manifest, timing, t0,
              step={"kind": "shift_zone", "aux_level": aux_level, "dE_values": track_values},
              rows=[{"dE": r["dE"], "edge_energy": r["edge_energy"],
                     "tracked_gap": r["tracked_gap"], "zones": [(z.e_lo, z.e_hi) for z in r["zones"]],
                     "gaps": r["gaps"]} for r in rows])
    artifacts.add("zone_track.csv", csvio.zone_track_bytes, rows)
    return rows


def _lattice(levels: Callable, step: dict, manifest: dict, timing: dict):
    """Solve a lattice base (the call `levels` gives its sites and states) as a timed step."""
    t0 = time.perf_counter()
    sites, states = levels()
    _add_step(manifest, timing, t0, step=step, levels=[s.energy for s in states])
    return sites, states


def _run_lattice(levels, chain, numerics, manifest, artifacts, timing):
    sites, states = _lattice(levels, {"kind": "lattice"}, manifest, timing)
    artifacts.add("lattice_spectrum.csv", csvio.lattice_spectrum_bytes, states)
    artifacts.add("lattice_states.csv", csvio.lattice_states_bytes, sites, states)
    return True


def _potential_csv(params, numerics) -> Potential:
    if not params["path"]:
        raise ValidationError("potential-csv base needs a path")
    body = csvio.read_sampled_fn(_read_text(params["path"], "potential-csv path"))
    return Potential(body, params["bc"])


def _single_site_levels(params, numerics) -> Callable:
    """A lattice base is the call that solves it: the runner times the solve."""
    system = single_site(params["v0"], params["half_width_sites"])
    return lambda: (system.sites, lattice_bound_states(system, params["count"], params["which"]))


def _stark_levels(params, numerics) -> Callable:
    window = (-params["window_sites"], params["window_sites"])
    return lambda: (np.arange(window[0], window[1] + 1), stark_ladder(params["slope"], window))


# ---------------------------------------------------------------------------
# run inputs: every step kind, numerics option and base, with its defaults


@dataclass(frozen=True, kw_only=True)
class _Keys:
    """The keys of one run input: a base, the numerics options or a step kind.

    `optional` maps keys to their defaults (a text default makes a text key,
    any other a number); `required` keys are numbers.  Integer keys (level
    indices, counts, sizes) and the `positive` keys must exceed 0.
    """

    optional: dict = field(default_factory=dict)
    required: tuple = ()
    integers: tuple = ()
    positive: tuple = ()

    def with_defaults(self, values: dict) -> dict:
        """values over the defaults; an int given for a non-integer key becomes a float."""
        return {key: float(value) if type(value) is int and key not in self.integers else value
                for key, value in {**self.optional, **values}.items()}

    def check(self, where: str, values: dict):
        """Reject a missing required key, an unknown key or a value of the wrong kind."""
        for key in self.required:
            if key not in values:
                raise ValidationError(f"{where} needs a value for {key}")
        for key, value in values.items():
            if key not in self.required and key not in self.optional:
                raise ValidationError(f"{where} unknown key {key!r}")
            text, integral = isinstance(self.optional.get(key), str), key in self.integers
            kind = str if text else int if integral else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                wanted = "text" if text else "an integer" if integral else "a number"
                raise ValidationError(f"{where} {key} must be {wanted}, got {value!r}")
            if text:
                continue
            if not abs(value) <= sys.float_info.max:   # nan, +-inf or an int beyond every float
                raise ValidationError(f"{where} {key} must be finite, got {value}")
            if (integral or key in self.positive) and value <= 0:
                raise ValidationError(f"{where} {key} must be positive, got {value}")


@dataclass(frozen=True, kw_only=True)
class _StepKind(_Keys):
    """One step kind: its keys, the bases it runs on, what it does.

    `apply(v, step)` gets the step with its defaults filled in and returns
    the TransformResult; `expected` edits the expected energies.
    """

    bases: tuple
    apply: Callable | None
    expected: Callable = lambda levels, step: list(levels)


@dataclass(frozen=True, kw_only=True)
class _Base(_Keys):
    """One base: `build(params, numerics)` gets both with their defaults in, and
    `run(base, chain, numerics, manifest, artifacts, timing)` is True if all checks pass."""

    build: Callable
    run: Callable = _run_chain


def _shifted(levels, step):
    out = list(levels)
    out[int(step["n"]) - 1] += float(step["dE"])
    return sorted(out)


_CONTINUUM_BASES = ("box", "free-line", "half-line", "potential-csv")

#: every step kind; no entry lists a lattice base, so those take no steps.  The
#: transforms are looked up when a step runs, so a wrapped module attribute sees it.
_STEPS = {
    "shift": _StepKind(
        required=("n", "dE"), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step: shift_level(v, int(step["n"]), float(step["dE"])),
        expected=_shifted,
    ),
    "create": _StepKind(
        required=("E",), optional={"sigma": 0.5}, bases=_CONTINUUM_BASES,
        apply=lambda v, step: darboux_create(v, float(step["E"]), float(step["sigma"])),
        expected=lambda levels, step: sorted(levels + [float(step["E"])]),
    ),
    "remove": _StepKind(
        required=("n",), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step: remove_level_by_swf(v, int(step["n"])),
        # a level above the tracked ones leaves them as they are
        expected=lambda levels, step: levels[: int(step["n"]) - 1] + levels[int(step["n"]):],
    ),
    "scale_swf": _StepKind(
        required=("n", "lambda"), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step: scale_swf(v, int(step["n"]), float(step["lambda"])),
    ),
    "bsec": _StepKind(
        required=("E", "lambda"), positive=("E", "lambda"), bases=("half-line",),
        apply=lambda v, step: embed_bsec(
            math.sqrt(float(step["E"])), float(step["lambda"]), v.grid),
    ),
    # the band run applies the whole chain at once, through track_zone_shift
    "shift_zone": _StepKind(
        required=("dE",), optional={"aux_level": 2}, integers=("aux_level",),
        bases=("comb",), apply=None,
    ),
}

#: the numerics options; a `points` of None lets each base size its grid, and
#: `truncation` is the free line's half-width
_NUMERICS = _Keys(
    optional={"points": None, "truncation": 15.0, "tol_spectrum": 1e-5, "tol_reflection": 1e-5,
              "verify_levels": 4, "e_max": 10.0},
    integers=("points", "verify_levels"),
    positive=("truncation", "tol_spectrum", "tol_reflection"),
)

#: every base; the builders look their constructors up when a run starts
_BASES = {
    "box": _Base(optional={"width": math.pi}, positive=("width",),
                 build=lambda p, n: box(p["width"], n["points"])),
    "free-line": _Base(build=lambda p, n: free_line(n["truncation"], n["points"])),
    "half-line": _Base(optional={"length": 40 * math.pi}, positive=("length",),
                       build=lambda p, n: half_line(p["length"], n["points"])),
    "potential-csv": _Base(optional={"path": "", "bc": HARD_WALLS}, build=_potential_csv),
    "comb": _Base(
        optional={"period": math.pi, "strength": 2.0}, positive=("period",), run=_run_band,
        build=lambda p, n: PeriodicSystem(comb_cell(p["period"], p["strength"], n["points"]),
                                          p["period"]),
    ),
    "lattice-single-site": _Base(
        optional={"v0": -1.5, "half_width_sites": 25, "count": 1, "which": "lowest"},
        integers=("half_width_sites", "count"), build=_single_site_levels, run=_run_lattice,
    ),
    "lattice-stark": _Base(
        optional={"slope": 1.0, "window_sites": 40}, integers=("window_sites",),
        positive=("slope",), build=_stark_levels, run=_run_lattice,
    ),
}


# ---------------------------------------------------------------------------
# figure bundles: plot-ready CSVs of the canonical experiments, each a checked
# run of ``_STEPS`` steps on ``_BASES`` bases or of the oracle checks it names


def _draw(name: str, v: Potential, step: dict, result, count: int, manifest, artifacts):
    """Add the CSV `name`: x, V, dV and the step potential's lowest `count` states at their
    energies: the step's own states where it carries any (the embedded state, in the
    continuum), else the oracle's.  The step's entry records their orthonormality and,
    for a shift, the bump/knot signs of the potential change at the shifted state before
    the step."""
    v_new = result.potential
    states = result.states or bound_states(v_new, count)
    drawn = manifest["steps"][-1]["drawn"] = {
        "orthonormality_defect": orthonormality_defect(states)}
    if step["kind"] == "shift":
        drawn["sign_pattern"] = delta_v_sign_pattern(v, v_new, bound_states(v, step["n"])[-1])
    header = ["x", "V", "dV"] + [f"psi{s.n}_offset" for s in states]
    cols = [v_new.values, v_new.values - v.values] + [s.psi.values + s.energy for s in states]
    artifacts.add(name, csvio._grid_table, header, v.grid, cols)


def _default_base(name: str, numerics: dict, manifest: dict):
    """The base `name` with its default params, recorded in the manifest."""
    spec = _BASES[name]
    params = manifest["resolved"]["params"] = spec.with_defaults({})
    return spec.build(params, numerics)


def _curve_figure(base, step, n_states, numerics, manifest, artifacts, timing):
    """One checked step on a base, drawn with its lowest n_states states."""
    v = _default_base(base, numerics, manifest)
    expected = _chain_start(v, numerics, manifest)
    result, _, ok = _checked_step(v, step, expected, numerics, manifest, timing)
    _draw("curves.csv", v, step, result, n_states, manifest, artifacts)
    return ok


def _fig_reflectionless_box_approx(numerics, manifest, artifacts, timing):
    # acceptance check 7: the oracle finds the eight levels, and |R| = 0
    t0 = time.perf_counter()
    targets = sorted(k * k - 65.0 for k in range(1, 9))
    kappas = sorted((math.sqrt(-e) for e in targets), reverse=True)
    res = bargmann_reflectionless(kappas, [math.sqrt(2 * k) for k in kappas],
                                  n_points=numerics["points"])
    v = res.potential
    check = isospectral_check(v, targets, numerics["tol_spectrum"])
    sweep = reflection_check(v, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                             numerics["tol_reflection"])
    _add_step(manifest, timing, t0, step={"kind": "bargmann", "levels": targets},
              log=list(res.step_log), oracle=check, reflection=sweep)
    artifacts.add("potential.csv", csvio.sampled_fn_bytes, v.body, "V")
    artifacts.add("spectrum.csv", csvio.spectrum_bytes, bound_states(v, len(targets)))
    return check["pass"] and sweep["pass"]


def _fig_degeneration(numerics, manifest, artifacts, timing):
    """Level 2 shifted to each gap d below level 3, each shift on the box."""
    v = _default_base("box", numerics, manifest)
    expected = _chain_start(v, numerics, manifest)
    ok = True
    for d in (1.0, 0.3, 0.1):
        step = {"kind": "shift", "n": 2, "dE": expected[2] - expected[1] - d}
        result, _, passed = _checked_step(v, step, expected, numerics, manifest, timing)
        _draw(f"gap_{d}.csv", v, step, result, 3, manifest, artifacts)
        ok &= passed
    return ok


def _fig_bsec_resonance(numerics, manifest, artifacts, timing):
    # acceptance checks 8b (|R| > 0.999 at E = 10) and 8c (the width grows with lambda)
    energies = np.linspace(8.6, 11.4, 181)   # energies[90] = 10
    for lam in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        rr = bsec_reflection_curve(math.sqrt(10.0), lam, energies, half_width=80 * math.pi)
        abs_r = [abs(r.R) for r in rr]
        _add_step(manifest, timing, t0, step={"kind": "bsec_reflection", "E": 10.0, "lambda": lam},
                  abs_R_at_E=abs_r[90], width=peak_width(energies, abs_r)[2])
        artifacts.add(f"reflection_lam{lam}.csv", csvio._table,
                      ["energy", "abs_R"], ((r.energy, abs(r.R)) for r in rr))
    widths = [s["width"] for s in manifest["steps"]]
    manifest["checks"] = {"total_reflection": all(s["abs_R_at_E"] > 0.999 for s in manifest["steps"]),
                          "width_grows": bool(widths[0] < widths[1] < widths[2])}
    return all(manifest["checks"].values())


def _fig_zone_shift(numerics, manifest, artifacts, timing):
    comb = _default_base("comb", numerics, manifest)
    _zone_track(comb, 2, [0.25, 0.5, 0.75, 1.0, 1.5, 2.0], 11.0,
                manifest, artifacts, timing)
    return True


def _lattice_figure(base: str, numerics: dict, manifest: dict, timing: dict, **params):
    """`_lattice` on a lattice base with params over its defaults."""
    spec = _BASES[base]
    levels = spec.build(spec.with_defaults(params), numerics)
    return _lattice(levels, {"kind": "lattice", "base": base, **params}, manifest, timing)


def _fig_lattice_above_band(numerics, manifest, artifacts, timing):
    sites, below = _lattice_figure("lattice-single-site", numerics, manifest, timing, v0=-1.5)
    _, above = _lattice_figure("lattice-single-site", numerics, manifest, timing,
                               v0=1.5, which="highest")
    artifacts.add("states.csv", csvio._table, ["n", "psi_below", "psi_above"],
                  zip(sites, below[0].psi, above[0].psi))
    return True


def _fig_stark_ladders(numerics, manifest, artifacts, timing):
    for c in (1.0, 0.5, 0.25):
        sites, states = _lattice_figure("lattice-stark", numerics, manifest, timing, slope=c)
        central = min(states, key=lambda s: abs(ladder_index(s, c)))
        artifacts.add(f"ladder_C{c}.csv", csvio._table, ["n", "psi"], zip(sites, central.psi))
    return True


#: tag -> (body, description); body(numerics, manifest, artifacts, timing)
#: adds the bundle's files and is True if its checks pass
_FIGURES = {
    "fig1_1": (partial(_curve_figure, "box", {"kind": "shift", "n": 1, "dE": -5.0}, 2),
               "hard-wall box, ground level shifted 1 -> -4; states drawn at their energies"),
    "fig1_2": (partial(_curve_figure, "box", {"kind": "shift", "n": 1, "dE": 1.5}, 2),
               "hard-wall box, ground level raised 1 -> 2.5"),
    "fig1_6": (partial(_curve_figure, "free-line", {"kind": "create", "E": -1.0, "sigma": 0.5}, 1),
               "level torn from the free continuum at E = -1: the reflectionless soliton well"),
    "fig2_1": (partial(_curve_figure, "box", {"kind": "scale_swf", "n": 1, "lambda": 3.0}, 2),
               "box with the ground-state weight doubled (lambda = 3): state pressed to the left wall"),
    "fig2_5": (partial(_curve_figure, "box", {"kind": "scale_swf", "n": 1, "lambda": -0.99}, 2),
               "ground-state weight driven toward zero (lambda = -0.99): the state is pressed out"),
    "fig4_1": (_fig_reflectionless_box_approx,
               "reflectionless well carrying the 8 lowest box levels (shifted below threshold)"),
    "fig5_1": (_fig_degeneration, "levels 2 and 3 driven together; the pair presses into the walls"),
    "fig6_13": (partial(_curve_figure, "half-line", {"kind": "bsec", "E": 10.0, "lambda": 1.0}, 1),
                "half-line potential confining a normalizable state at E = 10 inside the continuum"),
    "fig6_14": (_fig_bsec_resonance,
                "whole-line |R(E)|: total reflection at E = 10, width growing with lambda"),
    "fig6_22": (_fig_zone_shift,
                "second-zone upper edge driven upward on the Dirac comb: gap closes, next zone squeezed"),
    "fig7_6": (_fig_lattice_above_band,
               "bound state above the band in the upside-down well (sign-alternating companion)"),
    "fig7_13": (_fig_stark_ladders,
                "central ladder state on linear slopes C, C/2, C/4: same shape, denser spectrum"),
}

#: the bundles whose grids are fixed or that sample none: they take no `points`
_FIXED_GRID = ("fig6_14", "fig7_6", "fig7_13")


def figure_tags() -> list[str]:
    return sorted(_FIGURES)


def run_figure(tag: str, out_dir, points: int | None = None) -> dict:
    """Build one bundle in out_dir as a checked run; returns its manifest.

    The data files are named ``<tag>_<file>``, and README.txt lists them.
    """
    if tag not in _FIGURES:
        raise ValidationError(f"unknown figure tag {tag!r}; known tags: {', '.join(figure_tags())}")
    given = {} if points is None else {"points": points}
    if given and tag in _FIXED_GRID:
        raise ValidationError(f"figure {tag} takes no points: its grid is fixed or it has none")
    _NUMERICS.check("figure:", given)
    numerics = _NUMERICS.with_defaults(given)
    body, description = _FIGURES[tag]

    def bundle(manifest, artifacts, timing):
        artifacts.prefix = f"{tag}_"
        ok = body(numerics, manifest, artifacts, timing)
        artifacts.prefix = ""
        readme = [f"bundle {tag}: {description}", ""] + [f"  {name}" for name in sorted(artifacts.files)]
        artifacts.add("README.txt", str.encode, "\n".join(readme) + "\n")
        return ok

    manifest = {"figure": {"tag": tag, "points": points}, "resolved": _resolved({}, numerics)}
    return _checked_run(bundle, manifest, Path(out_dir))


# ---------------------------------------------------------------------------
# argparse front end


#: flags that set one config key ("params.<key>" or "numerics.<key>"), read like a
#: config value and checked by the same tables; an unset flag is None and leaves
#: the file's value.  Every run takes _RUN_FLAGS; _COMMANDS adds each one's own.
_RUN_FLAGS = {"--points": "numerics.points", "--tol": "numerics.tol_spectrum",
              "--truncation": "numerics.truncation"}
_COMMANDS = {
    "solve": ("bound states of a base system", {"--count": "numerics.verify_levels"}),
    "design": ("run a transformation chain", {}),
    "band": ("zone layout / zone shifts of a comb",
             {"--strength": "params.strength", "--e-max": "numerics.e_max"}),
    "lattice": ("lattice spectra and ladders",
                {"--v0": "params.v0", "--slope": "params.slope", "--count": "params.count",
                 "--which": "params.which", "--window-sites": "params.window_sites"}),
}


def _load_config(args) -> RunConfig:
    cfg = parse_config(_read_text(args.config, "config file") if args.config else "")
    if getattr(args, "base", None):
        cfg.base = args.base
    if args.out:
        cfg.out = args.out
    elif os.environ.get("SPECDESIGN_OUT") and cfg.out == "out":
        cfg.out = str(Path(os.environ["SPECDESIGN_OUT"]) / "run")
    for dest, value in vars(args).items():
        table, _, key = dest.partition(".")
        if key and value is not None:
            getattr(cfg, table)[key] = value
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specdesign",
        description="spectral design of 1-D quantum systems with oracle verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runs = {}
    for command, (text, flags) in _COMMANDS.items():
        p_run = runs[command] = sub.add_parser(command, help=text)
        p_run.add_argument("--config", help="config file (key = value lines, [step] blocks)")
        p_run.add_argument("--out", help="output directory")
        for flag, dest in {**_RUN_FLAGS, **flags}.items():
            p_run.add_argument(flag, dest=dest, type=_parse_value, help=f"sets {dest}")
    for command in ("solve", "design"):
        runs[command].add_argument("--base", choices=tuple(_BASES))
    runs["band"].add_argument("--shift-aux", type=int)
    runs["band"].add_argument("--de", type=float, action="append")
    runs["lattice"].add_argument("--mode", choices=["single-site", "stark"])

    p_fig = sub.add_parser("figure", help="build a demonstration bundle as a checked run")
    p_fig.add_argument("tag", nargs="?", help="a bundle tag (see --list)")
    p_fig.add_argument("--list", action="store_true", help="list known tags")
    p_fig.add_argument("--out", help="output directory")
    p_fig.add_argument("--points", type=int, help="grid nodes (odd)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _dispatch(args) -> int:
    if args.command == "figure":
        if args.list or not args.tag:
            print("\n".join(figure_tags()))
            return EXIT_OK
        out = Path(args.out or os.environ.get("SPECDESIGN_OUT", "out")) / args.tag
        manifest = run_figure(args.tag, out, args.points)
    else:
        cfg = _load_config(args)
        if args.command == "solve":
            if cfg.chain:
                raise ValidationError("solve takes no [step] blocks; use design")
        elif args.command == "band":
            cfg.base = "comb"
            if args.shift_aux is not None and not args.de:
                raise ValidationError("--shift-aux sets the auxiliary level of the --de "
                                      "steps, and none is given")
            if args.de:
                aux = {} if args.shift_aux is None else {"aux_level": args.shift_aux}
                cfg.chain = [{"kind": "shift_zone", **aux, "dE": d} for d in args.de]
        elif args.command == "lattice":
            cfg.base = "lattice-stark" if args.mode == "stark" else "lattice-single-site"
        out = cfg.out
        manifest = run(cfg)
    print(f"status: {manifest['status']}; artifacts in {out}")
    return EXIT_OK if manifest["status"] == "ok" else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
