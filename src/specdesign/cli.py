"""Command-line front door: declarative runs with oracle-verified output.

Subcommands
-----------
solve    bound states (and scattering sweep, where defined) of a base system
design   execute a transformation chain from a config file, verifying the
         spectrum after every step
band     zone layout of a Dirac comb, optionally shifting a zone edge
lattice  site-potential spectra, ladders and tunneling
figure   emit one of the canned demonstration bundles

Configs are flat ``key = value`` text with repeated ``[step]`` blocks; flags
override file values.  Exit codes: 0 success, 2 invalid input (nothing is
written), 3 numerical failure or a failed verification (partial artifacts
plus a manifest marking the failed step).
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import csvio
from .bands import GAP_CLOSED, PeriodicSystem, shift_zone, track_zone_shift, zones
from .darboux import (
    darboux_create,
    embed_bsec,
    remove_level_by_swf,
    scale_swf,
    shift_level,
)
from .errors import NumericalFailure, SingularityError, ValidationError
from .figures import emit_figure_bundle, figure_tags
from .lattice import lattice_bound_states, single_site, stark_ladder
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
from .verify import isospectral_check, reflection_check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_CONTINUUM_BASES = ("box", "free-line", "half-line", "potential-csv")
_BASES = _CONTINUUM_BASES + ("comb", "lattice-single-site", "lattice-stark")


@dataclass(frozen=True)
class _StepKind:
    """One step kind: the keys it reads, the bases it runs on, what it does.

    Integer keys are level indices; they and the `positive` keys must exceed
    0.  `apply` gets the step with its defaults filled in and returns the
    TransformResult; `expected` edits the expected energies.
    """

    required: tuple
    bases: tuple
    apply: Callable | None
    expected: Callable = lambda levels, step: list(levels)
    optional: dict = field(default_factory=dict)
    integers: tuple = ()
    positive: tuple = ()

    def with_defaults(self, step: dict) -> dict:
        return {**self.optional, **step}


def _shifted(levels, step):
    out = list(levels)
    out[int(step["n"]) - 1] += float(step["dE"])
    return sorted(out)


#: every step kind; no entry lists a lattice base, so those take no steps.  The
#: transforms are looked up when a step runs, so a wrapped module attribute sees it.
_STEPS = {
    "shift": _StepKind(
        required=("n", "dE"), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step, n_track, cap: shift_level(
            v, int(step["n"]), float(step["dE"]), n_track=n_track, cap=cap),
        expected=_shifted,
    ),
    "create": _StepKind(
        required=("E",), optional={"sigma": 0.5}, bases=_CONTINUUM_BASES,
        apply=lambda v, step, n_track, cap: darboux_create(
            v, float(step["E"]), float(step["sigma"]), n_track=n_track, cap=cap),
        expected=lambda levels, step: sorted(levels + [float(step["E"])]),
    ),
    "remove": _StepKind(
        required=("n",), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step, n_track, cap: remove_level_by_swf(
            v, int(step["n"]), n_track=n_track, cap=cap),
        # a level above the tracked ones leaves them as they are
        expected=lambda levels, step: levels[: int(step["n"]) - 1] + levels[int(step["n"]):],
    ),
    "scale_swf": _StepKind(
        required=("n", "lambda"), integers=("n",), bases=_CONTINUUM_BASES,
        apply=lambda v, step, n_track, cap: scale_swf(
            v, int(step["n"]), float(step["lambda"]), n_track=n_track, cap=cap),
    ),
    "bsec": _StepKind(
        required=("E", "lambda"), positive=("E", "lambda"), bases=("half-line",),
        apply=lambda v, step, n_track, cap: embed_bsec(
            math.sqrt(float(step["E"])), float(step["lambda"]), v.grid),
    ),
    # the band run applies the whole chain at once, through track_zone_shift
    "shift_zone": _StepKind(
        required=("dE",), optional={"aux_level": 2}, integers=("aux_level",),
        bases=("comb",), apply=None,
    ),
}


def _check_number(where: str, key: str, value, integral: bool, positive: bool):
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        wanted = "an integer" if integral else "a number"
        raise ValidationError(f"{where} {key} must be {wanted}, got {value!r}")
    if positive and value <= 0:
        raise ValidationError(f"{where} {key} must be positive, got {value}")


@dataclass
class RunConfig:
    base: str = "box"
    params: dict = field(default_factory=dict)
    chain: list = field(default_factory=list)
    numerics: dict = field(default_factory=dict)
    out: str = "out"

    def validate(self):
        if self.base not in _BASES:
            raise ValidationError(f"unknown base {self.base!r}; expected one of {_BASES}")
        numbers = [("numerics option", self.numerics), ("base parameter", self.params)]
        numbers += [(f"{step.get('kind')} step:", step) for step in self.chain]
        for where, values in numbers:
            for key, value in values.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValidationError(f"{where} {key} must be finite, got {value}")
        for key, value in self.numerics.items():
            if key in ("tol_spectrum", "tol_reflection", "truncation", "cap", "verify_levels"):
                _check_number("numerics option", key, value, key == "verify_levels", True)
        for step in self.chain:
            name = step.get("kind")
            kind = _STEPS.get(name)
            if kind is None:
                raise ValidationError(f"unknown step kind {name!r}")
            if self.base not in kind.bases:
                raise ValidationError(f"{name} steps need one of the bases {', '.join(kind.bases)}")
            for key in kind.required:
                if key not in step:
                    raise ValidationError(f"{name} step needs a value for {key}")
            for key, value in step.items():
                if key == "kind":
                    continue
                if key not in kind.required and key not in kind.optional:
                    raise ValidationError(f"{name} step: unknown key {key!r}")
                integral = key in kind.integers
                _check_number(f"{name} step:", key, value, integral, integral or key in kind.positive)
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
        elif key == "base":
            cfg.base = str(parsed)
        elif key == "out":
            cfg.out = str(parsed)
        elif key in ("points", "truncation", "tol_spectrum", "tol_reflection",
                     "verify_levels", "e_max", "cap"):
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


def _build_base(cfg: RunConfig) -> Potential | PeriodicSystem | tuple:
    p = cfg.params
    points = cfg.numerics.get("points")
    if cfg.base == "box":
        return box(p.get("width", math.pi), points)
    if cfg.base == "free-line":
        return free_line(cfg.numerics.get("truncation", 15.0), points)
    if cfg.base == "half-line":
        return half_line(p.get("length", 40 * math.pi), points)
    if cfg.base == "potential-csv":
        path = p.get("path")
        if not path:
            raise ValidationError("potential-csv base needs a path")
        body = csvio.read_sampled_fn(_read_text(path, "potential-csv path"))
        return Potential(body, p.get("bc", HARD_WALLS))
    if cfg.base == "comb":
        period = p.get("period", math.pi)
        return PeriodicSystem(comb_cell(period, p.get("strength", 2.0), points), period)
    if cfg.base == "lattice-single-site":
        return single_site(p.get("v0", -1.5), int(p.get("half_width_sites", 25)))
    if cfg.base == "lattice-stark":
        w = int(p.get("window_sites", 40))
        return ("stark", p.get("slope", 1.0), (-w, w))


class _Artifacts:
    """Buffered output: nothing hits the disk until the run decides to.

    ``format_s`` sums the seconds spent formatting the files' bytes.
    """

    def __init__(self):
        self.files: dict[str, bytes] = {}
        self.format_s = 0.0

    def add(self, name: str, fmt, *args):
        """Store the bytes fmt(*args) as file `name`."""
        t0 = time.perf_counter()
        self.files[name] = fmt(*args)
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


def _apply_step(v: Potential, step: dict, n_track: int, cap: float = 1e6):
    kind = _STEPS[step["kind"]]
    return kind.apply(v, kind.with_defaults(step), n_track, cap)


def run(config: RunConfig) -> dict:
    """Execute a configured run; returns the manifest (also written to disk).

    Raises ValidationError before anything is written; on numerical failure
    the partial artifacts and a manifest marking the failed step are written
    and the manifest reports status 'numerical-failure'.
    """
    config.validate()
    base = _build_base(config)
    out_dir = Path(config.out)
    artifacts = _Artifacts()
    timing: dict = {"steps_ms": [], "scattering_ms": 0.0}
    manifest: dict = {
        "config": {
            "base": config.base, "params": config.params,
            "chain": config.chain, "numerics": config.numerics, "out": config.out,
        },
        "resolved": {},
        "steps": [],
        "status": "ok",
    }
    t_start = time.perf_counter()
    tol_spec = float(config.numerics.get("tol_spectrum", 1e-5))
    tol_refl = float(config.numerics.get("tol_reflection", 1e-5))
    verify_levels = int(config.numerics.get("verify_levels", 4))
    cap = float(config.numerics.get("cap", 1e6))
    manifest["resolved"] = {
        "tol_spectrum": tol_spec, "tol_reflection": tol_refl,
        "verify_levels": verify_levels, "emission_cap": cap,
    }
    if isinstance(base, Potential):
        g = base.grid
        manifest["resolved"]["grid"] = {"x_min": g.x_min, "x_max": g.x_max,
                                        "n_points": g.n_points}
        if base.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE):
            manifest["resolved"]["truncation"] = g.x_max

    with oracle_scope() as work:
        try:
            if isinstance(base, Potential) and config.base in _CONTINUUM_BASES:
                status_ok = _run_chain(base, config, manifest, artifacts, timing,
                                       tol_spec, tol_refl, verify_levels, cap)
            elif isinstance(base, PeriodicSystem):
                status_ok = _run_band(base, config, manifest, artifacts, timing)
            else:
                status_ok = _run_lattice(base, config, manifest, artifacts, timing)
        except (NumericalFailure, SingularityError) as exc:
            manifest["status"] = "numerical-failure"
            manifest["error"] = str(exc)
            manifest["failed_step"] = len(manifest["steps"])
            status_ok = False

    if manifest["status"] == "ok" and not status_ok:
        manifest["status"] = "verification-failed"
    timing["total_ms"] = 1000.0 * (time.perf_counter() - t_start)
    timing["csv_ms"] = 1000.0 * artifacts.format_s
    manifest["oracle_work"] = work.ledger()
    manifest["timing"] = timing
    manifest["artifacts"] = artifacts.write(out_dir)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return manifest


def _run_chain(v, config, manifest, artifacts, timing, tol_spec, tol_refl, verify_levels, cap=1e6):
    expected = [s.energy for s in bound_states(v, verify_levels)]
    manifest["resolved"]["base_spectrum"] = list(expected)
    all_ok = True
    step_log_all = []

    for step in config.chain:
        t0 = time.perf_counter()
        v_before = v
        result = _apply_step(v, step, verify_levels, cap)
        v = result.potential
        expected = _STEPS[step["kind"]].expected(expected, step)
        entry = {"step": dict(step), "log": [dict(e) for e in result.step_log]}

        if step["kind"] == "bsec":
            entry["bsec_metrics"] = dict(result.step_log[0])
        else:
            check = isospectral_check(v, expected[:verify_levels], tol_spec)
            entry["oracle"] = check
            all_ok &= check["pass"]
            if step["kind"] == "scale_swf":
                n = int(step["n"])
                lam = float(step["lambda"])
                before = bound_states(v_before, n)
                after = bound_states(v, n)
                if len(before) >= n and len(after) >= n:
                    ratio = after[n - 1].swf / before[n - 1].swf
                    entry["swf_ratio"] = {
                        "measured": ratio, "expected": math.sqrt(1.0 + lam),
                        "pass": bool(abs(ratio - math.sqrt(1.0 + lam)) < 1e-5),
                    }
                    all_ok &= entry["swf_ratio"]["pass"]
        if v.bc_kind == DECAYING_LINE:
            sweep = reflection_check(v, [0.5, 1.0, 2.5, 5.0], tol_refl)
            entry["reflection"] = sweep
            if step["kind"] == "create":  # reflectionless claim applies
                all_ok &= sweep["pass"]
        timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
        manifest["steps"].append(entry)
        step_log_all.extend(result.step_log)

    if expected:
        count = min(verify_levels, len(expected))
    else:
        count = 0 if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE) else verify_levels
    states = bound_states(v, count) if count else []
    artifacts.add("potential.csv", csvio.sampled_fn_bytes, v.body, "V")
    if states:
        artifacts.add("spectrum.csv", csvio.spectrum_bytes, states)
        artifacts.add("states.csv", csvio.states_bytes, v.grid, states)
    else:
        artifacts.add("spectrum.csv", csvio.spectrum_bytes, [])
    if step_log_all:
        artifacts.add("steplog.csv", csvio.steplog_bytes, step_log_all)
    if v.bc_kind == DECAYING_LINE:
        t0 = time.perf_counter()
        curve = scattering_curve(v, np.linspace(0.25, 10.0, 40))
        timing["scattering_ms"] = 1000.0 * (time.perf_counter() - t0)
        artifacts.add("scattering.csv", csvio.scattering_bytes, curve)
    return all_ok


def _run_band(system, config, manifest, artifacts, timing):
    e_max = float(config.numerics.get("e_max", 10.0))
    track_values = []
    for step in config.chain:
        track_values.append(float(step["dE"]))
    t0 = time.perf_counter()
    if track_values:
        aux_level = int(_STEPS["shift_zone"].with_defaults(config.chain[0])["aux_level"])
        rows = track_zone_shift(system, aux_level, [0.0] + track_values, e_max)
        artifacts.add("zone_track.csv", csvio.zone_track_bytes, rows)
        manifest["steps"].append({
            "step": {"kind": "shift_zone", "aux_level": aux_level, "dE_values": track_values},
            "rows": [
                {"dE": r["dE"], "edge_energy": r["edge_energy"], "tracked_gap": r["tracked_gap"],
                 "zones": [(z.e_lo, z.e_hi) for z in r["zones"]], "gaps": r["gaps"]}
                for r in rows
            ],
        })
        closure = _bisect_gap_closure(system, aux_level, rows, e_max)
        if closure is not None:
            manifest["resolved"]["gap_closure_dE"] = closure
        final = rows[-1]["zones"]
    else:
        final = zones(system, e_max)
    artifacts.add("zones.csv", csvio.zones_bytes, final)
    es = np.linspace(float(system.cell.values.min()) - 1.0, e_max, 501)
    artifacts.add("discriminant.csv",
                  csvio.discriminant_bytes, es, band_discriminant_curve(system.cell, es))
    timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
    return True


def _bisect_gap_closure(system, aux_level, rows, e_max, tol=GAP_CLOSED):
    """Shift size at which the tracked gap closes, if the scan brackets it."""
    lo = hi = None
    for a, b in zip(rows, rows[1:]):
        if a["tracked_gap"] > 0.0 and b["tracked_gap"] == 0.0:
            lo, hi = a["dE"], b["dE"]
            break
    if lo is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        zs = zones(shift_zone(system, aux_level, mid), e_max)
        edge = rows[0]["edge_energy"] + mid
        merged = any(abs(z.e_lo - edge) < 1e-6 for z in zs)
        if merged:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _run_lattice(base, config, manifest, artifacts, timing):
    t0 = time.perf_counter()
    if isinstance(base, tuple) and base[0] == "stark":
        _, slope, window = base
        states = stark_ladder(slope, window)
        sites = np.arange(window[0], window[1] + 1)
    else:
        count = int(config.params.get("count", 1))
        which = str(config.params.get("which", "lowest"))
        states = lattice_bound_states(base, count, which)
        sites = base.sites
    artifacts.add("lattice_spectrum.csv", csvio.lattice_spectrum_bytes, states)
    artifacts.add("lattice_states.csv", csvio.lattice_states_bytes, sites, states)
    manifest["steps"].append({"step": {"kind": "lattice"},
                              "levels": [s.energy for s in states]})
    timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
    return True


# ---------------------------------------------------------------------------
# argparse front end


def _common(parser):
    parser.add_argument("--config", help="config file (key = value lines, [step] blocks)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--points", type=int, help="grid nodes (odd)")
    parser.add_argument("--tol", type=float, help="spectrum verification tolerance")
    parser.add_argument("--truncation", type=float, help="half-width for line problems")


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = parse_config(_read_text(args.config, "config file"))
    else:
        cfg = RunConfig()
    if getattr(args, "base", None):
        cfg.base = args.base
    if args.out:
        cfg.out = args.out
    elif os.environ.get("SPECDESIGN_OUT") and cfg.out == "out":
        cfg.out = str(Path(os.environ["SPECDESIGN_OUT"]) / "run")
    if args.points is not None:
        cfg.numerics["points"] = args.points
    if args.tol is not None:
        cfg.numerics["tol_spectrum"] = args.tol
    if args.truncation is not None:
        cfg.numerics["truncation"] = args.truncation
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specdesign",
        description="spectral design of 1-D quantum systems with oracle verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="bound states of a base system")
    p_solve.add_argument("--base", choices=_BASES)
    p_solve.add_argument("--count", type=int, default=4)
    _common(p_solve)

    p_design = sub.add_parser("design", help="run a transformation chain")
    p_design.add_argument("--base", choices=_BASES)
    _common(p_design)

    p_band = sub.add_parser("band", help="zone layout / zone shifts of a comb")
    p_band.add_argument("--strength", type=float, default=2.0)
    p_band.add_argument("--e-max", type=float, default=10.0)
    p_band.add_argument("--shift-aux", type=int)
    p_band.add_argument("--de", type=float, action="append")
    _common(p_band)

    p_lat = sub.add_parser("lattice", help="lattice spectra and ladders")
    p_lat.add_argument("--mode", choices=["single-site", "stark"], default="single-site")
    p_lat.add_argument("--v0", type=float, default=-1.5)
    p_lat.add_argument("--slope", type=float, default=1.0)
    p_lat.add_argument("--count", type=int, default=1)
    p_lat.add_argument("--which", choices=["lowest", "highest"], default="lowest")
    p_lat.add_argument("--window-sites", type=int, default=40)
    _common(p_lat)

    p_fig = sub.add_parser("figure", help="emit a demonstration bundle")
    p_fig.add_argument("tag", nargs="?", help=f"one of: {', '.join(figure_tags())}")
    p_fig.add_argument("--list", action="store_true", help="list known tags")
    _common(p_fig)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, SingularityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args) -> int:
    if args.command == "figure":
        if args.list or not args.tag:
            print("\n".join(figure_tags()))
            return EXIT_OK
        out = Path(args.out or os.environ.get("SPECDESIGN_OUT", "out")) / args.tag
        names = emit_figure_bundle(args.tag, out, args.points)
        print(f"wrote {len(names)} files to {out}")
        return EXIT_OK

    cfg = _load_config(args)
    if args.command == "solve":
        cfg.chain = []
        cfg.numerics["verify_levels"] = args.count
    elif args.command == "band":
        cfg.base = "comb"
        cfg.params.setdefault("strength", args.strength)
        cfg.numerics.setdefault("e_max", args.e_max)
        if args.de:
            aux = 2 if args.shift_aux is None else args.shift_aux
            cfg.chain = [{"kind": "shift_zone", "aux_level": aux, "dE": d} for d in args.de]
    elif args.command == "lattice":
        if args.mode == "stark":
            cfg.base = "lattice-stark"
            cfg.params.setdefault("slope", args.slope)
            cfg.params.setdefault("window_sites", args.window_sites)
        else:
            cfg.base = "lattice-single-site"
            cfg.params.setdefault("v0", args.v0)
            cfg.params.setdefault("count", args.count)
            cfg.params.setdefault("which", args.which)

    manifest = run(cfg)
    worst = manifest["status"]
    print(f"status: {worst}; artifacts in {cfg.out}")
    return EXIT_OK if worst == "ok" else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
