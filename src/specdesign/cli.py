"""Command-line front door: declarative runs with oracle-verified output.

Subcommands
-----------
solve    bound states (and scattering sweep, where defined) of a base system
design   execute a transformation chain from a config file, verifying the
         spectrum after every step
band     zone layout of a Dirac comb, optionally shifting a zone edge
lattice  site-potential spectra, ladders and tunneling
figure   emit one of the canned demonstration bundles

Configs are flat ``key = value`` text with repeated ``[step]`` blocks; a
flag that is given overrides the file, and the file overrides the defaults
in ``_BASES`` and ``_NUMERICS``.  Exit codes: 0 success, 2 invalid input
(nothing is written), 3 numerical failure or a failed verification
(partial artifacts plus a manifest marking the failed step).
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
from pathlib import Path

import numpy as np

from . import csvio
from .bands import PeriodicSystem, bisect_gap_closure, track_zone_shift, zones
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
        for step in self.chain:
            name = step.get("kind")
            kind = _STEPS.get(name)
            if kind is None:
                raise ValidationError(f"unknown step kind {name!r}")
            if self.base not in kind.bases:
                raise ValidationError(f"{name} steps need one of the bases {', '.join(kind.bases)}")
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


def _apply_step(v: Potential, step: dict, n_track: int, cap: float):
    kind = _STEPS[step["kind"]]
    return kind.apply(v, kind.with_defaults(step), n_track, cap)


def run(config: RunConfig) -> dict:
    """Execute a configured run; returns the manifest (also written to disk).

    Raises ValidationError before anything is written; on numerical failure
    the partial artifacts and a manifest marking the failed step are written
    and the manifest reports status 'numerical-failure'.
    """
    config.validate()
    spec = _BASES[config.base]
    params = spec.with_defaults(config.params)
    numerics = _NUMERICS.with_defaults(config.numerics)
    base = spec.build(params, numerics)
    out_dir = Path(config.out)
    artifacts = _Artifacts()
    timing: dict = {"steps_ms": [], "scattering_ms": 0.0}
    manifest: dict = {
        "config": asdict(config),
        "resolved": {
            "params": params,
            "tol_spectrum": numerics["tol_spectrum"], "tol_reflection": numerics["tol_reflection"],
            "verify_levels": numerics["verify_levels"], "emission_cap": numerics["cap"],
        },
        "steps": [],
        "status": "ok",
    }
    t_start = time.perf_counter()

    with oracle_scope() as work:
        try:
            status_ok = spec.run(base, config.chain, numerics, manifest, artifacts, timing)
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


def _run_chain(v, chain, numerics, manifest, artifacts, timing):
    verify_levels = numerics["verify_levels"]
    g = v.grid
    manifest["resolved"]["grid"] = {"x_min": g.x_min, "x_max": g.x_max, "n_points": g.n_points}
    if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE):
        manifest["resolved"]["truncation"] = g.x_max
    expected = [s.energy for s in bound_states(v, verify_levels)]
    manifest["resolved"]["base_spectrum"] = list(expected)
    all_ok = True
    step_log_all = []

    for step in chain:
        t0 = time.perf_counter()
        v_before = v
        result = _apply_step(v, step, verify_levels, numerics["cap"])
        v = result.potential
        expected = _STEPS[step["kind"]].expected(expected, step)
        entry = {"step": dict(step), "log": [dict(e) for e in result.step_log]}

        if step["kind"] == "bsec":
            entry["bsec_metrics"] = dict(result.step_log[0])
        else:
            check = isospectral_check(v, expected[:verify_levels], numerics["tol_spectrum"])
            entry["oracle"] = check
            all_ok &= check["pass"]
            if step["kind"] == "scale_swf":
                n = int(step["n"])
                want = math.sqrt(1.0 + float(step["lambda"]))
                before = bound_states(v_before, n)
                after = bound_states(v, n)
                if len(before) >= n and len(after) >= n:
                    ratio = after[n - 1].swf / before[n - 1].swf
                    entry["swf_ratio"] = {"measured": ratio, "expected": want,
                                          "pass": bool(abs(ratio - want) < 1e-5)}
                    all_ok &= entry["swf_ratio"]["pass"]
        if v.bc_kind == DECAYING_LINE:
            sweep = reflection_check(v, [0.5, 1.0, 2.5, 5.0], numerics["tol_reflection"])
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
    track_values = [float(step["dE"]) for step in chain]
    t0 = time.perf_counter()
    if track_values:
        aux_level = _STEPS["shift_zone"].with_defaults(chain[0])["aux_level"]
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
    timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
    return True


def _run_lattice(levels, chain, numerics, manifest, artifacts, timing):
    t0 = time.perf_counter()
    sites, states = levels()
    artifacts.add("lattice_spectrum.csv", csvio.lattice_spectrum_bytes, states)
    artifacts.add("lattice_states.csv", csvio.lattice_states_bytes, sites, states)
    manifest["steps"].append({"step": {"kind": "lattice"},
                              "levels": [s.energy for s in states]})
    timing["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
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

    `apply` gets the step with its defaults filled in and returns the
    TransformResult; `expected` edits the expected energies.
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

#: the numerics options; a `points` of None lets each base size its grid, and
#: `truncation` is the free line's half-width
_NUMERICS = _Keys(
    optional={"points": None, "truncation": 15.0, "tol_spectrum": 1e-5, "tol_reflection": 1e-5,
              "verify_levels": 4, "e_max": 10.0, "cap": 1e6},
    integers=("points", "verify_levels"),
    positive=("truncation", "tol_spectrum", "tol_reflection", "cap"),
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

    p_fig = sub.add_parser("figure", help="emit a demonstration bundle")
    p_fig.add_argument("tag", nargs="?", help=f"one of: {', '.join(figure_tags())}")
    p_fig.add_argument("--list", action="store_true", help="list known tags")
    p_fig.add_argument("--out", help="output directory")
    p_fig.add_argument("--points", type=int, help="grid nodes (odd)")

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
    elif args.command == "band":
        cfg.base = "comb"
        if args.de:
            aux = {} if args.shift_aux is None else {"aux_level": args.shift_aux}
            cfg.chain = [{"kind": "shift_zone", **aux, "dE": d} for d in args.de]
    elif args.command == "lattice":
        cfg.base = "lattice-stark" if args.mode == "stark" else "lattice-single-site"

    manifest = run(cfg)
    worst = manifest["status"]
    print(f"status: {worst}; artifacts in {cfg.out}")
    return EXIT_OK if worst == "ok" else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
