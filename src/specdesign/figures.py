"""Plot-ready data bundles for the standard demonstration set.

Each tag reproduces one of the canonical experiments as CSV curves plus a
README describing the files; no plotting happens here.
"""

from __future__ import annotations

from functools import partial
import math
from pathlib import Path

import numpy as np

from .bands import PeriodicSystem, track_zone_shift
from .csvio import _grid_table, _table, sampled_fn_bytes, spectrum_bytes, zone_track_bytes
from .darboux import (
    bargmann_reflectionless,
    bsec_reflection_curve,
    darboux_create,
    degeneration_family,
    embed_bsec,
    scale_swf,
    shift_level,
)
from .errors import ValidationError
from .lattice import single_site, lattice_bound_states, stark_ladder, ladder_index
from .potentials import box, comb_cell, free_line, half_line


def _offset_curves(grid, base_values, result, n_states):
    """x, V, dV plus the lowest transformed states raised to their energies."""
    cols = [result.potential.values, result.potential.values - base_values]
    header = ["x", "V", "dV"]
    for s in result.states[:n_states]:
        cols.append(s.psi.values + s.energy)
        header.append(f"psi{s.n}_offset")
    return _grid_table(header, grid, cols)


#: one transform of a base system, drawn as curves: tag -> (base, transform,
#: transformed states drawn, description)
_CURVE_FIGURES = {
    "fig1_1": (box, lambda v: shift_level(v, 1, -5.0), 2,
               "hard-wall box, ground level shifted 1 -> -4; states drawn at their energies"),
    "fig1_2": (box, lambda v: shift_level(v, 1, 1.5), 2,
               "hard-wall box, ground level raised 1 -> 2.5"),
    "fig1_6": (free_line, lambda v: darboux_create(v, -1.0, 0.5), 1,
               "level torn from the free continuum at E = -1: the reflectionless soliton well"),
    "fig2_1": (box, lambda v: scale_swf(v, 1, 3.0), 2,
               "box with the ground-state weight doubled (lambda = 3): state pressed to the left wall"),
    "fig2_5": (box, lambda v: scale_swf(v, 1, -0.99), 2,
               "ground-state weight driven toward zero (lambda = -0.99): the state is pressed out"),
    "fig6_13": (partial(half_line, 40 * math.pi),
                lambda v: embed_bsec(math.sqrt(10.0), 1.0, v.grid), 1,
                "half-line potential confining a normalizable state at E = 10 inside the continuum"),
}


def _curve_figure(base, transform, n_states, description, points):
    v = base(n_points=points)
    return {"curves.csv": _offset_curves(v.grid, v.values, transform(v), n_states)}, description


def _fig_reflectionless_box_approx(points):
    targets = sorted(k * k - 65.0 for k in range(1, 9))
    kappas = sorted((math.sqrt(-e) for e in targets), reverse=True)
    res = bargmann_reflectionless(kappas, [math.sqrt(2 * k) for k in kappas],
                                  n_points=points)
    return {
        "potential.csv": sampled_fn_bytes(res.potential.body, "V"),
        "spectrum.csv": spectrum_bytes(res.states),
    }, "reflectionless well carrying the 8 lowest box levels (shifted below threshold)"


def _fig_degeneration(points):
    v = box(n_points=points)
    deltas = [1.0, 0.3, 0.1]
    fams = degeneration_family(v, 2, deltas)
    files = {}
    for d, res in zip(deltas, fams):
        files[f"gap_{d}.csv"] = _offset_curves(v.grid, v.values, res, 3)
    return files, "levels 2 and 3 driven together; the pair presses into the walls"


def _fig_bsec_resonance(points):
    energies = np.linspace(8.6, 11.4, 181)
    files = {}
    for lam in (0.5, 1.0, 2.0):
        rr = bsec_reflection_curve(math.sqrt(10.0), lam, energies, half_width=80 * math.pi)
        files[f"reflection_lam{lam}.csv"] = _table(
            ["energy", "abs_R"], ((r.energy, abs(r.R)) for r in rr)
        )
    return files, "whole-line |R(E)|: total reflection at E = 10, width growing with lambda"


def _fig_zone_shift(points):
    comb = PeriodicSystem(comb_cell(strength=2.0, n_points=points), math.pi)
    rows = track_zone_shift(comb, 2, [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0], e_max=11.0)
    return {
        "zone_track.csv": zone_track_bytes(rows),
    }, "second-zone upper edge driven upward on the Dirac comb: gap closes, next zone squeezed"


def _fig_lattice_above_band(points):
    sys = single_site(1.5)
    below = lattice_bound_states(single_site(-1.5), 1)
    above = lattice_bound_states(sys, 1, which="highest")
    rows = zip(sys.sites, below[0].psi, above[0].psi)
    return {
        "states.csv": _table(["n", "psi_below", "psi_above"], rows),
    }, "bound state above the band in the upside-down well (sign-alternating companion)"


def _fig_stark_ladders(points):
    files = {}
    window = (-40, 40)
    for c in (1.0, 0.5, 0.25):
        states = stark_ladder(c, window)
        central = min(states, key=lambda s: abs(ladder_index(s, c)))
        sites = np.arange(window[0], window[1] + 1)
        files[f"ladder_C{c}.csv"] = _table(["n", "psi"], zip(sites, central.psi))
    return files, "central ladder state on linear slopes C, C/2, C/4: same shape, denser spectrum"


_TAGS = {
    **{tag: partial(_curve_figure, *row) for tag, row in _CURVE_FIGURES.items()},
    "fig4_1": _fig_reflectionless_box_approx,
    "fig5_1": _fig_degeneration,
    "fig6_14": _fig_bsec_resonance,
    "fig6_22": _fig_zone_shift,
    "fig7_6": _fig_lattice_above_band,
    "fig7_13": _fig_stark_ladders,
}


def figure_tags() -> list[str]:
    return sorted(_TAGS)


def build_figure_bundle(tag: str, points: int | None = None) -> dict[str, bytes]:
    """Compute one bundle: {filename: bytes}, including its README."""
    if tag not in _TAGS:
        raise ValidationError(f"unknown figure tag {tag!r}; known tags: {', '.join(figure_tags())}")
    files, description = _TAGS[tag](points)
    readme = [f"bundle {tag}: {description}", ""]
    for name in sorted(files):
        readme.append(f"  {tag}_{name}")
    out = {f"{tag}_{name}": data for name, data in files.items()}
    out["README.txt"] = ("\n".join(readme) + "\n").encode()
    return out


def emit_figure_bundle(tag: str, out_dir, points: int | None = None) -> list[str]:
    """Write one figure bundle to a directory; returns the file names."""
    bundle = build_figure_bundle(tag, points)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in bundle.items():
        (out / name).write_bytes(data)
    return sorted(bundle)
