"""Oracle-side verification helpers: isospectrality ledger, flux, widths.

These are the checks the chain runner executes after every transformation;
they only ever consult the direct solver, never the transformation's own
bookkeeping.
"""

from __future__ import annotations

import numpy as np

from .grid import SampledFn, integrate
from .potentials import Potential
from .solver import bound_states, scattering_curve


def isospectral_check(v: Potential, expected, tol: float = 1e-5) -> dict:
    """Compare the oracle spectrum of v against expected level positions.

    Returns a ledger entry: per-level (expected, measured, deviation) rows,
    the worst deviation, and the overall verdict.  A level the oracle does
    not find has measured and dev None, the worst deviation is then None
    too, and the check fails; every value stays valid JSON.
    """
    expected = [float(e) for e in expected]
    found = bound_states(v, len(expected)) if expected else []
    rows = []
    for i, e in enumerate(expected):
        measured = found[i].energy if i < len(found) else None
        dev = None if measured is None else abs(measured - e)
        rows.append({"n": i + 1, "expected": e, "measured": measured, "dev": dev})
    devs = [row["dev"] for row in rows]
    worst = None if None in devs else max(devs, default=0.0)
    return {"levels": rows, "worst_dev": worst, "tol": tol,
            "pass": worst is not None and bool(worst < tol)}


def reflection_check(v: Potential, energies, tol: float = 1e-5,
                     before: Potential | None = None) -> dict:
    """Compare |R(E)| of v on an energy sweep with that of the potential `before`
    an edit (every continuum edit keeps |R|), or with 0 where there is none (a
    reflectionless claim); passes when no |R| differs by tol or more.
    """
    results = scattering_curve(v, energies)
    abs_r = [abs(r.R) for r in results]
    entry = {"energies": [r.energy for r in results], "abs_R": abs_r, "worst_abs_R": max(abs_r)}
    want = [0.0] * len(abs_r)
    if before is not None:
        want = entry["abs_R_before"] = [abs(r.R) for r in scattering_curve(before, energies)]
    entry["worst_dev"] = max(abs(a - b) for a, b in zip(abs_r, want))
    return {**entry, "tol": tol, "pass": bool(entry["worst_dev"] < tol)}


def orthonormality_defect(states) -> float:
    """Largest deviation of <psi_i | psi_j> from the identity matrix."""
    worst = 0.0
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            ip = integrate(SampledFn(si.psi.grid, si.psi.values * sj.psi.values))
            worst = max(worst, abs(ip - (1.0 if i == j else 0.0)))
    return worst


#: where the resonance width is measured: this fraction of the way from the
#: curve's minimum up to its peak
PEAK_WIDTH_LEVEL = 0.5


def peak_width(energies, values) -> tuple[float, float, float]:
    """Peak position, height and width of a resonance curve.

    The width is measured where the curve crosses
    baseline + PEAK_WIDTH_LEVEL * (peak - baseline), with the baseline
    taken as the curve minimum over the scan (prominence-based half width);
    crossings are linearly interpolated.
    """
    e = np.asarray(energies, dtype=float)
    y = np.asarray(values, dtype=float)
    i0 = int(np.argmax(y))
    peak_e, peak_y = float(e[i0]), float(y[i0])
    base = float(y.min())
    cut = base + PEAK_WIDTH_LEVEL * (peak_y - base)

    def cross(idx_range, backward):
        prev = i0
        for j in idx_range:
            if y[j] < cut:
                a, b = (j, prev) if backward else (prev, j)
                frac = (cut - y[a]) / (y[b] - y[a])
                return float(e[a] + frac * (e[b] - e[a]))
            prev = j
        return float(e[idx_range[-1]] if len(idx_range) else peak_e)

    left = cross(range(i0 - 1, -1, -1), backward=True)
    right = cross(range(i0 + 1, len(e)), backward=False)
    return peak_e, peak_y, right - left


def delta_v_sign_pattern(v_before: Potential, v_after: Potential, state) -> dict:
    """Sign of the potential change at the state's bumps and interior knots.

    Implements the bump/knot rule for level shifts: a raised level needs
    repulsion at every bump of its state and compensating attraction at the
    knots (signs reversed for lowering).
    """
    dv = v_after.values - v_before.values
    psi = state.psi.values
    g = state.psi.grid
    margin = max(4, g.n_points // 100)
    inner = slice(margin, g.n_points - margin)
    p2 = psi**2

    bump_signs = []
    knot_signs = []
    idx = np.arange(g.n_points)[inner]
    for j in idx[1:-1]:
        if p2[j] > p2[j - 1] and p2[j] >= p2[j + 1] and p2[j] > 0.1 * p2.max():
            bump_signs.append(float(np.sign(dv[j])))
        if psi[j] == 0.0 or (psi[j - 1] > 0) != (psi[j] > 0):
            knot_signs.append(float(np.sign(dv[j])))
    return {"bumps": bump_signs, "knots": knot_signs}
