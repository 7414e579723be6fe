"""Acceptance criteria, one test per numbered item, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8a (embedded-state norm tail below 1e-3 at L = 40 pi)
is implemented exactly as stated and fails by mathematics, not by numerics:
the construction V = -2 (ln D)'' with D = 1 + lam * int_0^x sin^2(ks) ds
obeys the exact identity  int_0^L psi^2 = (1/lam)(1 - 1/D(L)), so the mass
beyond L is exactly 1/D(L) of the total, and D(40 pi) = 63.83 at lam = 1
puts the tail fraction at 1.57e-2.  Reaching 1e-3 would need L ~ 636 pi.
The companion quantitative checks (100% reflection at the embedded energy,
width growth with lam) pass.
"""

import math
import warnings

import numpy as np
import pytest

from specdesign.bands import PeriodicSystem, shift_zone, track_zone_shift, zones
from specdesign.darboux import (
    bargmann_reflectionless,
    bsec_reflection_curve,
    darboux_create,
    darboux_remove_ground,
    embed_bsec,
    scale_swf,
    shift_level,
)
from specdesign.grid import default_points, make_grid
from specdesign.lattice import (
    lattice_bound_states,
    single_site,
    stark_ladder,
)
from specdesign.potentials import Potential, box, comb_cell, free_line, soliton_well
from specdesign.solver import bound_states, scattering
from specdesign.verify import (
    delta_v_sign_pattern,
    isospectral_check,
    orthonormality_defect,
    peak_width,
    reflection_check,
)
from references import (
    ClosedFormDiscrepancyWarning,
    bessel_recurrence_residual,
    box_shift_closed_form,
)


def report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {tag}: {detail}"


@pytest.fixture(scope="module")
def the_box():
    return box()


def interior(grid, margin=10):
    half = 0.5 * (grid.x_max - grid.x_min)
    mid = 0.5 * (grid.x_max + grid.x_min)
    return np.abs(grid.x - mid) <= half - margin * grid.h


def test_criterion_1_box_baseline(the_box):
    states = bound_states(the_box, 4)
    devs = [abs(s.energy - k**2) for k, s in enumerate(states, start=1)]
    report("1 box baseline", max(devs) < 1e-6,
           f"levels {[round(s.energy, 9) for s in states]}, worst dev {max(devs):.2e}")


def test_criterion_2_closed_form_shift(the_box):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClosedFormDiscrepancyWarning)
        v, _ = box_shift_closed_form(-5.0, the_box.grid)
    check = isospectral_check(Potential(v, "hard-walls"), [-4.0, 4.0, 9.0, 16.0], tol=1e-5)
    devs = ["%.2e" % row["dev"] for row in check["levels"]]
    report("2 closed-form shift t=-5", check["pass"], f"oracle spectrum devs {devs}")


def test_criterion_3_chain_equivalence(the_box):
    worst = 0.0
    mask = interior(the_box.grid)
    for t in (-5.0, -1.0, 1.5):
        res = shift_level(the_box, 1, t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClosedFormDiscrepancyWarning)
            v_cf, _ = box_shift_closed_form(t, the_box.grid)
        worst = max(worst, float(np.max(np.abs(res.potential.values[mask] - v_cf.values[mask]))))
    report("3 chain equivalence", worst < 1e-6, f"worst interior |dV| {worst:.2e}")


def test_criterion_4_removal(the_box):
    res = darboux_remove_ground(the_box, bound_states(the_box, 1)[0])
    mask = interior(the_box.grid)
    exact = 2.0 / np.cos(the_box.grid.x[mask]) ** 2
    dv = float(np.max(np.abs(res.potential.values[mask] - exact)))
    check = isospectral_check(res.potential, [4.0, 9.0, 16.0], tol=1e-5)
    report("4 removal", dv < 1e-6 and check["pass"],
           f"interior |V - 2/cos^2| {dv:.2e}, spectrum dev {check['worst_dev']:.2e}")


def test_criterion_5_creation_reflectionless():
    fl = free_line()
    res = darboux_create(fl, -1.0, 0.5)
    dv = float(np.max(np.abs(res.potential.values + 2.0 / np.cosh(fl.grid.x) ** 2)))
    sweep = reflection_check(res.potential, [0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 8.5, 10.0], tol=1e-6)
    report("5 creation/reflectionless", dv < 1e-6 and sweep["pass"],
           f"|V + 2 sech^2| {dv:.2e}, worst |R| {sweep['worst_abs_R']:.2e}")


def test_criterion_6_swf_law(the_box):
    ok = True
    details = []
    for n, lam in ((1, 3.0), (2, 3.0), (1, -0.75)):
        before = bound_states(the_box, n)[n - 1].swf
        res = scale_swf(the_box, n, lam)
        after = bound_states(res.potential, 4)
        ratio = after[n - 1].swf / before
        spec_dev = max(abs(s.energy - k**2) for k, s in enumerate(after, start=1))
        ratio_dev = abs(ratio - math.sqrt(1.0 + lam))
        ok &= spec_dev < 1e-5 and ratio_dev < 1e-6
        details.append(f"(n={n},lam={lam}): dE {spec_dev:.1e}, dc {ratio_dev:.1e}")
    report("6 weight-scaling law", ok, "; ".join(details))


def test_criterion_7_bargmann_eight_levels():
    targets = sorted(k * k - 65.0 for k in range(1, 9))
    kappas = sorted((math.sqrt(-e) for e in targets), reverse=True)
    res = bargmann_reflectionless(kappas, [math.sqrt(2 * k) for k in kappas])
    states = bound_states(res.potential, 8)
    worst = max(abs(s.energy - t) for s, t in zip(states, targets))
    sweep = reflection_check(res.potential, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0], tol=1e-5)
    report("7 reflectionless 8-level well", worst < 1e-4 and sweep["pass"],
           f"worst level dev {worst:.2e}, worst |R| {sweep['worst_abs_R']:.2e}")


def test_criterion_8a_bsec_norm_tail():
    # Faithful to the stated bound; see the module docstring: the exact tail
    # identity makes 1e-3 unreachable at L = 40 pi, so this check FAILS with
    # the measured value rather than being loosened.
    k, lam = math.sqrt(10.0), 1.0
    length = 40 * math.pi
    grid = make_grid(0.0, length, default_points(length))
    res = embed_bsec(k, lam, grid)
    log = res.step_log[0]
    tail = log["tail_fraction_analytic"]
    grid_norm = log["norm_on_grid"]
    identity_dev = abs(grid_norm - (1.0 / lam) * (1.0 - tail))
    assert identity_dev < 1e-8  # the norm itself converges exactly as predicted
    report("8a embedded-state norm tail < 1e-3 at L=40pi", tail < 1e-3,
           f"tail fraction {tail:.4e} (exact identity; norm-on-grid matches to {identity_dev:.1e})")


def test_criterion_8b_bsec_total_reflection():
    energies = np.linspace(9.95, 10.05, 41)
    rr = bsec_reflection_curve(math.sqrt(10.0), 1.0, energies)
    abs_r = [abs(r.R) for r in rr]
    peak_e = float(energies[int(np.argmax(abs_r))])
    peak = max(abs_r)
    report("8b embedded-state total reflection", peak > 0.999 and abs(peak_e - 10.0) <= 0.05,
           f"peak |R| {peak:.6f} at E = {peak_e:.4f}")


def test_criterion_8c_bsec_width_grows():
    energies = np.linspace(8.2, 11.8, 181)
    widths = []
    for lam in (0.5, 1.0, 2.0):
        rr = bsec_reflection_curve(math.sqrt(10.0), lam, energies, half_width=60 * math.pi)
        _, _, width = peak_width(energies, [abs(r.R) for r in rr])
        widths.append(width)
    report("8c resonance width grows with weight", widths[0] < widths[1] < widths[2],
           f"widths {[round(w, 3) for w in widths]} for lam 0.5, 1, 2")


def test_criterion_9_zones_and_gap_closure():
    comb = PeriodicSystem(comb_cell(strength=2.0), math.pi)
    zs = zones(comb, 10.0)
    edge_dev = max(abs(z.e_hi - t) for z, t in zip(zs, (1.0, 4.0, 9.0)))

    # the 2-3 gap shrinks monotonically, then closes at some dE* in (0, 3]
    rows = track_zone_shift(comb, 2, [0.0, 0.25, 0.5], e_max=10.0)
    gaps = [r["tracked_gap"] for r in rows]
    monotone = gaps[0] > gaps[1] > gaps[2] > 0
    lo, hi = 0.5, 1.0
    for _ in range(9):
        mid = 0.5 * (lo + hi)
        zs_mid = zones(shift_zone(comb, 2, mid), 11.0)
        merged = any(abs(z.e_lo - (4.0 + mid)) < 1e-6 for z in zs_mid)
        if merged:
            hi = mid
        else:
            lo = mid
    d_star = hi
    zs_star = zones(shift_zone(comb, 2, d_star), 11.0)
    gap_star = min(
        abs(z.e_lo - (4.0 + d_star)) for z in zs_star
    )
    closed = gap_star < 1e-3 or any(
        0 <= z.e_lo - zs_star[i].e_hi < 1e-3
        for i, z in enumerate(zs_star[1:])
    )

    squeezed = []
    for d_e in (1.5, 2.0, 2.5, 3.0):
        zs_d = zones(shift_zone(comb, 2, d_e), 11.0)
        zone3 = next(z for z in zs_d if abs(z.e_lo - (4.0 + d_e)) < 1e-3)
        squeezed.append(zone3.width)
    squeeze_ok = all(a > b for a, b in zip(squeezed, squeezed[1:]))

    report("9 zone control", edge_dev < 1e-8 and monotone and closed and squeeze_ok
           and 0.0 < d_star <= 3.0,
           f"pinned-edge dev {edge_dev:.1e}; gaps {[round(g, 4) for g in gaps]}; "
           f"closure at dE* = {d_star:.4f}; squeezed widths {[round(w, 3) for w in squeezed]}")


def test_criterion_10_lattice():
    above = lattice_bound_states(single_site(1.5), 1, which="highest")[0]
    sites = np.arange(-25, 26)
    signs_ok = np.all(np.sign(above.psi[24:27]) == np.array([-1.0, 1.0, -1.0]))
    energy_dev = abs(above.energy - 4.5)

    worst_spacing = 0.0
    worst_residual = 0.0
    for c in (0.25, 0.5, 1.0):
        states = stark_ladder(c, (-40, 40))
        energies = sorted(s.energy for s in states)
        worst_spacing = max(worst_spacing, float(np.max(np.abs(np.diff(energies) - c))))
        for s in states[:: max(1, len(states) // 6)]:
            worst_residual = max(worst_residual, bessel_recurrence_residual(s, c, (-40, 40)))

    report("10 lattice", energy_dev < 1e-8 and signs_ok and worst_spacing < 1e-8
           and worst_residual < 1e-9,
           f"above-band dev {energy_dev:.2e}, alternating {bool(signs_ok)}, "
           f"spacing dev {worst_spacing:.2e}, recurrence residual {worst_residual:.2e}")


def test_criterion_11_property_suites(the_box):
    failures = []

    # corpus: base systems plus transformed outputs
    pt = darboux_remove_ground(the_box, bound_states(the_box, 1)[0]).potential
    shifted = shift_level(the_box, 1, -5.0).potential
    scaled = scale_swf(the_box, 1, 3.0).potential
    sol = soliton_well()
    barg = bargmann_reflectionless([2.0, 1.0], [2.0, 1.5]).potential

    # isospectrality ledger after a further benign shift on every hard-wall entry
    for name, v, spectrum in (
        ("box", the_box, [1.0, 4.0, 9.0, 16.0]),
        ("shifted box", shifted, [-4.0, 4.0, 9.0, 16.0]),
        ("ground-removed box", pt, [4.0, 9.0, 16.0]),
        ("weight-scaled box", scaled, [1.0, 4.0, 9.0, 16.0]),
    ):
        res = shift_level(v, 1, 0.25)
        target = sorted([spectrum[0] + 0.25] + spectrum[1:])
        check = isospectral_check(res.potential, target, tol=1e-5)
        if not check["pass"]:
            failures.append(f"isospectrality after shift on {name}: {check['worst_dev']:.2e}")

    # flux conservation on every line potential
    for name, v in (("soliton", sol), ("two-level well", barg)):
        for e in (0.4, 1.7, 6.3):
            defect = abs(scattering(v, e).flux_defect)
            if defect > 1e-8:
                failures.append(f"flux defect {defect:.2e} on {name} at E={e}")

    # orthonormality of oracle states on every corpus entry
    for name, v, count in (("box", the_box, 4), ("ground-removed box", pt, 3),
                           ("shifted box", shifted, 4), ("soliton", sol, 1),
                           ("two-level well", barg, 2)):
        defect = orthonormality_defect(bound_states(v, count))
        if defect > 1e-6:
            failures.append(f"orthonormality defect {defect:.2e} on {name}")

    # involution round-trips
    fl = free_line()
    created = darboux_create(fl, -1.0, 0.5)
    removed = darboux_remove_ground(created.potential, bound_states(created.potential, 1)[0])
    if np.max(np.abs(removed.potential.values)) > 1e-6:
        failures.append("create/remove round-trip exceeded 1e-6")
    back = scale_swf(scale_swf(the_box, 2, 1.5).potential, 2, 1.0 / 2.5 - 1.0)
    if np.max(np.abs(back.potential.values - the_box.values)) > 1e-6:
        failures.append("weight-scaling round-trip exceeded 1e-6")

    # bump/knot sign rule for shifts up and down, ground and excited
    for n, d_e in ((1, 0.5), (1, -0.5), (2, 0.5), (2, -0.5)):
        state = bound_states(the_box, n)[n - 1]
        res = shift_level(the_box, n, d_e)
        pattern = delta_v_sign_pattern(the_box, res.potential, state)
        want = 1.0 if d_e > 0 else -1.0
        if not pattern["bumps"] or any(s != want for s in pattern["bumps"]):
            failures.append(f"bump rule violated for n={n}, dE={d_e}")
        if n > 1 and (not pattern["knots"] or any(s != -want for s in pattern["knots"])):
            failures.append(f"knot rule violated for n={n}, dE={d_e}")

    report("11 property suites", not failures, "; ".join(failures) or
           "isospectrality, flux, orthonormality, involutions, sign rule all hold")
