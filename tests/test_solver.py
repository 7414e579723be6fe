import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from specdesign.errors import NumericalFailure, ValidationError
from specdesign.grid import SampledFn, integrate, make_grid
from specdesign.potentials import (
    Potential,
    box,
    comb_cell,
    free_line,
    soliton_well,
)
from specdesign.darboux import bargmann_reflectionless, bsec_whole_line
import specdesign.solver as solver_module
from specdesign.solver import (
    _Matcher,
    _cell_maps,
    _cell_deltas,
    _count_sign_changes,
    _energy_cells,
    _interpolated,
    _normalised,
    _numerov,
    _rescaled,
    _segment_bounds,
    _segment_maps,
    _segment_runs,
    _sweep,
    _transfer_matrices,
    band_discriminant,
    band_discriminant_curve,
    bound_states,
    oracle_scope,
    scattering,
    scattering_curve,
)
from references import pairwise_chain, single_delta, transfer_matrix


def poschl_teller(n_points=2001, cap=1e6):
    """2/cos^2 x on (-pi/2, pi/2): the box with its ground state removed.

    Analytic spectrum (n+2)^2 = 4, 9, 16, ...
    """
    g = make_grid(-math.pi / 2, math.pi / 2, n_points)
    v = np.minimum(2.0 / np.cos(g.x) ** 2, cap)
    v[0] = v[-1] = cap
    return Potential(SampledFn(g, v), "hard-walls")


class TestBoundStates:
    def test_box_levels(self):
        states = bound_states(box(), 4)
        for k, s in enumerate(states, start=1):
            assert s.energy == pytest.approx(k**2, abs=1e-6)
            assert s.nodes == k - 1
            assert s.n == k

    def test_box_ground_wavefunction(self):
        s = bound_states(box(), 1)[0]
        g = s.psi.grid
        exact = np.sqrt(2 / math.pi) * np.cos(g.x)
        assert np.max(np.abs(s.psi.values - exact)) < 1e-7
        assert s.swf == pytest.approx(math.sqrt(2 / math.pi), abs=1e-8)

    def test_soliton_well_single_level(self):
        states = bound_states(soliton_well(), 3)
        assert len(states) == 1  # only one level exists below the edge
        assert states[0].energy == pytest.approx(-1.0, abs=1e-6)
        # right-tail norming constant of sech(x)/sqrt(2) is sqrt(2)
        assert states[0].swf == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_poschl_teller_spectrum(self):
        states = bound_states(poschl_teller(), 3)
        for s, e in zip(states, (4.0, 9.0, 16.0)):
            assert s.energy == pytest.approx(e, abs=1e-5)

    def test_delta_well_closed_form(self):
        # V = g delta(x), g = -2: single level at -g^2/4 = -1, psi ~ e^{-|x|}
        states = bound_states(single_delta(-2.0), 1)
        assert states[0].energy == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("x0", [11.0, 11.5, 12.0])
    def test_off_centre_delta_well(self, x0):
        # V > E on every node: the match point sits at the well, not at the
        # domain's centre where both branches are exponentially small
        v = single_delta(-2.0, x0)
        state = bound_states(v, 1)[0]
        assert state.energy == pytest.approx(-1.0, abs=1e-5)   # the default tol_spectrum
        assert state.psi.grid.x[np.argmax(state.psi.values)] == pytest.approx(x0, abs=v.grid.h)

    def test_deltas_on_one_node_add(self):
        line = free_line()
        v = Potential(line.body, "decaying-line", ((0.0, -1.0), (0.0, -1.0)))
        assert bound_states(v, 1)[0].energy == pytest.approx(-1.0, abs=1e-6)

    def test_orthonormality(self):
        states = bound_states(box(), 4)
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                ip = integrate(SampledFn(si.psi.grid, si.psi.values * sj.psi.values))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-6

    def test_node_counts_increase_with_energy(self):
        states = bound_states(poschl_teller(), 4)
        energies = [s.energy for s in states]
        nodes = [s.nodes for s in states]
        assert energies == sorted(energies)
        assert nodes == list(range(4))

    def test_grid_refinement_stability(self):
        for make in (lambda n: box(n_points=n), lambda n: soliton_well(n_points=n),
                     lambda n: poschl_teller(n_points=n)):
            coarse = bound_states(make(2001), 2)
            fine = bound_states(make(4001), 2)
            for a, b in zip(coarse, fine):
                assert abs(a.energy - b.energy) < 1e-7

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            bound_states(box(), 0)

    @pytest.mark.parametrize("make", [box, free_line])
    @pytest.mark.parametrize("node", [0, 4, -5, -2])
    def test_spike_next_to_an_edge_is_invalid(self, make, node):
        # the sweeps read the spikes from the potential: one within 5 nodes
        # of an edge is invalid input, whether the first sweep is a node
        # count below the continuum (line) or a match-point pick (box)
        v = make()
        spiked = Potential(v.body, v.bc_kind, ((v.grid.x[node], -2.0),))
        with pytest.raises(ValidationError, match="too close to the domain edge"):
            bound_states(spiked, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_state_is_a_numerical_failure(self, bad):
        # a sweep's fault, not invalid input: NumericalFailure (exit 3), not ValidationError
        g = make_grid(0.0, 1.0, 11)
        y = np.sin(math.pi * g.x)
        y[4] = bad
        with pytest.raises(NumericalFailure, match="not finite"):
            _normalised(g, 1.0, y)


class TestScattering:
    def test_free_motion(self):
        r = scattering(free_line(), 2.0)
        assert abs(r.R) < 1e-9
        assert abs(abs(r.T) - 1.0) < 1e-9

    def test_soliton_reflectionless(self):
        r = scattering(soliton_well(), 1.0)
        assert abs(r.R) < 1e-6
        assert abs(r.T) == pytest.approx(1.0, abs=1e-6)

    def test_delta_barrier_closed_form(self):
        # |R|^2 = g^2 / (g^2 + 4 k^2) from the jump condition
        r = scattering(single_delta(2.0), 1.0)
        assert abs(r.R) ** 2 == pytest.approx(0.5, abs=1e-8)

    def test_huge_delta_reflects_everything(self):
        # the spike adds about 1e197 to G at one step of the scan
        r = scattering(single_delta(1e200), 1.0)
        assert abs(abs(r.R) - 1.0) < 1e-12

    def test_spiked_well_refines_at_fourth_order(self):
        # spikes of both signs on nodes of every grid below; against a
        # 24,001-node solve, doubling the nodes cuts the error by about 2^4
        def reflection(n):
            v = soliton_well(n_points=n)
            spiked = Potential(v.body, v.bc_kind, ((0.6, 1.3), (-3.0, -0.9)))
            return abs(scattering(spiked, 2.0).R) ** 2

        ref = reflection(24001)
        coarse, fine = (abs(reflection(n) - ref) for n in (3001, 6001))
        assert fine < coarse / 10

    @pytest.mark.parametrize("energy", [0.3, 1.0, 2.7, 6.0])
    def test_flux_conservation(self, energy):
        for v in (soliton_well(), single_delta(1.5), free_line()):
            r = scattering(v, energy)
            assert abs(r.flux_defect) < 1e-8

    def test_curve_matches_single(self):
        v = single_delta(2.0)
        curve = scattering_curve(v, [0.5, 1.0, 2.0])
        for res in curve:
            single = scattering(v, res.energy)
            assert res.R == pytest.approx(single.R, abs=1e-14)

    def test_unequal_asymptotes_flux_weighted(self):
        # smooth step: V -> 0 on the left, V -> 1 on the right; the plain
        # |R|^2 + |T|^2 does not close, the k-weighted sum does
        v0 = free_line()
        v = Potential(
            SampledFn(v0.grid, 0.5 * (1.0 + np.tanh(v0.grid.x))), "decaying-line"
        )
        for e in (1.5, 2.5, 6.0):
            r = scattering(v, e)
            assert abs(r.flux_defect) < 1e-8
            assert abs(r.R) > 1e-6  # a step really reflects
        # sharp-step limit cross-check at high accuracy is not meaningful for
        # the smooth profile; the closed-form check lives in the delta test

    def test_flux_conservation_random_wells(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=12, deadline=None)
        @given(
            depth=st.floats(-3.0, 3.0),
            width=st.floats(0.5, 2.0),
            center=st.floats(-3.0, 3.0),
            energy=st.floats(0.2, 8.0),
        )
        def check(depth, width, center, energy):
            v0 = free_line(n_points=4001)
            profile = depth * np.exp(-((v0.grid.x - center) / width) ** 2)
            v = Potential(SampledFn(v0.grid, profile), "decaying-line")
            assert abs(scattering(v, energy).flux_defect) < 1e-8

        check()

    def test_energy_below_asymptote_rejected(self):
        with pytest.raises(ValidationError):
            scattering(soliton_well(), -0.5)

    def test_requires_decaying_line(self):
        with pytest.raises(ValidationError):
            scattering(box(), 1.0)




class TestBandDiscriminant:
    def test_free_cell_dispersion(self):
        cell = box()  # width-pi zero cell; bc kind irrelevant for propagation
        for e in (0.5, 2.0, 4.0, 7.3):
            k = math.sqrt(e)
            assert band_discriminant(cell, e) == pytest.approx(2 * math.cos(k * math.pi), abs=1e-8)

    def test_comb_edges_exact(self):
        cell = comb_cell(strength=2.0)
        for n in (1, 2, 3):
            assert abs(band_discriminant(cell, float(n**2))) == pytest.approx(2.0, abs=1e-8)

    def test_comb_matches_dispersion_formula(self):
        # cos(q a) = cos(k a) + (g / 2k) sin(k a)
        g_ = 2.0
        cell = comb_cell(strength=g_)
        for e in (0.5, 2.2, 5.0, 8.5):
            k = math.sqrt(e)
            expected = 2 * (math.cos(k * math.pi) + g_ / (2 * k) * math.sin(k * math.pi))
            assert band_discriminant(cell, e) == pytest.approx(expected, abs=1e-8)

    def test_transfer_determinant_is_one(self):
        cell = comb_cell(strength=2.0)
        for e in (0.7, 3.3, 6.1, 9.9):
            assert np.linalg.det(transfer_matrix(cell, e)) == pytest.approx(1.0, abs=1e-10)

    def test_curve_matches_scalar(self):
        cell = comb_cell()
        es = np.array([0.5, 1.5, 4.5])
        curve = band_discriminant_curve(cell, es)
        for e, d in zip(es, curve):
            assert d == pytest.approx(band_discriminant(cell, float(e)), abs=1e-12)

    def test_comb_discriminant_is_fourth_order(self):
        # against the Kronig-Penney form 2 (cos(ka) + (g/2k) sin(ka)): the
        # error falls by 2^4 from 1001 to 2001 nodes (measured 3.2e-10 and 2.0e-11)
        es = np.linspace(0.3, 11.0, 501)
        k = np.sqrt(es)
        exact = 2.0 * (np.cos(k * math.pi) + 2.0 / (2.0 * k) * np.sin(k * math.pi))
        errors = [np.max(np.abs(band_discriminant_curve(comb_cell(strength=2.0, n_points=n), es)
                                - exact)) for n in (1001, 2001)]
        assert errors[1] < 1e-10
        assert math.log2(errors[0] / errors[1]) == pytest.approx(4.0, abs=0.3)

    @pytest.mark.parametrize("node", [0, 7, 39])
    def test_vanishing_coefficient_names_its_node(self, node):
        # node 0 is also the periodic sweep's node n - 1; node 40 is not swept
        g = make_grid(0.0, 20.0, 41)  # h = 1/2
        body = np.zeros(41)
        body[node] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        cell = Potential(SampledFn(g, body), "hard-walls")
        with pytest.raises(NumericalFailure, match=f"node {node}$"):
            band_discriminant_curve(cell, [2.0, 1.0])
        # in a stack, the diagnosis reads the failing energy's own cell
        zero = Potential(SampledFn(g, np.zeros(41)), "hard-walls")
        with pytest.raises(NumericalFailure, match=f"node {node}$"):
            band_discriminant_curve([zero, cell], [1.0, 2.0, 1.0], [0, 1, 1])

    def test_rotated_comb_keeps_its_discriminant(self):
        # Delta is the trace of the period map, which moving the delta around
        # the zero cell only conjugates (measured within 8.9e-16)
        cell = comb_cell(strength=2.0)
        n, x = cell.grid.n_points, cell.grid.x
        es = np.linspace(0.5, 10.0, 6)
        want = band_discriminant_curve(cell, es)
        for j in (1, 2, 5, n // 2, n - 3, n - 2):
            rotated = Potential(cell.body, cell.bc_kind, ((float(x[j]), 2.0),))
            assert np.max(np.abs(band_discriminant_curve(rotated, es) - want)) < 1e-12

    @pytest.mark.parametrize("block_doubles", [solver_module._BLOCK_DOUBLES, 1000],
                             ids=["one_block", "blocks_of_4"])
    def test_stacked_cells_match_their_own_calls(self, monkeypatch, block_doubles):
        # cells sharing a grid, an interior spike and an edge delta; 250
        # segments, so 1000 doubles make blocks of 4 energies, and the block
        # boundary at energy 4 cuts through the run of cell 1
        monkeypatch.setattr(solver_module, "_BLOCK_DOUBLES", block_doubles)
        g = comb_cell().grid
        x = g.x
        deltas = ((0.0, 2.0), (float(x[700]), -1.5))
        bodies = [np.zeros(g.n_points), 3.0 * np.sin(2.0 * x) ** 2, 0.5 * x]
        cells = [Potential(SampledFn(g, body), "hard-walls", deltas) for body in bodies]
        es = [0.3, 2.5, 7.0, 0.3, 1.1, 4.0, 6.2, 9.5, 0.3, 5.5, 8.8]
        rows = [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2]
        got = band_discriminant_curve(cells, es, rows)
        want = [band_discriminant_curve(cells[r], [e])[0] for e, r in zip(es, rows)]
        assert got.tolist() == want
        assert len(set(got[[0, 3, 8]])) == 3  # one energy, three cells

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energies_are_bad_input(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            band_discriminant_curve(comb_cell(), [1.0, bad])

    def test_stacked_long_cells_interpolate_on_their_own_rows(self, monkeypatch):
        # 65,537 steps make segments of 64 and 65 steps, so the maps are
        # interpolated in cells keyed by row; each energy still gets the bits
        # of its own one-cell call.  Against the directly stepped Delta it
        # read within 2570 eps of max(1, |Delta|) (at E = 0.3 on the zero
        # cell, where Delta lies 3.9e-13 from its closed form)
        g = make_grid(0.0, math.pi, 65539)
        assert np.diff(_segment_bounds(g.n_points - 1)).max() == 65
        bodies = [np.zeros(g.n_points), 3.0 * np.sin(2.0 * g.x) ** 2]
        cells = [Potential(SampledFn(g, body), "hard-walls", ((0.0, 1.5),)) for body in bodies]
        es, rows = [0.3, 2.5, 0.3, 2.6, 9.1], [0, 0, 1, 1, 1]
        got = band_discriminant_curve(cells, es, rows)
        want = [band_discriminant_curve(cells[r], [e])[0] for e, r in zip(es, rows)]
        assert got.tolist() == want
        monkeypatch.setattr(solver_module, "_INTERPOLATED_STEPS", g.n_points)
        direct = band_discriminant_curve(cells, es, rows)
        assert np.all(np.abs(got - direct) < 2**13 * np.finfo(float).eps
                      * np.maximum(1.0, np.abs(direct)))

    def test_stack_validation(self):
        cell = comb_cell()
        other = comb_cell(strength=1.0)
        with pytest.raises(ValidationError, match="share"):
            band_discriminant_curve([cell, other], [1.0, 2.0], [0, 1])
        for rows in ([0], [0, 2], [-1, 0]):
            with pytest.raises(ValidationError, match="one row"):
                band_discriminant_curve([cell, cell], [1.0, 2.0], rows)


def reference_sweep(v, h, energy, y0, y1, jumps):
    """Node-by-node Numerov loop; a delta g at node j adds h g (2 - c[j]) y[j] to its step."""
    c = [1.0 - h * h * (x - energy) / 12.0 for x in v]
    y = [y0, y1]
    for j in range(1, len(v) - 1):
        b = 12.0 - 10.0 * c[j] + h * jumps.get(j, 0.0) * (2.0 - c[j])
        y.append((b * y[j] - c[j - 1] * y[j - 1]) / c[j + 1])
    return np.array(y)


class TestPropagator:
    def test_banded_solve_matches_node_loop(self):
        # more nodes than one chunk, with a delta just past the chunk boundary
        x = np.linspace(-15.0, 15.0, 9001)
        h = x[1] - x[0]
        v = -2.0 / np.cosh(x) ** 2
        jumps = {4100: 1.3}
        for energy in (-0.5, 0.3, 1.7):
            want = reference_sweep(v, h, energy, 0.0, h, jumps)
            y, e = _numerov(v, h, energy, 0.0, h, sorted(jumps.items()))
            got = np.ldexp(y, e)
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_overflowing_chunk_is_split(self):
        # a flat barrier grows the solution by e^0.31 per node, e^2821 in all:
        # a whole chunk would overflow, so it is solved again in halves, and
        # the last stretch's growth of 2**361 must not overflow the output
        n, h, barrier = 9001, math.pi / 2000, 4e4
        c = 1.0 - h * h * barrier / 12.0
        theta = math.acosh((12.0 - 10.0 * c) / (2.0 * c))  # y_j = h sinh(j theta) / sinh(theta)
        y, e = _numerov(np.full(n, barrier), h, 0.0, 0.0, h)
        log_end = math.log(y[-1]) + e * math.log(2.0)
        exact = math.log(h) + theta * (n - 1) - math.log(2.0 * math.sinh(theta))
        assert log_end == pytest.approx(exact, rel=1e-12)

    def test_sign_changes_skip_zeros_and_count_the_last_sample(self):
        assert _count_sign_changes([0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 3.0]) == 2
        assert _count_sign_changes([1.0, 2.0, -1e-300]) == 1
        assert _count_sign_changes([0.0, 0.0]) == 0

    def test_scalar_discriminant_is_one_point_curve(self):
        cell = comb_cell()
        for e in (0.5, 1.0, 2.2, 7.9):
            assert band_discriminant(cell, e) == band_discriminant_curve(cell, [e])[0]

    def test_single_energy_scattering_matches_curve(self):
        v = soliton_well()
        energies = [0.4, 1.0, 3.3]
        for e, res in zip(energies, scattering_curve(v, energies)):
            single = scattering(v, e)
            assert (single.R, single.T) == (res.R, res.T)

    def test_wall_start_sweep_is_fourth_order(self):
        # free particle from a wall: the sweep follows sin(k (x - x_min)), and
        # halving h cuts the relative error by 2^4 (coarse grids, where the
        # truncation error still dominates the rounding error)
        k = 2.3
        errors = []
        for n in (251, 501):
            v = box(n_points=n)
            y = _sweep(v, k * k, True)
            exact = np.sin(k * (v.grid.x - v.grid.x_min)) / math.sin(k * v.grid.h)
            errors.append(np.max(np.abs(y / y[1] - exact)) / np.max(np.abs(exact)))
        assert errors[1] < 1e-9
        assert math.log2(errors[0] / errors[1]) == pytest.approx(4.0, abs=0.2)

    def test_deep_well_shot_is_rescaled(self):
        # kappa * L = 580: a left shot grows by about e^1160, beyond the range
        # of a double, so the sweep must rescale as it goes
        well = bargmann_reflectionless([2.0, 1.0], [2.0, 1.5], half_width=290.0).potential
        energies = [s.energy for s in bound_states(well, 2)]
        assert energies == pytest.approx([-4.0, -1.0], abs=1e-8)


def plane_wave_amplitudes(k_l, x0, x1, psi0, psi1, scale=0):
    """R and T from the sweep's values psi0, psi1 at x0, x1, times 2**scale."""
    ph0, ph1 = np.exp(1j * k_l * x0), np.exp(1j * k_l * x1)
    det = ph0 / ph1 - ph1 / ph0
    a = (psi0 / ph1 - psi1 / ph0) / det
    b = (psi1 * ph0 - psi0 * ph1) / det
    return b / a, np.ldexp(1.0, -scale) / a


def numerov_scattering(v, energy):
    """R and T from banded ``_numerov`` sweeps from the right edge.

    The real and imaginary parts of the right-moving wave are swept apart and
    brought to a common power-of-two scale at the left end pair.
    """
    g = v.grid
    mirrored = [(g.n_points - 1 - j, s) for j, s in reversed(v.delta_nodes())]
    k_r = math.sqrt(energy - v.values[-1])
    last, prev = np.exp(1j * k_r * g.x[-1]), np.exp(1j * k_r * g.x[-2])
    (re, e_re), (im, e_im) = (_numerov(v.values[::-1], g.h, energy, y0, y1, mirrored)
                              for y0, y1 in ((last.real, prev.real), (last.imag, prev.imag)))
    e = max(e_re, e_im)
    psi1, psi0 = np.ldexp(re[-2:], e_re - e) + 1j * np.ldexp(im[-2:], e_im - e)
    k_l = math.sqrt(energy - v.values[0])
    return plane_wave_amplitudes(k_l, g.x[0], g.x[1], psi0, psi1, e)


def long_double_scattering(v, energies):
    """R and T from a node-by-node sweep in long double from the right edge.

    c = 1 - h^2 (V - E) / 12 and 12 - 10 c are formed in long double from the
    exact samples and energies, so no rounding of c against 1 enters; a delta
    g at sweep node j adds h g (2 - c[j]) y[j] to the step from it.
    """
    g = v.grid
    n = g.n_points
    e = np.asarray(energies, dtype=float)
    h = np.longdouble(g.h)
    c = 1 - h * h * (v.values[::-1, None].astype(np.longdouble) - e.astype(np.longdouble)) / 12
    b = 12 - 10 * c
    for j, strength in v.delta_nodes():
        b[n - 1 - j] += h * np.longdouble(strength) * (2 - c[n - 1 - j])
    k_r = np.sqrt(e - v.values[-1]).astype(np.longdouble)
    x = np.longdouble(g.x_min) + np.arange(n) * h  # exactly h apart
    y = [np.exp(1j * k_r * x[-1]), np.exp(1j * k_r * x[-2])]
    for j in range(1, n - 1):
        y = [y[1], (b[j] * y[1] - c[j - 1] * y[0]) / c[j + 1]]
    k_l = np.sqrt(e - v.values[0]).astype(np.longdouble)
    return plane_wave_amplitudes(k_l, x[0], x[1], y[1], y[0])


def with_deltas(v, nodes, strength=1.5):
    """v with a delta of the given strength on each grid node."""
    return Potential(v.body, v.bc_kind, tuple((v.grid.x[j], strength) for j in nodes))


class TestSegmentScattering:
    """scattering_curve's segment maps against sweeps that step node by node."""

    @staticmethod
    def step_potential():
        v0 = free_line()
        x = v0.grid.x
        body = 0.5 * (1.0 + np.tanh(x)) - 1.5 * np.exp(-((x - 2.0) / 1.3) ** 2)
        return Potential(SampledFn(v0.grid, body), "decaying-line")

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    def test_matches_long_double_sweep(self):
        # exact-E references: the banded `_numerov` sweep, whose c rounds
        # against 1, lands 6e-10 in R and 4.2e-9 in T from this one; the summed
        # segment sweep, whose G comes from h^2 (V - E), about 1.3e-13 and 3.7e-13
        v = self.step_potential()
        energies = np.array([1.2, 1.6, 2.5, 4.0, 7.5])
        want_r, want_t = long_double_scattering(v, energies)
        got = scattering_curve(v, energies)
        assert max(abs(r.R - w) for r, w in zip(got, want_r)) < 1e-12
        assert max(abs(r.T - w) for r, w in zip(got, want_t)) < 1e-12

    def test_resolves_energy_below_the_coefficient_staircase(self):
        # c = 1 - h^2 (V - E) / 12 moves only in steps of about 12 eps / h^2 in E;
        # sixteen energies per step must still give a smooth, monotone |T|
        v = self.step_potential()
        delta = 12.0 * np.finfo(float).eps / v.grid.h ** 2 / 16.0
        t = np.array([abs(r.T) for r in scattering_curve(v, 2.5 + delta * np.arange(9))])
        steps = np.diff(t)
        assert np.all(np.sign(steps) == np.sign(steps[0]))
        assert np.max(np.abs(steps - steps.mean())) < 0.05 * abs(steps.mean())

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    @pytest.mark.parametrize("layout", ["single", "six apart", "closer", "boundaries"])
    def test_deltas_match_numerov_sweep(self, layout):
        v = single_delta(2.0)
        if layout != "single":
            n = v.grid.n_points
            bounds = _segment_bounds(n - 2)
            # nodes of the right-to-left sweep; node j of the sweep is grid node n - 1 - j
            sweep_nodes = {
                "six apart": [9000, 9006],
                "closer": [9000, 9005, 9007],
                # the jump on the last step of a segment, on its first step, and
                # with its five earlier values starting a segment
                "boundaries": [bounds[100] - 1, bounds[300], bounds[500] + 4],
            }[layout]
            v = with_deltas(free_line(), [n - 1 - j for j in sweep_nodes])
        energies = [0.3, 1.0, 4.2, 9.0]
        want_r, want_t = long_double_scattering(v, energies)
        for res, r, t in zip(scattering_curve(v, energies), want_r, want_t):
            assert abs(res.R - r) < 1e-10
            assert abs(res.T - t) < 1e-10

    def test_one_point_equals_long_curve_element(self):
        v = with_deltas(soliton_well(), [4000, 4003, 12000])
        steps = v.grid.n_points - 2
        assert steps % (_segment_bounds(steps).size - 1)  # the segments differ in length
        energies = np.linspace(0.05, 12.0, 41)
        for res in scattering_curve(v, energies):
            single = scattering(v, res.energy)
            assert (single.R, single.T) == (res.R, res.T)

    @pytest.mark.parametrize("pass_steps", [1, 3])
    def test_curve_does_not_depend_on_the_pass_length(self, monkeypatch, pass_steps):
        # a pass forms c and G for _PASS_STEPS steps, but every step and every
        # rescale stays where it was; the spikes sit on a longer segment's
        # first and last steps and on the step after it
        v0 = soliton_well()
        n = v0.grid.n_points
        bounds = _segment_bounds(n - 2)
        assert np.diff(bounds)[1] > np.diff(bounds)[-1]
        v = with_deltas(v0, [n - 1 - j for j in (bounds[1], bounds[2] - 1, bounds[2])])
        energies = np.linspace(0.05, 12.0, 41)
        want = [(r.R, r.T) for r in scattering_curve(v, energies)]
        monkeypatch.setattr(solver_module, "_PASS_STEPS", pass_steps)
        assert [(r.R, r.T) for r in scattering_curve(v, energies)] == want

    def test_tall_barrier_transmits_tiny_but_finite(self):
        v0 = free_line()
        x = v0.grid.x
        v = Potential(SampledFn(v0.grid, 2500.0 / np.cosh(x / 4.0) ** 8), "decaying-line")
        for energy in (2.0, 5.0):
            res = scattering(v, energy)
            want_r, want_t = numerov_scattering(v, energy)
            assert 0.0 < abs(res.T) < 1e-100
            assert abs(res.T - want_t) < 1e-9 * abs(want_t)
            assert abs(res.R - want_r) < 1e-9

    def test_vanishing_coefficient_raises(self):
        g = make_grid(-10.0, 10.0, 41)  # h = 1/2
        body = np.zeros(41)
        body[20] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        v = Potential(SampledFn(g, body), "decaying-line")
        with pytest.raises(NumericalFailure, match="node 20"):
            scattering(v, 1.0)
        assert math.isfinite(scattering(v, 1.5).T.real)

    @pytest.mark.parametrize("where", ["first node", "extra-step node", "last node"])
    def test_vanishing_coefficient_at_segment_edges_raises(self, where):
        g = make_grid(-15.0, 15.0, 61)  # h = 1/2
        bounds = _segment_bounds(59)  # 1, 10, 19, 28, 36, ...: segments 0-2 take one extra step
        assert list(bounds[:5]) == [1, 10, 19, 28, 36]
        # nodes of the right-to-left sweep: the first node of a shorter segment,
        # the node a longer one takes its extra step from, and the node that step makes
        sweep_node = {"first node": bounds[4], "extra-step node": bounds[2] - 1,
                      "last node": bounds[2]}[where]
        node = g.n_points - 1 - sweep_node
        body = np.zeros(g.n_points)
        body[node] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m, _ = _segment_maps(body[None, ::-1], g.h, np.array([1.0]), np.zeros(1, dtype=int),
                                 bounds, [], np.arange(bounds.size - 1))
        # the map of the segment that steps from the node, and no other: a
        # segment that only ends on it never divides by its c
        broken = ~np.isfinite(m.sum(axis=(0, 1)))[0]
        steps_from = (bounds[:-1] <= sweep_node) & (sweep_node < bounds[1:])
        assert np.array_equal(broken, steps_from)
        v = Potential(SampledFn(g, body), "decaying-line")
        with pytest.raises(NumericalFailure, match=f"node {node}$"):
            scattering(v, 1.0)

    def test_vanishing_coefficient_on_a_long_segment_grid_raises(self):
        # 65,537 steps of h = 1/2 make segments of 64 and 65 steps, whose maps
        # are interpolated in energy; an energy where some c falls below 1/2
        # (below max V - 6 / h^2 = 25 here) is stepped directly instead, so a
        # vanishing c is reported, not interpolated across
        v0 = free_line(16384.5, 65539)
        assert v0.grid.h == 0.5 and np.diff(_segment_bounds(v0.grid.n_points - 2)).max() == 65
        body = np.zeros(v0.grid.n_points)
        body[30000] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        v = Potential(SampledFn(v0.grid, body), "decaying-line")
        with pytest.raises(NumericalFailure, match="^Numerov coefficient vanishes at node 30000$"):
            scattering_curve(v, [1.0, 1.5])
        with oracle_scope() as work:
            assert math.isfinite(scattering_curve(v, [1.5, 25.5])[0].T.real)
        assert work.ledger()["scattering"]["stepped_energies"] == 1 + 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energies_are_bad_input(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            scattering_curve(soliton_well(), [1.0, bad])

    def test_vanishing_coefficient_next_to_a_delta_names_its_node(self):
        # a spike two nodes from the vanishing coefficient leaves that node to be named
        g = make_grid(-15.0, 15.0, 61)  # h = 1/2
        body = np.zeros(g.n_points)
        body[28] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        v = Potential(SampledFn(g, body), "decaying-line", ((g.x[30], 1.5),))
        with pytest.raises(NumericalFailure, match="node 28$"):
            scattering(v, 1.0)

    def test_overflowing_spikes_are_reported(self):
        # a spike of 1e300 on a node whose c is about 9.1e-13 at E = 1 adds
        # more than the largest double to G there, where no coefficient vanishes
        g = free_line().grid
        body = np.zeros(g.n_points)
        body[g.mid_index] = 1.0 + 12.0 * (1.0 - 2.0**-40) / g.h**2
        spiked = Potential(SampledFn(g, body), "decaying-line", ((g.x[g.mid_index], 1e300),))
        with pytest.raises(NumericalFailure, match=r"^scattering sweep overflows at E=1\.0$"):
            scattering_curve(spiked, [1.0])

    @pytest.mark.parametrize("offset", range(4))
    def test_adjacent_large_spikes_reflect_wherever_they_sit(self, offset):
        # each spike step starts from a rescaled pair, so a pair of 1e300
        # spikes gives the same kind of outcome on whichever steps it falls
        v = free_line()
        x, mid = v.grid.x, v.grid.mid_index + offset
        spiked = Potential(v.body, "decaying-line", ((x[mid], 1e300), (x[mid + 1], 1e300)))
        res = scattering_curve(spiked, [1.0])[0]
        assert abs(res.R) > 1.0 - 1e-5
        assert res.T == 0.0
        assert abs(res.flux_defect) < 1e-12

    def test_overflowing_spikes_fail_the_discriminant(self):
        # the same pair in a comb cell, wherever it sits: the scaled map is
        # finite, and only its rescaling overflows
        c = comb_cell()
        x, n = c.grid.x, c.grid.n_points
        for mid in range(n // 2, n // 2 + 4):
            spiked = Potential(c.body, c.bc_kind, c.deltas + ((x[mid], 1e300), (x[mid + 1], 1e300)))
            with pytest.raises(NumericalFailure,
                               match=r"^band discriminant sweep overflows at E=1\.0$"):
                band_discriminant_curve(spiked, [1.0])

    def test_scans_raise_no_floating_point_warnings(self):
        v0 = free_line()
        barrier = Potential(SampledFn(v0.grid, 2500.0 / np.cosh(v0.grid.x / 4.0) ** 8),
                            "decaying-line")
        k = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = scattering_curve(barrier, [2.0, 5.0])
            scan = scattering_curve(bsec_whole_line(k, 1.0, half_width=80.0 * math.pi),
                                    k * k + 0.02 * np.arange(-90, 91))
        assert all(0.0 < abs(r.T) < 1e-100 for r in tiny)
        assert all(math.isfinite(abs(r.R)) for r in scan)

    def test_scan_working_set_does_not_grow(self, monkeypatch):
        # tracemalloc's peak for this scan was 4,024,235 bytes with the kernel
        # that stepped (y, y[j] - y[j-1]) over 16 work arrays; it must hold
        # however many CPUs the host has
        k = 3.0
        v = bsec_whole_line(k, 1.0, half_width=80.0 * math.pi)
        energies = k * k + 0.02 * np.arange(-90, 91)
        scattering_curve(v, energies[:3])
        for cpus in (1, 8):
            monkeypatch.setattr(solver_module, "_cpus", lambda n=cpus: n)
            tracemalloc.start()
            try:
                scattering_curve(v, energies)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4_024_235, cpus

    def test_scans_count_in_their_own_ledger(self):
        v = soliton_well()
        with oracle_scope() as work:
            scattering_curve(v, [0.5, 1.0, 2.0])
            scattering(v, 3.0)
        assert work.ledger()["scattering"] == {
            "calls": 2, "energies": 4, "node_energies": 4 * v.grid.n_points,
            "segments": 2 * (_segment_bounds(v.grid.n_points - 2).size - 1),
            "stepped_energies": 4,  # segments of 18 steps: every energy is stepped
        }
        assert work.numerov_calls == 0 and work.nodes_swept == 0


class TestInterpolatedMaps:
    """Segment maps interpolated in energy from each cell's Chebyshev maps, on
    163,903-node lines (1024 segments of 160 and 161 steps), against maps stepped
    directly at every energy."""

    EPS = np.finfo(float).eps

    @staticmethod
    def line(kind):
        g = make_grid(-6.0, 80.0 * math.pi, 163903)
        if kind == "barrier":
            body = 2500.0 / np.cosh((g.x - 100.0) / 4.0) ** 8
            return Potential(SampledFn(g, body), "decaying-line"), np.linspace(2.0, 40.0, 97)
        v = with_deltas(Potential(SampledFn(g, np.zeros(g.n_points)), "decaying-line"),
                        [40000, 40003, 120000])
        return v, np.linspace(0.05, 12.0, 103)

    @pytest.mark.parametrize("kind", ["barrier", "spikes"])
    def test_maps_match_directly_stepped_maps(self, kind):
        # measured: each interpolated map within 12.3 eps (barrier) and 9.0
        # eps (spikes) of the stepped one, relative to the map's largest entry
        v, energies = self.line(kind)
        n, h = v.grid.n_points, v.grid.h
        values = v.values[None, ::-1]
        jumps = [(n - 1 - j, s) for j, s in reversed(v.delta_nodes(interior_only=True))]
        bounds = _segment_bounds(n - 2)
        rows = np.zeros(energies.size, dtype=int)
        points, point_rows, cells = _energy_cells(values, h, energies, rows, bounds)
        # and one energy on a Chebyshev point, which takes that point's map
        energies, rows = np.append(energies, points[-1, 3]), np.append(rows, 0)
        cells = np.append(cells, points.shape[0] - 1)
        assert cells.min() == 0 and points.size < energies.size
        maps, top = _cell_maps(values, h, points, point_rows, bounds, jumps,
                               np.arange(bounds.size - 1), 16)
        got, exps = _interpolated(maps, top, points, cells, energies)
        want, want_exps = _segment_maps(values, h, energies, rows, bounds, jumps,
                                        np.arange(bounds.size - 1))
        want = np.ldexp(want, want_exps - exps)
        error = np.abs(got - want).max(axis=(0, 1)) / np.abs(want).max(axis=(0, 1))
        assert error.max() < 32 * self.EPS
        assert np.array_equal(got[:, :, -1], want[:, :, -1])

    @pytest.mark.parametrize("kind", ["barrier", "spikes"])
    def test_scan_matches_directly_stepped_scan(self, monkeypatch, kind):
        # measured: R within 2804 eps (barrier) and 1399 eps (spikes), T within
        # 4910 eps and 5541 eps of |T|; each is below the error of the direct
        # scan itself against a long-double sweep (1.7e-11 and 6.0e-12 in R
        # on every twelfth and tenth energy)
        v, energies = self.line(kind)
        with oracle_scope() as work:
            got = scattering_curve(v, energies)
        assert work.ledger()["scattering"]["stepped_energies"] < energies.size
        monkeypatch.setattr(solver_module, "_INTERPOLATED_STEPS", v.grid.n_points)
        want = scattering_curve(v, energies)
        assert max(abs(a.R - b.R) for a, b in zip(got, want)) < 2**13 * self.EPS
        assert max(abs(a.T - b.T) / abs(b.T) for a, b in zip(got, want)) < 2**14 * self.EPS
        if kind == "barrier":
            assert 0.0 < min(abs(b.T) for b in want) < 1e-100

    def test_cells_are_stepped_a_group_at_a_time(self):
        # 40 energies over [10, 1000] fall in 40 cells of width 8: their 320
        # Chebyshev maps held at once peaked at 16.5 MB, and 5.9 MB stepped
        # four cells at a time
        v = bsec_whole_line(3.0, 1.0, half_width=80.0 * math.pi)
        energies = np.linspace(10.0, 1000.0, 40)
        scattering_curve(v, energies[:2])
        tracemalloc.start()
        try:
            with oracle_scope() as work:
                scattering_curve(v, energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert work.ledger()["scattering"]["stepped_energies"] == 8 * 40
        assert peak < 8_000_000

    def test_one_point_equals_long_curve_element(self):
        # 8 cells, so two groups of cells
        v, energies = self.line("spikes")
        curve = scattering_curve(v, energies)
        for res in curve[::17]:
            single = scattering(v, res.energy)
            assert (single.R, single.T) == (res.R, res.T)


class TestSharedRuns:
    """Neighbouring segments with the same samples and no spike are stepped once
    per run, and each distinct pair of maps is multiplied once per level; the
    scans keep the bits of the tree over every segment."""

    @staticmethod
    def unshared(monkeypatch):
        """Make every segment a run of its own, as if no two were alike."""
        monkeypatch.setattr(solver_module, "_segment_runs",
                            lambda v, rows, bounds, jumps: np.arange(bounds.size - 1))

    @staticmethod
    def comb_scan():
        """The base comb and the 501 energies of a band run's discriminant.csv."""
        cell = comb_cell()
        return cell, np.linspace(float(cell.values.min()) - 1.0, 10.0, 501)

    def test_comb_curve_is_the_pairwise_chain_of_every_segment(self):
        cell, energies = self.comb_scan()
        n, h = cell.grid.n_points, cell.grid.h
        v = np.concatenate((cell.values[:-1], cell.values[:2]))[None]
        bounds = _segment_bounds(n - 1)
        assert bounds.size - 1 == 250
        m, exps = _segment_maps(v, h, energies, np.zeros(energies.size, dtype=int), bounds,
                                [(n - 1, _cell_deltas(cell)[0])], np.arange(bounds.size - 1))
        m, exps = pairwise_chain(*_rescaled(m, exps))
        curve = band_discriminant_curve(cell, energies)
        assert curve.tolist() == np.ldexp(m[0, 0] + m[1, 1], exps).tolist()
        assert [band_discriminant(cell, e) for e in energies] == curve.tolist()

    def test_stacked_rows_share_no_run_and_keep_their_own_bits(self):
        g = comb_cell().grid
        n = g.n_points
        bodies = [np.zeros(n), 3.0 * np.sin(2.0 * g.x) ** 2]
        cells = [Potential(SampledFn(g, body), "hard-walls", ((0.0, 2.0),)) for body in bodies]
        v = np.array([np.concatenate((c.values[:-1], c.values[:2])) for c in cells])
        bounds, jumps = _segment_bounds(n - 1), [(n - 1, 2.0)]
        assert _segment_runs(v, np.array([0]), bounds, jumps)[-1] == 1  # zeros, then the spike
        assert np.array_equal(_segment_runs(v, np.array([0, 1]), bounds, jumps),
                              np.arange(bounds.size - 1))
        energies = np.array([0.3, 2.5, 7.0, 0.3, 1.1, 4.0])
        rows = np.array([0, 0, 0, 1, 1, 1])
        maps, deltas = _transfer_matrices(cells, energies, rows)
        for r, cell in enumerate(cells):
            own_maps, own_deltas = _transfer_matrices(cell, energies[rows == r])
            assert np.array_equal(maps[..., rows == r], own_maps)
            assert np.array_equal(deltas[rows == r], own_deltas)

    def test_spikes_inside_and_at_the_ends_of_runs(self, monkeypatch):
        # a barrier of 2 on |x| < 1, whose edges fall inside segments 469 and 536
        # of the sweep (each starts like the segment before it, then differs),
        # and spikes inside a segment, on a segment's first and last nodes, and
        # on the last node of the segment before another spiked one
        v0 = free_line()
        n = v0.grid.n_points
        v0 = v0.with_body(np.where(np.abs(v0.grid.x) < 1.0, 2.0, 0.0))
        bounds = _segment_bounds(n - 2)
        sweep_nodes = [bounds[100] + 5, bounds[300], bounds[501] - 1, bounds[700] - 1,
                       bounds[700] + 2]
        v = with_deltas(v0, [n - 1 - int(j) for j in sweep_nodes])
        jumps = [(n - 1 - j, s) for j, s in reversed(v.delta_nodes(interior_only=True))]
        runs = _segment_runs(v.values[None, ::-1], np.zeros(1, dtype=int), bounds, jumps)
        # five spiked segments, two barrier edges, and the eight runs between
        # and around them: the run from 537 to 698 splits where the segments
        # get shorter
        assert np.flatnonzero(np.bincount(runs) == 1).size == 7
        assert runs[-1] + 1 == 15
        energies = np.linspace(0.05, 12.0, 40)
        got = [(r.R, r.T) for r in scattering_curve(v, energies)]
        self.unshared(monkeypatch)
        assert [(r.R, r.T) for r in scattering_curve(v, energies)] == got

    def test_interpolated_scan_of_the_bsec_line(self, monkeypatch):
        # the line is zero on x < 0, about 24 of its 1024 segments of 160 steps;
        # those runs would leave more than _SHARED_RUNS of the segments, so the
        # scan shares them only when that share is raised
        k = 3.0
        v = bsec_whole_line(k, 1.0, half_width=80.0 * math.pi)
        n = v.grid.n_points

        def runs():
            return _segment_runs(v.values[None, ::-1], np.zeros(1, dtype=int),
                                 _segment_bounds(n - 2), [])

        assert runs()[-1] + 1 == 1024
        monkeypatch.setattr(solver_module, "_SHARED_RUNS", 1.0)
        assert 990 < runs()[-1] + 1 < 1010
        energies = k * k + 0.3 * np.arange(-22, 23)
        with oracle_scope() as work:
            got = [(r.R, r.T) for r in scattering_curve(v, energies)]
        assert work.ledger()["scattering"]["stepped_energies"] == 24  # interpolated
        self.unshared(monkeypatch)
        assert [(r.R, r.T) for r in scattering_curve(v, energies)] == got

    def test_segments_stepped_per_block(self, monkeypatch):
        stepped = []

        def spy(*args, _inner=_segment_maps, **kwargs):
            m, exps = _inner(*args, **kwargs)
            stepped.append(m.shape[-1])
            return m, exps

        monkeypatch.setattr(solver_module, "_segment_maps", spy)
        # the base comb: its 249 zero segments as one, and the one that holds the edge spike
        cell, energies = self.comb_scan()
        band_discriminant_curve(cell, energies)
        assert stepped == [2]
        # a soliton well has no equal neighbours: every segment is stepped
        stepped.clear()
        scattering_curve(soliton_well(), np.linspace(0.05, 12.0, 40))
        assert stepped == [1024] * 3


class TestScanThreads:
    """scattering_curve's energy blocks swept on the calling thread and helpers."""

    @staticmethod
    def scan(monkeypatch, v, energies, workers):
        """Results, ledger and the threads that ran each spied kernel, with `workers` CPUs."""
        monkeypatch.setattr(solver_module, "_cpus", lambda: workers)
        threads = {"_segment_maps": set(), "_numerov": set()}
        for name, seen in threads.items():
            def spy(*args, _inner=getattr(solver_module, name), _seen=seen, **kwargs):
                _seen.add(threading.current_thread())
                return _inner(*args, **kwargs)
            monkeypatch.setattr(solver_module, name, spy)
        with oracle_scope() as work:
            results = scattering_curve(v, energies)
        monkeypatch.undo()
        return [(r.R, r.T) for r in results], work.ledger(), threads

    @staticmethod
    def block(v):
        """Energies per block of a scan of v: as many as make about _BLOCK_DOUBLES
        doubles of its chain plan's widest level (or of the Chebyshev points)."""
        n = v.grid.n_points
        jumps = [(n - 1 - j, s) for j, s in reversed(v.delta_nodes(interior_only=True))]
        runs = solver_module._segment_runs(v.values[None, ::-1], np.zeros(1, dtype=int),
                                           _segment_bounds(n - 2), jumps)
        widest = solver_module._chain_plan(runs)[1]
        return solver_module._BLOCK_DOUBLES // max(widest, solver_module._CHEBYSHEV_POINTS)

    @pytest.mark.parametrize("case", ["bsec-scan line", "line with deltas",
                                      "soliton line with deltas"])
    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch, case):
        # every grid makes 1024 segments
        if case == "bsec-scan line":
            # segments of 160 steps: the 45 energies fall in the cells [2, 4),
            # [4, 8) and [8, 16), whose 24 Chebyshev energies are stepped in 2
            # blocks of 16 (too few of its segments repeat for runs to be shared)
            k = 3.0
            v = bsec_whole_line(k, 1.0, half_width=80.0 * math.pi)
            energies, stepped, blocks = k * k + 0.3 * np.arange(-22, 23), 24, 2
        elif case == "line with deltas":
            # its delta jumps are steps of the segment maps; the spikes split the
            # zero body into runs, and the plan's widest level holds 9 maps, so the
            # 103 energies fill one block and no helper starts
            v = with_deltas(free_line(), [3000, 3004, 9000, 15000])
            energies, stepped, blocks = np.linspace(0.05, 12.0, 103), 103, 1
        else:  # the same spikes on a body with no equal neighbours: blocks of 16,
            # and the jumps are stepped in the helpers too
            v = with_deltas(soliton_well(), [3000, 3004, 9000, 15000])
            energies, stepped, blocks = np.linspace(0.05, 12.0, 103), 103, 7
        assert blocks == -(-stepped // self.block(v))
        one, one_ledger, one_threads = self.scan(monkeypatch, v, energies, 1)
        assert len(one_threads["_segment_maps"]) == 1
        # two CPUs, and more CPUs than threads, with threads switching every microsecond
        for workers in (2, 8):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got, ledger, threads = self.scan(monkeypatch, v, energies, workers)
            finally:
                sys.setswitchinterval(interval)
            assert got == one
            assert ledger == one_ledger
            assert len(threads["_segment_maps"]) == min(workers, solver_module._SCAN_THREADS, blocks)
            assert threads["_numerov"] == set()
        assert one_ledger["scattering"]["calls"] == 1
        assert one_ledger["scattering"]["stepped_energies"] == stepped
        assert one_ledger["numerov_calls"] == one_ledger["nodes_swept"] == 0

    def test_vanishing_coefficient_in_a_helper_raises_without_warnings(self, monkeypatch):
        # h = 1/2 and 1024 segments; the body has no equal neighbours, so no
        # run is shared and the 40 energies fall in 3 blocks of 16
        g = make_grid(-4096.0, 4096.0, 16385)
        body = -1e-3 / np.cosh(g.x / 64.0) ** 2
        body[8000] = 49.0  # h^2 (V - E) / 12 = 1 at E = 1
        v = Potential(SampledFn(g, body), "decaying-line")
        assert self.block(v) == 16
        energies = np.linspace(0.05, 2.0, 40)
        energies[20] = 1.0  # in the second block, which the helper sweeps
        swept = []  # (thread, whether E = 1 is among its energies) of each block

        def spy(v, h, energies, *args, _inner=_segment_maps):
            swept.append((threading.current_thread(), 1.0 in energies))
            return _inner(v, h, energies, *args)

        monkeypatch.setattr(solver_module, "_segment_maps", spy)
        monkeypatch.setattr(solver_module, "_cpus", lambda: 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="node 8000$"):
                scattering_curve(v, energies)
        assert [t is threading.current_thread() for t, failing in swept if failing] == [False]

    def test_failures_are_raised_after_every_thread_stops(self, monkeypatch):
        def task(item):
            ran[item] = threading.current_thread()
            if item == failing:
                raise ValueError(f"item {item}")

        # on one thread, no item after the failing one is taken
        monkeypatch.setattr(solver_module, "_cpus", lambda: 1)
        ran, failing = {}, 2
        with pytest.raises(ValueError, match="item 2"):
            solver_module._on_cpus(task, range(9))
        assert sorted(ran) == [0, 1, 2]
        # a helper's failure reaches the caller once every thread has stopped
        monkeypatch.setattr(solver_module, "_cpus", lambda: 3)
        ran, failing = {}, 1
        with pytest.raises(ValueError, match="item 1"):
            solver_module._on_cpus(task, range(9))
        assert ran[1] is not threading.current_thread()
        assert not any(t.is_alive() for t in ran.values())


def same_states(a, b) -> bool:
    """Bit-for-bit equality of two bound-state lists."""
    return len(a) == len(b) and all(
        (x.n, x.nodes, x.energy, x.swf) == (y.n, y.nodes, y.energy, y.swf)
        and np.array_equal(x.psi.values, y.psi.values)
        for x, y in zip(a, b)
    )


def equal_up_to_power_of_two(part, whole) -> bool:
    """part == whole * 2**k exactly, for one integer k."""
    ratio = whole[np.argmax(np.abs(whole))] / part[np.argmax(np.abs(whole))]
    return math.frexp(ratio)[0] == 0.5 and np.array_equal(part * ratio, whole)


class TestOracleScope:
    @pytest.mark.parametrize("make", [box, poschl_teller, soliton_well])
    def test_memo_is_transparent(self, make):
        v = make()
        fresh = {k: bound_states(v, k) for k in range(1, 6)}
        for k in range(1, 5):  # a level does not depend on how many were asked for
            assert same_states(fresh[k], fresh[5][:k])
        for order in ([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 5, 2, 4]):
            with oracle_scope() as work:
                for k in order:
                    assert same_states(bound_states(v, k), fresh[k])
            assert (work.calls, work.memo_hits) == (5, 4)

    def test_memo_solves_only_missing_levels(self):
        v = poschl_teller()
        with oracle_scope() as work:
            bound_states(v, 2)
            bound_states(v, 4)
            bound_states(v, 3)
        assert work.levels_solved == 4

    def test_memo_key_is_the_samples(self):
        v = box()
        twin = Potential(SampledFn(v.grid, v.values.copy()), v.bc_kind)
        nudged = v.values.copy()
        nudged[1000] = np.nextafter(nudged[1000], 1.0)
        with oracle_scope() as work:
            bound_states(v, 1)
            bound_states(twin, 1)
            bound_states(Potential(SampledFn(v.grid, nudged), v.bc_kind), 1)
        assert (work.calls, work.memo_hits, work.levels_solved) == (3, 1, 2)

    def test_scope_ends_with_its_block(self):
        v = box()
        with oracle_scope() as first:
            bound_states(v, 2)
        with oracle_scope() as second:
            bound_states(v, 2)
        assert (first.memo_hits, second.memo_hits) == (0, 0)
        assert second.levels_solved == 2
        bound_states(v, 2)  # outside any scope: nothing is counted or kept
        assert (first.calls, second.calls) == (1, 1)

    def test_states_are_read_only(self):
        v = box()
        with oracle_scope():
            inside = bound_states(v, 2)
        for s in inside + bound_states(v, 2):
            with pytest.raises(ValueError):
                s.psi.values[0] = 1.0

    def test_refinement_steps_are_counted(self, monkeypatch):
        v = box()
        ledgers = []
        for _ in range(2):
            with oracle_scope() as work:
                bound_states(v, 4)
            ledgers.append(work.ledger()["bound_states"])
        assert ledgers[0] == ledgers[1]  # deterministic
        assert ledgers[0]["cooley_steps"] >= 2 * 4
        monkeypatch.setattr(solver_module._Spectrum, "_cooley", lambda *args: None)
        with oracle_scope() as work:
            bound_states(v, 4)
        ledger = work.ledger()["bound_states"]
        assert ledger["cooley_steps"] == 0
        assert ledger["cell_steps"] >= 4 * 10  # a bracket of 2e-4 or more, cells of 1e-10 or less

    def test_work_per_level_stays_in_budget(self):
        with oracle_scope() as work:
            bound_states(poschl_teller(), 4)
        ledger = work.ledger()["bound_states"]
        assert ledger["sweeps_per_level"] <= 10.0
        assert ledger["numerov_calls_per_level"] <= 12.0


class TestHalfSweeps:
    @pytest.mark.parametrize("offset", [-2, 0, 2])
    def test_half_sweeps_are_prefix_and_suffix_of_full_sweeps(self, offset):
        # 19,109 nodes (several chunks), a delta at m + offset
        v = single_delta(-2.0)
        m = v.delta_nodes()[0][0] - offset
        n = v.grid.n_points
        for energy in (-1.3, -1.0, -0.4):
            yl, yr = _Matcher(v, m).sweeps(energy)
            assert equal_up_to_power_of_two(yl, _sweep(v, energy, True)[: m + 2])
            assert equal_up_to_power_of_two(yr, _sweep(v, energy, False)[m - 1 :])
            assert yl.size == m + 2 and yr.size == n - m + 1

    def test_hard_wall_half_sweeps(self):
        v = poschl_teller()
        for m in (40, 1000, 1996):
            for energy in (3.0, 9.0, 20.5):
                yl, yr = _Matcher(v, m).sweeps(energy)
                assert equal_up_to_power_of_two(yl, _sweep(v, energy, True)[: m + 2])
                assert equal_up_to_power_of_two(yr, _sweep(v, energy, False)[m - 1 :])


class TestRefinement:
    def double_well(self, height=400.0):
        b = box()
        v = np.where(np.abs(b.grid.x) < 0.4, height, b.values)
        return Potential(SampledFn(b.grid, v), "hard-walls")

    def test_near_degenerate_doublet(self):
        states = bound_states(self.double_well(), 4)
        assert [s.nodes for s in states] == [0, 1, 2, 3]
        assert 0.0 < states[1].energy - states[0].energy < 1e-6

    @pytest.mark.parametrize("make, bracketed", [(poschl_teller, 0), (soliton_well, 0),
                                                 ("double_well", 2)],
                             ids=["poschl_teller", "soliton_well", "double_well"])
    def test_bracketed_fallback_agrees(self, monkeypatch, make, bracketed):
        # with no Cooley steps every level takes node-count bisection; by
        # default the first level of each of the double well's two
        # near-degenerate doublets takes it too, and the second compares the
        # Cooley path with bisection
        v = self.double_well() if make == "double_well" else make()
        with oracle_scope() as work:
            cooley = bound_states(v, 4)
        assert work.ledger()["bound_states"]["bracketed_levels"] == bracketed
        monkeypatch.setattr(solver_module, "_COOLEY_STEPS", 0)
        bisected = bound_states(v, 4)
        assert len(cooley) == len(bisected)
        for a, b in zip(cooley, bisected):
            assert a.energy == pytest.approx(b.energy, rel=1e-10, abs=1e-10)
            assert np.max(np.abs(a.psi.values - b.psi.values)) < 1e-9 * np.max(np.abs(b.psi.values))

    def test_node_bisection_alone_gives_the_box_levels(self, monkeypatch):
        # with the Cooley steps failing, bisection on the node count alone
        # finds each level within the refinement tolerance
        v = box()
        want = bound_states(v, 3)
        monkeypatch.setattr(solver_module._Spectrum, "_cooley", lambda *args: None)
        with oracle_scope() as work:
            got = bound_states(v, 3)
        assert work.ledger()["bound_states"]["bracketed_levels"] == 3
        assert [s.nodes for s in got] == [0, 1, 2]
        for a, b in zip(got, want):
            assert a.energy == pytest.approx(b.energy, abs=5e-12 * max(1.0, abs(b.energy)))

    def test_both_paths_end_on_the_same_box_levels(self, monkeypatch):
        # the Cooley steps and node-count bisection end on the same cell
        # centre and assemble the state there
        v = box()
        cooley = bound_states(v, 3)
        monkeypatch.setattr(solver_module._Spectrum, "_cooley", lambda *args: None)
        assert same_states(bound_states(v, 3), cooley)

    def test_bisected_levels_lie_between_node_count_jumps(self, monkeypatch):
        # with the Cooley steps failing, every level of the double well goes
        # through node-count bisection, which leaves it within xtol of the
        # energy where the left shot gains its k-th node
        v = self.double_well()
        monkeypatch.setattr(solver_module._Spectrum, "_cooley", lambda *args: None)
        with oracle_scope() as work:
            states = bound_states(v, 4)
        assert work.ledger()["bound_states"]["bracketed_levels"] == 4
        for s in states:
            xtol = solver_module._REL_TOL * max(1.0, abs(s.energy))
            assert solver_module._node_count(v, s.energy - xtol) == s.n - 1
            assert solver_module._node_count(v, s.energy + xtol) == s.n

    def test_doublet_closer_than_a_cell_solves_on_both_paths(self, monkeypatch):
        # with a 2000 barrier the doublets are about 1e-10 apart, under the
        # Numerov energy staircase: at the first cell centre the assembled
        # state can have a node too many, and the cell is halved until it has not
        v = self.double_well(2000.0)
        states = bound_states(v, 4)
        assert [s.nodes for s in states] == [0, 1, 2, 3]
        monkeypatch.setattr(solver_module, "_COOLEY_STEPS", 0)
        assert same_states(bound_states(v, 4), states)

    def test_cell_centre_stops_where_cells_are_finer_than_the_doubles(self):
        # a bracket one ulp (2^-35) wide, whose cell is halved 17 times from
        # 2^-19 to 2^-36: the boundary between its ends rounds onto lo
        lo = 131710.2314107449
        hi = lo + math.ulp(lo)
        calls = []

        def below(energy):
            calls.append(energy)
            assert len(calls) < 64, "the bracket does not narrow"
            return True

        centre, got_lo, got_hi = solver_module._cell_centre(lo, hi, below, 17)
        assert (got_lo, got_hi) == (lo, hi) and lo <= centre <= hi
        assert calls == []

    def test_box_level_on_a_cell_finer_than_the_doubles(self):
        # level 363 of the default box goes to node-count bisection, whose
        # halved cells pass below the spacing of the doubles at 131710
        with oracle_scope() as work:
            top = bound_states(box(), 363)[-1]
        assert work.ledger()["bound_states"]["bracketed_levels"] > 0
        assert top.nodes == 362 and top.energy == pytest.approx(131710.23141, rel=1e-9)

    @pytest.mark.parametrize("x0", [11.0, 11.5, 12.0])
    def test_node_count_sees_a_node_beyond_the_last_node(self, monkeypatch, x0):
        # the delta well's state has its node beyond the right end of the
        # domain just above the level; the left shot's mismatch against the
        # decaying tail counts it, so bisection finds the level itself
        v = single_delta(-2.0, x0)
        want = bound_states(v, 1)[0].energy
        monkeypatch.setattr(solver_module._Spectrum, "_cooley", lambda *args: None)
        assert bound_states(v, 1)[0].energy == pytest.approx(want, abs=1e-9)
        assert solver_module._Spectrum(v)._bracketed(1, -0.998)[0] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", [-0.998, -0.998001])
    @pytest.mark.parametrize("x0", [11.0, 11.5, 12.0])
    def test_cooley_steps_cross_a_rounding_plateau(self, monkeypatch, x0, seed):
        # from these seeds the corrections stay near -6.6e-11 across a plateau
        # some 7e-10 wide; lengthened steps cross it within the step budget
        monkeypatch.setattr(solver_module, "_fd_estimate", lambda fd, k: seed)
        with oracle_scope() as work:
            bound_states(single_delta(-2.0, x0), 1)
        assert work.ledger()["bound_states"]["bracketed_levels"] == 0

    @pytest.mark.parametrize("rel", [1e-6, -1e-6, 3e-4, -3e-4])
    @pytest.mark.parametrize("make", [box, poschl_teller, soliton_well,
                                      lambda: single_delta(-2.0, 11.5)],
                             ids=["box", "poschl_teller", "soliton_well", "delta_well"])
    def test_levels_do_not_depend_on_the_seed(self, monkeypatch, make, rel):
        v = make()
        want = bound_states(v, 4)
        seed = solver_module._fd_estimate
        monkeypatch.setattr(solver_module, "_fd_estimate", lambda fd, k: seed(fd, k) * (1.0 + rel))
        assert same_states(bound_states(v, 4), want)

    @pytest.mark.parametrize("n_points, coarse_rows", [(11, 4), (263, 1)])
    def test_seeds_on_grids_with_few_divisors(self, n_points, coarse_rows):
        # 10 intervals: the fine grid takes every node and the coarse grid
        # every 2nd; 262 = 2 x 131 intervals: the fine grid takes every 2nd
        # node and the next divisor, 131, leaves one row.  Where the coarse
        # matrix has fewer than k rows, level k is seeded by the fine one alone
        v = box(n_points=n_points)
        fd = solver_module._seed_matrices(v)
        assert fd[1][0].size == coarse_rows
        seeds = [solver_module._fd_estimate(fd, k) for k in range(1, 12)]
        assert all(math.isfinite(e) for e in seeds) and seeds == sorted(seeds)
        for k, e in enumerate(seeds[:3], start=1):
            assert e == pytest.approx(k * k, rel=1e-2)
        assert [s.nodes for s in bound_states(v, 3)] == [0, 1, 2]
