import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from specdesign.errors import ValidationError
from specdesign.lattice import (
    LatticeSystem,
    ladder_index,
    lattice_bound_states,
    single_site,
    stark_ladder,
)
from references import bessel_recurrence_residual, lattice_scattering


class TestBoundStates:
    def test_free_hard_wall_closed_form(self):
        n = 12
        sys = LatticeSystem(1, n, np.zeros(n), "hard-walls")
        states = lattice_bound_states(sys, n)
        for k, s in enumerate(states, start=1):
            assert s.energy == pytest.approx(2 - 2 * math.cos(k * math.pi / (n + 1)), abs=1e-10)
            assert s.nodes == k - 1

    def test_single_attractive_site(self):
        # closed form: E = 2 - sqrt(V0^2 + 4), psi ~ beta^|n| with
        # beta = (sqrt(V0^2 + 4) - |V0|) / 2
        states = lattice_bound_states(single_site(-1.5), 1)
        assert len(states) == 1
        s = states[0]
        assert s.energy == pytest.approx(-0.5, abs=1e-8)
        sites = np.arange(-25, 26)
        expected = 0.5 ** np.abs(sites)
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(s.psi - expected)) < 1e-8

    def test_single_repulsive_site_above_band(self):
        states = lattice_bound_states(single_site(1.5), 1, which="highest")
        assert len(states) == 1
        s = states[0]
        assert s.energy == pytest.approx(4.5, abs=1e-8)
        # alternating signs under one smooth envelope
        sites = np.arange(-25, 26)
        expected = (-0.5) ** np.abs(sites)
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(s.psi - expected)) < 1e-8

    def test_no_fake_levels_from_continuum(self):
        # shallow attractive site has exactly one level below the band
        # (wide window: the shallow state decays slowly)
        states = lattice_bound_states(single_site(-0.3, half_width=110), 4)
        assert len(states) == 1

    def test_three_term_relation(self):
        states = lattice_bound_states(single_site(-1.5), 1)
        s = states[0]
        v = single_site(-1.5).v
        res = -s.psi[2:] - s.psi[:-2] + (2 + v[1:-1]) * s.psi[1:-1] - s.energy * s.psi[1:-1]
        assert np.max(np.abs(res)) < 1e-10

    def test_orthonormality(self):
        n = 30
        rng = np.random.default_rng(7)
        sys = LatticeSystem(0, n - 1, rng.uniform(-1, 1, n), "hard-walls")
        states = lattice_bound_states(sys, n)
        mat = np.array([s.psi for s in states])
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    def test_count_validation(self):
        sys = LatticeSystem(0, 5, np.zeros(6), "hard-walls")
        with pytest.raises(ValidationError):
            lattice_bound_states(sys, 10)


class TestStarkLadder:
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_equidistant_spacing(self, c):
        states = stark_ladder(c, (-40, 40))
        energies = sorted(s.energy for s in states)
        spacings = np.diff(energies)
        assert np.max(np.abs(spacings - c)) < 1e-8

    def test_denser_ladder_for_smaller_slope(self):
        # halving the slope doubles the number of rungs per unit energy
        def density(c):
            energies = sorted(s.energy for s in stark_ladder(c, (-40, 40)))
            return (len(energies) - 1) / (energies[-1] - energies[0])

        assert density(0.5) == pytest.approx(2.0, abs=1e-9)
        assert density(1.0) == pytest.approx(1.0, abs=1e-9)
        assert density(0.25) == pytest.approx(4.0, abs=1e-9)

    def test_translation_covariance(self):
        states = stark_ladder(1.0, (-40, 40))
        states.sort(key=lambda s: s.energy)
        mid = len(states) // 2
        a, b = states[mid], states[mid + 1]
        # same shape shifted by one site
        assert np.max(np.abs(a.psi[:-1] - b.psi[1:])) < 1e-7

    def test_bessel_recurrence_oracle(self):
        c = 0.5
        window = (-40, 40)
        states = stark_ladder(c, window)
        for s in states[::7]:
            assert bessel_recurrence_residual(s, c, window) < 1e-9

    def test_matches_bessel_samples(self):
        # cross-check against scipy's Bessel J (independent of the recurrence)
        c = 1.0
        window = (-40, 40)
        states = stark_ladder(c, window)
        s = min(states, key=lambda t: abs(t.energy - 2.0))  # rung m = 0
        assert ladder_index(s, c) == 0
        sites = np.arange(window[0], window[1] + 1)
        ref = jv(sites, 2.0 / c)
        ref /= np.linalg.norm(ref)
        if np.sign(ref[np.argmax(np.abs(ref))]) != np.sign(s.psi[np.argmax(np.abs(s.psi))]):
            ref = -ref
        assert np.max(np.abs(s.psi - ref)) < 1e-9

    def test_window_guard(self):
        with pytest.raises(ValidationError):
            stark_ladder(0.01, (-4, 4))


class TestScattering:
    def test_free_lattice(self):
        sys = LatticeSystem(-10, 10, np.zeros(21), "decaying")
        r, t = lattice_scattering(sys, 2.0)
        assert abs(r) < 1e-12
        assert abs(t) == pytest.approx(1.0, abs=1e-12)

    def test_single_site_closed_form(self):
        # |R|^2 = V0^2 / (V0^2 + 4 sin^2 k); at band center k = pi/2
        sys = single_site(1.5, half_width=12)
        r, t = lattice_scattering(sys, 2.0)
        assert abs(r) ** 2 == pytest.approx(0.36, abs=1e-8)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_three_site_barrier_flux(self):
        v = np.zeros(41)
        v[19:22] = 5.0
        sys = LatticeSystem(-20, 20, v, "decaying")
        r, t = lattice_scattering(sys, 1.0)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        energy=st.floats(0.05, 3.95),
        v0=st.floats(-3, 3),
        v1=st.floats(-3, 3),
    )
    def test_flux_conservation_property(self, energy, v0, v1):
        v = np.zeros(31)
        v[14], v[16] = v0, v1
        sys = LatticeSystem(-15, 15, v, "decaying")
        r, t = lattice_scattering(sys, energy)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_band_edge_rejected(self):
        sys = LatticeSystem(-10, 10, np.zeros(21), "decaying")
        with pytest.raises(ValidationError):
            lattice_scattering(sys, 0.0)
        with pytest.raises(ValidationError):
            lattice_scattering(sys, 4.0)


class TestBandDuality:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_updown_symmetry(self, seed):
        # spectrum of V maps to 4 - spectrum(-V) under psi -> (-1)^n psi
        rng = np.random.default_rng(seed)
        n = 14
        v = rng.uniform(-2, 2, n)
        a = LatticeSystem(0, n - 1, v, "hard-walls")
        b = LatticeSystem(0, n - 1, -v, "hard-walls")
        ea = np.array([s.energy for s in lattice_bound_states(a, n)])
        eb = np.array([s.energy for s in lattice_bound_states(b, n)])
        assert np.max(np.abs(np.sort(ea) - np.sort(4.0 - eb))) < 1e-10


class TestContinuumLimit:
    def test_sampled_well_converges_to_continuum(self):
        # lattice with step a: E_cont = E_latt / a^2, V_latt = a^2 V(na);
        # lowest level of -2 sech^2 x must approach the continuum -1
        errors = []
        for a in (0.4, 0.2, 0.1):
            half = int(round(18.0 / a))
            sites = np.arange(-half, half + 1)
            v = a * a * (-2.0 / np.cosh(a * sites) ** 2)
            sys = LatticeSystem(-half, half, v, "decaying")
            e0 = lattice_bound_states(sys, 1)[0].energy / (a * a)
            errors.append(abs(e0 - (-1.0)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3
