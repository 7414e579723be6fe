import math

import numpy as np
import pytest

from specdesign import bands
from specdesign.bands import (
    PeriodicSystem,
    Zone,
    auxiliary_box,
    bisect_gap_closure,
    check_dirichlet_levels,
    gap_between,
    shift_zone,
    track_zone_shift,
    zones,
)
from specdesign.errors import NumericalFailure, ValidationError
from specdesign.grid import SampledFn, make_grid
from specdesign.potentials import Potential, comb_cell
import specdesign.solver as solver_module
from specdesign.solver import band_discriminant, bound_states, oracle_scope, secant_steps


@pytest.fixture(scope="module")
def comb():
    return PeriodicSystem(comb_cell(strength=2.0), math.pi)


def free_system(n_points=2001):
    g = make_grid(0.0, math.pi, n_points)
    return PeriodicSystem(Potential(SampledFn(g, np.zeros(n_points)), "hard-walls"), math.pi)


class TestZones:
    def test_free_cell_touching_zones(self):
        zs = zones(free_system(), 10.0)
        # gapless continuum: zones touch, edges at n^2
        edges = [z.e_hi for z in zs[:-1]]
        assert edges == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)
        for a, b in zip(zs[:-1], zs[1:]):
            assert b.e_lo - a.e_hi == pytest.approx(0.0, abs=1e-6)

    def test_comb_pinned_edges(self, comb):
        zs = zones(comb, 10.0)
        assert len(zs) == 3
        # one edge of every zone sits exactly on the wall-pinned family n^2
        assert [z.e_hi for z in zs] == pytest.approx([1.0, 4.0, 9.0], abs=1e-8)
        for z in zs:
            assert z.e_lo < z.e_hi

    @pytest.mark.parametrize("g", [0.5, 2.0, 4.0, 7.0])
    def test_edge_invariance_in_strength(self, g):
        system = PeriodicSystem(comb_cell(strength=g), math.pi)
        zs = zones(system, 10.0)
        assert [z.e_hi for z in zs[:3]] == pytest.approx([1.0, 4.0, 9.0], abs=1e-8)

    def test_gap_widths_grow_with_strength(self):
        gaps = {}
        for g in (2.0, 4.0):
            zs = zones(PeriodicSystem(comb_cell(strength=g), math.pi), 10.0)
            gaps[g] = [gap_between(zs, 1), gap_between(zs, 2)]
        assert gaps[4.0][0] > gaps[2.0][0]
        assert gaps[4.0][1] > gaps[2.0][1]

    def test_dispersion_cross_check(self, comb):
        # independent oracle: band edges solve cos(ka) + (g/2k) sin(ka) = +/-1
        from scipy.optimize import brentq

        def disp(k):
            return math.cos(k * math.pi) + (2.0 / (2 * k)) * math.sin(k * math.pi)

        lower_zone3 = brentq(lambda k: disp(k) - 1.0, 2.05, 2.9, xtol=1e-12) ** 2
        zs = zones(comb, 10.0)
        assert zs[2].e_lo == pytest.approx(lower_zone3, abs=1e-7)

    def test_emax_validation(self, comb):
        with pytest.raises(ValidationError):
            zones(comb, -5.0)

    @pytest.mark.parametrize("e_max", [math.nan, 1e7], ids=["nan", "beyond_the_grid"])
    def test_emax_out_of_reach(self, comb, e_max):
        with pytest.raises(ValidationError):
            zones(comb, e_max)

    def test_three_node_cell_is_too_coarse(self):
        with pytest.raises(ValidationError):
            zones(free_system(n_points=3), 10.0)

    def test_gap_between_names_an_inner_gap(self, comb):
        zs = zones(comb, 10.0)
        for k in (0, len(zs)):
            with pytest.raises(ValidationError):
                gap_between(zs, k)

    @pytest.mark.parametrize("g", [-3.0, -1.0, 0.5, 2.0, 7.0])
    def test_every_edge_solves_the_dispersion(self, g):
        # Kronig-Penney: the edges solve cos(ka) + (g/2k) sin(ka) = +-1 with
        # a = pi; k = i kappa below E = 0 (an attractive comb)
        def half_delta(e):
            if e > 0:
                k = math.sqrt(e)
                return math.cos(k * math.pi) + g / (2 * k) * math.sin(k * math.pi)
            kap = math.sqrt(-e)
            return math.cosh(kap * math.pi) + g / (2 * kap) * math.sinh(kap * math.pi)

        zs = zones(PeriodicSystem(comb_cell(strength=g), math.pi), 30.0)
        edges = [e for z in zs for e in (z.e_lo, z.e_hi) if e < 30.0]
        assert len(edges) == 11
        for e in edges:
            assert abs(half_delta(e)) == pytest.approx(1.0, abs=1e-7)
        # lam_0 lies below the cell minimum for an attractive comb
        assert (zs[0].e_lo < 0.0) == (g < 0.0)

    @pytest.mark.parametrize("period, n_points, e_max, count", [
        (100.0, 4001, 10.0, 101),    # zones far narrower than on the pi cell
        (math.pi, 2001, 7000.0, 84),  # past the top (4/h^2) of a 128-interval cell
    ])
    def test_every_zone_of_a_long_cell_or_a_high_cut(self, period, n_points, e_max, count):
        # on a repulsive comb zone n runs from a root of |cos(ka) + (g/2k)
        # sin(ka)| = 1 above ((n-1) pi/a)^2 up to the pinned edge, level n of
        # the cell with hard walls.  On the grid that level is Numerov's
        # (12/h^2) (12 / (10 + 2 cos theta) - 1), theta = n pi h / a, which lies
        # within (kh)^4 / 240 (1.2e-6 at E = 6889) of (n pi/a)^2
        def half_delta(e):
            k = math.sqrt(e)
            return math.cos(k * period) + 1.0 / k * math.sin(k * period)

        zs = zones(PeriodicSystem(comb_cell(period, 2.0, n_points), period), e_max)
        assert len(zs) == count and zs[-1].e_hi == e_max
        for n, z in enumerate(zs, start=1):
            assert ((n - 1) * math.pi / period) ** 2 < z.e_lo < (n * math.pi / period) ** 2
            assert abs(half_delta(z.e_lo)) == pytest.approx(1.0, abs=1e-4)
        h = period / (n_points - 1)
        theta = np.pi * np.arange(1, count) * h / period
        tops = 12.0 / h**2 * (12.0 / (10.0 + 2.0 * np.cos(theta)) - 1.0)
        assert np.allclose(tops, (np.arange(1, count) * math.pi / period) ** 2, rtol=1.3e-6, atol=0)
        assert [z.e_hi for z in zs[:-1]] == pytest.approx(tops, rel=1e-8, abs=1e-8)

    @pytest.fixture
    def seed_cells(self, monkeypatch):
        """The interval counts of every finite-difference seed cell built."""
        built = []
        edge_seeds = bands._edge_seeds
        monkeypatch.setattr(bands, "_edge_seeds",
                            lambda cell, m, e_cut: built.append(m) or edge_seeds(cell, m, e_cut))
        return built

    @pytest.mark.parametrize("period, g", [(5.0, -4.0), (8.0, -5.0), (10.0, -3.0), (20.0, -2.0),
                                           (10.0, -5.0), (15.0, -4.0), (20.0, -3.0)])
    def test_narrow_zone_of_an_attractive_comb(self, seed_cells, period, g):
        # the level E = -g^2/4 of one delta widens into a zone 1.5e-3 (5, -4)
        # down to 1.7e-12 (20, -3) wide, narrower than the error of its seeds:
        # the seeds' midpoint misses it, and the sign change of Delta between
        # the gaps on either side finds it
        def half_delta(e):
            if e > 0:
                k = math.sqrt(e)
                return math.cos(period * k) + g / (2 * k) * math.sin(period * k)
            kap = math.sqrt(-e)
            return math.cosh(period * kap) + g / (2 * kap) * math.sinh(period * kap)

        def bisect(f, lo, hi):  # the sign change of f in [lo, hi], to the spacing of doubles
            positive = f(lo) > 0
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (f(mid) > 0) == positive else (lo, mid)
            return lo

        zs = zones(PeriodicSystem(comb_cell(period, g), period), 10.0)
        assert len(seed_cells) == 1
        # zone 1, then one zone starting at each pinned edge (n pi/a)^2 below 10
        assert len(zs) == 1 + math.floor(period * math.sqrt(10.0) / math.pi)
        assert zs[0].width < 2e-3
        # zone 1 may be narrower than the tolerance, so its edges are compared
        # with the roots of half_delta -+ 1 about its centre (half_delta = 0)
        below, above = zs[0].e_lo - 1e-3, zs[0].e_hi + 1e-3
        centre = bisect(half_delta, below, above)
        roots = (bisect(lambda e: half_delta(e) - 1, below, centre),
                 bisect(lambda e: half_delta(e) + 1, centre, above))
        assert roots[0] < -g * g / 4 < roots[1]
        for e, root in zip((zs[0].e_lo, zs[0].e_hi), roots):
            assert abs(e - root) < 1e-8 * max(1.0, abs(root))
        for e in [e for z in zs[1:] for e in (z.e_lo, z.e_hi) if e < 10.0]:
            tol = 1e-8 * max(1.0, abs(e))
            assert (abs(half_delta(e - tol)) - 1) * (abs(half_delta(e + tol)) - 1) < 0

    @pytest.mark.parametrize("e_max", [-3.0, -1.3])
    def test_narrow_zone_above_the_cut(self, e_max):
        # a well 5 deep and 2 wide in a cell of period 10: zone 2, 1.4e-3 wide
        # at E = -0.92, is the top seeded zone, and both its seeds lie 0.08
        # above it, in the gap; the gap is found by short steps up from the
        # upper seed, where steps of 1 would land in zone 3 at E = 0.13
        g = make_grid(0.0, 10.0, 2001)
        v = np.where(np.abs(g.x - 5.0) < 1.0, -5.0, 0.0)
        system = PeriodicSystem(Potential(SampledFn(g, v), "hard-walls"), 10.0)
        full = zones(system, 1.0)
        assert full[1].width < 2e-3 and full[2].e_lo < 0.2
        (zone,) = zones(system, e_max)
        assert (zone.e_lo, zone.e_hi) == pytest.approx((full[0].e_lo, full[0].e_hi), abs=1e-8)

    @pytest.mark.parametrize("period, g", [(15.0, -5.0), (20.0, -4.0), (20.0, -5.0)])
    def test_zone_below_the_rounding_of_delta(self, seed_cells, period, g):
        # the lowest zone of these combs, about 8 kappa^2 e^(-kappa a) wide
        # (kappa = |g|/2; 2.6e-15 at (15, -5), 1e-20 at (20, -5)), is narrower
        # than the rounding of Delta near E = -g^2/4, so no double has
        # |Delta| < 2 in it; the sign change of Delta across it stands for both
        # its edges
        zs = zones(PeriodicSystem(comb_cell(period, g), period), 10.0)
        assert len(seed_cells) == 1
        e = -g * g / 4
        assert zs[0].e_lo == zs[0].e_hi == pytest.approx(e, abs=1e-8 * max(1.0, abs(e)))

    @pytest.mark.parametrize("period, g, count", [
        (10.0, -5.0, 0), (15.0, -4.0, 0), (15.0, -5.0, 1), (20.0, -3.0, 0), (20.0, -4.0, 1),
        (20.0, -5.0, 1), (math.pi, 2.0, 0)])
    def test_zones_below_the_rounding_are_counted(self, period, g, count):
        # the ledger counts each zone reported as two coincident edges once
        with oracle_scope() as work:
            zs = zones(PeriodicSystem(comb_cell(period, g), period), 10.0)
        assert work.ledger()["zones"]["below_rounding"] == count
        assert sum(z.e_lo == z.e_hi for z in zs) == count

    def test_tangency_map_stores_the_curve_delta(self, comb):
        # the map that decides a closed gap is the one a round stored beside
        # that energy's Delta, and its trace is that Delta
        search = bands._EdgeSearch(comb.cell)
        search._refine = search._deltas   # one round that asks for the given energies
        bands._refine_together([search], [[0.5, 4.0, 9.7]])
        for e in (0.5, 4.0, 9.7):
            m = search.maps[e]
            assert search.values[e] == band_discriminant(comb.cell, e) == m[0, 0] + m[1, 1]

    def test_the_rounds_are_the_only_kernel_calls(self, monkeypatch):
        # the free cell closes every gap below 30 at a tangency; the map of
        # each tangency comes from a round, not from a call of its own
        calls = []
        propagator = solver_module._propagator

        def counted(v, h, energies, rows, jumps=()):
            calls.append(len(energies))
            return propagator(v, h, energies, rows, jumps)

        monkeypatch.setattr(solver_module, "_propagator", counted)
        with oracle_scope() as work:
            zs = zones(free_system(), 30.0)
        ledger = work.ledger()["zones"]
        assert [z.e_hi for z in zs[:-1]] == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], abs=1e-6)
        assert ledger["tangencies"] == 5
        assert len(calls) == 8 and sum(calls) == ledger["evaluations"] == 81

    def test_e_max_below_the_first_edge(self, comb):
        assert zones(comb, 0.1) == []

    def test_last_zone_cut_at_e_max(self, comb):
        zs = zones(comb, 8.0)
        assert len(zs) == 3 and zs[-1].e_hi == 8.0
        zs = zones(comb, 4.5)   # inside the second gap: no zone is cut
        assert len(zs) == 2 and zs[-1].e_hi == pytest.approx(4.0, abs=1e-8)

    def test_edge_seeds_in_hill_order(self, comb):
        seeds = bands._edge_seeds(comb.cell, 128, 11.0)
        # lam_0 < mu_1 <= mu_2 < lam_1 <= lam_2 < ...: every second gap
        # between merged seeds is a zone and strictly positive
        assert np.all(np.diff(seeds) >= 0.0)
        assert np.all(np.diff(seeds)[0::2] > 0.1)
        assert seeds[:7] == pytest.approx([0.41, 1.0, 1.95, 4.0, 5.13, 9.0, 10.2], abs=0.05)

    @pytest.mark.parametrize("m", [3, 4, 127, 128])
    def test_edge_seeds_of_the_free_cell(self, m):
        # the wrapped finite-difference Laplacian has eigenvalues
        # (4/h^2) sin^2(theta/2), theta = 2 pi j/m (periodic) or
        # (2j+1) pi/m (antiperiodic)
        h = math.pi / m
        theta = np.pi * np.arange(2 * m) / m
        exact = np.sort(4.0 / h**2 * np.sin(theta / 2) ** 2)
        seeds = bands._edge_seeds(free_system().cell, m, 0.6 * exact[-1])
        assert seeds.size % 2 == 0 and seeds.size > m // 2
        assert seeds == pytest.approx(exact[: seeds.size], rel=1e-12, abs=1e-12)
        assert bands._edge_seeds(free_system().cell, m, exact[-1] + 1.0) is None

    def test_work_ledger(self, comb):
        with oracle_scope() as work:
            zones(comb, 11.0)
            zones(free_system(), 10.0)
        ledger = work.ledger()["zones"]
        assert ledger["calls"] == 2
        # 7 edges below 11 on the comb; 7 below 10 + 10% on the free cell
        assert ledger["edges_seeded"] == 14
        assert ledger["tangencies"] == 3
        assert ledger["evaluations"] < 120


def secant_root(f, lo, f_lo, hi, f_hi, x, xtol):
    """The root ``secant_steps`` finds, with f evaluated at each point it yields."""
    steps = secant_steps(lo, f_lo, hi, f_hi, x, xtol)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


class TestSecantRoot:
    def test_converges_past_xtol(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x) - x

        root = secant_root(f, 0.0, 1.0, 1.0, math.cos(1.0) - 1.0, 0.7, 1e-10)
        assert root == pytest.approx(0.7390851332151607, abs=1e-14)
        assert len(calls) <= 6

    def test_bisects_a_flat_function(self):
        # a step function gives every secant step a zero slope
        root = secant_root(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, -1.0, 1.0, 1.0, 0.5, 1e-9)
        assert root == pytest.approx(0.3, abs=1e-9)

    def test_ends_on_the_bracket_of_a_staircase(self):
        # a smooth function of E rounded down to a grid 50 xtol wide, as a
        # Numerov quantity is: secant steps between two points on either side
        # of one riser are short however far the sign change is
        xtol = 1e-11
        w = 50 * xtol
        for i in range(5):
            r = 0.5 + 0.123 * i * w + 1e-3 * i
            f = lambda x: (lambda d: d**3 + 1e-6 * d)(w * math.floor(x / w) - r)
            edge = w * math.ceil(r / w)   # the first grid point at or above r
            for j in range(1, 20):
                root = secant_root(f, 0.0, f(0.0), 1.0, f(1.0), 0.05 * j, xtol)
                assert abs(root - edge) <= xtol

    def test_needs_a_sign_change(self):
        with pytest.raises(NumericalFailure):
            secant_root(lambda x: x * x + 1.0, -1.0, 2.0, 1.0, 2.0, 0.0, 1e-9)


class TestShiftZone:
    def test_zero_shift_keeps_zones(self, comb):
        shifted = shift_zone(comb, 2, 0.0)
        za = zones(comb, 10.0)
        zb = zones(shifted, 10.0)
        for a, b in zip(za, zb):
            assert b.e_lo == pytest.approx(a.e_lo, abs=1e-8)
            assert b.e_hi == pytest.approx(a.e_hi, abs=1e-8)

    def test_moving_edge_tracks_aux_level(self, comb):
        for d_e in (0.25, 0.5):
            zs = zones(shift_zone(comb, 2, d_e), 10.0)
            assert zs[1].e_hi == pytest.approx(4.0 + d_e, abs=1e-6)
            # wall-pinned edges of the other zones stay put
            assert zs[0].e_hi == pytest.approx(1.0, abs=1e-3)
            assert zs[2].e_hi == pytest.approx(9.0, abs=1e-3)

    def test_gap_closes_then_zone_squeezes(self, comb):
        # gap between zones 2 and 3 shrinks monotonically...
        widths = []
        for d_e in (0.0, 0.25, 0.5):
            zs = zones(shift_zone(comb, 2, d_e) if d_e else comb, 10.0)
            widths.append(zs[2].e_lo - zs[1].e_hi)
        assert widths[0] > widths[1] > widths[2] > 0

        # ...closes somewhere in (0, 3]: past closure the moving level becomes
        # the LOWER boundary of zone 3
        lo, hi = 0.5, 1.0
        for _ in range(9):
            mid = 0.5 * (lo + hi)
            zs = zones(shift_zone(comb, 2, mid), 11.0)
            merged = abs(zs[2].e_lo - (4.0 + mid)) < 1e-6
            if merged:
                hi = mid
            else:
                lo = mid
        d_star = hi
        assert 0.0 < d_star <= 3.0
        zs = zones(shift_zone(comb, 2, d_star), 11.0)
        assert zs[2].e_lo - zs[1].e_hi < 1e-3 or abs(zs[2].e_lo - (4.0 + d_star)) < 1e-3

        # continuing squeezes zone 3 between the moving level and fixed E=9
        squeezed = []
        for d_e in (1.5, 2.0, 2.5, 3.0):
            zs = zones(shift_zone(comb, 2, d_e), 11.0)
            zone3 = next(z for z in zs if abs(z.e_lo - (4.0 + d_e)) < 1e-3)
            assert zone3.e_hi == pytest.approx(9.0, abs=1e-3)
            squeezed.append(zone3.width)
        assert all(a > b for a, b in zip(squeezed, squeezed[1:]))

    def test_gap_open_by_less_than_1e_9_keeps_both_edges(self, comb):
        # Delta + 2 dips to about -5e-11 on a gap some 2.6e-5 wide: the gap is open,
        # and each edge lies where a bisection of Delta + 2 puts it.  Delta's
        # rounding, about 2e-15, spans about 3e-10 in E where its slope is as
        # small as at these edges (about 7e-6), so two searches can agree to
        # that (see the next test); coincident edges would lie 1.3e-5 from each
        p = shift_zone(comb, 3, 0.611328125)
        zs = zones(p, 11.0)

        def bisect(lo, hi):  # Delta + 2 > 0 at lo, < 0 at hi
            while abs(hi - lo) > 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if band_discriminant(p.cell, mid) + 2.0 > 0.0 else (lo, mid)
            return 0.5 * (lo + hi)

        inside = 0.5 * (zs[2].e_hi + zs[3].e_lo)
        assert band_discriminant(p.cell, inside) + 2.0 < 0.0
        assert zs[2].e_hi == pytest.approx(bisect(9.6113, inside), abs=1e-6)
        assert zs[3].e_lo == pytest.approx(bisect(9.6114, inside), abs=1e-6)
        assert zs[3].e_lo - zs[2].e_hi > 1e-5

    def test_barely_open_gap_edges_to_edge_tol(self, comb):
        # the gap of the previous test: each edge within EDGE_TOL of a bisection
        # of Delta + 2 (measured 1.0e-10 and 4.3e-10)
        p = shift_zone(comb, 3, 0.611328125)
        zs = zones(p, 11.0)
        inside = 0.5 * (zs[2].e_hi + zs[3].e_lo)
        for edge, outside in ((zs[2].e_hi, 9.6113), (zs[3].e_lo, 9.6114)):
            lo, hi = outside, inside  # Delta + 2 > 0 at lo, < 0 at hi
            while abs(hi - lo) > 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if band_discriminant(p.cell, mid) + 2.0 > 0.0 else (lo, mid)
            assert abs(edge - 0.5 * (lo + hi)) < bands.EDGE_TOL

    def test_window_validation(self, comb):
        with pytest.raises(ValidationError):
            shift_zone(comb, 2, 6.0)   # would cross the next auxiliary level

    def test_auxiliary_box_levels(self, comb):
        aux = auxiliary_box(comb)
        states = bound_states(aux, 3)
        assert [s.energy for s in states] == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)


class TestTracking:
    def test_dirichlet_levels_lie_in_their_gaps(self, comb):
        zs = zones(comb, 10.0)
        levels = [s.energy for s in bound_states(auxiliary_box(comb), 4)]
        check_dirichlet_levels(zs, levels, 10.0)
        # the comb's hard-wall levels are the pinned zone tops
        assert levels[:3] == pytest.approx([z.e_hi for z in zs], abs=1e-8)

    def test_dirichlet_check_rejects_a_wrong_layout(self, comb, monkeypatch):
        right = zones(comb, 10.0)
        wrong = [Zone(z.index, z.e_lo + 0.5, z.e_hi + 0.5) for z in right]
        with pytest.raises(NumericalFailure, match="level 1"):
            check_dirichlet_levels(wrong, [1.0, 4.0], 10.0)
        # track_zone_shift checks the layout it computes
        monkeypatch.setattr(bands, "_layouts", lambda systems, e_max: [wrong] * len(systems))
        with pytest.raises(NumericalFailure, match="outside the closure"):
            track_zone_shift(comb, 2, [0.0, 0.25], e_max=10.0)

    @pytest.mark.parametrize("strength, d_es, tangencies", [
        (1.83, [0.0, 0.08, 0.15, 0.25, 0.35], 0),         # a band-track operation
        (2.0, [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0], 0),  # fig6_22, whose gap closes
        (0.0, [0.0, 0.25, 0.5], 3),                       # the free cell's closed gaps
    ], ids=["band_track", "fig6_22", "free_cell"])
    def test_track_rows_equal_layouts_found_alone(self, strength, d_es, tangencies):
        # the layouts refined together are the layouts of their own zones() calls,
        # bit for bit, and so are their work counts
        p = PeriodicSystem(comb_cell(strength=strength), math.pi)
        with oracle_scope() as together:
            rows = track_zone_shift(p, 2, d_es, e_max=11.0)
        with oracle_scope() as alone:
            layouts = [zones(shift_zone(p, 2, d_e) if d_e else p, 11.0) for d_e in d_es]
        assert [row["zones"] for row in rows] == layouts
        assert together.ledger()["zones"] == alone.ledger()["zones"]
        assert alone.ledger()["zones"]["calls"] == len(d_es)
        assert alone.ledger()["zones"]["tangencies"] == tangencies

    def test_track_rows(self, comb):
        rows = track_zone_shift(comb, 2, [0.0, 0.25], e_max=10.0)
        assert rows[0]["edge_energy"] == pytest.approx(4.0, abs=1e-6)
        assert rows[1]["edge_energy"] == pytest.approx(4.25, abs=1e-6)
        assert rows[1]["gaps"][1] < rows[0]["gaps"][1]

    def test_gap_closure_by_the_rows_rule(self, comb):
        rows = track_zone_shift(comb, 2, [0.0, 0.25, 1.0], e_max=10.0)
        assert rows[1]["tracked_gap"] > 0.0 and rows[2]["tracked_gap"] == 0.0
        closure = bisect_gap_closure(comb, 2, rows, 10.0)
        # rows one bisection step (1e-3) either side: open below, closed above
        probe = track_zone_shift(comb, 2, [closure - 1e-3, closure + 1e-3], e_max=10.0)
        assert probe[0]["tracked_gap"] > 0.0 and probe[1]["tracked_gap"] == 0.0
        assert bisect_gap_closure(comb, 2, rows[:2], 10.0) is None

    def test_zone_dataclass(self):
        z = Zone(1, 0.5, 1.5)
        assert z.width == 1.0

    def test_cell_span_validation(self):
        g = make_grid(-1.0, 2.0, 301)
        cell = Potential(SampledFn(g, np.zeros(301)), "hard-walls")
        with pytest.raises(ValidationError):
            PeriodicSystem(cell, 3.0)
