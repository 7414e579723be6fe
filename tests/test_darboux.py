import math
import warnings

import numpy as np
import pytest

from specdesign.darboux import (
    _denominator_min,
    _mix_seed,
    bargmann_reflectionless,
    bsec_potential_values,
    darboux_create,
    darboux_remove_ground,
    embed_bsec,
    remove_level_by_swf,
    scale_swf,
    shift_level,
)
from specdesign.errors import SingularityError, ValidationError
from specdesign.grid import SampledFn, default_points, integrate, make_grid
from specdesign.potentials import HARD_WALLS, Potential, box, free_line, half_line, soliton_well
from specdesign.solver import bound_states, oracle_scope, scattering_curve
from specdesign.verify import (
    delta_v_sign_pattern,
    isospectral_check,
    orthonormality_defect,
)
from references import (
    ClosedFormDiscrepancyWarning,
    box_shift_closed_form,
    interval_mass,
    single_delta,
)


@pytest.fixture(scope="module")
def the_box():
    return box()


def interior_mask(grid, margin=10):
    return np.abs(grid.x - 0.5 * (grid.x_min + grid.x_max)) <= (
        0.5 * (grid.x_max - grid.x_min) - margin * grid.h
    )


@pytest.mark.parametrize("transform", [
    lambda v: shift_level(v, 1, 0.3),
    lambda v: darboux_create(v, -3.0),
    lambda v: darboux_remove_ground(v, bound_states(v, 1)[0]),
    lambda v: remove_level_by_swf(v, 1),
    lambda v: scale_swf(v, 1, 1.0),
], ids=["shift_level", "darboux_create", "darboux_remove_ground", "remove_level_by_swf",
        "scale_swf"])
def test_spikes_are_refused(transform):
    # each of these returned a wrong partner of the delta well (one level at -1)
    with pytest.raises(ValidationError, match="delta of strength -2 at x = 0"):
        transform(single_delta(-2.0))


@pytest.mark.parametrize("transform, levels", [
    (lambda: scale_swf(box(), 1, 3.0), 1),
    (lambda: remove_level_by_swf(box(), 2), 2),
    (lambda: remove_level_by_swf(box(), 1), 1),
    (lambda: shift_level(box(), 2, 0.5), 3),
    (lambda: darboux_create(soliton_well(1.0), -3.0), 1),
    (lambda: bargmann_reflectionless([2.0, 1.0], [2.0, 1.5]), 0),
], ids=["scale_swf", "remove_excited", "remove_ground", "shift_level", "darboux_create",
        "bargmann"])
def test_edits_solve_only_the_levels_they_read(transform, levels):
    # an edit, Bargmann's well included, returns no states: the oracle gives
    # those of its potential
    with oracle_scope() as work:
        res = transform()
    assert res.states == ()
    assert work.levels_solved == levels


class TestFactorizationSolution:
    def test_free_line_symmetric_mix_is_cosh(self):
        # the nodeless mixture darboux_create factorizes with
        fl = free_line()
        _, ln_u = _mix_seed(fl, -1.0, 0.5)
        u = np.exp(ln_u - ln_u.max())
        expected = np.cosh(fl.grid.x)
        expected /= expected.max()
        assert np.max(np.abs(u - expected)) < 1e-9


class TestRemoveGround:
    def test_box_becomes_inverse_cos_squared(self, the_box):
        ground = bound_states(the_box, 1)[0]
        res = darboux_remove_ground(the_box, ground)
        g = the_box.grid
        mask = interior_mask(g)
        exact = 2.0 / np.cos(g.x[mask]) ** 2
        assert np.max(np.abs(res.potential.values[mask] - exact)) < 1e-6
        check = isospectral_check(res.potential, [4.0, 9.0, 16.0], tol=1e-5)
        assert check["pass"], check

    def test_soliton_returns_to_free_motion(self):
        sw = soliton_well()
        ground = bound_states(sw, 1)[0]
        res = darboux_remove_ground(sw, ground)
        assert np.max(np.abs(res.potential.values)) < 1e-8

    def test_sampled_harmonic_well(self):
        # V = x^2 has levels 2n + 1; after removal the old E_2 = 3 is the ground
        fl = free_line(8.0)
        v = fl.with_body(fl.grid.x**2)
        ground = bound_states(v, 1)[0]
        assert ground.energy == pytest.approx(1.0, abs=1e-6)
        res = darboux_remove_ground(v, ground)
        new_ground = bound_states(res.potential, 1)[0]
        assert new_ground.energy == pytest.approx(3.0, abs=1e-6)

    def test_rejects_excited_state(self, the_box):
        excited = bound_states(the_box, 2)[1]
        with pytest.raises(ValidationError):
            darboux_remove_ground(the_box, excited)


class TestCreate:
    def test_one_soliton(self):
        fl = free_line()
        res = darboux_create(fl, -1.0, 0.5)
        exact = -2.0 / np.cosh(fl.grid.x) ** 2
        assert np.max(np.abs(res.potential.values - exact)) < 1e-6
        st = bound_states(res.potential, 1)
        assert st[0].energy == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("e_new", [-2.25, -4.0, -9.0])
    def test_reflectionless_preservation(self, e_new):
        # the free line's partner is the one-soliton well -2 kappa^2 sech^2(kappa x);
        # u's dynamic range on [-15, 15] is about 2 e^(-15 kappa), 1.9e-13 at
        # E = -4 and 5.7e-20 at E = -9, and measures no node
        fl = free_line()
        kappa = math.sqrt(-e_new)
        res = darboux_create(fl, e_new, 0.5)
        assert bound_states(res.potential, 1)[0].energy == pytest.approx(e_new, abs=1e-9)
        exact = -2.0 * kappa**2 / np.cosh(kappa * fl.grid.x) ** 2
        assert np.max(np.abs(res.potential.values - exact)) < 1e-8
        sweep = scattering_curve(res.potential, [0.25, 0.5, 1.0, 2.5, 5.0, 10.0])
        assert max(abs(r.R) for r in sweep) < 1e-6

    def test_sigma_moves_the_well_monotonically(self):
        fl = free_line()
        centers = []
        spectra = []
        for sigma in (0.3, 0.5, 0.7, 0.9):
            res = darboux_create(fl, -1.0, sigma)
            centers.append(fl.grid.x[int(np.argmin(res.potential.values))])
            spectra.append(bound_states(res.potential, 1)[0].energy)
        assert all(a > b for a, b in zip(centers, centers[1:]))
        assert spectra == pytest.approx([-1.0] * 4, abs=1e-6)

    def test_validations(self, the_box):
        fl = free_line()
        with pytest.raises(ValidationError):
            darboux_create(the_box, 0.5, 0.5)      # hard walls unsupported
        with pytest.raises(ValidationError):
            darboux_create(fl, -1.0, 0.0)          # degenerate mix adds no level
        with pytest.raises(ValidationError):
            darboux_create(fl, 0.5, 0.5)           # not below the edge
        sol = soliton_well()
        with pytest.raises(ValidationError):
            darboux_create(sol, -0.5, 0.5)         # not below the existing ground

    @pytest.mark.parametrize("e_new", [math.nan, -math.inf, math.inf])
    def test_non_finite_energy_is_bad_input(self, e_new):
        with pytest.raises(ValidationError, match="must be finite"):
            darboux_create(free_line(), e_new)


class TestShiftLevel:
    def test_headline_ground_shift(self, the_box):
        res = shift_level(the_box, 1, -5.0)
        check = isospectral_check(res.potential, [-4.0, 4.0, 9.0, 16.0], tol=1e-6)
        assert check["pass"], check

    def test_zero_shift_is_identity(self, the_box):
        res = shift_level(the_box, 1, 0.0)
        assert np.max(np.abs(res.potential.values - the_box.values)) < 1e-10

    def test_excited_shift(self, the_box):
        res = shift_level(the_box, 2, 0.5)
        check = isospectral_check(res.potential, [1.0, 4.5, 9.0, 16.0], tol=1e-6)
        assert check["pass"], check

    def test_bump_knot_rule(self, the_box):
        psi2 = bound_states(the_box, 2)[1]
        up = shift_level(the_box, 2, 0.5)
        pattern = delta_v_sign_pattern(the_box, up.potential, psi2)
        assert pattern["bumps"] and all(s > 0 for s in pattern["bumps"])
        assert pattern["knots"] and all(s < 0 for s in pattern["knots"])
        down = shift_level(the_box, 2, -0.5)
        pattern = delta_v_sign_pattern(the_box, down.potential, psi2)
        assert all(s < 0 for s in pattern["bumps"])
        assert all(s > 0 for s in pattern["knots"])

    def test_crossing_rejected_with_window(self, the_box):
        with pytest.raises(ValidationError, match="cross"):
            shift_level(the_box, 1, 3.5)
        with pytest.raises(ValidationError):
            shift_level(the_box, 2, -3.5)

    @pytest.mark.parametrize("t", [-5.0, -1.0, 1.5])
    def test_matches_closed_form(self, the_box, t):
        res = shift_level(the_box, 1, t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClosedFormDiscrepancyWarning)
            v_cf, _ = box_shift_closed_form(t, the_box.grid)
        mask = interior_mask(the_box.grid)
        assert np.max(np.abs(res.potential.values[mask] - v_cf.values[mask])) < 1e-6

    @pytest.mark.parametrize("n,d_e", [(1, -2.0), (2, 1.0), (3, -1.5)])
    def test_asymmetric_well(self, the_box, n, d_e):
        # no symmetry to lean on: the companion-seed fallback must cover this
        g = the_box.grid
        v = the_box.with_body(3.0 * np.sin(g.x) + 2.0 * np.cos(2 * g.x) + 1.5 * g.x)
        base = [s.energy for s in bound_states(v, 4)]
        res = shift_level(v, n, d_e)
        target = sorted(e + (d_e if i == n - 1 else 0.0) for i, e in enumerate(base))
        check = isospectral_check(res.potential, target, tol=1e-5)
        assert check["pass"], check

    def test_seed_steep_at_a_wall_is_passed_over(self, the_box):
        # on this well the midpoint seed's Wronskian rises from a wall within
        # two grid steps; the spike it leaves there misplaces level 3 by 3e-5
        v = shift_level(the_box, 2, 0.37432642414555417).potential
        v = scale_swf(v, 1, 2.000329872397271).potential
        res = shift_level(v, 3, 2.459433468522784)
        assert "midpoint" not in res.step_log[0]["realization"]
        target = [1.0, 4.0 + 0.37432642414555417, 9.0 + 2.459433468522784, 16.0]
        check = isospectral_check(res.potential, target, tol=1e-5)
        assert check["pass"], check

    @pytest.mark.parametrize("kappa, d_e", [(1.0, -1.25), (3.0, 8.0)])
    def test_line_shift_slides_along_soliton_family(self, kappa, d_e):
        # the one-level reflectionless well stays in its family when its
        # level moves: V must be -2 kappa'^2 sech^2(kappa' (x - x0)).  Raising
        # the level of the deep well, the Wronskian is small at the line's ends,
        # which are no walls
        sw = soliton_well(kappa)
        res = shift_level(sw, 1, d_e)
        k_new = math.sqrt(kappa**2 - d_e)
        assert bound_states(res.potential, 1)[0].energy == pytest.approx(-k_new**2, abs=1e-8)
        x = sw.grid.x
        x0 = x[int(np.argmin(res.potential.values))]
        exact = -2.0 * k_new**2 / np.cosh(k_new * (x - x0)) ** 2
        assert np.max(np.abs(res.potential.values - exact)) < 1e-6
        sweep = scattering_curve(res.potential, [0.5, 1.0, 3.0, 7.0])
        assert max(abs(r.R) for r in sweep) < 1e-6

    @pytest.mark.parametrize("d_e", [0.8, -0.8, 2.0, -3.0])
    def test_half_line_ground_shift(self, d_e):
        # only x = 0 is a wall: at the decaying end x = 30 the midpoint seed's
        # Wronskian is 2.7e-21 of its peak at dE = 0.8, which is no collapse
        hl = half_line(30.0)
        v = hl.with_body(-6.0 * np.exp(-(hl.grid.x - 2.0) ** 2))
        e1, e2 = (s.energy for s in bound_states(v, 2))
        res = shift_level(v, 1, d_e)
        after = [s.energy for s in bound_states(res.potential, 3)]
        assert after == pytest.approx([e1 + d_e, e2], abs=1e-8)

    def test_edge_solutions_are_swept_only_when_the_midpoint_seed_fails(self, the_box):
        # the midpoint seed is two half sweeps of 1001 nodes; the two
        # edge-regular sweeps of 2001 nodes each are not made
        with oracle_scope() as work:
            res = shift_level(the_box, 1, -5.0)
        ledger = work.ledger()
        assert res.step_log[0]["realization"].endswith("companion seed: midpoint")
        assert ledger["numerov_calls"] - ledger["bound_states"]["numerov_calls"] == 2
        assert ledger["nodes_swept"] - ledger["bound_states"]["nodes_swept"] == 2002


class TestClosedForm:
    def test_identity_at_zero(self, the_box):
        v, _psi = box_shift_closed_form(0.0, the_box.grid)
        assert np.max(np.abs(v.values)) == 0.0

    def test_oracle_confirms_spectrum(self, the_box):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClosedFormDiscrepancyWarning)
            v, _ = box_shift_closed_form(1.5, the_box.grid)
        pot = Potential(v, "hard-walls")
        check = isospectral_check(pot, [2.5, 4.0, 9.0, 16.0], tol=1e-6)
        assert check["pass"], check

    def test_published_eigenfunction_reported_and_substituted(self, the_box):
        with pytest.warns(ClosedFormDiscrepancyWarning):
            v, psi = box_shift_closed_form(-5.0, the_box.grid)
        # the substituted state really solves the equation at E = 1 + t
        h = the_box.grid.h
        lap = (psi.values[2:] - 2 * psi.values[1:-1] + psi.values[:-2]) / h**2
        res = -lap + (v.values[1:-1] + 4.0) * psi.values[1:-1]
        assert np.max(np.abs(res[50:-50])) < 1e-4  # plain-FD residual floor
        assert integrate(SampledFn(the_box.grid, psi.values**2)) == pytest.approx(1.0, abs=1e-8)

    def test_requires_canonical_interval(self):
        g = make_grid(0.0, math.pi, 201)
        with pytest.raises(ValidationError):
            box_shift_closed_form(-1.0, g)

    def test_level_crossing_is_singular(self, the_box):
        with pytest.raises(SingularityError):
            box_shift_closed_form(3.0, the_box.grid)  # 1 + t = E_2


class TestScaleSwf:
    @pytest.mark.parametrize("n,lam", [(1, 3.0), (2, 3.0), (1, -0.75)])
    def test_swf_law(self, the_box, n, lam):
        before = bound_states(the_box, n)[n - 1].swf
        res = scale_swf(the_box, n, lam)
        after_states = bound_states(res.potential, 4)
        assert after_states[n - 1].swf / before == pytest.approx(math.sqrt(1 + lam), abs=1e-6)
        for k, s in enumerate(after_states, start=1):
            assert s.energy == pytest.approx(k**2, abs=1e-5)

    def test_other_weights_untouched(self, the_box):
        before = bound_states(the_box, 3)
        res = scale_swf(the_box, 1, 3.0)
        after = bound_states(res.potential, 3)
        for b, a in zip(before[1:], after[1:]):
            assert a.swf / b.swf == pytest.approx(1.0, abs=1e-5)

    def test_identity_at_zero(self, the_box):
        res = scale_swf(the_box, 1, 0.0)
        assert np.max(np.abs(res.potential.values - the_box.values)) == 0.0

    def test_ground_pressed_to_left_wall(self, the_box):
        before = bound_states(the_box, 1)[0]
        res = scale_swf(the_box, 1, 3.0)
        after = bound_states(res.potential, 1)[0]
        mid = 0.0
        assert interval_mass(after, -math.pi / 2, mid) > interval_mass(before, -math.pi / 2, mid)

    def test_central_knot_stays_put(self, the_box):
        res = scale_swf(the_box, 2, 3.0)
        psi2 = bound_states(res.potential, 2)[1].psi
        sign_flip = np.nonzero(np.signbit(psi2.values[1:-1][:-1]) != np.signbit(psi2.values[1:-1][1:]))[0]
        knot_x = psi2.grid.x[1 + sign_flip[0]]
        assert abs(knot_x) <= psi2.grid.h

    def test_involution(self, the_box):
        first = scale_swf(the_box, 1, 3.0)
        second = scale_swf(first.potential, 1, 0.25 - 1.0)
        assert np.max(np.abs(second.potential.values - the_box.values)) < 1e-6

    def test_lambda_floor(self, the_box):
        with pytest.raises(ValidationError):
            scale_swf(the_box, 1, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_is_bad_input(self, the_box, lam):
        with pytest.raises(ValidationError, match="must be finite"):
            scale_swf(the_box, 1, lam)


class TestRemoveBySwf:
    def test_ground_route_matches_darboux(self, the_box):
        res_a = remove_level_by_swf(the_box, 1)
        res_b = darboux_remove_ground(the_box, bound_states(the_box, 1)[0])
        mask = interior_mask(the_box.grid)
        assert np.max(np.abs(res_a.potential.values[mask] - res_b.potential.values[mask])) < 1e-6
        assert res_a.step_log == res_b.step_log

    def test_removal_is_the_weight_deformation_limit(self, the_box):
        # scale_swf at lambda = -1 + eps approaches the removal as O(eps)
        # away from the right wall, where the carrier escapes
        removed = remove_level_by_swf(the_box, 2).potential.values
        left = the_box.grid.x < 1.0
        gaps = [np.max(np.abs(scale_swf(the_box, 2, -1.0 + eps).potential.values[left] - removed[left]))
                for eps in (1e-4, 1e-6)]
        assert gaps[1] < gaps[0] / 50.0

    def test_soliton_ground(self):
        sw = soliton_well()
        res = remove_level_by_swf(sw, 1)
        assert np.max(np.abs(res.potential.values)) < 1e-8

    @pytest.mark.parametrize("base", [free_line(), half_line(40 * math.pi)], ids=["free-line", "half-line"])
    def test_no_bound_level_rejected(self, base):
        with pytest.raises(ValidationError):
            remove_level_by_swf(base, 1)

    def test_excited_removal(self, the_box):
        res = remove_level_by_swf(the_box, 2)
        check = isospectral_check(res.potential, [1.0, 9.0, 16.0], tol=1e-5)
        assert check["pass"], check

    def test_running_norm_reaching_one_is_located(self):
        # behind a barrier of 1000 from x = 5 the running norm of psi_2 reaches
        # 1 well inside the interval: the removal is singular there, and the
        # error says where
        g = make_grid(0.0, 30.0, 19101)
        barrier_box = Potential(SampledFn(g, np.where(g.x > 5.0, 1000.0, 0.0)), HARD_WALLS)
        with pytest.raises(SingularityError) as exc:
            remove_level_by_swf(barrier_box, 2)
        assert exc.value.x is not None and 5.0 < exc.value.x < 30.0


class TestDenominatorMin:
    def test_sign_change_reports_the_first_flip(self):
        g = make_grid(0.0, 4.0, 9)      # x = 0, 0.5, ..., 4
        w = np.array([1.0, 0.5, 0.0, -0.5, -1.0, -0.5, 0.0, 0.5, 1.0])
        with pytest.raises(SingularityError, match="changes sign") as exc:
            _denominator_min(w, g, "test denominator")
        assert exc.value.x == 0.5      # the last node before the first flip

    def test_interior_skips_the_walls_but_not_the_peak(self):
        # the minimum is relative to the peak of the whole array, walls included
        g = make_grid(0.0, 4.0, 9)
        w = np.array([0.0, 0.5, 0.25, 0.5, 1.0, 0.5, 0.25, 0.5, 2.0])
        assert _denominator_min(w, g, "test denominator", interior=True) == 0.125
        with pytest.raises(SingularityError, match="vanishes at x = 0"):
            _denominator_min(w, g, "test denominator")


class TestBargmann:
    def test_single_level_closed_form(self):
        res = bargmann_reflectionless([1.0], [math.sqrt(2.0)])
        x = res.potential.grid.x
        assert np.max(np.abs(res.potential.values + 2.0 / np.cosh(x) ** 2)) < 1e-6

    def test_center_offset(self):
        kappa, c = 1.0, 3.0
        res = bargmann_reflectionless([kappa], [c])
        expected = math.log(c * c / (2 * kappa)) / (2 * kappa)
        x_min = res.potential.grid.x[int(np.argmin(res.potential.values))]
        assert x_min == pytest.approx(expected, abs=2 * res.potential.grid.h)

    def test_two_levels(self):
        res = bargmann_reflectionless([2.0, 1.0], [2.0, 1.5])
        check = isospectral_check(res.potential, [-4.0, -1.0], tol=1e-6)
        assert check["pass"], check
        sweep = scattering_curve(res.potential, [0.5, 1.0, 2.0, 5.0, 9.0])
        assert max(abs(r.R) for r in sweep) < 1e-6
        assert orthonormality_defect(bound_states(res.potential, 2)) < 1e-6

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    def test_eight_levels_match_long_double_expansion(self):
        # fig4_1's levels; the reference sums the same subset expansion in long
        # double.  V = -8 (<K^2> - <K>^2) cancels to a relative error of 8.4e-9
        # where |V| > 1e-3; the centred form stays within 2.7e-13
        kappas = sorted((math.sqrt(65.0 - k * k) for k in range(1, 9)), reverse=True)
        norms = [math.sqrt(2 * k) for k in kappas]
        v = bargmann_reflectionless(kappas, norms).potential
        kap = np.array(kappas, dtype=np.longdouble)
        member = (np.arange(256)[:, None] >> np.arange(8)) & 1  # subset S, level m
        k_sum = np.einsum("sm,m->s", member, kap)
        pair = 2 * (np.log(np.abs(kap[:, None] - kap[None, :]) + np.eye(8, dtype=np.longdouble))
                    - np.log(kap[:, None] + kap[None, :]))
        log_c = (np.einsum("sm,m->s", member, np.log(np.array(norms, dtype=np.longdouble) ** 2
                                                      / (2 * kap)))
                 + np.einsum("si,sj,ij->s", member, member, np.triu(pair, 1)))
        want = np.empty(v.grid.n_points, dtype=np.longdouble)
        for lo in range(0, want.size, 1024):
            x = v.grid.x[lo : lo + 1024].astype(np.longdouble)
            logits = log_c[None, :] - 2 * k_sum[None, :] * x[:, None]
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            spread = k_sum[None, :] - np.einsum("xs,s->x", w, k_sum)[:, None]
            want[lo : lo + 1024] = -8 * np.einsum("xs,xs->x", w, spread**2)
        deep = np.abs(want) > 1e-3
        assert np.max(np.abs((v.values[deep] - want[deep]) / want[deep])) < 1e-11

    def test_validations(self):
        with pytest.raises(ValidationError):
            bargmann_reflectionless([1.0, 2.0], [1.0, 1.0])   # increasing
        with pytest.raises(ValidationError):
            bargmann_reflectionless([2.0, 2.0], [1.0, 1.0])   # duplicate
        with pytest.raises(ValidationError):
            bargmann_reflectionless([1.0], [-1.0])            # bad norm
        with pytest.raises(ValidationError):
            bargmann_reflectionless([1.0], [1.0, 2.0])        # length mismatch


class TestBsec:
    def test_small_lambda_limit(self):
        k = math.sqrt(10.0)
        grid = make_grid(0.0, 8 * math.pi, default_points(8 * math.pi))
        res = embed_bsec(k, 1e-8, grid)
        assert np.max(np.abs(res.potential.values)) < 1e-6
        psi = res.states[0].psi.values
        ref = np.sin(k * grid.x)
        ref /= math.sqrt(integrate(SampledFn(grid, ref**2)))
        assert np.max(np.abs(psi - ref)) < 1e-5

    def test_norm_identity(self):
        # exact identity: int_0^L psi^2 = (1/lam)(1 - 1/D(L))
        k, lam = math.sqrt(10.0), 1.0
        length = 20 * math.pi
        grid = make_grid(0.0, length, default_points(length))
        res = embed_bsec(k, lam, grid)
        log = res.step_log[0]
        d_l = 1.0 + lam * (length / 2 - math.sin(2 * k * length) / (4 * k))
        assert log["norm_on_grid"] == pytest.approx((1 / lam) * (1 - 1 / d_l), abs=1e-8)
        assert log["tail_fraction_analytic"] == pytest.approx(1 / d_l, rel=1e-12)

    def test_potential_vanishes_at_state_knots(self):
        k, lam = math.sqrt(10.0), 1.0
        knots = np.arange(1, 30) * math.pi / k
        assert np.max(np.abs(bsec_potential_values(k, lam, knots))) < 1e-12

    def test_well_barrier_sign_pattern(self):
        # between consecutive knots the potential swings well-then-barrier:
        # sign(V) = -sign(sin 2kx) away from the first few blocks
        k, lam = math.sqrt(10.0), 1.0
        m = np.arange(10, 40)
        quarter = math.pi / (4 * k)
        first_half = m * math.pi / k + quarter
        second_half = m * math.pi / k + 3 * quarter
        assert np.all(bsec_potential_values(k, lam, first_half) < 0)
        assert np.all(bsec_potential_values(k, lam, second_half) > 0)

    def test_validations(self):
        grid = make_grid(0.0, 10.0, 1001)
        with pytest.raises(ValidationError):
            embed_bsec(1.0, 0.0, grid)
        with pytest.raises(ValidationError):
            embed_bsec(1.0, -1.0, grid)
        off_grid = make_grid(1.0, 10.0, 1001)
        with pytest.raises(ValidationError):
            embed_bsec(1.0, 1.0, off_grid)

    @pytest.mark.parametrize("k, lam", [(math.nan, 1.0), (math.inf, 1.0), (3.0, math.nan),
                                        (3.0, math.inf)])
    def test_non_finite_parameters_are_bad_input(self, k, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="must be finite"):
                embed_bsec(k, lam, make_grid(0.0, 10.0, 1001))


class TestDegeneration:
    """Levels 2 and 3 driven together: level 2 shifted up to gap d below level 3."""

    @staticmethod
    def family(v, deltas):
        states = bound_states(v, 3)
        gap = states[2].energy - states[1].energy
        return [shift_level(v, 2, gap - d) for d in deltas]

    def test_gaps_reproduced(self, the_box):
        deltas = [1.0, 0.3, 0.1]
        family = self.family(the_box, deltas)
        for delta, res in zip(deltas, family):
            st = bound_states(res.potential, 3)
            assert st[2].energy - st[1].energy == pytest.approx(delta, abs=1e-6)

    def test_central_mass_escapes(self, the_box):
        family = self.family(the_box, [1.0, 0.3, 0.1])
        masses = []
        for res in family:
            pair = [s for s in bound_states(res.potential, 3) if s.energy > 2.0][:2]
            masses.append(sum(interval_mass(s, -math.pi / 4, math.pi / 4) for s in pair))
        assert masses[0] > masses[1] > masses[2]
