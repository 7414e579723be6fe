"""Elementary spectral transformations of 1-D potentials.

Each operation edits one spectral datum (one level's position, one state's
weight, one new/removed level) and keeps the positions of the other levels.
Only the weight operations (``scale_swf``, and ``remove_level_by_swf`` above
the ground level) keep the other states' weights too: a level shift or a
Darboux removal moves them.  On the 2001-node box, whose weights are 0.798,
1.596, 2.394, 3.192 and 3.989, lowering level 1 by 5 moves the weight of
level 2 to 0.977, and the Darboux ground removal leaves the surviving levels
4, 9, 16 and 25 with weights of 0.0003 to 0.0018.  A weight is the oracle's
(``BoundState.swf``): the slope at a left wall, or the right tail constant
on a decaying line, and the weight deformation runs from that end.

A transform returns its potential and step log, not its states: those come
from the oracle (``bound_states``).  An edit of level n reads its levels
through ``_states``, every edit but creation tests its denominator with
``_denominator_min`` (creation's u is positive by construction), and each
ends in ``_edited``, which clips and logs.
Only ``embed_bsec`` carries a state: it lies in the continuum, where the
oracle finds no bound level.

All transformed potentials have the form V - 2 (ln u)'' for a
suitable positive u; the second derivative is never formed by differencing
samples.  Instead the identity

    (ln u)'' = (V - eps) - (u'/u)^2        for  -u'' + V u = eps u

and its Wronskian generalizations are evaluated algebraically from (u, u')
pairs produced by Numerov integration, which keeps pointwise potential
accuracy at the discretization level (~1e-8) instead of the ~1e-3 a numerical
log-second-derivative would give.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import SingularityError, ValidationError
from .grid import Grid, SampledFn, cumulative_integral, default_points, integrate, make_grid
from .potentials import DECAYING_HALF_LINE, DECAYING_LINE, HARD_WALLS, Potential, free_line
from .solver import (
    BoundState,
    _count_sign_changes,
    _launch,
    _normalised,
    _state_swf,
    _sweep,
    bound_states,
    derivative_samples,
    scattering_curve,
)

#: emitted sampled potentials are clipped to this magnitude (hard-wall
#: divergences like 2/cos^2 x are genuine; the clip only affects nodes where
#: the wavefunctions vanish anyway)
DEFAULT_CAP = 1e6

#: a level-shift seed is preferred when its Wronskian, relative to its peak,
#: takes at least this many grid steps to rise from a hard wall
WALL_NODES = 20


@dataclass(frozen=True)
class TransformResult:
    """Outcome of one transformation: potential, states, log.  Only the embedded state,
    which lies in the continuum, is carried here; the oracle gives every bound state."""

    potential: Potential
    states: tuple
    step_log: tuple


# ---------------------------------------------------------------------------
# shared helpers


def _refuse_spikes(v: Potential, name: str) -> None:
    """Raise ValidationError if v has delta spikes: no transform here carries them
    (the seeds skip the jumps, a factorization partner of a spike g needs -g,
    and ``derivative_samples`` differences across the kink)."""
    if v.deltas:
        pos, g = v.deltas[0]
        raise ValidationError(f"{name} does not support delta spikes "
                              f"(delta of strength {g:g} at x = {pos:g})")


def _states(v: Potential, n: int, count: int) -> list[BoundState]:
    """The oracle's lowest `count` levels of v (count >= n), which must include level n."""
    if n < 1:
        raise ValidationError("level index must be >= 1")
    states = bound_states(v, count)
    if len(states) < n:
        raise ValidationError(f"potential has only {len(states)} bound levels; "
                              f"level {n} does not exist")
    return states


def _edited(v: Potential, values: np.ndarray, log: dict) -> TransformResult:
    """An edit's result: `values` on v's grid, boundaries and deltas, clipped at
    +-DEFAULT_CAP, with `log` as its one step-log entry; the log gains the number
    of nodes the clip changed as ``capped_nodes``.
    """
    clipped = np.nan_to_num(np.clip(values, -DEFAULT_CAP, DEFAULT_CAP), nan=DEFAULT_CAP)
    log["capped_nodes"] = int(np.count_nonzero(clipped != values))
    return TransformResult(v.with_body(clipped), (), (log,))


def _denominator_min(w: np.ndarray, grid: Grid, name: str, interior: bool = False) -> float:
    """Relative denominator minimum; raises if the transformation is singular.

    A denominator is singular when it changes sign (it has a node); mere
    smallness is legitimate in exponential tails and cancels in the ratio
    algebra.  The minimum is taken relative to the peak over the whole array;
    structural zeros at hard walls are kept out of the test via `interior`.
    """
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        raise SingularityError(f"{name} vanished identically")
    vals = w[1:-1] if interior else w
    xs = grid.x[1:-1] if interior else grid.x
    a = np.abs(vals)
    j = int(np.argmin(a))
    rel = float(a[j] / peak)
    nz = vals != 0.0
    signs = vals[nz] > 0.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if flips.size:
        x_flip = float(xs[np.nonzero(nz)[0][flips[0]]])
        raise SingularityError(
            f"{name} changes sign near x = {x_flip:.6g} (relative minimum {rel:.3e})", x=x_flip)
    if rel == 0.0:
        raise SingularityError(f"{name} vanishes at x = {xs[j]:.6g}", x=float(xs[j]))
    return rel


def _mix_seed(v: Potential, eps: float, sigma: float):
    """Nodeless mixture (1-sigma) u_R + sigma u_L of the edge-regular solutions.

    Both one-sided solutions are normalized to 1 at the midpoint before
    mixing.  Returns (r, ln_u) with r = u'/u; both are insensitive to the
    overall scale, so exponential growth of the raw sweeps is harmless.
    """
    g = v.grid
    f = v.values - eps
    u_l = _sweep(v, eps, True)
    u_r = _sweep(v, eps, False)
    if np.any(u_l[1:] <= 0) or np.any(u_r[:-1] <= 0):
        raise SingularityError("one-sided factorization solution acquired a node; "
                               "is the energy really below the spectrum?")
    d_l = derivative_samples(u_l, f, g.h)
    d_r = derivative_samples(u_r, f, g.h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_l = np.where(u_l > 0, d_l / u_l, 0.0)
        r_r = np.where(u_r > 0, d_r / u_r, 0.0)
        ln_l = np.where(u_l > 0, np.log(u_l), -np.inf)
        ln_r = np.where(u_r > 0, np.log(u_r), -np.inf)
    mid = g.mid_index
    ln_l -= ln_l[mid]
    ln_r -= ln_r[mid]

    log_w = math.log(sigma / (1.0 - sigma)) + ln_l - ln_r
    w_l = np.exp(np.minimum(log_w, 0.0))      # sigma side, capped at 1
    w_r = np.exp(np.minimum(-log_w, 0.0))
    r = (w_r * r_r + w_l * r_l) / (w_r + w_l)
    ln_u = np.maximum(ln_r + math.log(1.0 - sigma), ln_l + math.log(sigma)) \
        + np.log1p(np.exp(-np.abs(log_w)))
    return r, ln_u


def _factorize(v: Potential, eps: float, r: np.ndarray) -> np.ndarray:
    """One first-order Darboux step V -> V - 2 (ln u)'' with r = u'/u.

    The partner is evaluated through the Riccati identity as 2 eps - V + 2 r^2;
    returns its unclipped values.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * eps - v.values + 2.0 * r * r


def _deform_weight(v: Potential, state: BoundState, lam: float):
    """The rank-one weight deformation V -> V - 2 (ln(1 + lam I_n))''.

    I_n is the running norm of psi_n, the state's wavefunction, from the end
    where the state's weight is measured: the left wall, or on a decaying
    line the right end (its weight is the right tail constant), where the
    arrays are mirrored.  That weight grows by sqrt(1 + lam).  The
    derivatives are taken analytically via I_n' = psi_n^2.  Returns
    (1 + lam I_n, the unclipped potential values).
    """
    mirror = slice(None, None, -1 if v.bc_kind == DECAYING_LINE else 1)
    psi, values = state.psi.values[mirror], v.values[mirror]
    dpsi = derivative_samples(psi, values - state.energy, v.grid.h)
    i_n = cumulative_integral(SampledFn(v.grid, psi * psi)).values
    i_n = np.clip(i_n / i_n[-1], 0.0, 1.0)
    den = 1.0 + lam * i_n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vhat = values - 4.0 * lam * psi * dpsi / den + 2.0 * (lam * psi * psi / den) ** 2
    return den[mirror], vhat[mirror]


# ---------------------------------------------------------------------------
# operations


def darboux_remove_ground(v: Potential, ground: BoundState) -> TransformResult:
    """Delete the ground level: V -> V - 2 (ln psi_1)''.

    The excited levels keep their energies; for hard walls the partner
    genuinely diverges at the walls (the box turns into 2/cos^2 x) and the
    sampled output is clipped at DEFAULT_CAP there.
    """
    _refuse_spikes(v, "darboux_remove_ground")
    if ground.nodes != 0:
        raise ValidationError(f"state with {ground.nodes} nodes is not a ground state")
    e1 = ground.energy
    u = ground.psi.values
    du = derivative_samples(u, v.values - e1, v.grid.h)
    dmin = _denominator_min(u, v.grid, "ground-state denominator", interior=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = du / u
    return _edited(v, _factorize(v, e1, r), {"kind": "remove", "n": 1, "factorization_energy": e1,
                                              "denominator_min": dmin})


def darboux_create(v: Potential, e_new: float, sigma: float = 0.5) -> TransformResult:
    """Insert a new ground level at e_new below the existing spectrum.

    Only decaying-line potentials are supported: with Dirichlet walls the
    created state 1/u cannot vanish at a wall, so rank-one creation on a
    finite interval necessarily changes the boundary condition instead of
    adding a level.  sigma in (0, 1) selects where the new state localizes
    (1/2 is symmetric); the degenerate sigma = 0 solution adds no level and
    is rejected here.  u = (1-sigma) u_R + sigma u_L is positive by
    construction (``_mix_seed`` raises if either solution has a node), so
    nothing is tested; the log records u's dynamic range, min u / max u, as
    ``denominator_min``.
    """
    _refuse_spikes(v, "darboux_create")
    if v.bc_kind != DECAYING_LINE:
        raise ValidationError("level creation requires a decaying-line potential")
    if not 0.0 < sigma < 1.0:
        raise ValidationError(f"creation needs sigma strictly inside (0, 1), got {sigma}")
    edge = v.continuum_edge()
    if not -math.inf < e_new < edge:
        raise ValidationError(f"e_new must be finite and below the continuum edge {edge}, got {e_new}")
    ground = bound_states(v, 1)
    if ground and e_new >= ground[0].energy:
        raise ValidationError(
            f"e_new={e_new} is not below the current ground level {ground[0].energy:.9g}"
        )

    # u itself overflows on the line, so its range is taken in log space
    r, ln_u = _mix_seed(v, e_new, sigma)
    dmin = math.exp(float(ln_u.min() - ln_u.max()))
    return _edited(v, _factorize(v, e_new, r),
                   {"kind": "create", "e_new": e_new, "sigma": sigma,
                    "factorization_energy": e_new, "denominator_min": dmin})


def shift_level(v: Potential, n: int, d_e: float) -> TransformResult:
    """Move level n by d_e keeping every other level in place.

    Realized as the remove-then-create pair at factorization energies
    (E_n, E_n + d_e); for n > 1 the peel-to-ground / operate / restore chain
    collapses algebraically to the same second-order transformation built on
    the Wronskian W(psi_n, u), which is what is evaluated here (no singular
    intermediate potential is ever sampled).  The companion solution u is
    launched from the domain midpoint orthogonally to psi_n in phase space,
    which reduces to the opposite-parity solution for symmetric potentials
    and makes d_e = 0 the exact identity.
    """
    _refuse_spikes(v, "shift_level")
    states = _states(v, n, n + 1)
    e_n = states[n - 1].energy
    target = e_n + d_e
    lo = states[n - 2].energy if n >= 2 else -math.inf
    hi = states[n].energy if len(states) > n else v.continuum_edge()
    if not lo < target < hi:
        raise ValidationError(
            f"shift would cross a neighbor: E_{n}+dE={target:.9g} must stay inside "
            f"({lo:.9g}, {hi:.9g})"
        )

    psi = states[n - 1].psi.values
    dpsi = derivative_samples(psi, v.values - e_n, v.grid.h)
    u, du, w, dmin, realization = _shift_seed(v, target, psi, dpsi)
    wp = (e_n - target) * psi * u
    wpp = (e_n - target) * (dpsi * u + psi * du)
    with np.errstate(over="ignore", invalid="ignore"):
        values = v.values - 2.0 * (wpp * w - wp * wp) / (w * w)
    return _edited(v, values, {
        "kind": "shift", "n": n, "dE": d_e,
        "realization": f"second-order pair (net of peel/remove/create/restore chain); "
                       f"companion seed: {realization}",
        "factorization_energies": [e_n, target], "denominator_min": dmin})


def _shift_candidates(v: Potential, eps: float, psi: np.ndarray, dpsi: np.ndarray):
    """Solutions of -u'' + V u = eps u, named, in the order tried: the one launched
    from the grid midpoint with (u, u') = (-psi_n', psi_n) there, then the difference
    and the sum of the two edge-regular solutions at unit peak, which are swept only
    once the midpoint seed is passed over."""
    mid = v.grid.mid_index
    right, e_r = _launch(v.values[mid:], v.grid.h, eps, -dpsi[mid], psi[mid])
    left, e_l = _launch(v.values[mid::-1], v.grid.h, eps, -dpsi[mid], -psi[mid])
    top = max(e_l, e_r)
    yield "midpoint", np.concatenate((np.ldexp(left[:0:-1], e_l - top), np.ldexp(right, e_r - top)))
    u_l, u_r = (u / np.max(np.abs(u)) for u in (_sweep(v, eps, True), _sweep(v, eps, False)))
    yield "edge mix 1*L-1*R", u_l - u_r
    yield "edge mix 1*L+1*R", u_l + u_r


def _shift_seed(v: Potential, eps: float, psi: np.ndarray, dpsi: np.ndarray):
    """Companion solution for a level shift, chosen so W(psi_n, u) is nodeless.

    Three candidates, tried in a fixed order (``_shift_candidates``): the
    midpoint-launched solution phase-orthogonal to psi_n (exact in the
    dE -> 0 limit, the right choice for every symmetric well), then the
    difference and the sum of the two edge-regular solutions (the flattened
    form of the peeled creation's nodeless-mix freedom, needed for asymmetric
    wells).  The first candidate whose Wronskian neither collapses at a wall
    (both ends of a box, x = 0 of a half-line; a decaying end is no wall)
    nor fails ``_denominator_min`` wins; on hard walls it must also rise over
    at least WALL_NODES grid steps, and when no valid candidate does, the one
    that rises slowest wins.
    """
    g = v.grid
    f_u = v.values - eps
    walls = {HARD_WALLS: [0, -1], DECAYING_HALF_LINE: [0]}.get(v.bc_kind, [])
    last_err = steep = None
    for name, u in _shift_candidates(v, eps, psi, dpsi):
        du = derivative_samples(u, f_u, g.h)
        w = psi * du - dpsi * u
        peak = np.max(np.abs(w))
        wall = float(np.min(np.abs(w[walls]), initial=peak) / peak) if peak else 1.0
        if wall < 1e-9:
            last_err = SingularityError(f"{name}: Wronskian collapses at a wall")
            continue
        try:
            seed = (u, du, w, _denominator_min(w, g, f"{name}: Wronskian"), name)
        except SingularityError as exc:
            last_err = exc
            continue
        # a Wronskian that rises from a hard wall over fewer than WALL_NODES
        # grid steps puts a spike there too narrow for the grid to resolve
        if v.bc_kind != HARD_WALLS or wall * (g.n_points - 1) >= WALL_NODES:
            return seed
        if steep is None or wall > steep[0]:
            steep = (wall, seed)
    if steep is not None:
        return steep[1]
    raise last_err


def scale_swf(v: Potential, n: int, lam: float) -> TransformResult:
    """Rescale the weight of level n: c_n -> sqrt(1 + lam) c_n, spectrum fixed.

    V -> V - 2 d^2/dx^2 ln(1 + lam I_n) with I_n the running norm of psi_n
    (the weight deformation `_deform_weight`), taken from the end where c_n
    is measured: the left wall (psi_n'(x_min)), or on a decaying line the
    right end (the right tail constant).  lam > 0 presses the state toward
    that end, lam in (-1, 0) away from it; lam -> -1 is the removal limit
    and is rejected here.
    """
    _refuse_spikes(v, "scale_swf")
    if not -1.0 < lam < math.inf:
        raise ValidationError(f"lambda must be finite and exceed -1 (removal limit), got {lam}")
    den, vhat = _deform_weight(v, _states(v, n, n)[-1], lam)
    dmin = _denominator_min(den, v.grid, "weight-deformation denominator")
    return _edited(v, vhat, {"kind": "scale_swf", "n": n, "lambda": lam,
                             "swf_factor": math.sqrt(1.0 + lam), "denominator_min": dmin})


def remove_level_by_swf(v: Potential, n: int) -> TransformResult:
    """Remove level n by driving its weight to zero (the lam -> -1 limit).

    For the ground level the elementary Darboux removal is returned instead.
    That is not the weight limit: both keep the other levels, but the limit
    is another potential (on the width-pi box the weight deformation at
    lam = -1 gives V(0) = 3.24, the Darboux removal 2.00), and only the limit
    keeps the other states' weights.  For excited levels the limit
    is the weight deformation at lam = -1: V -> V - 2 d^2/dx^2 ln(1 - I_n),
    which presses the state out through the right wall while the other
    levels and their weights stay put; supported on hard-wall problems (on a
    truncated line the escaping carrier would cross the truncation edge).
    1 - I_n is 1 at the left wall and 0 at the right one, so only its
    interior is tested for a node.
    """
    _refuse_spikes(v, "remove_level_by_swf")
    if n > 1 and v.bc_kind != HARD_WALLS:
        raise ValidationError("excited-level weight removal needs hard walls "
                              "(the carrier escapes through a truncation edge otherwise)")
    state = _states(v, n, n)[-1]
    if n == 1:
        return darboux_remove_ground(v, state)
    den, vhat = _deform_weight(v, state, -1.0)
    dmin = _denominator_min(den, v.grid, "running-norm denominator 1 - I_n", interior=True)
    return _edited(v, vhat, {"kind": "remove", "n": n, "route": "weight -> 0 limit",
                             "factorization_energy": state.energy, "denominator_min": dmin})


def bargmann_reflectionless(levels, norms, *, half_width: float | None = None,
                            n_points: int | None = None) -> TransformResult:
    """N-level reflectionless well from prescribed decay rates and tail norms.

    levels are the kappa_m > 0 (strictly decreasing), norms the tail norming
    constants c_m > 0; the well V = -2 (ln det A)'' with
    A = 1 + c_m c_n e^{-(kappa_m + kappa_n) x} / (kappa_m + kappa_n) carries
    exactly the bound levels -kappa_m^2 and |R| = 0 at every positive energy.
    Its states are the oracle's, like those of every edit.

    det A expands into a sum over soliton subsets S with strictly positive
    coefficients, det A = sum_S C_S exp(-2 K_S x), K_S = sum_{m in S} kappa_m,
    so with the softmax weights w_S(x) of that sum

        V(x) = -8 <(K - <K>)^2>,

    which is unconditionally stable in log space; the direct matrix solve
    would lose all accuracy for clustered decay rates (Cauchy conditioning).
    The variance of K is summed about its mean, which does not cancel as
    <K^2> - <K>^2 does.
    """
    kap = np.asarray(list(levels), dtype=float)
    c = np.asarray(list(norms), dtype=float)
    n_lev = kap.size
    if kap.ndim != 1 or n_lev < 1 or n_lev != c.size:
        raise ValidationError("levels and norms must be equal-length, non-empty sequences")
    if n_lev > 16:
        raise ValidationError("subset expansion supports at most 16 levels")
    if np.any(kap <= 0) or np.any(c <= 0):
        raise ValidationError("all decay rates and norms must be positive")
    if np.any(np.diff(kap) >= 0):
        raise ValidationError("decay rates must be strictly decreasing (duplicates rejected)")
    if n_lev > 1 and float(np.min(-np.diff(kap))) < 1e-10:
        raise ValidationError("decay rates too close together to separate")

    offsets = np.log(c * c / (2.0 * kap)) / (2.0 * kap)
    if half_width is None:
        half_width = max(14.0, 12.0 / kap.min() + float(np.max(np.abs(offsets))))
    if float(kap.max()) * half_width > 600.0:
        raise ValidationError("domain too wide for the deepest level (exponent overflow)")
    v0 = free_line(half_width, n_points)
    x = v0.grid.x

    # per-subset decay sums K_S and log-coefficients ln C_S
    k_sum = np.zeros(2**n_lev)
    log_c = np.zeros(2**n_lev)
    for mask in range(1, 2**n_lev):
        idx = [m for m in range(n_lev) if mask >> m & 1]
        k_sum[mask] = kap[idx].sum()
        lc = sum(math.log(c[m] ** 2 / (2.0 * kap[m])) for m in idx)
        for a_i in range(len(idx)):
            for b_i in range(a_i + 1, len(idx)):
                i, j = idx[a_i], idx[b_i]
                lc += 2.0 * (math.log(abs(kap[i] - kap[j])) - math.log(kap[i] + kap[j]))
        log_c[mask] = lc

    logits = log_c[None, :] - 2.0 * k_sum[None, :] * x[:, None]
    shift = logits.max(axis=1, keepdims=True)
    terms = np.exp(logits - shift)
    tau = terms.sum(axis=1)
    w = terms / tau[:, None]
    # einsum, not BLAS: a threaded matrix-vector product rounds differently
    # with the thread count
    k_mean = np.einsum("ij,j->i", w, k_sum)
    vvals = -8.0 * np.einsum("ij,ij->i", w, (k_sum[None, :] - k_mean[:, None]) ** 2)
    v_new = Potential(SampledFn(v0.grid, vvals), DECAYING_LINE)

    log = ({"kind": "create", "route": "reflectionless multi-level determinant (subset expansion)",
            "levels": [-float(k**2) for k in kap], "norms": list(map(float, c)),
            "denominator_min": float(tau.min() / tau.max()),
            "half_width": float(half_width)},)
    return TransformResult(v_new, (), log)


def _bsec_denominator(k: float, lam: float, x: np.ndarray) -> np.ndarray:
    """D = 1 + lam int_0^x sin^2(ks) ds."""
    return 1.0 + lam * (x / 2.0 - np.sin(2.0 * k * x) / (4.0 * k))


def _bsec_potential(k: float, lam: float, x: np.ndarray, den: np.ndarray) -> np.ndarray:
    """-2 (ln D)'' from den = D at x."""
    return (-2.0 * lam * k * np.sin(2.0 * k * x) / den
            + 2.0 * (lam * np.sin(k * x) ** 2 / den) ** 2)


def bsec_potential_values(k: float, lam: float, x: np.ndarray) -> np.ndarray:
    """The embedded-state potential -2 (ln D)'' with D = 1 + lam int_0^x sin^2(ks) ds."""
    return _bsec_potential(k, lam, x, _bsec_denominator(k, lam, x))


def embed_bsec(k: float, lam: float, grid: Grid) -> TransformResult:
    """Embed a normalizable state at E = k^2 inside the half-line continuum.

    V = -2 d^2/dx^2 ln(1 + lam int_0^x sin^2(ks) ds), evaluated analytically;
    the confined state is psi = sin(kx) / (1 + lam int_0^x sin^2).  Its exact
    norm on [0, inf) is 1/lam, and the mass beyond the truncation L is
    1/(lam D(L)); both are recorded in the step log together with the grid
    norm so the convergence of the norm integral is checkable.
    """
    if not 0.0 < lam < math.inf:
        raise ValidationError(f"lambda must be finite and positive, got {lam}")
    if not 0.0 < k < math.inf:
        raise ValidationError(f"k must be finite and positive, got {k}")
    if abs(grid.x_min) > 1e-12:
        raise ValidationError("half-line grid must start at 0")
    x = grid.x
    den = _bsec_denominator(k, lam, x)
    vvals = _bsec_potential(k, lam, x, den)
    v_new = Potential(SampledFn(grid, vvals), DECAYING_HALF_LINE)

    psi = np.sin(k * x) / den
    grid_norm = integrate(SampledFn(grid, psi * psi))
    d_l = float(den[-1])
    tail_fraction = 1.0 / d_l           # exact: (mass beyond L) / (1/lam)
    y = _normalised(grid, k * k, psi)
    state = BoundState(n=1, nodes=_count_sign_changes(y[1:-1]), energy=float(k * k),
                       psi=SampledFn(grid, y), swf=_state_swf(v_new, k * k, y))

    log = ({"kind": "bsec", "e_bsec": k * k, "lambda": lam,
            "denominator_min": float(den.min() / den.max()),
            "norm_total_analytic": 1.0 / lam,
            "norm_on_grid": float(grid_norm),
            "tail_fraction_analytic": tail_fraction},)
    return TransformResult(v_new, (state,), log)


def bsec_whole_line(k: float, lam: float, *, half_width: float = 120.0 * math.pi,
                    n_points: int | None = None) -> Potential:
    """Whole-line extension of the embedded-state potential to [-6, half_width]:
    zero for x < 0."""
    if n_points is None:
        n_points = default_points(half_width + 6.0)
    g = make_grid(-6.0, half_width, n_points)
    v = bsec_potential_values(k, lam, g.x)
    v[g.x < 0] = 0.0
    return Potential(SampledFn(g, v), DECAYING_LINE)


def bsec_reflection_curve(k: float, lam: float, energies, **kwargs):
    """|R(E)| scan for the whole-line embedded-state potential."""
    v = bsec_whole_line(k, lam, **kwargs)
    return scattering_curve(v, energies)
