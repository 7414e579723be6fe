"""Test-only references: checks on the package that no module of it calls."""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from specdesign.darboux import DEFAULT_CAP, _denominator_min
from specdesign.errors import SingularityError, ValidationError
from specdesign.grid import Grid, SampledFn, integrate
from specdesign.lattice import BAND_HI, BAND_LO, LatticeState, LatticeSystem, ladder_index
from specdesign.potentials import DECAYING_LINE, HARD_WALLS, Potential, free_line
from specdesign.solver import (
    _Matcher,
    _barycentric,
    _cell_deltas,
    _match_index,
    _normalised,
    _rescaled,
    _start_derivs,
    _taylor_step,
    _transfer_matrices,
)


def sample(fn, grid: Grid) -> SampledFn:
    """Sample a callable on a grid."""
    return SampledFn(grid, np.asarray(fn(grid.x), dtype=float))


def transfer_matrix(cell: Potential, energy: float) -> np.ndarray:
    """One-period transfer matrix [[u, w], [u', w']] at the right cell edge (det = 1
    up to rounding: each step of the (w, D) map has determinant 1).

    u and w start from (value, slope) = (1, 0) and (0, 1) at the left edge,
    where a delta on the edge acts once first.  The (w, D) map of
    ``_transfer_matrices`` is conjugated with their start pairs: node 1 from
    the Taylor step ``_taylor_step`` (linear in the value and slope), both
    nodes then in (w, D) form.
    """
    v, h = cell.values, cell.grid.h
    m = _transfer_matrices(cell, [energy])[0][..., 0]
    edge = _cell_deltas(cell)[0]
    f0 = float(v[0]) - energy
    dv, ddv = _start_derivs(v, h)
    y1 = np.array([_taylor_step(1.0, edge, h, f0, dv, ddv), _taylor_step(0.0, 1.0, h, f0, dv, ddv)])
    c0, c1 = 1.0 - h * h * (v[:2] - energy) / 12.0
    start = np.array([c1 * y1, c1 * y1 - c0 * np.array([1.0, 0.0])])  # (w, D) of u and w
    inverse = np.array([[start[1, 1], -start[0, 1]], [-start[1, 0], start[0, 0]]])
    return np.einsum("ij,jk,kl->il", inverse, m, start) / (start[0, 0] * start[1, 1]
                                                          - start[0, 1] * start[1, 0])


def pairwise_chain(m, exps) -> tuple[np.ndarray, np.ndarray]:
    """Product of the maps m (2, 2, E, S) at scale 2**exps (E, S), last segment leftmost.

    The scan's pairwise tree over every segment, with nothing shared:
    neighbours are multiplied pairwise, level by level, each product written
    out by components and rescaled by a power of two.  Returns the (2, 2, E)
    product and its exponents.
    """
    while m.shape[-1] > 1:
        pairs = m.shape[-1] // 2
        a, b = m[..., 1 : 2 * pairs : 2], m[..., 0 : 2 * pairs : 2]  # later, earlier
        prod = a[:, :1] * b[:1]  # prod[r, c] = a[r, 0] b[0, c] + a[r, 1] b[1, c]
        prod += a[:, 1:] * b[1:]
        prod, prod_exps = _rescaled(prod, exps[:, 1 : 2 * pairs : 2] + exps[:, 0 : 2 * pairs : 2])
        if m.shape[-1] % 2:
            prod = np.concatenate((prod, m[..., -1:]), axis=-1)
            prod_exps = np.concatenate((prod_exps, exps[:, -1:]), axis=-1)
        m, exps = prod, prod_exps
    return m[..., 0], exps[:, 0]


def gathered_mix(maps, top, points, cells, energies) -> tuple[np.ndarray, np.ndarray]:
    """``solver._interpolated`` by gathers: for each Chebyshev point in turn, a copy
    of every energy's cell maps (2, 2, E, S) times the energy's barycentric weight,
    summed in point order.  Returns the mix and the exponents of its cells."""
    weights = _barycentric(points[cells], energies)
    mix = maps[:, :, cells, 0]
    mix *= weights[:, 0, None]
    for i in range(1, points.shape[1]):
        term = maps[:, :, cells, i]
        term *= weights[:, i, None]
        mix += term
    return mix, top[cells]


def bsec_two_expressions(k: float, lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, psi) of the embedded state at x, from the construction written as two
    expressions: D = 1 + lam (x / 2 - sin(2kx) / (4k)) first, then
    V = -2 lam k sin(2kx) / D + 2 (lam sin^2(kx) / D)^2 and psi = sin(kx) / D."""
    den = 1.0 + lam * (x / 2.0 - np.sin(2.0 * k * x) / (4.0 * k))
    v = -2.0 * lam * k * np.sin(2.0 * k * x) / den + 2.0 * (lam * np.sin(k * x) ** 2 / den) ** 2
    return v, np.sin(k * x) / den


def single_delta(strength: float, position: float = 0.0,
                 half_width: float = 15.0, n_points: int | None = None) -> Potential:
    """A free line with one delta spike of `strength` at `position`."""
    p = free_line(half_width, n_points)
    return Potential(p.body, DECAYING_LINE, ((position, strength),))


def interval_mass(state, x_lo: float, x_hi: float) -> float:
    """Probability mass of a state inside [x_lo, x_hi]."""
    g = state.psi.grid
    w = np.where((g.x >= x_lo) & (g.x <= x_hi), state.psi.values**2, 0.0)
    return integrate(SampledFn(g, w))


def bessel_recurrence_residual(state: LatticeState, c: float, sys_or_window) -> float:
    """Max residual of J_{nu-1} + J_{nu+1} - (2 nu / z) J_nu on the samples.

    The ladder eigenfunctions sample integer-order Bessel functions of fixed
    argument z = 2/c; the three-term recurrence is their defining identity
    and serves as a library-free oracle.
    """
    if isinstance(sys_or_window, LatticeSystem):
        sites = sys_or_window.sites
    else:
        sites = np.arange(int(sys_or_window[0]), int(sys_or_window[1]) + 1)
    m = ladder_index(state, c)
    nu = sites - m
    psi = state.psi
    res = psi[:-2] + psi[2:] - c * nu[1:-1] * psi[1:-1]
    return float(np.max(np.abs(res)))


def lattice_scattering(sys: LatticeSystem, energy: float) -> tuple[complex, complex]:
    """R and T amplitudes for a wave incident from the left at E in (0, 4).

    The site potential must vanish near the window edges (compact support);
    plane lattice waves e^{+-ikn} with E = 2 - 2 cos k are matched exactly,
    so |R|^2 + |T|^2 = 1 to rounding.
    """
    if not BAND_LO < energy < BAND_HI:
        raise ValidationError(f"energy must lie strictly inside the band (0, 4), got {energy}")
    margin = 3
    if sys.size < 2 * margin + 3:
        raise ValidationError("lattice window too small for scattering")
    if np.any(sys.v[:margin] != 0.0) or np.any(sys.v[-margin:] != 0.0):
        raise ValidationError("site potential must vanish near the window edges")

    k = math.acos((2.0 - energy) / 2.0)
    sites = sys.sites
    # transmitted wave T e^{ikn}, normalized to T = 1, recursed leftward
    psi_right = cmath.exp(1j * k * sites[-1])
    psi_next = cmath.exp(1j * k * (sites[-1] - 1))
    psi = np.zeros(sys.size, dtype=complex)
    psi[-1], psi[-2] = psi_right, psi_next
    for j in range(sys.size - 2, 0, -1):
        psi[j - 1] = (2.0 + sys.v[j] - energy) * psi[j] - psi[j + 1]

    # decompose on the flat left edge: psi(n) = A e^{ikn} + B e^{-ikn}
    e0 = cmath.exp(1j * k * sites[0])
    e1 = cmath.exp(1j * k * sites[1])
    det = e0 / e1 - e1 / e0
    a = (psi[0] / e1 - psi[1] / e0) / det
    b = (psi[1] * e0 - psi[0] * e1) / det
    return b / a, 1.0 / a


class ClosedFormDiscrepancyWarning(UserWarning):
    """A published closed-form expression failed its equation residual check."""


def box_shift_closed_form(t: float, grid: Grid) -> tuple[SampledFn, SampledFn]:
    """Closed-form potential and shifted state for the width-pi box, E_1 = 1 -> 1 + t.

    Evaluates the published expressions with the x-derivative expanded
    analytically; for 1 + t < 0 the square roots continue through hyperbolic
    functions so everything stays real.  The published eigenfunction has an
    x-independent numerator; its equation residual is checked and, because it
    fails (it cannot satisfy the wall conditions), a ClosedFormDiscrepancyWarning
    is issued and the directly integrated eigenfunction is returned instead.
    """
    if abs(grid.x_min + math.pi / 2) > 1e-9 or abs(grid.x_max - math.pi / 2) > 1e-9:
        raise ValidationError("closed-form shift is defined on the interval [-pi/2, pi/2]")
    beta2 = 1.0 + t
    x = grid.x
    cx, sx = np.cos(x), np.sin(x)
    # s solves s'' = -(1 + t) s with s(0) = 0; the published numerator
    # cos(sqrt(1+t) a) of the state is x-independent
    if beta2 > 1e-12:
        b = math.sqrt(beta2)
        s = np.sin(b * x)
        sp = b * np.cos(b * x)          # s'
        printed_num = math.cos(b * math.pi / 2)
    elif beta2 < -1e-12:
        gma = math.sqrt(-beta2)
        s = np.sinh(gma * x)
        sp = gma * np.cosh(gma * x)
        printed_num = math.cosh(gma * math.pi / 2)
    else:
        s = x
        sp = np.ones_like(x)
        printed_num = 1.0
    den = s * sx + sp * cx
    num = (sp * cx - s * sx) * den + t * (s * cx) ** 2
    _denominator_min(den, grid, "closed-form denominator")
    wall_rel = min(abs(den[0]), abs(den[-1])) / np.max(np.abs(den))
    if wall_rel < 1e-9:
        # happens exactly when 1 + t hits a higher box level (crossing)
        raise SingularityError(
            f"closed-form denominator vanishes at a wall (1 + t = {beta2:.6g} "
            "collides with another level)", x=grid.x_max)
    vvals = 2.0 * t * num / (den * den)
    v_fn = SampledFn(grid, vvals)

    # test the published state against the equation before trusting it
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_printed = printed_num / den
    res_printed = _equation_residual(psi_printed, vvals, beta2, grid)

    pot = Potential(SampledFn(grid, np.clip(vvals, -DEFAULT_CAP, DEFAULT_CAP)), HARD_WALLS)
    psi_direct = _Matcher(pot, _match_index(pot, beta2)).state(beta2)[0]
    res_direct = _equation_residual(psi_direct, vvals, beta2, grid)
    if res_printed > 100.0 * max(res_direct, 1e-10):
        warnings.warn(
            "published closed-form eigenfunction (x-independent numerator) fails the "
            f"equation residual check ({res_printed:.3e} vs {res_direct:.3e} for the "
            "directly integrated state); returning the integrated eigenfunction",
            ClosedFormDiscrepancyWarning,
            stacklevel=2,
        )
        return v_fn, SampledFn(grid, psi_direct)
    return v_fn, SampledFn(grid, _normalised(grid, beta2, psi_printed))


def _equation_residual(psi: np.ndarray, vvals: np.ndarray, energy: float, grid: Grid) -> float:
    """Interior max of |-psi'' + V psi - E psi| / scale (plain FD; diagnostic only)."""
    h = grid.h
    lap = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / (h * h)
    res = -lap + (vvals[1:-1] - energy) * psi[1:-1]
    margin = max(4, grid.n_points // 50)
    scale = (1.0 + abs(energy)) * np.max(np.abs(psi[margin:-margin]))
    return float(np.max(np.abs(res[margin:-margin])) / scale)
