"""Band-structure control for periodic systems built from one repeated cell.

Allowed zones are where the discriminant Delta(E) (trace of the one-period
transfer matrix) has |Delta| <= 2.  Their edges are the periodic
(Delta = +2) and antiperiodic (Delta = -2) eigenvalues of one cell, which
come in Hill's order lam_0 < mu_1 <= mu_2 < lam_1 <= lam_2 < mu_3 <= ...
(Magnus & Winkler, Hill's Equation, 1966; Eastham, The Spectral Theory of
Periodic Differential Equations, 1973): zone k runs from edge 2k-2 to edge
2k-1 of that merged list, and in gap k, up to edge 2k, (-1)^k Delta > 2.
Across every zone Delta runs from +2 to -2 or back, so even the narrowest
zone holds a sign change of Delta.  A gap whose two edges coincide is
closed and its zones touch.  The k-th level of the cell with hard walls
(Dirichlet level) lies in the closure of gap k.

Zone edges are moved by shifting a level of the auxiliary hard-wall problem
on one period and continuing the resulting potential change periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ._lapack import dsbevx
from .darboux import shift_level
from .errors import NumericalFailure, ValidationError
from .grid import SampledFn
from .potentials import HARD_WALLS, Potential
from .solver import (_SEED_INTERVALS, _fd_cell, _transfer_matrices, bound_states, current_work,
                     secant_steps)

#: the accuracy of every zone edge, and how far a hard-wall level may lie
#: outside the closure of its gap
EDGE_TOL = 1e-8
#: the resolution in dE to which `bisect_gap_closure` finds the shift that
#: closes the tracked gap (zone edges themselves are resolved to EDGE_TOL)
GAP_CLOSED = 1e-3


@dataclass(frozen=True)
class PeriodicSystem:
    """One sampled cell on [0, a], repeated with period a.

    A delta sitting on the left cell edge is counted once per period.
    """

    cell: Potential
    period: float

    def __post_init__(self):
        g = self.cell.grid
        if abs(g.x_min) > 1e-12 or abs(g.x_max - self.period) > 1e-9:
            raise ValidationError(
                f"cell grid [{g.x_min}, {g.x_max}] must span exactly one period [0, {self.period}]"
            )


@dataclass(frozen=True)
class Zone:
    index: int
    e_lo: float
    e_hi: float

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo


def zones(p: PeriodicSystem, e_max: float) -> list[Zone]:
    """All allowed zones starting below e_max, the last one cut at e_max.

    The edges are the periodic and antiperiodic eigenvalues of the cell, in
    Hill's order (see the module docstring).  Each is seeded by the
    eigenvalue of a coarse finite-difference cell and refined to EDGE_TOL
    on the sampled cell's discriminant: by secant steps on Delta -+ 2 inside
    a sign bracket, or, where the two edges of a gap lie closer than the
    seeds can tell apart, on dDelta/dE = 0 first.  The searches step
    together in rounds, each round one kernel call (``_refine_together``);
    this is the one-layout case of ``_layouts``, which refines several
    layouts in the same rounds.  A gap whose extremum falls short of +-2 by
    at most 1e-7, or passes it by no more than the rounding of the
    one-period map (see ``_EdgeSearch._gap``), is closed (touching zones, as
    in the free limit) and reported as two coincident edges; any other gap
    is open and both its edges are refined.  The coarse cell resolves the
    highest wave number below the cut and is built once: a zone narrower
    than the error of its seeds, as the lowest zone of a tight-binding comb
    can be, is found at the sign change of Delta between the gaps on either
    side.  Where it is narrower than the rounding of Delta too, that sign
    change is reported as its two coincident edges.
    """
    return _layouts([p], e_max)[0]


def _layouts(systems, e_max: float) -> list[list[Zone]]:
    """The zones below e_max of each system, as ``zones`` finds them, every
    layout's searches refined in the same rounds.

    The systems' cells must share a grid and deltas.  Each layout keeps its
    own search, so its edges and its work counts are those of its own
    ``zones`` call.
    """
    seeds = [_layout_seeds(p, e_max) for p in systems]
    searches = [_EdgeSearch(p.cell) for p in systems]
    found = _refine_together(searches, seeds)
    work = current_work()
    if work is not None:
        work.zone_calls += len(searches)
        work.zone_edges_seeded += sum(s.size - 1 for s in seeds)
        work.zone_evaluations += sum(len(search.values) for search in searches)
        work.zone_tangencies += sum(search.tangencies for search in searches)
        work.zone_below_rounding += sum(len(search.below_rounding) for search in searches)
    layouts = []
    for edges in found:
        edges = [float(e) for e in edges if e < e_max] + [float(e_max)]
        layouts.append([Zone(index=k + 1, e_lo=lo, e_hi=hi)
                        for k, (lo, hi) in enumerate(zip(edges[0::2], edges[1::2]))])
    return layouts


def _layout_seeds(p: PeriodicSystem, e_max: float) -> np.ndarray:
    """The edge seeds of p's zones below e_max (``_edge_seeds``), on a coarse cell
    that resolves the highest wave number below the cut."""
    cell = p.cell
    v_min = float(cell.values.min())
    if not math.isfinite(e_max):
        raise ValidationError(f"e_max must be finite, got {e_max}")
    if e_max <= v_min:
        raise ValidationError(f"e_max={e_max} must exceed the cell potential minimum {v_min}")
    # seeds up to e_cut are refined, so that an edge below e_max whose seed
    # lies above it is not missed
    e_cut = e_max + _SEED_MARGIN * max(1.0, e_max - v_min)
    intervals = cell.grid.n_points - 1
    if intervals < 3:
        raise ValidationError(f"a cell of {cell.grid.n_points} nodes is too coarse for zone edges")
    k_max = math.sqrt(max(1.0, e_cut - v_min))
    m = min(intervals, max(_SEED_INTERVALS, math.ceil(_SEED_RESOLUTION * p.period * k_max)))
    seeds = _edge_seeds(cell, m, e_cut)
    if seeds is None:
        raise ValidationError(f"e_max={e_max} lies beyond the reach of the cell's grid")
    return seeds


#: intervals per unit of 1/k at the highest wave number k below the cut: with
#: k h <= 1/4 a seed sits low by about E (k h)^2 / 12, at most 0.5% of E
_SEED_RESOLUTION = 4.0
#: seeds up to this fraction of e_max - min V above e_max are refined
_SEED_MARGIN = 0.1
#: absolute eigenvalue tolerance of the seed solve: twice the underflow
#: threshold (LAPACK's dlamch("s"), the smallest normal double), the most
#: accurate dsbevx offers
_ABSTOL = 2 * np.finfo(float).tiny
#: a gap's extremum this far short of +-2 still closes it
_GAP_SHORTFALL = 1e-7
#: half-step of the central difference for dDelta/dE
_SLOPE_STEP = 1e-4


def _edge_seeds(cell: Potential, m: int, e_cut: float) -> np.ndarray | None:
    """Zone-edge seeds below e_cut from a finite-difference cell of m intervals.

    The periodic and antiperiodic eigenvalues of the coarse cell, merged:
    lam_0 and every pair with a member below e_cut, then one more, which
    bounds the zone above the last pair.  None when the coarse cell has too
    few eigenvalues for that.

    The coarse cell is ``solver._fd_cell``; its node m is node 0 of the next
    cell, so the matrix wraps around with corners -1/h^2 (periodic) or
    +1/h^2 (antiperiodic).  Numbered 0, m-1, 1, m-2, ..., the wrapped matrix
    is pentadiagonal, and LAPACK's banded solver finds just the eigenvalues
    asked for.
    """
    diag, h = _fd_cell(cell, m)
    order = np.empty(m, dtype=int)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = m - 1 - np.arange(m // 2)
    pos = np.empty(m, dtype=int)
    pos[order] = np.arange(m)
    # coupling of node j to node j + 1 (mod m), in upper band storage
    lo, hi = np.sort([pos, np.roll(pos, -1)], axis=0)
    band = np.zeros((3, m))
    band[2] = diag[order]
    bottom = diag.min() - 2.0 / h**2 - 1.0   # below every eigenvalue (Gershgorin)
    seeds = []
    for corner in (-1.0, 1.0):
        band[2 - (hi - lo), hi] = -1.0 / h**2
        band[2 - (hi[-1] - lo[-1]), hi[-1]] = corner / h**2
        below = _band_eigvals(band, 1, bottom, e_cut, 1, 1)
        above = []
        if below.size < m:
            above = _band_eigvals(band, 2, 0.0, 1.0, below.size + 1, min(m, below.size + 2))
        seeds.extend(below)
        seeds.extend(above)
    seeds = np.sort(seeds)
    count = int(np.searchsorted(seeds, e_cut))
    count += 1 - count % 2
    return seeds[: count + 1] if count < seeds.size else None


def _band_eigvals(band: np.ndarray, select: int, vl: float, vu: float, il: int,
                  iu: int) -> np.ndarray:
    """Eigenvalues of an upper-band matrix: those in (vl, vu] (select 1) or
    those of 1-based index il..iu (select 2).

    The arguments are the ones ``scipy.linalg.eig_banded(eigvals_only=True)``
    passes to LAPACK, so the values are its bits.
    """
    w, _, found, _, info = dsbevx(band, vl, vu, il, iu, compute_v=0, range=select,
                                  lower=0, overwrite_ab=0, abstol=_ABSTOL, mmax=1)
    if info:
        raise NumericalFailure(f"banded eigenvalue solve failed (LAPACK info {info})")
    return w[:found]


def _together(tasks):
    """Sub-generator stepping the tasks, generators of energy requests, in
    lockstep: each round yields the requests of all that are still running.
    Returns their results, in order."""
    tasks = list(tasks)
    results = [None] * len(tasks)
    running = range(len(tasks))
    while running:
        request, waiting = [], []
        for i in running:
            try:
                request.extend(next(tasks[i]))
                waiting.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        running = waiting
        if request:
            yield request
    return results


class _EdgeSearch:
    """Refines seeded zone edges on the discriminant of one cell.

    The search runs as generators that yield the energies whose Delta they
    need next, each as a (search, energy) pair, and read it from ``values``
    when resumed.  Independent searches (every edge of a layout, and every
    layout of ``_layouts``) step in lockstep, and each round of requests is
    one kernel call (``_refine_together``), the search's only way to the
    kernel.  Each energy's Delta is evaluated once per search; ``values``
    holds them all, ``maps`` the one-period map (Blatt's (w, D) form,
    similar to the transfer matrix) whose trace each is, and no other
    search's requests change them.
    """

    def __init__(self, cell: Potential):
        self.cell = cell
        self.values: dict[float, float] = {}
        self.maps: dict[float, np.ndarray] = {}
        self.tangencies = 0
        self.below_rounding: set[float] = set()  # points of zones reported as two coincident edges

    def _refine(self, seeds):
        """Sub-generator: edges from the merged seeds lam_0, mu_1, mu_2, lam_1, ...
        and one more.

        Zone k lies between seeds 2k-2 and 2k-1; gap k, between seeds 2k-1
        and 2k, is where (-1)^k Delta > 2, as is every energy below lam_0.
        A gap is searched between points of its zones (|Delta| < 2): each at
        its seeds' midpoint, or else at Delta's sign change between its gaps.
        """
        points = list(0.5 * (seeds[0::2] + seeds[1::2]))
        centres = list(0.5 * (seeds[1:-1:2] + seeds[2::2]))
        step = -max(1.0, seeds[1] - seeds[0])
        yield from self._deltas(points + centres + [seeds[0] + step])
        centres.insert(0, (yield from self._outside(1.0, seeds[0], step)))
        if abs(self.values[points[-1]]) >= 2.0:   # the top seeded zone: step up to its gap,
            # from short steps: unlike below lam_0, that gap may be narrower than 1
            k = len(points) - 1
            centres.append((yield from self._outside(1.0 if k % 2 else -1.0, seeds[-1],
                                                     max(EDGE_TOL, seeds[-1] - seeds[-2]))))
        points = yield from _together(self._point(k, points[k], centres, seeds)
                                      for k in range(len(points)))
        parts = yield from _together(
            [self._root(1.0, points[0], centres[0], seeds[0])]
            + [self._gap(-1.0 if k % 2 else 1.0, points[k - 1], points[k], centres[k],
                         seeds[2 * k - 1], seeds[2 * k]) for k in range(1, len(points))])
        return [parts[0]] + [e for edges in parts[1:] for e in edges]

    def _deltas(self, energies):
        """Sub-generator: Delta at each energy, yielding those not yet evaluated."""
        missing = [(self, e) for e in energies if e not in self.values]
        if missing:
            yield missing
        return [self.values[e] for e in energies]

    def _delta(self, e):
        return (yield from self._deltas([e]))[0]

    def _slope(self, e):
        """Sub-generator: dDelta/dE at e by a central difference."""
        up, down = yield from self._deltas([e + _SLOPE_STEP, e - _SLOPE_STEP])
        return (up - down) / (2 * _SLOPE_STEP)

    def _secant(self, f, lo, f_lo, hi, f_hi, x):
        """Sub-generator: the sign change of f in [lo, hi] to EDGE_TOL, by
        ``secant_steps``; f(e) is a sub-generator of its value."""
        steps = secant_steps(lo, f_lo, hi, f_hi, x, EDGE_TOL)
        try:
            x = next(steps)
            while True:
                x = steps.send((yield from f(x)))
        except StopIteration as stop:
            return stop.value

    def _point(self, k, point, centres, seeds):
        """Sub-generator: a point of zone k, whose seeds' midpoint is `point`."""
        if abs(self.values[point]) < 2.0:
            return point
        d_lo, d_hi = yield from self._deltas(centres[k : k + 2])
        if (d_lo > 0.0) == (d_hi > 0.0):
            raise NumericalFailure(f"no point of zone {k + 1}, seeded at E={seeds[2 * k]} and "
                                   f"E={seeds[2 * k + 1]}, has |Delta| < 2")
        # where the zone is narrower than the rounding of Delta, no double
        # has |Delta| < 2 and this sign change stands for both its edges
        return (yield from self._secant(self._delta, centres[k], d_lo, centres[k + 1], d_hi,
                                        point))

    def _outside(self, sign, seed, step):
        """Sub-generator: the first of seed + step, seed + 2 step, seed + 4 step, ...
        with sign * Delta > 2."""
        for _ in range(60):
            if sign * (yield from self._delta(seed + step)) > 2.0:
                return seed + step
            step *= 2.0
        raise NumericalFailure(f"no energy beyond the seed {seed} with {sign:+g} * Delta > 2")

    def _gap(self, sign, below, above, centre, a0, b0):
        """Sub-generator: both edges of the gap where sign * Delta > 2, between
        zone points; seeds a0, b0.

        Where the seeds do not resolve the gap, it is open when Delta passes
        sign * 2 at its extremum: when the excess sign * Delta - 2 there is
        positive, and so is -det(M - sign I), M the one-period map.  The two
        agree wherever det M = 1, but at a closed gap, where M = sign I, the
        excess carries the error of M to first order and the determinant only
        to second order.
        """
        if sign * (yield from self._delta(centre)) <= 2.0:
            # the seeds do not resolve the gap: find the extremum first
            def signed_slope(e):
                return sign * (yield from self._slope(e))

            d_below, d_above = yield from _together(map(signed_slope, (below, above)))
            if not (d_below > 0.0 > d_above):
                raise NumericalFailure(
                    f"Delta has no single extremum between E={below} and E={above}"
                )
            centre = yield from self._secant(signed_slope, below, d_below, above, d_above, centre)
            excess = sign * (yield from self._delta(centre)) - 2.0
            m = self.maps[centre]
            if excess < -_GAP_SHORTFALL:
                raise NumericalFailure(
                    f"Delta peaks {-excess:.3g} short of {2 * sign:+g} at E={centre}"
                )
            if excess <= 0.0 or (m[0, 0] - sign) * (m[1, 1] - sign) >= m[0, 1] * m[1, 0]:
                self.tangencies += 1
                return [centre, centre]
        return (yield from _together([self._root(sign, below, centre, a0),
                                      self._root(sign, above, centre, b0)]))

    def _root(self, sign, point, centre, seed):
        """Sub-generator: the edge between a zone's point and a gap's centre: the
        root of sign * Delta - 2 there, or the point itself if |Delta| >= 2 there
        too, which ``refine`` leaves only in a zone below the rounding of Delta."""
        d_point, d_centre = yield from self._deltas([point, centre])
        if abs(d_point) >= 2.0:
            self.below_rounding.add(point)
            return point

        def f(e):
            return sign * (yield from self._delta(e)) - 2.0

        (lo, f_lo), (hi, f_hi) = sorted([(point, sign * d_point - 2.0),
                                         (centre, sign * d_centre - 2.0)])
        return (yield from self._secant(f, lo, f_lo, hi, f_hi, seed))


def _refine_together(searches, seeds) -> list[list[float]]:
    """The edges of every search from its seeds (``_EdgeSearch._refine``).

    The searches step in lockstep, and each round is one ``_transfer_matrices``
    call over their cells, its energies grouped by search; each energy's map
    is kept beside its Delta.  No energy's map depends on the others in its
    call, so each search finds what it would find on its own.
    """
    cells = [search.cell for search in searches]
    row = {search: i for i, search in enumerate(searches)}
    task = _together(search._refine(x) for search, x in zip(searches, seeds))
    try:
        request = next(task)
        while True:
            rows, energies = zip(*sorted({(row[search], e) for search, e in request}))
            maps, deltas = _transfer_matrices(cells, energies, rows)
            for i, e, m, delta in zip(rows, energies, np.moveaxis(maps, -1, 0), deltas.tolist()):
                searches[i].values[e] = delta
                searches[i].maps[e] = m
            request = next(task)
    except StopIteration as stop:
        return stop.value


def auxiliary_box(p: PeriodicSystem) -> Potential:
    """Hard-wall problem on one period with walls replacing the deltas."""
    return Potential(SampledFn(p.cell.grid, p.cell.values.copy()), HARD_WALLS)


def shift_zone(p: PeriodicSystem, aux_level: int, d_e: float) -> PeriodicSystem:
    """Move the zone edge tied to a level of the auxiliary hard-wall problem.

    The potential change that shifts level `aux_level` of the cell-with-walls
    problem is computed by the level-shift transformation and continued
    periodically: the band edge that coincides with that auxiliary level
    follows it, while the opposite (wall-pinned) edges stay put.
    """
    aux = auxiliary_box(p)
    res = shift_level(aux, aux_level, d_e)
    dv = res.potential.values - aux.values
    return PeriodicSystem(p.cell.with_body(p.cell.values + dv), p.period)


def gap_between(zs: list[Zone], k: int) -> float:
    """Width of the gap between zones k and k+1 (0 when they touch)."""
    if k < 1 or k >= len(zs):
        raise ValidationError(f"no gap {k} in a list of {len(zs)} zones")
    return max(0.0, zs[k].e_lo - zs[k - 1].e_hi)


def track_zone_shift(p: PeriodicSystem, aux_level: int, d_e_values, e_max: float) -> list[dict]:
    """Zone layout versus shift size: one row per d_e with edges and gap widths.

    Convenience wrapper for the gap-closure experiments; rows record the
    moving-edge position (the shifted auxiliary level) and the gap between
    the zones adjacent to it.  The auxiliary levels 1 .. aux_level must each
    lie in the closure of their own gap of the unshifted layout.  Every
    shifted cell is built first, and all the layouts are refined together
    (``_layouts``).
    """
    d_e_values = list(d_e_values)
    aux_states = bound_states(auxiliary_box(p), aux_level)
    shifted = [shift_zone(p, aux_level, d_e) for d_e in d_e_values if d_e != 0.0]
    base, *layouts = _layouts([p] + shifted, e_max)
    check_dirichlet_levels(base, [s.energy for s in aux_states], e_max)
    e_aux = aux_states[aux_level - 1].energy
    layouts = iter(layouts)
    return [_track_row(d_e, e_aux + d_e, next(layouts) if d_e != 0.0 else base)
            for d_e in d_e_values]


def bisect_gap_closure(p: PeriodicSystem, aux_level: int, rows, e_max: float):
    """Shift size at which the tracked gap closes, if the rows of `track_zone_shift`,
    the first at dE = 0, bracket it; each step is one more such row."""
    for a, b in zip(rows, rows[1:]):
        if a["tracked_gap"] > 0.0 and b["tracked_gap"] == 0.0:
            break
    else:
        return None
    lo, hi = a["dE"], b["dE"]
    while hi - lo > GAP_CLOSED:
        mid = 0.5 * (lo + hi)
        zs = zones(shift_zone(p, aux_level, mid), e_max) if mid != 0.0 else rows[0]["zones"]
        row = _track_row(mid, rows[0]["edge_energy"] + mid, zs)
        if row["tracked_gap"] == 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _track_row(d_e, edge, zs) -> dict:
    """The layout zs at shift d_e and the gap just above the moving edge
    (to 1e-6): 0.0 once that edge has merged into the zone above, or matches none."""
    tracked = 0.0
    for i, z in enumerate(zs):
        if abs(z.e_hi - edge) < 1e-6 and i + 1 < len(zs):
            tracked = zs[i + 1].e_lo - z.e_hi   # gap just above the moving edge
            break
        if abs(z.e_lo - edge) < 1e-6:
            break                               # edge merged into the upper zone
    gaps = [gap_between(zs, k) for k in range(1, len(zs))]
    return {"dE": float(d_e), "edge_energy": float(edge), "zones": zs, "gaps": gaps,
            "tracked_gap": float(tracked)}


def check_dirichlet_levels(zs: list[Zone], levels, e_max: float):
    """Raise NumericalFailure unless hard-wall level k lies in the closure of gap k.

    zs is the layout below e_max and levels the cell's hard-wall (Dirichlet)
    levels, lowest first.  Gap k runs from the top of zone k to the bottom of
    zone k + 1; where the layout stops below either, e_max or infinity
    stands in for it.  A level may lie up to EDGE_TOL outside.
    """
    for k, e in enumerate(levels, start=1):
        lo = zs[k - 1].e_hi if k <= len(zs) else e_max
        hi = zs[k].e_lo if k < len(zs) else math.inf
        if not lo - EDGE_TOL <= e <= hi + EDGE_TOL:
            raise NumericalFailure(
                f"hard-wall level {k} at E={e} lies outside the closure [{lo}, {hi}] of gap {k}"
            )
