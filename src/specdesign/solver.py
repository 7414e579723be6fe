"""Direct-problem solver: bound states, scattering and band discriminants.

Everything downstream (the transformation engine, band tools, CLI checks)
treats this module as the independent oracle: it only ever sees a sampled
Potential and recomputes spectra from scratch.

Method summary
--------------
* Numerov integration (O(h^4)) of -psi'' + V psi = E psi.  A sweep is
  forward substitution on the lower-banded system
  c[j+1] y[j+1] - (12 - 10 c[j]) y[j] + c[j-1] y[j-1] = 0 with the two start
  values fixed, solved by LAPACK ``dtbtrs`` in fixed-length chunks.  The
  carried pair is rescaled by a power of two between chunks and every node
  is brought to one such scale at the end, so deep exponential tails cannot
  overflow and the rescaling is exact.
* Bound states are integrated from both ends and matched at the rightmost
  classical turning point, which keeps the scheme stable inside deep
  classically forbidden tails; where a branch comes near a node there at
  the seed (as next to a hard wall), the match point moves left before the
  Cooley steps.  Matching only sweeps the left shot up to m + 1 and the
  right shot back to m - 1 (m the match node); the state is spliced from
  the left shot and a right shot reaching back to its peak.
* Level k is seeded by Richardson's extrapolation of the k-th eigenvalues
  of two finite-difference tridiagonals, on a coarse grid (at least 128
  intervals) and on the next coarser one, computed on its own so that no
  level depends on how many were asked for.  Newton steps on Cooley's
  correction (psi_L'(m) - psi_R'(m)) psi(m) / int psi^2 (J. W. Cooley,
  Math. Comp. 15, 363 (1961)) refine it until the signs of the corrections
  bracket it within 2e-11 max(1, |E|); the assembled state must have
  k - 1 nodes.  If that fails, the level is bracketed by node counts of
  the left shot (node theorem: level k has k - 1 nodes).  Either bracket
  is narrowed on its own signs (the correction's, or the node count's) at
  the boundaries of dyadic cells about 1e-11 max(1, |E|) wide, and the
  level is the centre of the cell that holds the sign change: a point
  that does not depend on the seed, nor, where the two signs agree, on
  the path.  Where the state assembled there has the wrong node count,
  the node-count path halves the cell until it has not.
* Inside ``oracle_scope()`` (the CLI opens one per run) the solved levels of
  each sampled potential are kept, keyed on its exact values, boundary kind,
  deltas and grid, and a repeated or shorter request is served
  from them; a longer one solves only the missing levels.  The scope also
  counts the oracle's work (``OracleWork.ledger``).
* Delta spikes enter exactly through the derivative jump
  psi'(x+) = psi'(x-) + g psi(x); they are never smeared.  Expanded about
  the kink, the jump adds h g (1 + h^2 (V - E) / 12) y[j] = h g (2 - c[j]) y[j]
  to the right side of the step from the spike's node j, with an O(h^5)
  local error like the recurrence's, so the banded solve runs straight through.
  Every sweep, scan and seed cell reads the spikes from the potential itself.
* Scattering scans sweep every energy at once, in Blatt's summed variables
  w = c y and D[j] = w[j] - w[j-1] (D[j+1] = D[j] + G[j] w[j] with
  G = h^2 (V - E) / c, which equals (12 - 10 c - 2 c) / c but sees E at full
  relative precision, not only in the steps of about 12 eps / h^2 that the
  rounded c resolves).  The steps are cut into up to 1024 segments (the
  count depends on the grid only); each segment's 2 x 2 map of (w, D) is
  found for a block of energies in one pass of numpy array steps, and the
  maps are chained by pairwise products rescaled by powers of two.  A run
  of neighbouring segments with the same samples and no spike (the zero
  body of a comb cell, the flat ends of a line) is stepped once, and each
  distinct pair of maps is multiplied once per level of the chain, where
  the runs number at most 3/4 of the segments; the products keep their
  bits.  y goes
  into (w, D) once, at the line's right end pair, and back at its left
  one, with c rounded as the banded solve rounds it.  A spike adds the
  same term, divided by c, to G at the step from its node.  Every energy's
  arithmetic is its own, so a one-energy call equals the same element of a
  longer scan bit for bit.  The energy blocks are swept on the calling
  thread and, where the process may run on a second CPU, one helper; the
  results do not depend on the thread count.  Where the longest segment
  holds 64 steps or more, each segment's map, analytic in E, is stepped
  only at 8 Chebyshev points of each dyadic energy cell that holds a
  requested energy, and interpolated to every energy of the cell in
  barycentric form (L. N. Trefethen, *Approximation Theory and
  Approximation Practice*, SIAM, 2013); cells near an energy where some c
  falls below 1/2 are stepped directly.
* Band discriminants are scans too: the cell, extended periodically by one
  node, is swept by the same segment maps for every energy at once, and
  Delta(E) is the trace of the one-period map of (w, D) pairs.  y is never
  converted: the conversion would use the same c at both ends and drop out
  of the trace.  An edge delta steps from the extended cell's node n - 1,
  and interior spikes stay where they are.  Cells that share a grid and
  deltas are swept as one stack, each energy on its own cell's row, so the
  rounds of several zone searches are one call, with the bits of separate
  ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
import itertools
import math
import os
import threading

import numpy as np

from ._lapack import dstebz, dtbtrs
from .errors import NumericalFailure, ValidationError
from .grid import SampledFn, integrate
from .potentials import DECAYING_HALF_LINE, DECAYING_LINE, Potential

#: nodes per banded solve; the carried pair is rescaled between chunks
_CHUNK = 4096
#: a sweep keeps the scale it was launched with unless a stretch (a run of
#: nodes at one scale) starts, or the sweep ends, above 2**_MAX_EXP (about
#: 1e250); then the highest of those sits there and the smallest values
#: underflow first.  Rounding lets a sweep fall only about 2**-26 below a
#: peak before it grows again, far less than the 2**193 left above
_MAX_EXP = 830


@dataclass(frozen=True)
class BoundState:
    """One bound level: 1-based label n, node count, energy, state, weight.

    swf is the spectral weight: psi'(x_min) for problems with a left wall,
    the right-tail norming constant (psi ~ swf * exp(-kappa x)) for
    decaying-line problems.
    """

    n: int
    nodes: int
    energy: float
    psi: SampledFn
    swf: float


@dataclass(frozen=True)
class ScatteringResult:
    energy: float
    R: complex
    T: complex
    k_left: float
    k_right: float

    @property
    def flux_defect(self) -> float:
        """|R|^2 + (k_R/k_L)|T|^2 - 1; zero for an exact solution."""
        return abs(self.R) ** 2 + (self.k_right / self.k_left) * abs(self.T) ** 2 - 1.0


class OracleWork:
    """Memo of bound-state solves and a ledger of the oracle's work, for one scope.

    The memo is keyed on the exact sampled values, boundary kind, deltas
    and grid, never on anything a transform reports.  The counts
    depend only on what was asked, so they repeat exactly for the same run.
    Scattering scans are counted in their own block, and zone searches
    count their discriminant evaluations; neither adds to ``numerov_calls``
    or ``nodes_swept``, since they make no ``_numerov`` sweep.
    """

    def __init__(self):
        self.memo: dict = {}
        self.calls = 0  # bound_states calls
        self.memo_hits = 0  # calls whose potential was already stored
        self.levels_solved = 0
        self.bracketed_levels = 0  # levels the Cooley steps left to node-count bisection
        self.cooley_steps = 0  # Cooley corrections evaluated before the cell search
        self.cell_steps = 0  # cell boundaries tested by either path
        self.numerov_calls = 0  # _numerov sweeps outside scattering scans, transforms' seeds included
        self.nodes_swept = 0
        self.level_numerov_calls = 0  # the share made inside bound_states
        self.level_nodes_swept = 0
        self.level_sweeps = 0.0  # that share in full-domain sweeps
        self.zone_calls = 0  # zone layouts found: one per zones call, one per layout of a track
        self.zone_edges_seeded = 0
        self.zone_evaluations = 0  # discriminant evaluations refining them
        self.zone_tangencies = 0  # closed gaps refined on dDelta/dE = 0
        self.zone_below_rounding = 0  # zones narrower than the rounding of Delta
        self.scattering_calls = 0  # scattering_curve calls
        self.scattering_energies = 0
        self.scattering_node_energies = 0
        self.scattering_segments = 0  # segments of their sweep layouts
        self.scattering_stepped = 0  # energies their segment maps were stepped at

    def ledger(self) -> dict:
        solved = max(1, self.levels_solved)
        return {
            "bound_states": {
                "calls": self.calls,
                "memo_hits": self.memo_hits,
                "levels_solved": self.levels_solved,
                "bracketed_levels": self.bracketed_levels,
                "cooley_steps": self.cooley_steps,
                "cell_steps": self.cell_steps,
                "numerov_calls": self.level_numerov_calls,
                "nodes_swept": self.level_nodes_swept,
                "sweeps_per_level": self.level_sweeps / solved,
                "numerov_calls_per_level": self.level_numerov_calls / solved,
            },
            "zones": {
                "calls": self.zone_calls,
                "edges_seeded": self.zone_edges_seeded,
                "evaluations": self.zone_evaluations,
                "tangencies": self.zone_tangencies,
                "below_rounding": self.zone_below_rounding,
            },
            "scattering": {
                "calls": self.scattering_calls,
                "energies": self.scattering_energies,
                "node_energies": self.scattering_node_energies,
                "segments": self.scattering_segments,
                "stepped_energies": self.scattering_stepped,
            },
            "numerov_calls": self.numerov_calls,
            "nodes_swept": self.nodes_swept,
        }


_WORK: ContextVar[OracleWork | None] = ContextVar("specdesign_oracle_work", default=None)


@contextmanager
def oracle_scope():
    """Open a fresh memo and work ledger for the calls made inside the block."""
    token = _WORK.set(OracleWork())
    try:
        yield _WORK.get()
    finally:
        _WORK.reset(token)


def current_work() -> OracleWork | None:
    """The ledger of the innermost open ``oracle_scope``, or None."""
    return _WORK.get()


# ---------------------------------------------------------------------------
# low-level propagation


def _taylor_step(y, dy, hs, f0, df0, ddf0):
    """y(x + hs) from (y, y') at x, using y'' = f y (4th order)."""
    return (
        y
        + hs * dy
        + 0.5 * hs * hs * f0 * y
        + hs**3 / 6.0 * (df0 * y + f0 * dy)
        + hs**4 / 24.0 * (ddf0 * y + 2.0 * df0 * dy + f0 * f0 * y)
    )


def _start_derivs(v, h):
    """dV/dx and d2V/dx2 at node 0 by one-sided finite differences."""
    dv = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    ddv = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    return dv, ddv


def _onesided_slope(y, h, at_start):
    """O(h^5) six-point one-sided derivative at an array end."""
    if at_start:
        return (-137.0 * y[0] + 300.0 * y[1] - 300.0 * y[2] + 200.0 * y[3]
                - 75.0 * y[4] + 12.0 * y[5]) / (60.0 * h)
    return (137.0 * y[-1] - 300.0 * y[-2] + 300.0 * y[-3] - 200.0 * y[-4]
            + 75.0 * y[-5] - 12.0 * y[-6]) / (60.0 * h)


def _centred_slope(y0, y2, f0, f2, h: float):
    """dy/dx midway between (y0, f0) and (y2, f2), 2 h apart, on a solution of y'' = f y:
    the centred difference corrected with the known second derivative, O(h^4)."""
    return (y2 - y0) / (2.0 * h) - (h / 12.0) * (f2 * y2 - f0 * y0)


def derivative_samples(y: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """dy/dx at every node for a solution of y'' = f y, O(h^4).

    Interior nodes use ``_centred_slope``; ends fall back to one-sided
    six-point stencils.
    """
    d = np.empty_like(y)
    d[1:-1] = _centred_slope(y[:-2], y[2:], f[:-2], f[2:], h)
    d[0] = _onesided_slope(y, h, True)
    d[-1] = _onesided_slope(y, h, False)
    return d


def _numerov(v, h, energy, y0, y1, jumps=()):
    """Numerov solution of -y'' + V y = E y across the sample array v.

    y0 and y1 are the values at nodes 0 and 1.  jumps lists (node, strength)
    pairs with 1 <= node <= n - 2: the slope jumps by strength * y at that
    node, which adds the term h strength (2 - c[j]) y[j] to the step from
    it.  A chunk that overflows is solved again in halves.

    Returns (y, e) with the solution equal to y * 2**e at every node.
    """
    n = len(v)
    work = _WORK.get()
    if work is not None:
        work.numerov_calls += 1
        work.nodes_swept += n
    c = 1.0 - h * h * (v - energy) / 12.0
    ab = np.empty((3, n), order="F")  # lower band: diagonal, first and second subdiagonal
    ab[0] = c
    ab[1] = 10.0 * c - 12.0
    for j, strength in jumps:
        ab[1, j] -= h * strength * (2.0 - c[j])
    ab[2] = c
    y = np.empty(n)
    y[:2] = y0, y1
    pair = y[:2].copy()  # the last two values, at scale 2**e
    e = 0
    scales = [(0, 0)]  # (first node, exponent) of each stretch of y
    pos, length = 2, _CHUNK
    while pos < n:
        stop = min(n, pos + length)
        rhs = np.zeros(stop - pos)
        rhs[0] = -ab[1, pos - 1] * pair[1] - c[pos - 2] * pair[0]
        if stop - pos > 1:
            rhs[1] = -c[pos - 1] * pair[1]
        x, info = dtbtrs(ab[:, pos:stop], rhs, uplo="L", overwrite_b=1)
        if info > 0:
            raise NumericalFailure(f"Numerov coefficient vanishes at node {pos + info - 1}")
        if stop - pos > 1 and not math.isfinite(x[-1]):
            length = (stop - pos) // 2
            continue
        length = _CHUNK
        y[pos:stop] = x
        pair = np.concatenate((pair, x[-2:]))[-2:]
        pos = stop
        if pos < n:
            s = math.frexp(np.abs(pair).max())[1]
            if s:
                pair = np.ldexp(pair, -s)
                e += s
                scales.append((pos, e))
    exps = [s for _, s in scales]
    top = max(max(exps), e + math.frexp(np.abs(pair).max())[1])
    ref = max(min(exps), top - _MAX_EXP)
    for (a, s), (b, _) in zip(scales, scales[1:] + [(n, 0)]):
        if s != ref:
            y[a:b] = np.ldexp(y[a:b], s - ref)
    return y, ref


def _launch(v, h, energy, y0, dy0):
    """_numerov started from (value, slope) = (y0, dy0) at node 0 of v."""
    dv, ddv = _start_derivs(v, h)
    y1 = _taylor_step(y0, dy0, h, v[0] - energy, dv, ddv)
    return _numerov(v, h, energy, y0, y1)


def _unit(y: np.ndarray) -> np.ndarray:
    """y rescaled by a power of two (exactly) to a peak magnitude in [0.5, 1)."""
    return np.ldexp(y, -math.frexp(np.max(np.abs(y)))[1])


def _count_sign_changes(y) -> int:
    """Sign changes of y, zeros carried through; the last sample counts."""
    y = np.asarray(y)
    positive = y[y != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def _sweep(v: Potential, energy, from_left: bool, reach=None) -> np.ndarray:
    """Solution regular at one edge (wall zero or decaying tail), in grid order.

    Only the `reach` nodes nearest the starting edge are swept (all by
    default); forward substitution on a prefix gives the same numbers as on
    the whole array, up to an exact power-of-two scale.  The overall positive
    scale is arbitrary.  v's delta spikes jump the slope; one within 5 nodes
    of an edge is a ValidationError.
    """
    h = v.grid.h
    n = v.grid.n_points
    reach = n if reach is None else reach
    y0, y1 = 0.0, h
    if v.bc_kind == DECAYING_LINE or (v.bc_kind == DECAYING_HALF_LINE and not from_left):
        kap2 = (v.values[0] if from_left else v.values[-1]) - energy
        if kap2 <= 0.0:
            side = "left" if from_left else "right"
            raise ValidationError(f"energy {energy} not below the {side} continuum edge")
        y0, y1 = 1.0, math.exp(math.sqrt(kap2) * h)
    deltas = v.delta_nodes(interior_only=True)
    # a jump on the last swept node would only act beyond it
    if from_left:
        jumps = [(j, g) for j, g in deltas if j <= reach - 2]
        return _numerov(v.values[:reach], h, energy, y0, y1, jumps)[0]
    mirrored = [(n - 1 - j, g) for j, g in reversed(deltas) if n - 1 - j <= reach - 2]
    return _numerov(v.values[::-1][:reach], h, energy, y0, y1, mirrored)[0][::-1]


def _node_count(v: Potential, energy) -> int:
    """Nodes of the left shot at `energy`: level k lies above `energy` where this is below k.

    The full range matters: near-degenerate pairs press nodes into the final
    grid interval, and the terminal sample still carries their sign.  On a
    decaying right end a node beyond the last node counts too: the shot has
    one there when its mismatch against the decaying tail,
    y[n-2] - e^(kappa h) y[n-1], has the sign of y[n-1] (the signs are
    compared, since a product of two rescaled values can overflow).
    """
    y = _sweep(v, energy, True)
    count = _count_sign_changes(y)
    kap2 = v.values[-1] - energy
    if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE) and kap2 > 0.0:
        last = float(y[-1])
        tail = float(y[-2]) - math.exp(math.sqrt(kap2) * v.grid.h) * last
        count += tail != 0.0 and (tail > 0.0) == (last > 0.0)
    return count


#: fewest intervals of a coarse finite-difference cell (``_fd_cell``), fewer only
#: on a grid with fewer
_SEED_INTERVALS = 128


def _fd_cell(v: Potential, m: int) -> tuple[np.ndarray, float]:
    """The diagonal of v's finite-difference Hamiltonian on m coarse intervals, at
    coarse nodes 0..m-1, and their spacing h.

    Node c takes V from the sample nearest to it.  Every delta goes on the
    diagonal of its nearest coarse node as g/h; node m counts as node 0, as
    on a periodic cell.
    """
    g = v.grid
    intervals = g.n_points - 1
    h = (g.x_max - g.x_min) / m
    diag = v.values[np.rint(np.arange(m) * (intervals / m)).astype(int)] + 2.0 / h**2
    for j, strength in v.delta_nodes(interior_only=False):
        diag[round(j * m / intervals) % m] += strength / h
    return diag, h


def _seed_matrices(v: Potential) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Finite-difference Hamiltonians (diagonal, off-diagonal, stride) on two coarse grids.

    The fine grid takes every s-th node, s the largest divisor of the
    interval count that leaves at least _SEED_INTERVALS intervals, and the
    coarse grid every t-th, t the next divisor above s.  Each drops the
    walls from the ``_fd_cell`` of its interval count.  The eigenvalues are
    O((s h)^2) estimates that ``_fd_estimate`` extrapolates.  (The LAPACK
    wrapper wants one off-diagonal element even for a one-row matrix.)
    """
    intervals = v.grid.n_points - 1
    s = max(1, intervals // _SEED_INTERVALS)
    while intervals % s:
        s -= 1
    t = s + 1
    while intervals % t:
        t += 1
    matrices = []
    for stride in (s, t):
        diag, h = _fd_cell(v, intervals // stride)
        matrices.append((diag[1:], np.full(max(1, diag.size - 2), -1.0 / h**2), stride))
    return matrices


def _eigenvalue(diag: np.ndarray, off: np.ndarray, k: int) -> float:
    """The k-th eigenvalue of a symmetric tridiagonal matrix, by one ``dstebz`` index
    search; past its last row, the last eigenvalue plus the missing count."""
    top = min(k, diag.size)
    found, w, _, _, info = dstebz(diag, off, 3, 0.0, 0.0, top, top, 0.0, "E")
    if info or found != 1:
        raise NumericalFailure(f"finite-difference estimate of level {k} failed (info {info})")
    return float(w[0]) + k - top


def _fd_estimate(fd: list[tuple[np.ndarray, np.ndarray, int]], k: int) -> float:
    """Seed for level k: Richardson's extrapolation (r E_fine - E_coarse) / (r - 1).

    E_fine and E_coarse are the k-th eigenvalues of the two matrices of
    ``_seed_matrices`` and r = (h_coarse / h_fine)^2 (L. F. Richardson and
    J. A. Gaunt, Phil. Trans. R. Soc. A 226, 299 (1927)): the O(h^2) errors
    cancel and leave a fourth-order estimate.  Where the coarse matrix has
    fewer than k rows, the seed is E_fine.  Level k is computed on its own,
    so the seed does not depend on how many levels a call asks for; nor does
    any level, since both refinements end on a point that does not depend on
    the seed (``_cell_centre``).
    """
    (diag, off, s), (coarse_diag, coarse_off, t) = fd
    fine = _eigenvalue(diag, off, k)
    if coarse_diag.size < k:
        return fine
    r = (t / s) ** 2
    return (r * fine - _eigenvalue(coarse_diag, coarse_off, k)) / (r - 1.0)


def _match_index(v: Potential, energy) -> int:
    """Rightmost classical turning point, clipped away from the edges.

    The node of a negative spike of v counts as allowed: a delta well binds
    its state there even where V > E on every node.
    """
    allowed = np.nonzero(v.values <= energy)[0]
    wells = [j for j, strength in v.delta_nodes(interior_only=True) if strength < 0]
    n = v.grid.n_points
    m = max(allowed[-1:].tolist() + wells, default=n // 2)
    return min(max(m, 4), n - 5)


class _Matcher:
    """Shoot-and-match at an interior node m from two half-domain sweeps.

    The left shot covers nodes 0 .. m+1 and the right shot m-1 .. N-1: all
    that the match-point test and the Cooley correction read.  The last
    pair of shots is kept.
    """

    def __init__(self, v: Potential, m: int):
        self.v = v
        self.h = v.grid.h
        self.m = m
        self._last = None

    def sweeps(self, energy):
        """(yl, yr): yl[i] is node i, yr[i] is node m - 1 + i."""
        if self._last is None or self._last[0] != (energy, self.m):
            n = self.v.grid.n_points
            yl = _sweep(self.v, energy, True, self.m + 2)
            yr = _sweep(self.v, energy, False, n - self.m + 1)
            self._last = (energy, self.m), yl, yr
        return self._last[1:]

    def correction(self, energy) -> float:
        """Cooley's energy correction (psi_L'(m) - psi_R'(m)) psi(m) / int psi^2.

        Both branches are scaled to 1 at m; the match-point test keeps that
        scaling within a factor 1e3 of each branch's peak.  The sums of squares
        are einsum reductions, not BLAS dots: those split across threads above
        10,000 elements, which stalls and makes the rounding depend on the
        thread count.
        """
        yl, yr = self.sweeps(energy)
        m = self.m
        left = yl / yl[m]
        right = yr / yr[1]
        f0, f2 = self.v.values[m - 1] - energy, self.v.values[m + 1] - energy
        dl = _centred_slope(left[m - 1], left[m + 1], f0, f2, self.h)
        dr = _centred_slope(right[0], right[2], f0, f2, self.h)
        left, right = left[: m + 1], right[2:]
        norm = self.h * (np.einsum("i,i", left, left) + np.einsum("i,i", right, right))
        return float((dl - dr) / norm)

    def good_match_point(self, energy) -> bool:
        yl, yr = self.sweeps(energy)
        m = self.m
        peak_l = np.max(np.abs(yl[: m + 1]))
        peak_r = np.max(np.abs(yr[1:]))
        return bool(abs(yl[m]) > 1e-3 * peak_l and abs(yr[1]) > 1e-3 * peak_r)

    def state(self, energy) -> tuple[np.ndarray, int]:
        """Normalised spliced state at `energy` and its interior node count."""
        yl, yr = self.sweeps(energy)
        m, start = self.m, self.m - 1  # yr[i] is node start + i
        # splice at the dominant lobe left of the turning point, not at the
        # turning point itself: the tiny slope jump between the branches then
        # lands where relative errors (and u'/u) are smallest
        peak = 4 + int(np.argmax(np.abs(yl[4 : m + 1])))
        if peak < start:
            n = self.v.grid.n_points
            yr, start = _sweep(self.v, energy, False, n - peak), peak
        if abs(yr[peak - start]) > 1e-6 * np.max(np.abs(yr[peak - start :])):
            m = peak
        y = _unit(np.concatenate((yl[:m], (yl[m] / yr[m - start]) * yr[m - start :])))
        return _normalised(self.v.grid, energy, y), _count_sign_changes(y[1:-1])


def _first_lobe_positive(y: np.ndarray) -> np.ndarray:
    """Sign convention of every state: y or -y, positive where |y| first tops 5% of its peak."""
    peak = np.max(np.abs(y))
    first = np.nonzero(np.abs(y) > 0.05 * peak)[0][0]
    return -y if y[first] < 0 else y


def _normalised(grid, energy, y: np.ndarray) -> np.ndarray:
    """y divided by its grid norm, then signed by `_first_lobe_positive`."""
    try:
        norm = integrate(SampledFn(grid, y * y))
    except ValidationError as exc:  # y * y is not finite: a fault of the sweep, not of its input
        raise NumericalFailure(f"state at E={energy} is not finite") from exc
    if norm <= 0 or not math.isfinite(norm):
        raise NumericalFailure(f"state at E={energy} has invalid norm {norm}")
    return _first_lobe_positive(y / math.sqrt(norm))


def _state_swf(v: Potential, energy, psi: np.ndarray) -> float:
    h = v.grid.h
    if v.bc_kind == DECAYING_LINE:
        kappa = math.sqrt(v.values[-1] - energy)
        j = v.grid.n_points - 6
        return float(psi[j] * math.exp(kappa * v.grid.x[j]))
    return float(_onesided_slope(psi, h, True))


#: evaluations secant_steps makes before it gives up
_SECANT_EVALS = 200


def secant_steps(lo, f_lo, hi, f_hi, x, xtol):
    """Sign change of f in [lo, hi], where f_lo = f(lo) and f_hi = f(hi) differ in sign.

    A generator: it yields each point at which it needs f, is sent f there,
    and returns the root, so that a caller can evaluate several searches at
    once.  Secant steps through the last two points, starting from x and
    the nearer end.  A step that would leave the bracket bisects it instead,
    as does every third step if the last three have not halved the bracket.
    Only the bracket ends the search: a secant step shorter than xtol / 2
    is lengthened by xtol / 2 past its estimate, so that the next point
    closes the bracket if f is smooth there.  Once the bracket is xtol wide
    the root is interpolated linearly between its ends: within xtol of the
    sign change even where f is a staircase whose flat steps send the
    secant astray, and far closer where f is smooth.
    """
    if (f_lo > 0) == (f_hi > 0):
        raise NumericalFailure(f"no sign change between {lo} and {hi}")
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    prev, f_prev = (lo, f_lo) if x - lo < hi - x else (hi, f_hi)
    width = hi - lo
    for i in range(_SECANT_EVALS):
        if hi - lo <= xtol:
            return lo - f_lo * (hi - lo) / (f_hi - f_lo)
        fx = yield x
        if fx == 0.0:
            return x
        if (fx > 0) == (f_lo > 0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        step = -fx * (x - prev) / (fx - f_prev) if fx != f_prev else math.nan
        if abs(step) < 0.5 * xtol:
            step += math.copysign(0.5 * xtol, step)
        nxt = x + step
        if i % 3 == 2:
            if hi - lo > 0.5 * width:
                nxt = math.nan
            width = hi - lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        prev, f_prev, x = x, fx, nxt
    raise NumericalFailure(f"no root within {xtol} after {_SECANT_EVALS} evaluations in [{lo}, {hi}]")


#: Cooley steps tried from the finite-difference seed before node-count bisection
_COOLEY_STEPS = 12
#: levels are refined to |dE| < this times max(1, |E|)
_REL_TOL = 1e-11


def _cell_width(lo: float, hi: float) -> float:
    """u = 2^floor(log2(2 xtol)), xtol = _REL_TOL M, for the bracket [lo, hi].

    M is the power of two at or below max(1, |E|), E the point of the bracket
    nearest zero: u is set by the binade, so it changes only at powers of
    two, which are boundaries of every cell, and a bracket's u is at most
    that of any point in it.
    """
    near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return math.ldexp(1.0, math.frexp(2.0 * _REL_TOL)[1] + math.frexp(max(1.0, near))[1] - 2)


def _cell_centre(lo: float, hi: float, below, halvings: int = 0) -> tuple[float, float, float]:
    """(centre, lo, hi): the centre of the dyadic cell [j u, (j + 1) u] that
    holds the sign change in [lo, hi], and the bracket narrowed to that cell.

    below(E) says whether E lies below the level (the signs at lo and hi are
    taken as known).  The cell boundaries inside the bracket are tested,
    nearest the middle first, until lo and hi share a cell of
    ``_cell_width``; that cell lies in one binade, and u is the binade's own
    width, a multiple of the first, halved `halvings` times.  The centre is
    within u / 2 <= xtol of the sign change and depends only on the sign of
    below at the boundaries, never on where the bracket came from.
    """
    work = _WORK.get()

    def narrow(lo, hi, u):
        while True:
            a, b = math.floor(lo / u), math.ceil(hi / u)
            if b - a <= 1:
                return lo, hi
            mid = (a + b) // 2 * u
            if not lo < mid < hi:  # a cell finer than the doubles about E
                return lo, hi
            if work is not None:
                work.cell_steps += 1
            if below(mid):
                lo = mid
            else:
                hi = mid

    lo, hi = narrow(lo, hi, _cell_width(lo, hi))
    u = math.ldexp(_cell_width(lo, hi), -halvings)
    lo, hi = narrow(lo, hi, u)
    return (math.floor(lo / u) + 0.5) * u, lo, hi


class _Spectrum:
    """The bound levels of one potential solved so far, lowest first.

    Levels are solved one at a time and each depends only on the potential
    and its index, so a stored prefix equals a fresh solve bit for bit.
    Level k starts from its Richardson seed (``_fd_estimate``); Cooley steps
    refine it (``_cooley``), and node-count bisection (``_bracketed``) takes
    over where they fail.  Both end on the same point, the centre of the
    dyadic cell that holds the sign change (``_cell_centre``), so the seed
    does not reach the level's digits, and assemble the state there.
    """

    def __init__(self, v: Potential):
        self.v = v
        self.levels: list[BoundState] = []
        self.e_top = None
        self.n_exist = math.inf
        self._fd = None
        if v.bc_kind in (DECAYING_LINE, DECAYING_HALF_LINE):
            edge = v.continuum_edge()
            self.e_top = edge - 1e-9 * max(1.0, abs(edge))
            self.n_exist = _node_count(v, self.e_top)

    def first(self, count: int) -> list[BoundState]:
        while len(self.levels) < min(count, self.n_exist):
            self.levels.append(self._solve(len(self.levels) + 1))
        return self.levels[:count]

    def _solve(self, k: int) -> BoundState:
        v = self.v
        if self._fd is None:
            self._fd = _seed_matrices(v)
        e0 = _fd_estimate(self._fd, k)
        if self.e_top is not None:
            e0 = min(e0, self.e_top)
        found = self._cooley(k, e0, self._matcher(e0))
        work = _WORK.get()
        if work is not None:
            work.levels_solved += 1
            work.bracketed_levels += found is None
        energy, psi = found or self._bracketed(k, e0)
        psi.flags.writeable = False
        return BoundState(n=k, nodes=k - 1, energy=float(energy), psi=SampledFn(v.grid, psi),
                          swf=_state_swf(v, energy, psi))

    def _matcher(self, energy) -> _Matcher:
        """Matcher at the turning point of `energy`, moved left until neither
        branch is near a node there."""
        v = self.v
        matcher = _Matcher(v, _match_index(v, energy))
        for _ in range(12):
            if matcher.good_match_point(energy):
                break
            matcher.m = max(4, matcher.m - max(1, v.grid.n_points // 40))
        return matcher

    def _cooley(self, k: int, e0: float, matcher: _Matcher):
        """(energy, state) of level k by Cooley steps from the seed e0 at the
        match point `matcher` (``_matcher``, picked at e0), or None.

        Newton steps on Cooley's correction, kept inside the interval that
        the signs of the corrections seen so far bracket, and halving it
        where a step would leave it, until that interval is 2 xtol wide;
        then the correction's sign picks the cell (``_cell_centre``), and
        the state is assembled at its centre.  The sign change is what ends
        the search, not a small step: the Numerov coefficients
        1 - h^2 (V - E) / 12 resolve E only to about 12 eps / h^2, so over
        stretches of a few 1e-10 the correction can be flat or point at a
        root that is not there.  Corrections that have not halved the last
        move for two steps in a row are crawling across such a plateau, and
        the crawl-th such step in a row is lengthened by 2^(crawl - 1).  A
        root predicted closer than xtol is stepped past, to the next cell
        boundary; the match point stays put.  None (and node-count bisection
        takes over) when this leaves the bound region or does not end in a
        state with k - 1 nodes.
        """
        work = _WORK.get()
        energy, last, crawl = e0, math.inf, 0
        top = math.inf if self.e_top is None else self.e_top
        lo, hi = -math.inf, top
        for _ in range(_COOLEY_STEPS):
            if work is not None:
                work.cooley_steps += 1
            step = matcher.correction(energy)
            if not math.isfinite(step):
                return None
            if step >= 0.0:
                lo = energy
            if step <= 0.0:
                hi = energy
            xtol = _REL_TOL * max(1.0, abs(energy))
            if hi - lo <= 2 * xtol:
                energy = _cell_centre(lo, hi, lambda e: matcher.correction(e) > 0)[0]
                psi, nodes = matcher.state(energy)
                return (energy, psi) if nodes == k - 1 else None
            crawl = 0 if abs(step) <= 0.5 * last else crawl + 1
            move = math.ldexp(step, max(0, crawl - 1))
            target = energy + move
            if abs(move) < xtol:
                # so that the next correction changes sign, on a boundary
                u = _cell_width(target, target)
                target = (math.ceil(target / u) if step > 0 else math.floor(target / u)) * u
                if target == energy:
                    target += math.copysign(u, step)
            # a crawling step is taken while the bracket is wide against it
            if lo < target < hi and (crawl == 0 or hi - lo > 4 * abs(move)):
                energy, last = target, abs(step)
            elif math.isinf(hi - lo):
                return None
            else:
                energy, last = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return None

    def _bracketed(self, k: int, e0: float):
        """(energy, state) of level k from the node count.

        The bracket about e0 widens until the left shot has at most k - 1
        nodes at its low end and at least k at its high end (node theorem);
        then the node count picks the cell (``_cell_centre``), and the state
        is assembled at its centre.  Where that state has not k - 1 nodes, as
        at a doublet closer than the cell, the cell is halved about the sign
        change until it has, or until the bracket is a few ulps wide.
        """
        v, e_top = self.v, self.e_top
        width = max(1e-6, 1e-4 * max(1.0, abs(e0)))
        for _ in range(80):
            lo, hi = e0 - width, e0 + width
            if e_top is not None:
                hi = min(hi, e_top)
            if _node_count(v, lo) <= k - 1 and _node_count(v, hi) >= k:
                break
            width *= 3.0
        else:
            raise NumericalFailure(f"could not bracket level {k} near E={e0}")
        for halvings in itertools.count():
            energy, lo, hi = _cell_centre(lo, hi, lambda e: _node_count(v, e) <= k - 1, halvings)
            psi, nodes = self._matcher(energy).state(energy)
            if nodes == k - 1:
                return energy, psi
            if hi - lo <= 2 * math.ulp(energy):
                raise NumericalFailure(
                    f"level {k}: assembled state has {nodes} nodes (expected {k - 1})"
                )


def bound_states(v: Potential, count: int) -> list[BoundState]:
    """The lowest `count` bound states of a potential, ordered by energy.

    Energies are refined to |dE| < 1e-11 max(1, |E|): each is the centre of
    the dyadic cell, about that wide, that holds the sign change of the
    Cooley correction or of the node count, so it does not depend on the
    finite-difference seed it started from.  For decaying
    boundary kinds only the levels genuinely below the continuum edge are
    returned, so the list may be shorter than requested.  The state arrays
    are read-only.  Inside an ``oracle_scope`` the levels of each sampled
    potential are kept and a repeated request is served from them; the
    result is the same, bit for bit.

    Raises
    ------
    ValidationError
        for bad arguments or deltas too close to the domain edge.
    NumericalFailure
        if bracketing or refinement fails to converge.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if v.grid.n_points < 11:
        raise ValidationError("grid too coarse for the shooting solver (need >= 11 points)")
    work = _WORK.get()
    if work is None:
        return _Spectrum(v).first(count)
    key = (v.values.tobytes(), v.bc_kind, v.deltas, v.grid)
    spectrum = work.memo.get(key)
    work.calls += 1
    work.memo_hits += spectrum is not None
    calls, nodes = work.numerov_calls, work.nodes_swept
    try:
        if spectrum is None:
            spectrum = work.memo[key] = _Spectrum(v)
        return spectrum.first(count)
    finally:
        work.level_numerov_calls += work.numerov_calls - calls
        work.level_nodes_swept += work.nodes_swept - nodes
        work.level_sweeps += (work.nodes_swept - nodes) / v.grid.n_points


# ---------------------------------------------------------------------------
# scattering


#: a scattering sweep is cut into at most this many segments ...
_SEGMENTS = 1024
#: ... of at least this many steps each
_SEGMENT_STEPS = 8
#: energies are swept in blocks whose arrays of (energy, map of the chain plan's
#: widest level) and of (energy, Chebyshev point) hold about this many doubles
_BLOCK_DOUBLES = 2**14
#: blocks are swept on at most this many threads.  Each thread holds one block
#: in flight (1.7 MB for a 1024-segment scan), so this caps the scan's memory
#: whatever the host's CPU count.  More threads were timed on 2 CPUs only,
#: where 3, 4 and 8 were slower than 2 and held 5.0, 6.6 and 12.8 MB
_SCAN_THREADS = 2
#: the segments' (w, D) values are rescaled by powers of two, to a peak below 1,
#: after every this many steps.  G = q / c with q = h^2 (V - E) and c = 1 - q / 12,
#: each operation rounded: a nonzero c is at least 2**-53 in magnitude (1 - x is
#: exact for x near 1), and |q| <= 12 (1 + |c|) (1 + 2 eps), so |G| <= (12 / |c| + 12)
#: (1 + 3 eps) < 2**57 - 2 whatever the size of c.  One step grows max(|w|, |D|) by
#: at most 2 + |G| < 2**57: this many steps, from the unit start pairs, to less than
#: 2**912; the kernel converts nothing.  A spike adds h |g| |2 - c| / |c| to |G| at
#: its step, which no bound on c limits.  So the step before a spike step, and the
#: spike step itself, also end with a rescale: every spike step starts from a peak
#: of at most 1, and the maps stay finite while its own 2 + |G| is below 2**1023, as
#: it is for a spike whose term is below 2**1022, however close the next spike lies.
#: Past that the scan reports an overflow.
_RESCALE_STEPS = 16
#: ``_propagator`` steps one segment per run of equal neighbouring segments only
#: where the runs number at most this share of the segments.  Each level of
#: the chain then gathers its distinct pairs, which costs about half of what their
#: products cost.  Shared over unshared time of 40-energy scans of 19,109-node lines
#: whose runs numbered 0.5, 0.75, 0.85 and 0.97 of the segments: 0.73-0.76,
#: 0.86-0.87, 1.03-1.05 and 1.02-1.05; of the 181-energy ``bsec-scan`` scan (1002
#: runs of 1024 segments) 1.01-1.02 (2 vCPUs, two sessions of 30 shuffled rounds)
_SHARED_RUNS = 0.75
#: ``_segment_maps`` forms c and G for this many steps per numpy call, which cuts
#: the calls that hold the GIL; one step per call made a 40-energy scan of a
#: 19,109-node line 7-8% slower, and a 501-energy comb discriminant 3-6% (2 vCPUs)
_PASS_STEPS = 2


def _segment_bounds(steps: int) -> np.ndarray:
    """First step of each segment, then one past the last step.

    Step j (1 <= j <= steps) makes node j + 1.  The count depends on the
    step count only; the longer segments (one step more) come first, so the
    last step of a sweep acts on a contiguous prefix of the segments.
    """
    count = max(1, min(_SEGMENTS, steps // _SEGMENT_STEPS))
    length, extra = divmod(steps, count)
    sizes = np.full(count, length)
    sizes[:extra] += 1
    return np.concatenate(([1], 1 + np.cumsum(sizes)))


def _rescaled(m, exps):
    """m (2, 2, ...) and exps, each matrix rescaled in place by 2**k to a peak in [0.5, 1)."""
    peak = np.abs(m).max(axis=(0, 1))
    s = np.empty(peak.shape, dtype=np.intc)
    np.frexp(peak, out=(peak, s))
    np.negative(s, out=s)
    np.ldexp(m, s, out=m)
    exps -= s
    return m, exps


def _segment_maps(v, h, energies, rows, bounds, jumps, segments) -> tuple[np.ndarray, np.ndarray]:
    """Numerov map of each of the `segments` for every energy, in Blatt's variables.

    The recurrence c[j+1] y[j+1] = (12 - 10 c[j]) y[j] - c[j-1] y[j-1],
    c = 1 - h^2 (V - E) / 12, is stepped in w[j] = c[j] y[j] and
    D[j] = w[j] - w[j-1] (J. M. Blatt, J. Comput. Phys. 1, 382 (1967)):

        D[j+1] = D[j] + G[j] w[j],  w[j+1] = w[j] + D[j+1],  G[j] = h^2 (V[j] - E) / c[j],

    which is the same equation, but rounds w against itself only where the
    small D[j+1] is added.  G = (12 - 12 c) / c is formed from h^2 (V - E),
    not from the rounded c, so E enters it at full relative precision
    however close c lies to 1.  A pair's (w, D) depends on that pair alone,
    so each segment's map takes (w, D) at its start pair to (w, D) at its end
    pair, and neighbouring maps multiply as they are: all segments step at
    once from (w, D) = (1, 0) and (0, 1).  v holds one potential per row and
    energy i sweeps row rows[i]; each run of energies on one row costs one
    subtraction per pass, so energies grouped by row cost fewest.  jumps lists
    (node, strength) pairs of delta spikes, the same on every row: step t of
    segment s sweeps node bounds[s] + t, and a spike g on that node adds
    ``_numerov``'s term h g (2 - c) divided by c to G there.  The steps run
    in one sequence, t = 0, 1, ..., the last of them (t = the shorter
    segments' length) on the longer segments alone; each pass of the loop
    forms c and G for ``_PASS_STEPS`` of them, and (w, D) is rescaled after
    the steps that ``_RESCALE_STEPS`` names.  A segment's map depends on its
    length, its samples, its spikes, h and E alone, so only the segments
    listed in `segments` (ascending, every spiked one among them) are
    stepped.  Returns their maps, shape (2, 2, E, S), at scale 2**exps.
    """
    length, extra = divmod(int(bounds[-1] - bounds[0]), bounds.size - 1)
    starts = bounds[segments]
    count = starts.size
    extra = int(np.searchsorted(segments, extra))  # the longer segments stepped
    e = energies[:, None]
    hh = h * h
    cuts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1), rows.size]
    # (potential, its energies, their index in (..., E, S) arrays) of each run
    runs = [(v[rows[lo]], e[lo:hi], np.s_[..., lo:hi, :]) for lo, hi in zip(cuts, cuts[1:])]
    spikes = {}  # step -> [(segment, strength)] of the spikes it sweeps
    for j, strength in jumps:
        first = int(np.searchsorted(bounds, j, side="right")) - 1
        spikes.setdefault(j - int(bounds[first]), []).append(
            (int(np.searchsorted(segments, first)), strength))

    def coefficients(nodes, c, g):
        """c = 1 - h^2 (V - E) / 12 into c and G = h^2 (V - E) / c into g, at nodes
        (..., S) for arrays (..., E, S).  c is rounded as ``_numerov`` rounds it."""
        for potential, run_e, at in runs:
            np.subtract(potential[nodes][..., None, :], run_e, out=g[at])
        g *= hh
        np.divide(g, 12.0, out=c)
        np.subtract(1.0, c, out=c)
        g /= c

    shape = (energies.size, count)
    out = np.zeros((2, 2) + shape)
    out[0, 0] = out[1, 1] = 1.0
    w, d = out  # rows (w, D) of the maps' two columns, stepped in place
    c, g = np.empty((_PASS_STEPS,) + shape), np.empty((_PASS_STEPS,) + shape)
    tmp = np.empty_like(w)
    ahead = np.arange(_PASS_STEPS)[:, None]
    exps = scale = np.zeros(shape, dtype=int)  # scale: exps, or its part the last step moves
    s = np.empty(shape, dtype=np.int32)
    steps = length + (extra > 0)
    for t in range(0, steps, _PASS_STEPS):
        k = min(_PASS_STEPS, steps - t)  # steps t, t + 1, ...; the last pass may hold fewer
        # on every segment; the last step's past the longer segments go unused
        coefficients(starts + t + ahead[:k], c[:k], g[:k])
        for i, j in enumerate(range(t, t + k)):
            if j in spikes:  # their terms h g (2 - c) / c, added to G
                spiked, strengths = map(list, zip(*spikes[j]))
                at = c[i][:, spiked]
                g[i][:, spiked] += h * np.array(strengths) * (2.0 - at) / at
            if j == length:  # the last step moves the longer segments alone
                g, w, d, tmp, s, scale = (a[..., :extra] for a in (g, w, d, tmp, s, scale))
            np.multiply(g[i], w, out=tmp)  # step j
            d += tmp
            w += d
            if (j + 1) % _RESCALE_STEPS == 0 or j in spikes or j + 1 in spikes:
                peak = g[i]  # spent by the step
                np.abs(w, out=tmp)
                np.maximum(tmp[0], tmp[1], out=peak)
                np.abs(d, out=tmp)
                np.maximum(tmp[0], tmp[1], out=tmp[0])
                np.maximum(peak, tmp[0], out=peak)
                np.frexp(peak, out=(peak, s))
                np.negative(s, out=s)
                np.ldexp(w, s, out=w)
                np.ldexp(d, s, out=d)
                scale -= s
    return out, exps


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_cpus(task, items) -> None:
    """task(item) for every item, on the calling thread and one helper per further CPU.

    There are at most ``_SCAN_THREADS`` threads, and no more than items.
    Thread i takes item i, then the next item no thread has taken, so a
    thread slowed by other load on its CPU takes fewer.  After a failure no
    thread takes another item.  The helpers run in a copy of the caller's
    context, since numpy's ``errstate`` and the oracle ledger are context
    variables.  An exception from any thread is raised here, once every
    thread has stopped.
    """
    n = max(1, min(_cpus(), _SCAN_THREADS, len(items)))
    untaken, lock = itertools.count(n), threading.Lock()
    failures = []
    errors = np.geterr()  # numpy < 2 keeps errstate per thread, outside the context

    def drain(i):
        try:
            with np.errstate(**errors):
                while i < len(items) and not failures:
                    task(items[i])
                    with lock:
                        i = next(untaken)
        except BaseException as exc:  # raised again on the calling thread below
            failures.append(exc)

    helpers = [threading.Thread(target=copy_context().run, args=(drain, i)) for i in range(1, n)]
    for t in helpers:
        t.start()
    try:
        drain(0)
    finally:
        for t in helpers:
            t.join()
    if failures:
        raise failures[0]


#: on grids whose longest segment holds at least this many steps, ``_propagator``
#: interpolates the segment maps in energy ...
_INTERPOLATED_STEPS = 64
#: ... from their values at this many Chebyshev points of the first kind per energy cell
_CHEBYSHEV_POINTS = 8


def _energy_cells(v, h, energies, rows, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of ``_propagator``'s interpolated maps: their Chebyshev points
    (C, _CHEBYSHEV_POINTS), the row of each cell (C,), and the cell of each energy
    (E,), -1 where the energy is stepped directly.

    On a grid whose longest segment, of length l, holds at least
    ``_INTERPOLATED_STEPS`` steps, an energy E lies in the dyadic cell
    [j w, (j + 1) w) of row r, keyed by (r, j, w), whose width w is the
    smaller of W = 2^floor(log2(1 / l^2)) and 2^floor(log2 |E|).  Over W a
    segment's map turns by at most about l^2 W <= 1.  The second bound keeps
    the cell within one binade of E: an entry of the map that vanishes with
    E - V is interpolated to an error of about eps times its largest value
    on the cell.  On a delta-comb cell of 65,539 nodes (W = 65536), the cell
    [0, W) put Delta(0.3) 5.4e-11 from its closed form, the binade's cell
    1.8e-12, and the direct steps 3.9e-13.

    The map's only poles lie where a coefficient c = 1 - h^2 (V - E) / 12
    vanishes, at E = V - 12 / h^2.  A cell that reaches below
    max V - 6 / h^2 of its row, where some c falls below 1/2 and a pole may
    lie within 6 / h^2, is stepped directly at its requested energies, as is
    every energy on grids with shorter segments.  Above it
    |G| = |h^2 (V - E) / c| <= 12, and the poles lie more than
    6 m^2 >= 24,576 widths away (m the steps of the longest segment).
    """
    key = np.full(energies.size, -1)
    longest = int(np.diff(bounds).max())
    if longest < _INTERPOLATED_STEPS:
        return np.empty((0, _CHEBYSHEV_POINTS)), np.empty(0, dtype=int), key
    width = np.minimum(math.ldexp(1.0, math.frexp(1.0 / (longest * h) ** 2)[1] - 1),
                       np.ldexp(1.0, np.frexp(np.abs(energies))[1] - 1))
    lower = np.floor(energies / width) * width
    far = np.flatnonzero(lower >= v.max(axis=1)[rows] - 6.0 / (h * h))
    (cell_rows, lowers, widths), at = np.unique(np.stack((rows[far], lower[far], width[far])),
                                                axis=1, return_inverse=True)
    key[far] = at.reshape(-1)
    angles = (2 * np.arange(_CHEBYSHEV_POINTS) + 1) * (0.5 * np.pi / _CHEBYSHEV_POINTS)
    points = lowers[:, None] + 0.5 * (1.0 + np.cos(angles)) * widths[:, None]
    return points, cell_rows.astype(int), key


def _barycentric(points, energies) -> np.ndarray:
    """Weights (E, P) that take the values at the Chebyshev points (E, P) of each
    energy's cell to the value at that energy (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 5); an energy on a point takes that point's value."""
    count = points.shape[1]
    k = np.arange(count)
    sign = 1.0 - 2.0 * (k % 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = sign * np.sin((2 * k + 1) * (0.5 * np.pi / count)) / (energies[:, None] - points)
    hit = energies[:, None] == points
    q = np.where(hit.any(axis=1, keepdims=True), hit, q)
    total = q[:, 0].copy()
    for i in range(1, count):  # summed in a fixed order, whatever the count of energies
        total += q[:, i]
    return q / total[:, None]


def _cell_maps(v, h, points, point_rows, bounds, jumps, segments,
               block) -> tuple[np.ndarray, np.ndarray]:
    """Maps (2, 2, C, P, S) of the `segments` at the Chebyshev points (C, P) of each
    cell, on its row, stepped in blocks of `block` energies on up to two CPUs
    (``_on_cpus``), and per cell and segment the largest of the points' exponents
    (C, S): every point's map is brought to it."""
    nodes, node_rows = points.reshape(-1), np.repeat(point_rows, points.shape[1])
    maps = np.empty((2, 2, nodes.size, segments.size))
    exps = np.empty(maps.shape[2:], dtype=int)

    def step(lo):
        maps[:, :, lo : lo + block], exps[lo : lo + block] = _segment_maps(
            v, h, nodes[lo : lo + block], node_rows[lo : lo + block], bounds, jumps, segments)

    _on_cpus(step, range(0, nodes.size, block))
    maps = maps.reshape(2, 2, *points.shape, -1)
    exps = exps.reshape(*points.shape, -1)
    top = exps.max(axis=1)
    np.ldexp(maps, exps - top[:, None], out=maps)
    return maps, top


def _interpolated(maps, top, points, cells, energies) -> tuple[np.ndarray, np.ndarray]:
    """Segment maps (2, 2, E, S) at the energies, whose cells are `cells`, mixed from
    their cells' maps at the Chebyshev points (``_cell_maps``), and their exponents (E, S)."""
    weights = _barycentric(points[cells], energies)
    mix = maps[:, :, cells, 0]
    mix *= weights[:, 0, None]
    for i in range(1, points.shape[1]):
        term = maps[:, :, cells, i]
        term *= weights[:, i, None]
        mix += term
    return mix, top[cells]


def _segment_runs(v, rows, bounds, jumps) -> np.ndarray:
    """Run of each segment (S,), counted from 0 along the sweep.

    Neighbouring segments share a run when they have the same length, the
    same samples, bit for bit, on each of the `rows` of v, and no spike:
    their maps are then the same at every energy.  Where the runs would
    number more than ``_SHARED_RUNS`` times the segments, each segment is a
    run of its own.  The runs read the samples and the spikes only.
    """
    count = bounds.size - 1
    length, extra = divmod(int(bounds[-1] - bounds[0]), count)
    used = np.flatnonzero(np.bincount(rows, minlength=v.shape[0]))
    rows = [v[row].view(np.uint64) for row in used]
    same = np.ones(count - 1, dtype=bool)  # segment s + 1 repeats segment s
    for row in rows:  # first samples, which rule out most pairs that differ
        same &= row[bounds[1:-1]] == row[bounds[:-2]]
    if 0 < extra < count:
        same[extra - 1] = False
    for j, _ in jumps:
        spiked = int(np.searchsorted(bounds, j, side="right")) - 1
        same[max(spiked - 1, 0) : spiked + 1] = False
    repeats = (1.0 - _SHARED_RUNS) * count  # at least, for runs to be shared
    if same.sum() >= repeats:
        for row in rows:
            for lo, hi, size in ((0, extra, length + 1), (extra, count, length)):
                if hi - lo > 1:
                    nodes = row[bounds[lo] : bounds[hi]].reshape(hi - lo, size)
                    same[lo : hi - 1] &= (nodes[1:] == nodes[:-1]).all(axis=1)
    if same.sum() < repeats:
        return np.arange(count)
    return np.concatenate(([0], np.cumsum(~same)))


def _chain_plan(runs) -> tuple[list, int]:
    """The levels of ``_chain``'s pairwise tree over segments of these runs
    (``_segment_runs``), and the count of maps at its widest level.

    A level lists, for each distinct (later, earlier) pair of its maps, the
    index of each, and the map carried to the next level unpaired (None if
    there is none); the next level holds their products in that order, then
    the carried map.  Equal pairs lie next to each other, since the runs,
    and so the pairs of every level, only grow along the sweep.  With no
    run longer than one segment the levels take the maps in order, as slices.
    """
    plan, widest, ids = [], int(runs[-1]) + 1, runs
    while ids.size > 1:
        pairs, odd = divmod(ids.size, 2)
        carried = int(ids[-1]) if odd else None
        if ids[-1] == ids.size - 1:  # every map distinct, in order
            plan.append((slice(1, 2 * pairs, 2), slice(0, 2 * pairs, 2), carried))
            ids = np.arange(pairs + odd)
            continue
        later, earlier = ids[1 : 2 * pairs : 2], ids[0 : 2 * pairs : 2]
        pair = later * ids.size + earlier
        new = np.ones(pairs + odd, dtype=bool)  # a pair unlike the one before, or the carried map
        np.not_equal(pair[1:], pair[:-1], out=new[1:pairs])
        plan.append((later[new[:pairs]], earlier[new[:pairs]], carried))
        ids = new.cumsum() - 1
        widest = max(widest, int(ids[-1]) + 1)
    return plan, widest


def _propagator(v, h, energies, rows, jumps=()) -> tuple[np.ndarray, np.ndarray, int]:
    """Map of the Numerov sweep across row rows[i] of v (rows, n) from nodes
    (0, 1) to (n-2, n-1), for each energy i, and the count of energies stepped.

    The map acts on pairs in Blatt's (w, D) form (see ``_segment_maps``),
    so the caller converts y at the two ends only, and it equals the
    returned (2, 2, E) array times 2**exps.  The steps are cut into
    segments (``_segment_bounds``) whose maps are found for a block of
    energies at once, delta jumps included, and chained by pairwise
    products, each rescaled by a power of two.

    Neighbouring segments of one length, with the same samples on every row
    the call uses and no spike, form a run (``_segment_runs``), found once
    per call (where they would number more than ``_SHARED_RUNS`` times the
    segments, each segment is a run of its own).  Only the first segment of
    each run is stepped, and ``_chain`` follows a plan (``_chain_plan``)
    that multiplies each distinct pair of maps once per level.  The
    products are those of the tree over all the segments, bit for bit, and
    with no run longer than one segment the plan is that tree.  A block
    holds as many energies as make about ``_BLOCK_DOUBLES`` doubles of the
    plan's widest level, or of the Chebyshev points where those are more.

    Each segment's map is analytic in E.  On grids with long segments
    (``_energy_cells``) it is stepped only at the Chebyshev points of each
    energy cell that holds a requested energy, once per call, and every
    energy's maps are interpolated from its own cell's: per cell and
    segment, the points' maps are brought to the largest of their
    exponents, and the barycentric mix of them is chained.  Energies where a
    coefficient c may fall below 1/2, and every energy on grids with shorter
    segments, are stepped directly.  The stepped blocks are swept on up to
    two CPUs the process may run on (``_on_cpus``), each writing only its
    own energies; the cells are stepped a group at a time, as many as fill
    one block per thread, and the interpolated maps of a group's energies
    are mixed and chained one block at a time on the calling thread.  No
    number depends on the other energies or rows asked for, nor on the
    thread that swept them: a stack of potentials swept in one call gives
    each the bits of its own call.  A block may split a run of energies on
    one row.  Where a coefficient c vanishes, the map is not finite.
    """
    bounds = _segment_bounds(v.shape[1] - 2)
    runs = _segment_runs(v, rows, bounds, jumps)
    stepped = np.flatnonzero(np.diff(runs, prepend=-1))  # the first segment of each run
    plan, widest = _chain_plan(runs)
    block = max(1, _BLOCK_DOUBLES // max(widest, _CHEBYSHEV_POINTS))
    out = np.empty((2, 2, energies.size))
    out_exps = np.empty(energies.size, dtype=int)
    points, point_rows, key = _energy_cells(v, h, energies, rows, bounds)

    def sweep(at):
        m, exps = _segment_maps(v, h, energies[at], rows[at], bounds, jumps, stepped)
        out[:, :, at], out_exps[at] = _chain(*_rescaled(m, exps), plan)

    direct = np.flatnonzero(key < 0)
    _on_cpus(sweep, [direct[lo : lo + block] for lo in range(0, direct.size, block)])
    inside = np.flatnonzero(key >= 0)
    inside = inside[np.argsort(key[inside], kind="stable")]
    group = max(1, _SCAN_THREADS * block // _CHEBYSHEV_POINTS)
    for first in range(0, points.shape[0], group):
        cells = slice(first, first + group)
        maps, top = _cell_maps(v, h, points[cells], point_rows[cells], bounds, jumps, stepped,
                               block)
        lo, hi = np.searchsorted(key[inside], [first, first + group])
        for start in range(lo, hi, block):
            at = inside[start : min(start + block, hi)]
            m, exps = _interpolated(maps, top, points[cells], key[at] - first, energies[at])
            out[:, :, at], out_exps[at] = _chain(*_rescaled(m, exps), plan)
    return out, out_exps, direct.size + points.size


def _take(x, at) -> np.ndarray:
    """x[..., at] for a slice or an index array `at`; the latter as a C-ordered copy,
    since x[..., array] lays the last axis out first, which made the products
    and their rescaling several times slower."""
    return x[..., at] if isinstance(at, slice) else x.take(at, axis=-1)


def _chain(m, exps, plan) -> tuple[np.ndarray, np.ndarray]:
    """Product of the segment maps at scale 2**exps, last segment leftmost, from
    the maps m (2, 2, E, K) of their runs and the exponents (E, K).

    Neighbours are multiplied pairwise, level by level, each product written
    out by components and rescaled by a power of two; the order depends
    only on the segment count.  Each level follows its entry of `plan`
    (``_chain_plan``): the distinct pairs are multiplied once each, and the
    product of equal pairs is shared.  Returns the (2, 2, E) product and its
    exponents.
    """
    for later, earlier, carried in plan:
        a, b = _take(m, later), _take(m, earlier)
        prod = a[:, :1] * b[:1]  # prod[r, c] = a[r, 0] b[0, c] + a[r, 1] b[1, c]
        prod += a[:, 1:] * b[1:]
        prod, prod_exps = _rescaled(prod, _take(exps, later) + _take(exps, earlier))
        if carried is not None:
            prod = np.concatenate((prod, m[..., carried, None]), axis=-1)
            prod_exps = np.concatenate((prod_exps, exps[:, carried, None]), axis=-1)
        m, exps = prod, prod_exps
    return m[..., 0], exps[:, 0]


def _scan_failure(scan: str, values, h, energy: float, mirrored: bool = False):
    """Raise the NumericalFailure of a scan whose map at `energy` is not finite: the
    node of the first of `values` (the last, for a sweep from the right, `mirrored`)
    whose Numerov coefficient vanishes, or else an overflow of the `scan` sweep."""
    zeros = np.flatnonzero(1.0 - h * h * (values - energy) / 12.0 == 0.0)
    if zeros.size:
        raise NumericalFailure(f"Numerov coefficient vanishes at node {zeros[-1 if mirrored else 0]}")
    raise NumericalFailure(f"{scan} sweep overflows at E={energy}")


def scattering_curve(v: Potential, energies) -> list[ScatteringResult]:
    """Reflection/transmission amplitudes at several finite energies.

    One right-to-left sweep per energy, all of them at once through the
    segment maps of ``_propagator``, delta spikes included.  On lines whose
    segments hold 64 steps or more, the maps are stepped only at eight
    Chebyshev energies of each energy cell and interpolated to the rest;
    the ledger counts the energies stepped (``stepped_energies``).  Each
    result is still the bits of a one-energy call.
    """
    if v.bc_kind != DECAYING_LINE:
        raise ValidationError("scattering requires a decaying-line potential")
    e = np.asarray(list(energies), dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValidationError("every energy must be finite")
    v_l, v_r = float(v.values[0]), float(v.values[-1])
    if np.any(e <= max(v_l, v_r)):
        raise ValidationError("every energy must lie above both asymptotic levels")
    g = v.grid
    mirrored = [(g.n_points - 1 - j, s) for j, s in reversed(v.delta_nodes(interior_only=True))]
    k_l = np.sqrt(e - v_l)
    k_r = np.sqrt(e - v_r)
    work = _WORK.get()
    if work is not None:
        work.scattering_calls += 1
        work.scattering_energies += e.size
        work.scattering_node_energies += g.n_points * e.size
        work.scattering_segments += _segment_bounds(g.n_points - 2).size - 1

    # Plane waves exp(+-i k x) on an end pair with midpoint x_mid have mean
    # exp(+-i k x_mid) cos(k h / 2) and, in the sweep's order (right to left),
    # difference -+2i exp(+-i k x_mid) sin(k h / 2).  Taking the two nodes
    # exactly h apart leaves the rounding of k x in a common phase, out of the
    # difference that 1 / (k h) amplifies.  (cos and sin come from one complex
    # exp, which takes the same path for every array length: a one-energy call
    # must equal a longer scan bit for bit.)  Pairs go into Blatt's (w, D) and
    # back with c at nodes 0, 1, n - 2 and n - 1, rounded as the sweep rounds it.
    c0, c1, c_n2, c_n1 = 1.0 - g.h * g.h * (v.values[[0, 1, -2, -1], None] - e) / 12.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, exps, stepped = _propagator(v.values[None, ::-1], g.h, e, np.zeros(e.size, dtype=int),
                                       mirrored)
        # The sweep starts from the transmitted wave exp(i k_r x) on the right
        # pair, whose w = c[n-2] y[n-2] and
        # D = c[n-2] (y[n-2] - y[n-1]) + (c[n-2] - c[n-1]) y[n-1] form no
        # difference by cancellation ...
        wave, half = np.exp(1j * k_r * (g.x[-1] - 0.5 * g.h)), np.exp(0.5j * k_r * g.h)
        mean, diff = wave * half.real, -2j * wave * half.imag
        w, d = c_n2 * (mean + 0.5 * diff), c_n2 * diff + (c_n2 - c_n1) * (mean - 0.5 * diff)
        (p00, p01), (p10, p11) = p
        w, d = p00 * w + p01 * d, p10 * w + p11 * d  # at scale 2**exps
        # ... and ends on the left pair, where
        # y[0] - y[1] = D / c[1] + w (c[1] - c[0]) / (c[0] c[1]) keeps its relative
        # precision: c[1] - c[0] is exact for neighbouring coefficients within a
        # factor of two of each other
        diff = d / c1 + w * ((c1 - c0) / (c0 * c1))
        mean = w / c0 - 0.5 * diff
    if work is not None:
        work.scattering_stepped += stepped
    bad = np.flatnonzero(~np.isfinite(mean))  # mean holds diff too
    if bad.size:
        # the sweep divides by c at every node but the last
        _scan_failure("scattering", v.values[:-1], g.h, float(e[bad[0]]), mirrored=True)

    # There a exp(i k_l x) + b exp(-i k_l x) has a wave = (fwd + bwd) / 2 and
    # b / wave = (fwd - bwd) / 2
    wave, half = np.exp(1j * k_l * (g.x[0] + 0.5 * g.h)), np.exp(0.5j * k_l * g.h)
    fwd = mean / half.real
    bwd = 0.5j * diff / half.imag
    a = 0.5 * (fwd + bwd) / wave
    b = 0.5 * (fwd - bwd) * wave
    t = np.ldexp(1.0, -exps) / a

    return [
        ScatteringResult(energy=float(e[i]), R=complex(b[i] / a[i]), T=complex(t[i]),
                         k_left=float(k_l[i]), k_right=float(k_r[i]))
        for i in range(e.size)
    ]


def scattering(v: Potential, energy: float) -> ScatteringResult:
    """R and T for a wave incident from the left at one energy."""
    return scattering_curve(v, [energy])[0]


# ---------------------------------------------------------------------------
# transfer matrix over one period


def _cell_deltas(cell: Potential) -> tuple[float, list[tuple[int, float]]]:
    """The strength on the cell edge (node 0 or n - 1, one point of the lattice)
    and the (node, strength) pairs of the interior spikes."""
    edge, interior = 0.0, []
    for j, strength in cell.delta_nodes(interior_only=False):
        if 0 < j < cell.grid.n_points - 1:
            interior.append((j, strength))
        else:
            edge += strength
    return edge, interior


def _transfer_matrices(cells, energies, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """One-period maps of Numerov pairs in Blatt's (w, D) form, and their traces Delta(E).

    cells is one cell or a stack of cells that share a grid and deltas;
    energy i is taken on cell rows[i] (on the first if rows is None), and
    energies grouped by cell sweep fastest.  Each cell's n nodes are
    extended periodically by one, to v[0 .. n-2], v[0], v[1], and one
    ``_propagator`` sweep takes the pair at nodes (0, 1) to the same pair one
    period on.  Interior spikes stay at their nodes; a delta on the cell edge
    (node 0 or n - 1, the same point of the lattice) becomes a spike at node
    n - 1, so that the period holds it once.  The pairs go into (w, D) with
    the same c at both ends, so the map is similar to the map of y pairs and
    has the same trace.  Returns the maps (2, 2, E) and Delta (E,), at their
    exact scale: for each energy, the bits of a one-cell, one-energy call.
    """
    if isinstance(cells, Potential):
        cells = [cells]
    cell = cells[0]
    if any(c.grid != cell.grid or c.deltas != cell.deltas for c in cells):
        raise ValidationError("stacked cells must share their grid and deltas")
    n = cell.grid.n_points
    edge, jumps = _cell_deltas(cell)
    if edge:
        jumps.append((n - 1, edge))
    e = np.asarray(energies, dtype=float).reshape(-1)
    if not np.all(np.isfinite(e)):
        raise ValidationError("every energy must be finite")
    rows = np.zeros(e.size, dtype=int) if rows is None else np.asarray(rows, dtype=int)
    if rows.shape != e.shape or (rows.size and not 0 <= rows.min() <= rows.max() < len(cells)):
        raise ValidationError(f"need one row in [0, {len(cells)}) per energy")
    v = np.array([np.concatenate((c.values[:-1], c.values[:2])) for c in cells])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m, exps, _ = _propagator(v, cell.grid.h, e, rows, jumps)
        maps, trace = np.ldexp(m, exps), np.ldexp(m[0, 0] + m[1, 1], exps)
    bad = np.flatnonzero(~(np.isfinite(maps).all(axis=(0, 1)) & np.isfinite(trace)))
    if bad.size:
        # the sweep divides by c at nodes 1 .. n - 2 and 0
        i = bad[0]
        _scan_failure("band discriminant", cells[rows[i]].values[:-1], cell.grid.h, float(e[i]))
    return maps, trace


def band_discriminant(cell: Potential, energy: float) -> float:
    """Delta(E); |Delta| <= 2 exactly when E lies in an allowed zone.  The
    one-energy case of ``band_discriminant_curve``, bit for bit."""
    return float(band_discriminant_curve(cell, [energy])[0])


def band_discriminant_curve(cells, energies, rows=None) -> np.ndarray:
    """Discriminant Delta(E), the trace of the one-period transfer matrix, at
    every energy in one sweep (``_transfer_matrices``): of one cell, or of
    cell rows[i] of a stack that shares a grid and deltas at energy i."""
    return _transfer_matrices(cells, energies, rows)[1]
