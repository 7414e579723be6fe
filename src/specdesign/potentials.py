"""Potential container and builders for the standard model systems."""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ValidationError
from .grid import Grid, SampledFn, default_points, make_grid

HARD_WALLS = "hard-walls"
DECAYING_LINE = "decaying-line"
DECAYING_HALF_LINE = "decaying-half-line"
_BC_KINDS = (HARD_WALLS, DECAYING_LINE, DECAYING_HALF_LINE)

#: relative per-sample increment allowed at a "flat" truncation edge
EDGE_FLATNESS = 1e-3


@dataclass(frozen=True)
class Potential:
    """A sampled potential plus boundary-condition kind and exact delta spikes.

    Deltas are (position, strength) pairs entering all solvers exactly through
    the derivative jump psi'(x+) = psi'(x-) + strength * psi(x); they are never
    smeared into narrow rectangles.  A delta on the left grid edge is legal
    only for periodic-cell use (band structure counts it once per period);
    bound-state and scattering solvers require strictly interior positions.
    """

    body: SampledFn
    bc_kind: str = HARD_WALLS
    deltas: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.bc_kind not in _BC_KINDS:
            raise ValidationError(f"unknown bc_kind {self.bc_kind!r}; expected one of {_BC_KINDS}")
        deltas = tuple((float(p), float(g)) for p, g in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        g = self.grid
        for pos, strength in deltas:
            if not (g.x_min <= pos < g.x_max):
                raise ValidationError(f"delta position {pos} outside grid [{g.x_min}, {g.x_max})")
            if not math.isfinite(strength):
                raise ValidationError(f"delta strength must be finite, got {strength}")
        v = self.body.values
        tol = EDGE_FLATNESS * float(v.max() - v.min()) + 1e-9
        truncated = {DECAYING_LINE: ("left", "right"), DECAYING_HALF_LINE: ("right",)}
        for side in truncated.get(self.bc_kind, ()):
            dv = v[1] - v[0] if side == "left" else v[-1] - v[-2]
            if abs(dv) > tol:
                raise ValidationError(
                    f"{self.bc_kind} potential not flat at {side} edge "
                    f"(|dV|={abs(dv):.3e} > {tol:.3e}); enlarge the truncation"
                )

    @property
    def grid(self) -> Grid:
        return self.body.grid

    @property
    def values(self) -> np.ndarray:
        return self.body.values

    def delta_nodes(self, interior_only: bool = True) -> list[tuple[int, float]]:
        """Delta (node index, strength) pairs, positions snapped to nodes.

        Deltas that snap to the same node add up into one.
        """
        g = self.grid
        out: dict[int, float] = {}
        for pos, strength in self.deltas:
            j = g.index_of(pos)
            if abs(g.x[j] - pos) > 0.5 * g.h * (1 + 1e-9):
                raise ValidationError(f"delta at {pos} does not sit on a grid node")
            if interior_only and not (5 <= j <= g.n_points - 6):
                raise ValidationError(
                    f"delta at {pos} too close to the domain edge for this operation"
                )
            out[j] = out.get(j, 0.0) + strength
        return sorted(out.items())

    def with_body(self, values: np.ndarray) -> "Potential":
        return Potential(SampledFn(self.grid, values), self.bc_kind, self.deltas)

    def continuum_edge(self) -> float:
        """Lower continuum threshold for decaying kinds (min of edge values)."""
        v = self.values
        if self.bc_kind == DECAYING_LINE:
            return float(min(v[0], v[-1]))
        if self.bc_kind == DECAYING_HALF_LINE:
            return float(v[-1])
        return math.inf


def box(width: float = math.pi, n_points: int | None = None) -> Potential:
    """Hard-wall box centered at 0; width pi gives levels exactly n^2."""
    if n_points is None:
        n_points = default_points(width)
    g = make_grid(-width / 2.0, width / 2.0, n_points)
    return Potential(SampledFn(g, np.zeros(n_points)), HARD_WALLS)


def free_line(half_width: float = 15.0, n_points: int | None = None) -> Potential:
    """Zero potential on [-L, L] with decaying boundary conditions."""
    if n_points is None:
        n_points = default_points(2.0 * half_width)
    g = make_grid(-half_width, half_width, n_points)
    return Potential(SampledFn(g, np.zeros(n_points)), DECAYING_LINE)


def half_line(length: float, n_points: int | None = None) -> Potential:
    """Zero potential on [0, L]: hard wall at 0, decaying to the right."""
    if n_points is None:
        n_points = default_points(length)
    g = make_grid(0.0, length, n_points)
    return Potential(SampledFn(g, np.zeros(n_points)), DECAYING_HALF_LINE)


def soliton_well(kappa: float = 1.0, center: float = 0.0,
                 half_width: float = 15.0, n_points: int | None = None) -> Potential:
    """Reflectionless one-level well -2 kappa^2 sech^2(kappa (x-c))."""
    p = free_line(half_width, n_points)
    x = p.grid.x
    v = -2.0 * kappa**2 / np.cosh(kappa * (x - center)) ** 2
    return p.with_body(v)


def comb_cell(period: float = math.pi, strength: float = 2.0,
              n_points: int | None = None) -> Potential:
    """One period [0, a] of a Dirac comb: flat body, one delta at the cell edge."""
    if n_points is None:
        n_points = default_points(period)
    g = make_grid(0.0, period, n_points)
    return Potential(SampledFn(g, np.zeros(n_points)), HARD_WALLS, ((0.0, strength),))
