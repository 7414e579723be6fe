"""Uniform grids, sampled functions, quadrature and accumulation.

Units are fixed so that hbar^2/2m = 1: the hard-wall box of width pi has
eigenvalues exactly n^2, which is the normalization every other module
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import ValidationError

#: default sample density: points per pi of domain width
POINTS_PER_PI = 2001
#: most nodes a grid may hold (32 MiB per float array): 17 times the largest grid
#: in use, ``bsec_whole_line``'s default of about 244,000 nodes
MAX_POINTS = 2**22


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid with an odd number of nodes (midpoint is a node)."""

    x_min: float
    x_max: float
    n_points: int

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def mid_index(self) -> int:
        return (self.n_points - 1) // 2

    def index_of(self, x0: float) -> int:
        """Nearest node index of coordinate x0."""
        return int(round((x0 - self.x_min) / self.h))


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid:
    """Build a uniform grid.

    n_points must be odd and within [3, MAX_POINTS]; odd counts keep the domain
    midpoint on a node (symmetric potentials sample their center exactly) and
    make the composite Simpson rule applicable without a trailing correction panel.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValidationError("grid bounds must be finite")
    if not x_min < x_max:
        raise ValidationError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    n_points = int(n_points)
    if n_points < 3:
        raise ValidationError(f"need n_points >= 3, got {n_points}")
    if n_points % 2 == 0:
        raise ValidationError(f"n_points must be odd, got {n_points}")
    if n_points > MAX_POINTS:
        raise ValidationError(f"need n_points <= {MAX_POINTS}, got {n_points}")
    return Grid(float(x_min), float(x_max), n_points)


def default_points(width: float) -> int:
    """Default odd node count for a domain of the given width, at most MAX_POINTS."""
    n = POINTS_PER_PI * width / math.pi
    if not n <= MAX_POINTS:
        raise ValidationError(f"a domain {width:g} wide needs {n:.4g} nodes at "
                              f"{POINTS_PER_PI} per pi, more than {MAX_POINTS}")
    n = int(round(n))
    n = max(n, 3)
    if n % 2 == 0:
        n += 1
    return n


@dataclass(frozen=True)
class SampledFn:
    """A real function sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValidationError(
                f"values length {v.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("sampled values must all be finite")
        object.__setattr__(self, "values", v)


def integrate(f: SampledFn) -> float:
    """Composite Simpson integral over the whole grid (exact for cubics)."""
    v = f.values
    h = f.grid.h
    return float(h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum()))


def _panel_integrals(v: np.ndarray, h: float) -> np.ndarray:
    """Per-interval integrals from a sliding cubic fit, exact for cubics.

    Interior interval [j, j+1] uses the 4-point rule on (j-1 .. j+2); the two
    boundary intervals use the one-sided 4-point rule.  Matching the accuracy
    of the Simpson total keeps cumulative and global quadrature consistent to
    ~1e-12 on smooth data instead of the O(h^2) a plain trapezoid would give.
    """
    n = v.size
    out = np.empty(n - 1)
    out[0] = h / 24.0 * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3])
    out[-1] = h / 24.0 * (9.0 * v[-1] + 19.0 * v[-2] - 5.0 * v[-3] + v[-4])
    if n > 3:
        out[1:-1] = h / 24.0 * (-v[:-3] + 13.0 * v[1:-2] + 13.0 * v[2:-1] - v[3:])
    return out


def cumulative_integral(f: SampledFn) -> SampledFn:
    """Running integral F(x) = int_{x_min}^{x} f, with F(x_min) = 0.

    Accumulates cubic-accurate panel integrals so F(x_max) agrees with
    ``integrate`` to ~1e-12 for smooth f; for f >= 0 that is monotone
    non-decreasing up to that same tolerance.
    """
    acc = np.concatenate(([0.0], np.cumsum(_panel_integrals(f.values, f.grid.h))))
    return SampledFn(f.grid, acc)
