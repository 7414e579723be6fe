"""Discrete-coordinate wave mechanics: one allowed band, bound states and ladders.

Convention (pinned, since band pictures alone fix neither sign nor offset):

    H psi(n) = -psi(n+1) - psi(n-1) + 2 psi(n) + V(n) psi(n),

so the free band is E in [0, 4] with band center 2, and the map
psi(n) -> (-1)^n psi(n) carries the spectrum of V onto 4 - spectrum(-V)
(which is how bound states live above an upside-down well).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dstebz, dstein
from .errors import NumericalFailure, ValidationError
from .potentials import HARD_WALLS
from .solver import _count_sign_changes, _first_lobe_positive

DECAYING = "decaying"

#: the free lattice band [BAND_LO, BAND_HI]; center is BAND_CENTER
BAND_LO, BAND_HI = 0.0, 4.0
BAND_CENTER = 2.0


@dataclass(frozen=True)
class LatticeSystem:
    """Site potential on the integer range [n_min, n_max]."""

    n_min: int
    n_max: int
    v: np.ndarray
    bc: str = HARD_WALLS

    def __post_init__(self):
        if self.bc not in (HARD_WALLS, DECAYING):
            raise ValidationError(f"unknown lattice bc {self.bc!r}")
        if self.n_min >= self.n_max:
            raise ValidationError("need n_min < n_max")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.n_max - self.n_min + 1,):
            raise ValidationError(
                f"site-potential length {v.shape} does not match range "
                f"[{self.n_min}, {self.n_max}]"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("site potentials must be finite")
        object.__setattr__(self, "v", v)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1


@dataclass(frozen=True)
class LatticeState:
    energy: float
    psi: np.ndarray
    nodes: int


def single_site(v0: float, half_width: int = 25) -> LatticeSystem:
    """One perturbed site V(0) = v0 on an otherwise flat decaying lattice."""
    v = np.zeros(2 * half_width + 1)
    v[half_width] = v0
    return LatticeSystem(-half_width, half_width, v, DECAYING)


def _make_states(energies, vectors) -> list[LatticeState]:
    out = []
    for i, energy in enumerate(energies):
        # LAPACK returns unit vectors; only the sign is left to fix
        psi = _first_lobe_positive(vectors[:, i])
        out.append(LatticeState(float(energy), psi, _count_sign_changes(psi)))
    return out


def _diagonalize(sys: LatticeSystem, lo: int, hi: int):
    diag = 2.0 + sys.v
    off = np.full(sys.size - 1, -1.0)
    # eigenvalues lo..hi by bisection, then their vectors by inverse
    # iteration, in block order and sorted: scipy's eigh_tridiagonal(select="i")
    found, w, block, split, info = dstebz(diag, off, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B")
    if not info:
        w = w[:found]
        vectors, info = dstein(diag, off, w, block, split)
    if info:
        raise NumericalFailure(f"lattice eigenstates {lo}..{hi} failed (LAPACK info {info})")
    order = np.argsort(w)
    return w[order], vectors[:, order]


def lattice_bound_states(sys: LatticeSystem, count: int, which: str = "lowest") -> list[LatticeState]:
    """The `count` extremal eigenstates, from the bottom or the top.

    For decaying boundary conditions only genuine bound states are returned:
    levels strictly outside the free band [0, 4] whose amplitude has decayed
    at the window edges, so the list may be shorter than requested (states
    above the band are legal outputs of `which='highest'`).
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > sys.size:
        raise ValidationError(f"count {count} exceeds the {sys.size}-site system")
    if which not in ("lowest", "highest"):
        raise ValidationError("which must be 'lowest' or 'highest'")

    if which == "lowest":
        energies, vectors = _diagonalize(sys, 0, count - 1)
    else:
        energies, vectors = _diagonalize(sys, sys.size - count, sys.size - 1)
        energies = energies[::-1]
        vectors = vectors[:, ::-1]
    states = _make_states(energies, vectors)

    if sys.bc == DECAYING:
        kept = []
        for s in states:
            outside = s.energy < BAND_LO - 1e-12 if which == "lowest" else s.energy > BAND_HI + 1e-12
            if not outside:
                continue
            edge = max(abs(s.psi[0]), abs(s.psi[-1]))
            if edge > 1e-6:
                raise ValidationError(
                    f"window too small: state at E={s.energy:.6g} still has edge "
                    f"amplitude {edge:.2e}; enlarge the site range"
                )
            kept.append(s)
        states = kept
    return states


def stark_ladder(c: float, window: tuple[int, int]) -> list[LatticeState]:
    """Equidistant ladder on the linear slope V(n) = c n.

    Returns the window-interior eigenstates whose amplitude is below 1e-8
    at both window ends; those form the ladder E_m = 2 + c m with one state
    per site offset, all sharing one shape shifted site by site.
    """
    if c <= 0:
        raise ValidationError(f"slope must be positive, got {c}")
    n_min, n_max = int(window[0]), int(window[1])
    sys = LatticeSystem(n_min, n_max, c * np.arange(n_min, n_max + 1), DECAYING)
    energies, vectors = _diagonalize(sys, 0, sys.size - 1)
    states = _make_states(energies, vectors)
    ladder = [s for s in states if max(abs(s.psi[0]), abs(s.psi[-1])) < 1e-8]
    if not ladder:
        raise ValidationError(
            "window too small: no eigenstate satisfies the edge-amplitude guard; "
            "enlarge the site range"
        )
    return ladder


def ladder_index(state: LatticeState, c: float) -> int:
    """Rung number m of a ladder state: E = 2 + c m."""
    return int(round((state.energy - BAND_CENTER) / c))
