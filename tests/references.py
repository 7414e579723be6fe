"""Test-only references: checks on the package that no module of it calls."""

from __future__ import annotations

import numpy as np

from specdesign.potentials import Potential
from specdesign.solver import _cell_deltas, _start_derivs, _taylor_step, _transfer_matrices


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
