"""CSV serialization for every artifact the tools emit.

All files are comma-separated with a single header row and 17 significant
digits (lossless double round-trip); writers return the encoded bytes so
callers can buffer output and only touch the filesystem once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ValidationError
from .grid import Grid, SampledFn, make_grid


#: rows formatted at a time; bounds the cells held besides the output
_BLOCK_ROWS = 4096


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _table(header: list[str], rows) -> bytes:
    """Header line plus one line per row; numbers take 17 significant digits.

    Rows are formatted in blocks: an all-numeric block by one %-format over
    its flattened rows (the same digits as _fmt), a block holding a string
    cell by cell.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    out = [",".join(header) + "\n"]
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        try:
            out.append(line * len(block) % tuple(c for row in block for c in row))
        except TypeError:  # a string cell
            out.extend(",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n"
                       for row in block)
    return "".join(out).encode()


@lru_cache(maxsize=4)
def _x_cells(grid: Grid) -> tuple[str, ...]:
    """The %.17g strings of grid.x, formatted once per distinct grid.

    x depends on (x_min, x_max, n_points) alone, the fields a Grid hashes
    and compares by, so equal grids share one entry.
    """
    cells: list[str] = []
    for lo in range(0, grid.n_points, _BLOCK_ROWS):
        cells += ["%.17g" % v for v in grid.x[lo : lo + _BLOCK_ROWS].tolist()]
    return tuple(cells)


def _grid_table(header: list[str], grid: Grid, cols) -> bytes:
    """The bytes of _table(header, zip(grid.x, *cols)), x taken from _x_cells.

    Each block's cells are laid out column by column into one flat list by
    slice assignment and formatted by one %-format: no per-row tuples.
    """
    k = len(cols) + 1
    n = grid.n_points
    xs = _x_cells(grid)
    line = ",".join(["%s"] + ["%.17g"] * (k - 1)) + "\n"
    out = [",".join(header) + "\n"]
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        cells = [None] * (k * (hi - lo))
        cells[0::k] = xs[lo:hi]
        for i, col in enumerate(cols, start=1):
            cells[i::k] = col[lo:hi].tolist()
        out.append(line * (hi - lo) % tuple(cells))
    return "".join(out).encode()


def sampled_fn_bytes(f: SampledFn, value_name: str = "value") -> bytes:
    return _grid_table(["x", value_name], f.grid, [f.values])


def read_sampled_fn(text: str | bytes) -> SampledFn:
    """Parse the two-column x,value format back into a SampledFn."""
    if isinstance(text, bytes):
        text = text.decode()
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("sampled-function CSV needs a header and data rows")
    xs, vs = [], []
    for ln in lines[1:]:
        try:
            a, b = (float(cell) for cell in ln.split(","))
        except ValueError:  # a cell that is not a number, or not two cells
            raise ValidationError(f"sampled-function CSV row {ln!r} is not two numbers") from None
        xs.append(a)
        vs.append(b)
    x = np.asarray(xs)
    n = x.size
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"CSV grid must have an odd node count >= 3, got {n}")
    h = np.diff(x)
    if np.max(np.abs(h - h[0])) > 1e-9 * max(1.0, abs(h[0])):
        raise ValidationError("CSV grid is not uniform")
    grid = make_grid(float(x[0]), float(x[-1]), n)
    return SampledFn(grid, np.asarray(vs))


def spectrum_bytes(states) -> bytes:
    return _table(["n", "energy", "swf"], ((s.n, s.energy, s.swf) for s in states))


def states_bytes(grid: Grid, states) -> bytes:
    header = ["x"] + [f"psi_{s.n}" for s in states]
    return _grid_table(header, grid, [s.psi.values for s in states])


def scattering_bytes(results) -> bytes:
    return _table(
        ["energy", "abs_R", "abs_T", "arg_R"],
        ((r.energy, abs(r.R), abs(r.T), np.angle(r.R)) for r in results),
    )


def discriminant_bytes(energies, disc) -> bytes:
    return _table(["energy", "delta"], zip(energies, disc))


def zones_bytes(zone_list) -> bytes:
    return _table(["index", "E_lo", "E_hi"], ((z.index, z.e_lo, z.e_hi) for z in zone_list))


def zone_track_bytes(rows) -> bytes:
    return _table(
        ["dE", "edge_energy", "gap_width"],
        ((r["dE"], r["edge_energy"], r.get("tracked_gap", 0.0)) for r in rows),
    )


def lattice_spectrum_bytes(states) -> bytes:
    return _table(["m", "energy"], ((i, s.energy) for i, s in enumerate(states, start=1)))


def lattice_states_bytes(sites, states) -> bytes:
    header = ["n"] + [f"psi_{i}" for i in range(1, len(states) + 1)]
    cols = [sites] + [s.psi for s in states]
    return _table(header, zip(*cols))


def steplog_bytes(step_log) -> bytes:
    rows = []
    for i, entry in enumerate(step_log, start=1):
        kind = entry.get("kind", "?")
        params = ";".join(
            f"{k}={entry[k]}" for k in sorted(entry)
            if k not in ("kind", "denominator_min") and not isinstance(entry[k], (list, dict, tuple))
        )
        rows.append((str(i), kind, params, entry.get("denominator_min", float("nan"))))
    return _table(["step", "kind", "params", "denominator_min"], rows)
