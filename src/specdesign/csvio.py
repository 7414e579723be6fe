"""CSV serialization for every artifact the tools emit.

All files are comma-separated with a single header row and 17 significant
digits (lossless double round-trip); writers return the encoded bytes so
callers can buffer output and only touch the filesystem once.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import islice
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .grid import Grid, SampledFn, make_grid


#: cells formatted at a time, in blocks of whole rows; bounds the bytes held besides the output
_BLOCK_CELLS = 4096
#: bytes of the longest cell, -2.2250738585072014e-308; shorter cells end in NULs
_WIDTH = 24
#: columns of the bytes each number is laid out from (_cells): 0-23 the digit groups
#: "000" d0, d1-d4, d5-d8, "0000", d9-d12 and d13-d16 (so column 0 holds "0"), 24-27
#: the exponent's sign and three digits, 28-31 NUL, the sign ("-" or NUL), "." and "e"
_DIGIT = [3 + j if j < 9 else 7 + j for j in range(17)]
_EXP, _NUL, _SIGN, _DOT, _E = 24, 28, 29, 30, 31


def _split(x):
    """Dekker's split of x into a 26-bit high part and the rest: their products are exact."""
    c = x * 134217729.0
    hi = c - (c - x)
    return hi, x - hi


@cache
def _tables() -> SimpleNamespace:
    """The formatter's tables, built on first use; those of an exponent E take E + 282.

    powers: hi, hi's split and lo of 10**(16 - E) = hi + lo for E in -282..281, each
    rounded once from Python ints; exponents: E's sign and digits; groups: "0000" to
    "9999"; ends: each group's length to its last nonzero digit; starts: each group's
    column; layout: E's class, 0-20 for the fixed point at E = -4..16, 21-22 for
    exponents of 2-3 digits (23: zero); layouts: by class and last digit's column.
    """
    pairs = []
    for e in range(-282, 282):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        pairs.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(pairs).T
    layouts = np.full((24 * 24, _WIDTH), _NUL, np.uint8)
    for cls in range(24):
        e = cls - 4
        for s in range(1, 18):  # significant digits left once trailing zeros go
            if cls == 23:
                body = [0]
            elif e < 0:
                body = [0, _DOT] + [0] * (-e - 1) + _DIGIT[:s]
            elif e <= 16:
                body = _DIGIT[:e + 1] + ([_DOT] + _DIGIT[e + 1:s]) * (s > e + 1)
            else:
                body = (_DIGIT[:1] + ([_DOT] + _DIGIT[1:s]) * (s > 1) + [_E, _EXP]
                        + [_EXP + 1] * (cls == 22) + [_EXP + 2, _EXP + 3])
            layouts[cls * 24 + _DIGIT[s - 1], :len(body) + 1] = [_SIGN] + body
    g = np.arange(10000, dtype=np.int16)
    digits = g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
    return SimpleNamespace(
        powers=np.stack([hi, *_split(hi), lo]),
        exponents=np.frombuffer(b"".join(b"%+04d" % e for e in range(-282, 282)), np.uint32),
        groups=digits.astype(np.uint8).view(np.uint32),
        ends=np.where(g == 0, -99, 4 - sum(g % 10**k == 0 for k in (1, 2, 3))).astype(np.int8),
        starts=np.array([[0, 4, 8], [12, 16, 20]], np.int8)[:, :, None],
        layout=np.array([e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100)
                         for e in range(-282, 282)]),
        layouts=layouts)


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) as Dekker's p + err, rounded half to even.

    Returns that int64, whether p + err lies within 1e-4 of a tie, p and err.  Each product
    and sum is its own ufunc call, so no fused multiply-add can break the exact split.
    """
    hi, half, rest, lo = _tables().powers.take(e + 282, axis=1)
    ah, al = _split(a)
    p = a * hi
    err = ah * half
    err -= p
    err += ah * rest
    err += al * half
    err += al * rest
    err += a * lo
    r = np.rint(err)
    tie = np.abs(np.abs(err - r) - 0.5) < 1e-4
    return p.astype(np.int64) + r.astype(np.int64), tie, p, err


def _cells(values) -> np.ndarray:
    """The bytes of format(x, ".17g") for each x of values, NULs filling each to _WIDTH.

    values (a column, or a list of columns formatted in one pass) are taken as float64.
    For |x| in [1e-280, 1e280), E from log10 is corrected from the exact product
    |x| 10**(16 - E), which rounds to the 17 digits, and one gather lays out %g's fixed or
    exponent form with trailing zeros stripped.  NaN, +-inf, the rest of the range and
    products within 1e-4 of a tie are formatted by format() one cell at a time.
    """
    t = _tables()
    v = np.asarray(values, dtype=np.float64)
    shape = v.shape
    v = v.ravel()
    n = v.size
    a = np.abs(v)
    ok = (a >= 1e-280) & (a < 1e280)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, tie, p, err = _scaled(a, e)
    low = (p < 1e16) | (p == 1e16) & (err < 0)
    c = np.flatnonzero(low | (d >= 10**17))
    if c.size:  # step E where p + err falls outside [1e16, 1e17)
        ec = e[c] + (d[c] >= 10**17) - low[c]
        dc, tie[c] = _scaled(a[c], ec)[:2]
        top = dc == 10**17  # rounded up to the next power of ten
        e[c] = ec + top
        d[c] = np.where(top, 10**16, dc)
    halves = np.empty((n, 2))  # below 10**9, where floor(x / 1e4) is exact
    halves[:, 0], halves[:, 1] = np.divmod(d, 10**8)
    groups = np.empty((n, 2, 3), np.intp)
    q = np.floor(halves / 1e4)
    groups[:, :, 2] = halves - q * 1e4
    groups[:, :, 0] = np.floor(q / 1e4)
    groups[:, :, 1] = q - groups[:, :, 0] * 1e4
    src = np.empty((n, 8), np.uint32)
    src[:, :6] = t.groups.take(groups).reshape(n, 6)
    src[:, 6] = t.exponents.take(e + 282)
    src[:, 7] = np.where(np.signbit(v), *np.frombuffer(b"\0-.e\0\0.e", np.uint32))
    last = (t.ends.take(groups.transpose(1, 2, 0)) + t.starts).max(axis=(0, 1)) - 1
    zero = v == 0
    cls = t.layout.take(e + 282)
    cls[zero] = 23  # its digits are 1.0's, so last is _DIGIT[0]
    idx = t.layouts.take(cls * 24 + last, axis=0) + np.arange(0, 32 * n, 32)[:, None]
    cells = src.view(np.uint8).ravel().take(idx)
    for i in np.flatnonzero(tie | ~(ok | zero)):
        cell = format(float(v[i]), ".17g").encode().ljust(_WIDTH, b"\0")
        cells[i] = np.frombuffer(cell, np.uint8)
    return cells.reshape(*shape, _WIDTH)


def _rows(cols: list[np.ndarray]) -> bytes:
    """Lines of cell matrices side by side, comma-separated, by one masked compress."""
    comma = np.full((len(cols[0]), 1), ord(","), np.uint8)
    m = np.concatenate([part for c in cols for part in (c, comma)], axis=1)
    m[:, -1] = ord("\n")
    flat = m.ravel()
    return flat.compress(flat != 0).tobytes()


def _table(header: list[str], rows) -> bytes:
    """Header line plus one line per row, formatted column by column in blocks of rows."""
    out = [(",".join(header) + "\n").encode()]
    rows = iter(rows)
    while block := list(islice(rows, max(1, _BLOCK_CELLS // len(header)))):
        cols = list(zip(*block))
        nums = iter(_cells([c for c in cols if not isinstance(c[0], str)]))
        out.append(_rows([np.array([s.encode() for s in c]).view(np.uint8).reshape(len(c), -1)
                          if isinstance(c[0], str) else next(nums) for c in cols]))
    return b"".join(out)


@lru_cache(maxsize=4)
def _x_cells(grid: Grid) -> np.ndarray:
    """The cells of grid.x, formatted once per distinct grid and read-only.

    x depends on (x_min, x_max, n_points) alone, the fields a Grid hashes
    and compares by, so equal grids share one entry.
    """
    cells = np.empty((grid.n_points, _WIDTH), np.uint8)
    for lo in range(0, grid.n_points, _BLOCK_CELLS):
        cells[lo:lo + _BLOCK_CELLS] = _cells(grid.x[lo:lo + _BLOCK_CELLS])
    cells.flags.writeable = False
    return cells


def _grid_table(header: list[str], grid: Grid, cols) -> bytes:
    """The bytes of _table(header, zip(grid.x, *cols)), x taken from _x_cells."""
    xs = _x_cells(grid)
    out = [(",".join(header) + "\n").encode()]
    size = _BLOCK_CELLS // len(header)
    for lo in range(0, grid.n_points, size):
        block = slice(lo, lo + size)
        out.append(_rows([xs[block], *_cells([col[block] for col in cols])]))
    return b"".join(out)


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
    for i, ln in enumerate(lines):
        try:
            a, b = (float(cell) for cell in ln.split(","))
        except ValueError:  # a cell that is not a number, or not two cells
            if i == 0:  # the header
                continue
            raise ValidationError(f"sampled-function CSV row {ln!r} is not two numbers") from None
        if i == 0:
            raise ValidationError(f"sampled-function CSV has no header: its first line is {ln!r}")
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
