"""LAPACK through scipy's compiled wrapper, without importing scipy.linalg.

The routines must be the very objects scipy.linalg.lapack hands out, and
each call site must return the bits of the scipy.linalg function it
replaced.  A fresh process that runs the CLI must never import scipy.linalg
or scipy._lib.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigh_tridiagonal, lapack

from specdesign import _lapack, bands, lattice
from specdesign.bands import PeriodicSystem, zones
from specdesign.lattice import DECAYING, LatticeSystem, single_site
from specdesign.potentials import comb_cell

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTINES = ("dtbtrs", "dstebz", "dstein", "dsbevx")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_routines_are_scipys():
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(lapack, name)


#: run in a fresh process, after one of BREAKS has made the direct load miss
#: (both patch the lookup or the load, not the import system)
FALLBACK = """
import importlib.machinery, importlib.util, json, sys
{}
from specdesign import _lapack
direct = "scipy.linalg" not in sys.modules
import scipy.linalg.lapack as lapack
print(json.dumps({{"direct": direct,
                  "same": all(getattr(_lapack, n) is getattr(lapack, n) for n in {!r})}}))
"""
BREAKS = {
    "file missing": "find = importlib.util.find_spec\n"
                    "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' "
                    "else find(name, *a)",
    "load fails": "def refuse(spec): raise ImportError(spec.name)\n"
                  "importlib.util.module_from_spec = refuse",
}


def run_python(code: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("break_load", [None, *BREAKS])
def test_fresh_process_fallback(break_load):
    # undisturbed, the routines come straight from the file; with the file
    # out of reach, from scipy.linalg; the same objects either way
    report = json.loads(run_python(FALLBACK.format(BREAKS.get(break_load, ""), ROUTINES)))
    assert report == {"direct": break_load is None, "same": True}


@pytest.mark.parametrize("period, g", [(np.pi, 2.0), (8.0, -5.0)])
def test_seed_eigenvalues_are_eig_banded_s(monkeypatch, period, g):
    # every seed solve of a positive comb and of a tight-binding comb, by
    # value and by index, against eig_banded on the same matrix
    seen = []
    solve = bands._band_eigvals

    def spy(band, select, vl, vu, il, iu):
        before = band.copy()
        w = solve(band, select, vl, vu, il, iu)
        assert same_bits(band, before)   # the matrix is reused for the next call
        seen.append((before, select, vl, vu, il, iu, w))
        return w

    monkeypatch.setattr(bands, "_band_eigvals", spy)
    zones(PeriodicSystem(comb_cell(period, g), period), 10.0)
    assert sorted({call[1] for call in seen}) == [1, 2]
    for band, select, vl, vu, il, iu, w in seen:
        if select == 1:
            ref = eig_banded(band, eigvals_only=True, select="v", select_range=(vl, vu))
        else:
            ref = eig_banded(band, eigvals_only=True, select="i", select_range=(il - 1, iu - 1))
        assert same_bits(w, ref)


def stark(c=0.4, half=30):
    sites = np.arange(-half, half + 1)
    return LatticeSystem(-half, half, c * sites, DECAYING)


@pytest.mark.parametrize("system, lo, hi", [
    (single_site(-1.5), 0, 2), (single_site(1.5), 48, 50), (stark(), 0, 60), (stark(), 7, 19),
])
def test_diagonalize_is_eigh_tridiagonal(system, lo, hi):
    energies, vectors = lattice._diagonalize(system, lo, hi)
    ref_e, ref_v = eigh_tridiagonal(2.0 + system.v, np.full(system.size - 1, -1.0),
                                    select="i", select_range=(lo, hi))
    assert same_bits(energies, ref_e)
    assert same_bits(vectors, ref_v)


HYGIENE = """
import json, sys
from specdesign.cli import main
out = sys.argv[1]
codes = [main(["solve", "--base", "box", "--out", out + "/solve"]),
         main(["band", "--out", out + "/band"]),
         main(["lattice", "--out", out + "/lattice"])]
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy._lib")))
import scipy.linalg.lapack
from specdesign import _lapack
shared = (scipy.linalg.lapack._flapack is _lapack._flapack
          and scipy.linalg.lapack.dsbevx is _lapack.dsbevx)
print(json.dumps({"codes": codes, "loaded": loaded, "shared": shared}))
"""


def test_cli_runs_leave_scipy_linalg_unimported(tmp_path):
    report = json.loads(run_python(HYGIENE, str(tmp_path)))
    assert report["codes"] == [0, 0, 0]
    # only the compiled wrapper, under its own name
    assert report["loaded"] == ["scipy.linalg._flapack"]
    assert report["shared"]
