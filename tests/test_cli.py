import json
import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from specdesign.cli import (
    EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, RunConfig, figure_tags, main, parse_config, run,
    run_figure,
)
from specdesign.csvio import (
    _cells,
    _grid_table,
    _table,
    _x_cells,
    read_sampled_fn,
    sampled_fn_bytes,
    states_bytes,
)
from specdesign.errors import ValidationError
from specdesign.grid import SampledFn, make_grid
from specdesign.potentials import DECAYING_LINE, HARD_WALLS, Potential, free_line, half_line
from specdesign.solver import bound_states
from specdesign.verify import peak_width

from references import sample

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _subprocess_env(**extra) -> dict:
    """The environment plus this checkout's src on PYTHONPATH."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def _no_constant(name):
    """parse_constant for json.loads: Infinity, -Infinity and NaN are not JSON."""
    raise ValueError(f"{name} is not RFC 8259 JSON")


#: six samples on [0, 1] with no header line
HEADLESS_CSV = "0,1\n0.2,2\n0.4,3\n0.6,4\n0.8,5\n1.0,6\n"

CHAIN_CFG = """
# headline shift
base = box
tol_spectrum = 1e-5

[step]
kind = shift
n = 1
dE = -5
"""


class TestConfigParsing:
    def test_parse_chain(self):
        cfg = parse_config(CHAIN_CFG)
        assert cfg.base == "box"
        assert cfg.numerics["tol_spectrum"] == 1e-5
        assert cfg.chain == [{"kind": "shift", "n": 1, "dE": -5}]

    def test_bad_line_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("base box\n")

    def test_unknown_kind_rejected(self):
        cfg = parse_config("base = box\n[step]\nkind = teleport\n")
        with pytest.raises(ValidationError):
            cfg.validate()

    def test_step_base_typecheck(self):
        cfg = parse_config("base = comb\n[step]\nkind = shift\nn = 1\ndE = 1\n")
        with pytest.raises(ValidationError):
            cfg.validate()
        cfg2 = parse_config("base = lattice-stark\n[step]\nkind = shift_zone\ndE = 1\n")
        with pytest.raises(ValidationError):
            cfg2.validate()


class TestRun:
    def test_design_box_shift(self, tmp_path):
        cfg = parse_config(CHAIN_CFG)
        cfg.out = str(tmp_path / "run")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        oracle = manifest["steps"][0]["oracle"]
        assert oracle["pass"]
        measured = [row["measured"] for row in oracle["levels"]]
        assert measured == pytest.approx([-4.0, 4.0, 9.0, 16.0], abs=1e-5)
        names = {a["path"] for a in manifest["artifacts"]}
        assert {"potential.csv", "spectrum.csv", "states.csv", "steplog.csv"} <= names
        listed = set(p.name for p in (tmp_path / "run").iterdir()) - {"manifest.json"}
        assert listed == names  # manifest completeness

    def test_empty_chain_free_line(self, tmp_path):
        cfg = RunConfig(base="free-line", out=str(tmp_path / "fl"))
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        v = read_sampled_fn((tmp_path / "fl" / "potential.csv").read_bytes())
        assert np.max(np.abs(v.values)) == 0.0
        spectrum = (tmp_path / "fl" / "spectrum.csv").read_text().strip().splitlines()
        assert spectrum == ["n,energy,swf"]
        # the scan and the CSV formatting are timed apart from the steps
        assert manifest["timing"]["scattering_ms"] >= 0.0
        assert manifest["timing"]["csv_ms"] >= 0.0

    def test_involution_chain(self, tmp_path):
        cfg = parse_config(
            "base = free-line\n[step]\nkind = create\nE = -1\n[step]\nkind = remove\nn = 1\n"
        )
        cfg.out = str(tmp_path / "inv")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        v = read_sampled_fn((tmp_path / "inv" / "potential.csv").read_bytes())
        assert np.max(np.abs(v.values)) < 1e-6

    def test_create_below_an_existing_level(self, tmp_path):
        # the second create maps the first one's state onto its level 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base = free-line\n[step]\nkind = create\nE = -1\n"
                       "[step]\nkind = create\nE = -3\nsigma = 0.3\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        tol = manifest["resolved"]["tol_spectrum"]
        for entry in manifest["steps"]:
            assert entry["oracle"]["pass"] and entry["reflection"]["pass"]
        measured = [row["measured"] for row in manifest["steps"][-1]["oracle"]["levels"]]
        assert measured == pytest.approx([-3.0, -1.0], abs=tol)

    def test_validation_writes_nothing(self, tmp_path):
        cfg = parse_config("base = box\n[step]\nkind = shift\nn = 1\ndE = 50\n")
        cfg.out = str(tmp_path / "nope")
        with pytest.raises(ValidationError):
            run(cfg)
        assert not (tmp_path / "nope").exists()

    def test_numerical_failure_marks_manifest(self, tmp_path, monkeypatch):
        from specdesign import cli as cli_mod
        from specdesign.errors import NumericalFailure

        def boom(v, n, d_e, **kwargs):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setattr(cli_mod, "shift_level", boom)
        cfg = parse_config(CHAIN_CFG)
        cfg.out = str(tmp_path / "fail")
        manifest = run(cfg)
        assert manifest["status"] == "numerical-failure"
        assert manifest["failed_step"] == 0
        assert (tmp_path / "fail" / "manifest.json").exists()

    def test_steps_call_the_module_transforms(self, tmp_path, monkeypatch):
        # a tracer wraps cli.shift_level: a step that held the function object
        # itself would bypass the wrapper
        from specdesign import cli as cli_mod

        calls = []
        original = cli_mod.shift_level

        def spy(v, n, d_e, **kwargs):
            calls.append((n, d_e))
            return original(v, n, d_e, **kwargs)

        monkeypatch.setattr(cli_mod, "shift_level", spy)
        cfg = parse_config(CHAIN_CFG)
        cfg.out = str(tmp_path / "spy")
        assert run(cfg)["status"] == "ok"
        assert calls == [(1, -5.0)]

    def test_remove_step_calls_the_module_removal(self, tmp_path, monkeypatch):
        # every remove step, the ground level's included, goes through cli.remove_level_by_swf
        from specdesign import cli as cli_mod

        calls = []
        original = cli_mod.remove_level_by_swf

        def spy(v, n, **kwargs):
            calls.append(n)
            return original(v, n, **kwargs)

        monkeypatch.setattr(cli_mod, "remove_level_by_swf", spy)
        cfg = RunConfig(base="box", chain=[{"kind": "remove", "n": 1}], out=str(tmp_path / "spy"))
        assert run(cfg)["status"] == "ok"
        assert calls == [1]

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = parse_config(CHAIN_CFG)
            cfg.out = str(tmp_path / name)
            run(cfg)
            outs.append(tmp_path / name)
        for f in ("potential.csv", "spectrum.csv", "states.csv", "steplog.csv"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        m0.pop("timing"), m1.pop("timing")
        m0["config"].pop("out"), m1["config"].pop("out")
        assert m0 == m1

    def test_oracle_work_repeats_and_stays_in_its_run(self, tmp_path):
        # the memo lives for one run: a second run of the same config
        # repeats the first one's counts exactly instead of hitting its memo
        text = ("base = box\nverify_levels = 3\n[step]\nkind = scale_swf\nn = 2\n"
                "lambda = 1.5\n[step]\nkind = shift\nn = 1\ndE = -2\n")
        outs, work = [], []
        for name in ("a", "b"):
            cfg = parse_config(text)
            cfg.out = str(tmp_path / name)
            manifest = run(cfg)
            assert manifest["status"] == "ok"
            outs.append(tmp_path / name)
            work.append(manifest["oracle_work"])
        assert work[0] == work[1]
        solved = work[0]["bound_states"]
        assert 0 < solved["memo_hits"] < solved["calls"]
        assert solved["sweeps_per_level"] <= 10.0
        for f in ("potential.csv", "spectrum.csv", "states.csv", "steplog.csv"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

        # a band run that brackets a gap closure: the zone ledger repeats too
        text = ("base = comb\ne_max = 11\n[step]\nkind = shift_zone\naux_level = 2\ndE = 0.25\n"
                "[step]\nkind = shift_zone\naux_level = 2\ndE = 1.0\n")
        work = []
        for name in ("band_a", "band_b"):
            cfg = parse_config(text)
            cfg.out = str(tmp_path / name)
            manifest = run(cfg)
            assert manifest["status"] == "ok"
            assert "gap_closure_dE" in manifest["resolved"]
            work.append(manifest["oracle_work"])
        assert work[0] == work[1]
        zones = work[0]["zones"]
        # three tracked layouts plus the closure bisection from dE 0.25 to 1.0
        assert zones["calls"] == 3 + 10
        assert zones["edges_seeded"] == 7 * zones["calls"]
        assert zones["evaluations"] <= 60 * zones["calls"]
        assert zones["tangencies"] == 0
        for f in ("zones.csv", "zone_track.csv", "discriminant.csv"):
            assert (tmp_path / "band_a" / f).read_bytes() == (tmp_path / "band_b" / f).read_bytes()

    def test_scattering_ledger_repeats_on_a_line_chain(self, tmp_path):
        text = ("base = free-line\n[step]\nkind = create\nE = -1\n"
                "[step]\nkind = shift\nn = 1\ndE = 0.4\n")
        work = []
        for name in ("a", "b"):
            cfg = parse_config(text)
            cfg.out = str(tmp_path / name)
            manifest = run(cfg)
            assert manifest["status"] == "ok"
            work.append(manifest["oracle_work"])
        assert work[0] == work[1]
        scans = work[0]["scattering"]
        # a four-energy reflection check of the potentials before and after
        # each step, then scattering.csv
        assert scans["calls"] == 5
        assert scans["energies"] == 2 * 2 * 4 + 40
        assert scans["node_energies"] == 19109 * scans["energies"]
        assert scans["segments"] == 5 * 1024
        assert scans["stepped_energies"] == scans["energies"]  # segments of 18 steps
        assert (tmp_path / "a" / "scattering.csv").read_bytes() == \
            (tmp_path / "b" / "scattering.csv").read_bytes()

    def test_match_point_moves_off_the_wall(self, tmp_path):
        # after these steps level 1 of one potential sits where V <= E up to
        # the right wall; matching 4 nodes from the wall, where psi is 5e-4
        # of its peak, sent the Cooley steps off to E = 169 and the level to
        # the node-count bracket
        cfg = parse_config(
            "base = box\nverify_levels = 4\n"
            "[step]\nkind = shift\nn = 3\ndE = 3.761707094863045\n"
            "[step]\nkind = scale_swf\nn = 3\nlambda = 2.8395381050032427\n"
            "[step]\nkind = shift\nn = 1\ndE = -2.691264362090315\n"
            "[step]\nkind = remove\nn = 4\n"
        )
        cfg.out = str(tmp_path / "wall")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        assert manifest["oracle_work"]["bound_states"]["bracketed_levels"] == 0

    def test_band_tracking(self, tmp_path):
        cfg = RunConfig(base="comb", out=str(tmp_path / "band"),
                        chain=[{"kind": "shift_zone", "aux_level": 2, "dE": 0.5}],
                        numerics={"e_max": 10.0})
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        track = (tmp_path / "band" / "zone_track.csv").read_text().splitlines()
        assert track[0] == "dE,edge_energy,gap_width"
        assert len(track) == 3  # header + dE=0 + dE=0.5

    def test_band_on_a_tight_binding_comb(self, tmp_path):
        # the lowest zone, 5.5e-6 wide, is narrower than the error of its seeds
        cfg = tmp_path / "run.cfg"
        cfg.write_text("period = 10\nstrength = -3\n")
        out = tmp_path / "out"
        assert main(["band", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len((out / "zones.csv").read_text().splitlines()) == 1 + 11

    def test_lattice_run(self, tmp_path):
        cfg = RunConfig(base="lattice-single-site", out=str(tmp_path / "lat"),
                        params={"v0": 1.5, "count": 1, "which": "highest"})
        manifest = run(cfg)
        assert manifest["steps"][0]["levels"] == pytest.approx([4.5], abs=1e-8)

    def test_truncation_recorded(self, tmp_path):
        cfg = RunConfig(base="free-line", out=str(tmp_path / "tr"),
                        numerics={"truncation": 12.0})
        manifest = run(cfg)
        assert manifest["resolved"]["truncation"] == pytest.approx(12.0)

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECDESIGN_OUT", str(tmp_path / "root"))
        assert main(["solve", "--base", "box"]) == EXIT_OK
        assert (tmp_path / "root" / "run" / "manifest.json").exists()

    def test_two_step_chain_tracks_expectations(self, tmp_path):
        cfg = parse_config(
            "base = box\n"
            "[step]\nkind = shift\nn = 1\ndE = -5\n"
            "[step]\nkind = scale_swf\nn = 2\nlambda = 3\n"
        )
        cfg.out = str(tmp_path / "two")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        second = manifest["steps"][1]
        measured = [row["measured"] for row in second["oracle"]["levels"]]
        assert measured == pytest.approx([-4.0, 4.0, 9.0, 16.0], abs=1e-5)
        assert second["swf_ratio"]["pass"]
        assert second["swf_ratio"]["measured"] == pytest.approx(2.0, abs=1e-5)

    def test_long_mixed_chain(self, tmp_path):
        # four edits in sequence, each applied to the previous sampled output
        cfg = parse_config(
            "base = box\n"
            "[step]\nkind = shift\nn = 1\ndE = -5\n"
            "[step]\nkind = scale_swf\nn = 1\nlambda = 3\n"
            "[step]\nkind = shift\nn = 2\ndE = 0.5\n"
            "[step]\nkind = remove\nn = 2\n"
        )
        cfg.out = str(tmp_path / "long")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        final = manifest["steps"][-1]["oracle"]
        assert final["pass"], final
        measured = [row["measured"] for row in final["levels"]]
        assert measured == pytest.approx([-4.0, 9.0, 16.0], abs=1e-4)

    def test_potential_csv_base(self, tmp_path):
        from specdesign.potentials import soliton_well

        sw = soliton_well()
        csv_path = tmp_path / "well.csv"
        csv_path.write_bytes(sampled_fn_bytes(sw.body, "V"))
        cfg = RunConfig(base="potential-csv", out=str(tmp_path / "fromcsv"),
                        params={"path": str(csv_path), "bc": "decaying-line"},
                        numerics={"verify_levels": 1})
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        assert manifest["resolved"]["base_spectrum"] == pytest.approx([-1.0], abs=1e-6)

    def test_create_on_a_reflecting_line(self, tmp_path):
        # a level created under the bump 1.5 exp(-x^2) keeps its |R| of 0.95
        # to 0.028 at the check energies, within 5.7e-11
        v = sample(lambda x: 1.5 * np.exp(-x * x), make_grid(-15.0, 15.0, 19109))
        csv_path = tmp_path / "bump.csv"
        csv_path.write_bytes(sampled_fn_bytes(v, "V"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"base = potential-csv\npath = {csv_path}\nbc = decaying-line\n"
                       "[step]\nkind = create\nE = -1\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        reflection = json.loads((out / "manifest.json").read_text())["steps"][0]["reflection"]
        assert reflection["abs_R_before"] == pytest.approx(reflection["abs_R"], abs=1e-9)
        assert min(reflection["abs_R"]) > 0.02 and reflection["pass"]

    @pytest.mark.parametrize("lam", [2.0, -0.5])
    def test_scale_swf_on_a_line(self, tmp_path, lam):
        # the line's weight is its right tail constant, which the deformation
        # from the right end scales by sqrt(1 + lam)
        cfg = parse_config(f"base = free-line\n[step]\nkind = create\nE = -1\n"
                           f"[step]\nkind = scale_swf\nn = 1\nlambda = {lam}\n")
        cfg.out = str(tmp_path / "swf")
        manifest = run(cfg)
        assert manifest["status"] == "ok"
        ratio = manifest["steps"][1]["swf_ratio"]
        assert ratio["measured"] == pytest.approx(np.sqrt(1.0 + lam), abs=1e-5)


class TestMainEntry:
    def test_import_leaves_out_scipy_optimize(self):
        code = "import sys, specdesign.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_solve_exit_code(self, tmp_path):
        assert main(["solve", "--base", "box", "--out", str(tmp_path / "s")]) == EXIT_OK

    def test_solve_on_a_coarse_box_writes_every_level(self, tmp_path):
        # 11 nodes hold 9 levels; asking for 20 writes those 9
        out = tmp_path / "s"
        argv = ["solve", "--base", "box", "--points", "11", "--count", "20", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert len((out / "spectrum.csv").read_text().splitlines()) == 1 + 9

    def test_shift_of_a_level_past_the_grid_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base = box\npoints = 11\n[step]\nkind = shift\nn = 10\ndE = 0.5\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "level 10 does not exist" in capsys.readouterr().err

    def test_solve_with_steps_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CHAIN_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "solve takes no [step] blocks" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path):
        assert main(["figure", "nothing_here", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_unknown_base_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base = nowhere\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "unknown base 'nowhere'" in capsys.readouterr().err

    def test_figure_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a bundle is a checked run: a numerical failure ends it with a manifest
        from specdesign import cli as cli_mod
        from specdesign.errors import NumericalFailure

        def boom(numerics, manifest, artifacts, timing):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setitem(cli_mod._FIGURES, "fig1_1", (boom, "fails"))
        assert main(["figure", "fig1_1", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "fig1_1" / "manifest.json").read_text())
        assert manifest["status"] == "numerical-failure"
        assert manifest["error"] == "synthetic failure" and manifest["failed_step"] == 0
        assert "status: numerical-failure" in capsys.readouterr().out

    def test_figure_with_a_misplaced_level_fails_verification(self, tmp_path, monkeypatch):
        # the oracle checks a bundle's transform as it checks a design step
        from specdesign import cli as cli_mod

        shift_level = cli_mod.shift_level
        monkeypatch.setattr(cli_mod, "shift_level",
                            lambda v, n, d_e, **kwargs: shift_level(v, n, d_e + 0.5, **kwargs))
        assert main(["figure", "fig1_1", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "fig1_1" / "manifest.json").read_text())
        assert manifest["status"] == "verification-failed"
        assert not manifest["steps"][0]["oracle"]["pass"]

    def test_figure_on_a_coarse_grid_fails_verification(self, tmp_path):
        # 11 nodes: the shifted level misses its target by about 0.05
        assert main(["figure", "fig1_1", "--points", "11", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "fig1_1" / "manifest.json").read_text())
        assert manifest["status"] == "verification-failed"
        assert manifest["steps"][0]["oracle"]["worst_dev"] > 1e-2

    def test_figure_on_too_few_nodes_writes_nothing(self, tmp_path, capsys):
        assert main(["figure", "fig4_1", "--points", "5", "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert not (tmp_path / "fig4_1").exists()
        assert "grid too coarse" in capsys.readouterr().err

    def test_missing_level_fails_verification(self, tmp_path, monkeypatch):
        # a create that adds no level leaves the oracle one level short: the
        # level is recorded as not measured, the manifest stays strict JSON
        # (no Infinity or NaN) and the run exits 3
        from specdesign import cli as cli_mod
        from specdesign.darboux import TransformResult

        monkeypatch.setattr(cli_mod, "darboux_create",
                            lambda v, e_new, sigma, **kwargs: TransformResult(v, (), ()))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base = free-line\n[step]\nkind = create\nE = -1\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_no_constant)
        assert manifest["status"] == "verification-failed"
        oracle = manifest["steps"][0]["oracle"]
        assert oracle["levels"] == [{"n": 1, "expected": -1.0, "measured": None, "dev": None}]
        assert oracle["worst_dev"] is None
        assert not oracle["pass"]

    @pytest.mark.parametrize("step", ["kind = shift\ndE = 0.5\n", "kind = shift\nn = 1.5\ndE = 0.5\n"])
    def test_bad_step_exit_code(self, tmp_path, step):
        # a missing key or a non-integer level index is invalid input
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base = box\n[step]\n" + step)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        "base = half-line\n[step]\nkind = bsec\nE = -1\nlambda = 1\n",
        "base = half-line\n[step]\nkind = bsec\nE = 0\nlambda = 1\n",
        "base = half-line\n[step]\nkind = bsec\nE = 9\nlambda = 1\n"
        "[step]\nkind = bsec\nE = 16\nlambda = 1\n",
        "base = box\n[step]\nkind = shift\nn = 1\ndE = 0.5\nsigma = 0.5\n",
        "base = comb\n[step]\nkind = shift_zone\ndE = 0.1\n"
        "[step]\nkind = shift_zone\ndE = 0.2\naux_level = 3\n",
        "base = box\nverify_levels = 2.5\n",
        "base = box\nverify_levels = 0\n",
        "base = box\ncap = 0\n[step]\nkind = shift\nn = 1\ndE = 0.5\n",
        "base = box\ncap = -1\n[step]\nkind = shift\nn = 1\ndE = 0.5\n",
        "base = box\npoints = abc\n",
        "base = comb\ne_max = abc\n",
        "base = box\nwidth = abc\n",
        "base = comb\nstrength = abc\n",
        "base = lattice-single-site\nv0 = abc\n",
        "base = lattice-single-site\ncount = abc\n",
        "base = lattice-single-site\nhalf_width_sites = -3\n",
        "base = potential-csv\npath = 5\n",
        "base = lattice-single-site\ncount = 2.5\n",
        "base = box\npoints = 2.5\n",
        "base = box\nwidht = 2\n",
        "base = box\nbc = foo\n",
        "base = box\nwidth = 1e300\n",
        "base = free-line\ntruncation = 1e5\n",
        "base = box\npoints = 4194305\n",
    ])
    def test_bad_chain_exit_code(self, tmp_path, capsys, config):
        # an embedded-state energy of 0 or below, a bsec step after another
        # (it builds on the bare half-line and would drop the first), a key
        # the step kind does not read, aux_level values that disagree (the
        # first step's is the default 2), a verify_levels that is not a
        # positive integer, a base parameter or numerics option that is not a
        # number of its kind or sign, a path that is not text, a key the base
        # does not read (a misspelt width, or cap: the emission cap is a
        # constant) and a grid of more than grid.MAX_POINTS nodes are invalid
        # input
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--points", "--tol", "--truncation", "--count"])
    def test_zero_flag_exit_code(self, tmp_path, capsys, flag):
        # a zero flag reaches validation instead of leaving the default in place
        out = tmp_path / "out"
        assert main(["solve", "--base", "free-line", flag, "0", "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config, path, message", [
        ("missing.cfg", None, "cannot read "), (".", None, "cannot read "),
        ("run.cfg", "missing.csv", "cannot read "), ("run.cfg", ".", "cannot read "),
        ("run.cfg", "words.csv", "sampled-function CSV row 'foo,bar'"),
        ("run.cfg", "three.csv", "sampled-function CSV row '1,2,3'"),
        ("run.cfg", "headless.csv", "sampled-function CSV has no header: its first line is '0,1'"),
    ], ids=["config-missing", "config-directory", "csv-missing", "csv-directory",
            "csv-not-a-number", "csv-three-cells", "csv-no-header"])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, config, path, message):
        # a config file or potential-csv path that is missing or a directory,
        # a potential-csv row that is not two numbers and a potential-csv
        # without a header are invalid input
        (tmp_path / "words.csv").write_text("x,V\n1,2\nfoo,bar\n")
        (tmp_path / "three.csv").write_text("x,V\n1,2,3\n2,2\n3,1\n")
        (tmp_path / "headless.csv").write_text(HEADLESS_CSV)
        if path is not None:
            (tmp_path / "run.cfg").write_text(f"base = potential-csv\npath = {tmp_path / path}\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(tmp_path / config), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: " + message)

    @pytest.mark.parametrize("args", [
        ["--e-max", "nan"], ["--e-max", "inf"], ["--e-max=-inf"],
        ["--strength", "nan"], ["--strength", "inf"],
        ["--shift-aux", "0", "--de", "0.1"], ["--shift-aux", "-1", "--de", "0.1"],
        ["--shift-aux", "3"],
    ])
    def test_bad_band_input_exit_code(self, tmp_path, capsys, args):
        # non-finite numbers, auxiliary levels below 1 and an auxiliary level
        # with no --de steps to carry it are invalid input
        out = tmp_path / "out"
        assert main(["band", *args, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags, config", [
        (["--base", "free-line", "--truncation", "nan"], ""),
        ([], "base = box\nwidth = nan\n"),
        ([], "base = half-line\nlength = -inf\n"),
        ([], "base = box\ntol_spectrum = nan\n[step]\nkind = shift\nn = 1\ndE = 0.5\n"),
        ([], "base = box\n[step]\nkind = shift\nn = 1\ndE = inf\n"),
        ([], "base = lattice-single-site\nv0 = -inf\n"),
        ([], "base = comb\ne_max = nan\n"),
        pytest.param([], "base = box\nwidth = 1" + "0" * 400 + "\n", id="int-beyond-every-float"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, flags, config):
        # a non-finite flag, base parameter, numerics option or step value is invalid input
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), *flags, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["free-line", "half-line"])
    def test_remove_without_a_level_exit_code(self, tmp_path, base):
        # neither base has a bound level to remove
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"base = {base}\n[step]\nkind = remove\nn = 1\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_remove_above_the_tracked_levels(self, tmp_path):
        manifest = run(RunConfig(base="box", chain=[{"kind": "remove", "n": 5}],
                                 out=str(tmp_path / "rm")))
        assert manifest["status"] == "ok"
        measured = [row["measured"] for row in manifest["steps"][0]["oracle"]["levels"]]
        assert measured == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-6)

    def test_lattice_stark_mode(self, tmp_path):
        out = tmp_path / "ladder"
        assert main(["lattice", "--mode", "stark", "--slope", "0.5", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["params"] == {"slope": 0.5, "window_sites": 40}
        levels = manifest["steps"][0]["levels"]
        assert len(levels) > 10
        assert np.diff(levels) == pytest.approx(0.5, abs=1e-9)  # the ladder E_m = 2 + c m
        assert {"lattice_spectrum.csv", "lattice_states.csv"} <= {p.name for p in out.iterdir()}

    def test_bsec_step_through_design(self, tmp_path):
        cfg = tmp_path / "bsec.cfg"
        cfg.write_text("base = half-line\n[step]\nkind = bsec\nE = 4\nlambda = 1\n")
        out = tmp_path / "bsec"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        (entry,) = manifest["steps"]
        assert entry["log"][0]["kind"] == "bsec"
        assert entry["log"][0]["norm_total_analytic"] == 1.0
        assert "bsec_metrics" not in entry  # the log holds the step's metrics, once
        assert "oracle" not in entry  # the embedded level is not a bound state to re-solve
        assert (out / "potential.csv").exists()

    def test_failed_verification_exit_code(self, tmp_path, capsys):
        # a shift verified to 1e-15 fails its check: exit 3 with artifacts and a manifest
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("base = box\ntol_spectrum = 1e-15\n[step]\nkind = shift\nn = 1\ndE = -5\n")
        out = tmp_path / "tight"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "verification-failed"
        assert not manifest["steps"][0]["oracle"]["pass"]
        assert (out / "potential.csv").exists()
        assert capsys.readouterr().out.startswith("status: verification-failed")

    def test_tall_barrier_is_a_numerical_failure(self, tmp_path):
        # the box's left shots grow by about e^790 through the barrier: the
        # sweeps must stay finite, and the failed shift seed exits 3 with a
        # manifest, not 2 as if the input were invalid
        g = make_grid(0.0, 30.0, 4001)
        csv_path = tmp_path / "barrier.csv"
        csv_path.write_bytes(sampled_fn_bytes(SampledFn(g, np.where(g.x > 5.0, 1000.0, 0.0)), "V"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"base = potential-csv\npath = {csv_path}\n"
                       "[step]\nkind = shift\nn = 1\ndE = 0.5\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "numerical-failure"

    def test_half_line_ground_shift(self, tmp_path):
        # the well -6 exp(-(x - 2)^2) on [0, 30] has levels -3.916 and -0.554;
        # its decaying end is no wall for the shift seed's Wronskian
        v = sample(lambda x: -6.0 * np.exp(-(x - 2.0) ** 2), half_line(30.0).grid)
        csv_path = tmp_path / "well.csv"
        csv_path.write_bytes(sampled_fn_bytes(v, "V"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"base = potential-csv\npath = {csv_path}\nbc = decaying-half-line\n"
                       "[step]\nkind = shift\nn = 1\ndE = 0.8\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"

    def test_figure_writes_its_bundle(self, tmp_path):
        assert main(["figure", "fig1_1", "--out", str(tmp_path), "--points", "301"]) == EXIT_OK
        written = {p.name: p.read_bytes() for p in (tmp_path / "fig1_1").iterdir()}
        manifest = run_figure("fig1_1", tmp_path / "again", points=301)
        assert sorted(written) == sorted(["manifest.json"]
                                         + [a["path"] for a in manifest["artifacts"]])
        for name in written.keys() - {"manifest.json"}:
            assert written[name] == (tmp_path / "again" / name).read_bytes()
        assert json.loads(written["manifest.json"])["status"] == "ok"

    def test_figure_takes_no_run_flags(self, tmp_path):
        # a figure bundle reads no config: --config and --tol are errors
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig1_1", "--config", str(tmp_path / "none.cfg"), "--tol", "5",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_VALIDATION
        assert not (tmp_path / "fig1_1").exists()

    def test_figure_list(self, capsys):
        assert main(["figure", "--list"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert "fig1_1" in out and "fig7_13" in out


class TestFlagsOverTheFile:
    """A flag that is given beats the config file, which beats the defaults."""

    def _manifest(self, tmp_path, config: str, argv: list) -> dict:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return json.loads((out / "manifest.json").read_text())

    def test_band_strength(self, tmp_path):
        manifest = self._manifest(tmp_path, "strength = 2.0\n", ["band", "--strength", "1.0"])
        assert manifest["resolved"]["params"] == {"period": pytest.approx(np.pi), "strength": 1.0}

    def test_band_e_max(self, tmp_path):
        self._manifest(tmp_path, "e_max = 10.0\n", ["band", "--e-max", "7.5"])
        last = (tmp_path / "out" / "discriminant.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 7.5

    def test_lattice_v0(self, tmp_path):
        manifest = self._manifest(tmp_path, "v0 = -1.5\n", ["lattice", "--v0=-3"])
        assert manifest["resolved"]["params"]["v0"] == -3.0
        # the single-site bound level E = 2 - sqrt(4 + v0^2)
        assert manifest["steps"][0]["levels"] == pytest.approx([2.0 - np.sqrt(13.0)], abs=1e-8)

    def test_solve_keeps_the_file_verify_levels(self, tmp_path):
        # no --count: the file's verify_levels stands
        manifest = self._manifest(tmp_path, "base = box\nverify_levels = 2\n", ["solve"])
        assert manifest["resolved"]["verify_levels"] == 2
        assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + 2
        # and the defaults are filled in under resolved, not echoed under config
        assert manifest["config"]["params"] == {}
        assert manifest["resolved"]["params"] == {"width": pytest.approx(np.pi)}


def _bundle(tmp_path, tag, points=None) -> dict[str, bytes]:
    """The files of one figure bundle, manifest.json left out."""
    manifest = run_figure(tag, tmp_path / tag, points)
    return {a["path"]: (tmp_path / tag / a["path"]).read_bytes() for a in manifest["artifacts"]}


class TestFigures:
    def test_all_tags_defined(self):
        assert figure_tags() == sorted(
            ["fig1_1", "fig1_2", "fig1_6", "fig2_1", "fig2_5", "fig4_1",
             "fig5_1", "fig6_13", "fig6_14", "fig6_22", "fig7_6", "fig7_13"]
        )

    def test_fig1_1_columns(self, tmp_path):
        bundle = _bundle(tmp_path, "fig1_1", points=501)
        header = bundle["fig1_1_curves.csv"].decode().splitlines()[0]
        assert header == "x,V,dV,psi1_offset,psi2_offset"
        assert "README.txt" in bundle

    def test_fig7_13_files(self, tmp_path):
        bundle = _bundle(tmp_path, "fig7_13")
        names = set(bundle)
        assert {"fig7_13_ladder_C1.0.csv", "fig7_13_ladder_C0.5.csv",
                "fig7_13_ladder_C0.25.csv", "README.txt"} <= names

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(ValidationError):
            run_figure("fig9_99", tmp_path / "fig9_99")
        assert not (tmp_path / "fig9_99").exists()

    def test_fig6_14_total_reflection_and_growing_width(self, tmp_path):
        # acceptance checks 8b and 8c on the bundle's own curves, and in its manifest
        bundle = _bundle(tmp_path, "fig6_14")
        widths = []
        for lam in (0.5, 1.0, 2.0):
            rows = bundle[f"fig6_14_reflection_lam{lam}.csv"].decode().splitlines()
            assert rows[0] == "energy,abs_R"
            energies, abs_r = np.array([row.split(",") for row in rows[1:]], dtype=float).T
            assert abs_r[np.argmin(np.abs(energies - 10.0))] > 0.999
            widths.append(peak_width(energies, abs_r)[2])
        assert widths[0] < widths[1] < widths[2]
        manifest = json.loads((tmp_path / "fig6_14" / "manifest.json").read_text())
        assert [s["abs_R_at_E"] > 0.999 for s in manifest["steps"]] == [True] * 3
        assert [s["width"] for s in manifest["steps"]] == widths
        assert manifest["checks"] == {"total_reflection": True, "width_grows": True}

    def test_fig4_1_records_its_levels_and_reflection(self, tmp_path):
        # acceptance check 7: the eight levels and |R| = 0, measured by the oracle
        run_figure("fig4_1", tmp_path / "fig4_1")
        (step,) = json.loads((tmp_path / "fig4_1" / "manifest.json").read_text())["steps"]
        assert len(step["oracle"]["levels"]) == 8 and step["oracle"]["pass"]
        assert step["reflection"]["pass"] and max(step["reflection"]["energies"]) == 64.0

    def test_fig4_1_spectrum_is_the_oracles(self, tmp_path):
        # the spectrum lists the levels the manifest checked, n = 1 the deepest
        manifest = run_figure("fig4_1", tmp_path / "fig4_1")
        rows = (tmp_path / "fig4_1" / "fig4_1_spectrum.csv").read_text().splitlines()
        assert rows[0] == "n,energy,swf"
        n, energy, _ = np.array([row.split(",") for row in rows[1:]], dtype=float).T
        assert n.tolist() == list(range(1, 9))
        assert np.all(np.diff(energy) > 0)
        levels = manifest["steps"][0]["oracle"]["levels"]
        assert energy.tolist() == [level["measured"] for level in levels]

    @pytest.mark.parametrize("tag, config", [
        ("fig1_1", "base = box\n[step]\nkind = shift\nn = 1\ndE = -5.0\n"),
        ("fig1_6", "base = free-line\n[step]\nkind = create\nE = -1.0\nsigma = 0.5\n"),
    ])
    def test_chain_figure_step_is_the_design_step(self, tmp_path, tag, config):
        # the figure's step adds only the record of the states it draws
        figure = run_figure(tag, tmp_path / tag)
        cfg = parse_config(config)
        cfg.out = str(tmp_path / "design")
        design = run(cfg)
        for step in figure["steps"]:
            assert step.pop("drawn")["orthonormality_defect"] < 1e-8
        assert json.loads(json.dumps(figure["steps"])) == json.loads(json.dumps(design["steps"]))
        assert figure["resolved"]["base_spectrum"] == design["resolved"]["base_spectrum"]

    @pytest.mark.parametrize("tag", figure_tags())
    def test_every_tag_builds(self, tmp_path, tag):
        assert main(["figure", tag, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / tag / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["oracle_work"]["bound_states"]["calls"] >= 0
        assert len(manifest["timing"]["steps_ms"]) == len(manifest["steps"])
        written = {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()}
        assert "README.txt" in written
        assert len(written) >= 3
        for name, data in written.items():
            assert data  # non-empty
            if name.endswith(".csv"):
                header, first = data.decode().splitlines()[:2]
                assert "," in header and "," in first

    @pytest.mark.parametrize("tag, bc", [("fig1_1", HARD_WALLS), ("fig1_6", DECAYING_LINE),
                                         ("fig2_5", HARD_WALLS), ("fig5_1", HARD_WALLS)])
    def test_curves_draw_the_oracle_states(self, tmp_path, tag, bc):
        # each psi column, raised to its energy, is the oracle's state of the
        # potential in the V column, which holds its samples exactly
        manifest = run_figure(tag, tmp_path / tag)
        g = manifest["resolved"]["grid"]
        grid = make_grid(g["x_min"], g["x_max"], g["n_points"])
        curves = [a["path"] for a in manifest["artifacts"] if a["path"].endswith(".csv")]
        for name in curves:
            lines = (tmp_path / tag / name).read_text().splitlines()
            rows = np.array([row.split(",") for row in lines[1:]], dtype=float)
            states = bound_states(Potential(SampledFn(grid, rows[:, 1]), bc), rows.shape[1] - 3)
            assert len(states) == rows.shape[1] - 3
            for s, column in zip(states, rows[:, 3:].T):
                assert np.array_equal(column, s.psi.values + s.energy)

    def test_drawn_states_records(self, tmp_path):
        # the bump/knot rule of the shifted level: a lowered ground level (fig1_1)
        # gains attraction at its bump, a raised one (fig1_2) repulsion, and level 2
        # raised toward level 3 (fig5_1) repulsion at both bumps, attraction at the knot
        patterns = {"fig1_1": [{"bumps": [-1.0], "knots": []}],
                    "fig1_2": [{"bumps": [1.0], "knots": []}],
                    "fig5_1": [{"bumps": [1.0, 1.0], "knots": [-1.0]}] * 3}
        for tag in ("fig1_1", "fig1_2", "fig1_6", "fig2_1", "fig2_5", "fig5_1", "fig6_13"):
            steps = run_figure(tag, tmp_path / tag)["steps"]
            assert all(step["drawn"]["orthonormality_defect"] < 1e-8 for step in steps)
            assert ([step["drawn"].get("sign_pattern") for step in steps]
                    == patterns.get(tag, [None] * len(steps)))

    @pytest.mark.parametrize("tag", ["fig6_14", "fig7_6", "fig7_13"])
    def test_fixed_grid_bundles_reject_points(self, tmp_path, capsys, tag):
        assert main(["figure", tag, "--out", str(tmp_path), "--points", "101"]) == EXIT_VALIDATION
        assert not (tmp_path / tag).exists()
        assert f"figure {tag} takes no points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["band"], ["band", "--de", "0.5"], ["lattice"],
                                  ["lattice", "--mode", "stark"]])
def test_one_timing_per_step(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["timing"]["steps_ms"]) == len(manifest["steps"])


#: format(x, ".17g")'s hard cases: signed zeros, NaN and infinities, the extremes, each
#: power of ten with both neighbours, ties at the 17th digit, the switches between fixed
#: and exponent notation, and cells that are ints or bools
FORMAT_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    *(y for k in range(-300, 301)
      for y in (math.nextafter(10.0**k, 0.0), 10.0**k, math.nextafter(10.0**k, math.inf))),
    1000000000000000.25, 1000000000000000.75, 123456789012345.625,
    9.9999999999999995e-05, 1e-4, 1e-5, 1e16, 1e17, 99999999999999999.0,
    *range(-3, 4), 2**53 - 1, 2**53 + 1, 2**60 + 1, True,
]


def _text(cells) -> list[str]:
    """Cells of the column formatter as str, its NUL fill dropped."""
    return [bytes(row).replace(b"\0", b"").decode() for row in cells]


def _reference(values) -> list[str]:
    return [format(float(x), ".17g") for x in values]


class TestCsvRoundTrip:
    def test_sampled_fn_lossless(self):
        g = make_grid(-1.0, 2.0, 501)
        f = sample(lambda x: np.sin(3 * x) * np.exp(x / 3), g)
        back = read_sampled_fn(sampled_fn_bytes(f))
        assert np.array_equal(back.values, f.values)
        assert back.grid == f.grid

    def test_tables_match_the_cell_by_cell_formatter(self):
        def cell_by_cell(header, rows):
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(c if isinstance(c, str) else format(float(c), ".17g")
                                      for c in row))
            return ("\n".join(lines) + "\n").encode()

        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]
        values = np.resize(special, 3 * 9001).reshape(9001, 3)  # three blocks of rows
        rows = [(n, *v) for n, v in enumerate(values.tolist(), start=1)]
        rows[7] = (np.int64(8), np.float64(values[7, 0]), 2**60 + 1, True)
        header = ["n", "a", "b", "c"]
        assert _table(header, rows) == cell_by_cell(header, rows)
        mixed = [("1", "shift", "dE=0.5;n=1", -0.0), ("2", "remove", "", np.nan)]
        assert _table(header, mixed) == cell_by_cell(header, mixed)
        assert _table(header, []) == cell_by_cell(header, [])

    def test_grid_columns_match_the_table(self):
        g = make_grid(-3.0, 5.0, 2 * 4096 + 809)  # three blocks of rows
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1.797e308, 0.1]
        a = np.resize(special, g.n_points)
        b = np.sin(g.x)
        header = ["x", "a", "b"]
        assert _grid_table(header, g, [a, b]) == _table(header, zip(g.x, a, b))

    def test_states_bytes_without_states(self):
        g = make_grid(-1.0, 1.0, 9)
        assert states_bytes(g, []) == _table(["x"], zip(g.x))

    def test_x_memo_is_bounded_and_keyed_on_equal_grids(self):
        assert _x_cells.cache_info().maxsize is not None
        g = make_grid(-2.0, 7.0, 1001)
        first = _x_cells(g)
        hits = _x_cells.cache_info().hits
        twin = make_grid(-2.0, 7.0, 1001)
        assert twin is not g
        assert _x_cells(twin) is first
        assert _x_cells.cache_info().hits == hits + 1
        assert not first.flags.writeable
        assert _text(first) == _reference(g.x)

    def test_headerless_csv_is_rejected(self):
        # the first data row used to be skipped as the header: a 5-node grid on [0.2, 1]
        with pytest.raises(ValidationError, match="no header: its first line is '0,1'"):
            read_sampled_fn(HEADLESS_CSV)
        assert read_sampled_fn("x,V\n" + HEADLESS_CSV[:-6]).grid == make_grid(0.0, 0.8, 5)

    def test_formatter_matches_format_on_edge_cases(self):
        assert _text(_cells(FORMAT_EDGES)) == _reference(FORMAT_EDGES)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_formatter_matches_format_on_floats(self, xs):
        assert _text(_cells(xs)) == _reference(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_formatter_matches_format_on_bit_patterns(self, bits):
        xs = np.array(bits, np.uint64).view(np.float64)
        assert _text(_cells(xs)) == _reference(xs)

    def test_formatter_matches_format_on_random_bit_patterns(self):
        bits = np.random.default_rng(37).integers(0, 2**64, 40_000, np.uint64, endpoint=False)
        xs = bits.view(np.float64)
        assert _text(_cells(xs)) == _reference(xs)

    def test_table_working_set_does_not_grow(self):
        # the %-format formatter peaked at 2,541,732 bytes on this table, its x
        # memo of str warm too
        grid = free_line().grid
        v = -2.0 / np.cosh(grid.x) ** 2
        _grid_table(["x", "V"], grid, [v])
        tracemalloc.start()
        try:
            _grid_table(["x", "V"], grid, [v])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_points == 19_109
        assert peak <= 2_541_732


class TestThreadCount:
    """CSV bytes do not depend on the BLAS / OpenMP thread count."""

    #: a line chain whose Cooley corrections sum branches of over 10,000 nodes
    LINE_CHAIN = ("base = free-line\n"
                  "[step]\nkind = create\nE = -0.5963050276247914\nsigma = 0.5156893875483242\n"
                  "[step]\nkind = shift\nn = 1\ndE = -0.44224218476789545\n")

    def _csvs(self, tmp_path, threads: int) -> dict[str, bytes]:
        cfg = tmp_path / "line.cfg"
        cfg.write_text(self.LINE_CHAIN)
        out = tmp_path / f"threads{threads}"
        env = _subprocess_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        code = "import sys; from specdesign.cli import main; sys.exit(main(sys.argv[1:]))"
        for args in (["figure", "fig4_1", "--out", str(out / "figure")],
                     ["design", "--config", str(cfg), "--out", str(out / "line")]):
            subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           check=True, timeout=300)
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.csv")}

    def test_csv_bytes_match_under_one_and_two_threads(self, tmp_path):
        one, two = self._csvs(tmp_path, 1), self._csvs(tmp_path, 2)
        assert "figure/fig4_1/fig4_1_potential.csv" in one and "line/potential.csv" in one
        assert sorted(one) == sorted(two)
        assert [name for name in sorted(one) if one[name] != two[name]] == []
