"""The CLI contract, checked by fuzzing: every config ends in exit 0, 2 or 3.

Configs are drawn from the base names, the step kinds, every base parameter,
numerics option and step key plus one unknown key, and a small pool of
values: numbers of each sign, a fraction, text and non-finite numbers.
Every grid stays small (at most 2001 nodes, widths and periods of at most a
few units), so that each run takes milliseconds.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specdesign import cli
from specdesign.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

#: each base with its parameters
BASES = {"box": ["width"], "free-line": [], "half-line": ["length"], "potential-csv": ["path", "bc"],
         "comb": ["period", "strength"],
         "lattice-single-site": ["v0", "half_width_sites", "count", "which"],
         "lattice-stark": ["slope", "window_sites"]}
NUMERICS = ["points", "truncation", "tol_spectrum", "tol_reflection", "verify_levels", "e_max"]
STEP_KEYS = {"shift": ["n", "dE"], "create": ["E", "sigma"], "remove": ["n"],
             "scale_swf": ["n", "lambda"], "bsec": ["E", "lambda"],
             "shift_zone": ["dE", "aux_level"]}
UNKNOWN = "unknown_key"
VALUES = ["0", "-1", "2.5", "abc", "nan", "-inf", "1", "2", "3"]
#: the grid sizes a config starts from; a later `points` line may replace it
POINTS = ["101", "301", "2001"]


@st.composite
def configs(draw) -> str:
    """A config of one base, up to three of its keys or the unknown one, and up to two steps."""
    value = st.sampled_from(VALUES)
    base = draw(st.sampled_from(sorted(BASES)))
    lines = [f"base = {base}", f"points = {draw(st.sampled_from(POINTS))}"]
    keys = BASES[base] + NUMERICS + [UNKNOWN]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        lines.append(f"{key} = {draw(value)}")
    for kind in draw(st.lists(st.sampled_from(sorted(STEP_KEYS)), max_size=2)):
        keys = STEP_KEYS[kind] + [UNKNOWN]
        lines += ["[step]", f"kind = {kind}"]
        lines += [f"{key} = {draw(value)}"
                  for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                           unique=True))]
    return "\n".join(lines) + "\n"


def _run(config: Path, out: Path) -> tuple[int, dict]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["design", "--config", str(config), "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))} if out.exists() else {}
    return code, digests


def test_keys_cover_the_tables():
    # the fuzz draws every key the tables declare, and no other
    assert {name: sorted(base.optional) for name, base in cli._BASES.items()} \
        == {name: sorted(keys) for name, keys in BASES.items()}
    assert sorted(cli._NUMERICS.optional) == sorted(NUMERICS)
    assert {name: sorted([*kind.required, *kind.optional]) for name, kind in cli._STEPS.items()} \
        == {name: sorted(keys) for name, keys in STEP_KEYS.items()}


def test_every_flag_names_a_table_key():
    params = {key for keys in BASES.values() for key in keys}
    for flags in [cli._RUN_FLAGS, *(flags for _, flags in cli._COMMANDS.values())]:
        for flag, dest in flags.items():
            table, key = dest.split(".")
            assert key in {"params": params, "numerics": NUMERICS}[table], flag


#: 60 examples is the smallest count at which this draw reaches a traceback in
#: the CLI before the key tables (comb period = abc, box points = abc, box
#: width = abc); more examples found nothing further
@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_exits_0_2_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(text)
        code, digests = _run(config, Path(tmp) / "a")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), text
        if code == EXIT_VALIDATION:
            assert not (Path(tmp) / "a").exists(), text
            return
        if code == EXIT_NUMERICAL:
            assert (Path(tmp) / "a" / "manifest.json").exists(), text
        assert _run(config, Path(tmp) / "b") == (code, digests), text
