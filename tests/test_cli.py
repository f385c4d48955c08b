"""Command-line surface: formats, determinism, seeds, and exit codes."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from conftest import child_env
from hexbubble import cli, solver
from hexbubble.solver import find_alpha0, solve

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO_ROOT / "docs" / "output_schema.json"
PYPROJECT_PATH = REPO_ROOT / "pyproject.toml"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- solve


def test_solve_text(capsys):
    code, out, err = run_cli(["solve", "--alpha", "0.3"], capsys)
    assert code == 0 and err == ""
    assert "alpha      = 0.3" in out
    assert "case       = kissing" in out
    assert "perimeter  = 5.197335014" in out
    assert "candidates = embedded" in out  # sorted keys, pipe-separated
    assert " | kissing " in out
    assert "solution 1: kissing" in out


def test_solve_json_schema_and_roundtrip(capsys):
    schema = json.loads(SCHEMA_PATH.read_text())
    for alpha in (0.3, find_alpha0()):
        code, out, _ = run_cli(["solve", "--alpha", repr(alpha), "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, schema)
        result = solve(alpha)
        assert record["case"] == result.case
        assert abs(float(record["alpha"]) - alpha) <= 1e-11
        assert abs(float(record["perimeter"]) - result.perimeter) <= 1e-11
        assert abs(float(record["joint_length"]) - result.joint_length) <= 1e-11
        assert len(record["solutions"]) == len(result.solutions)
        for block, entry in zip(record["solutions"], result.solutions):
            assert block["case"] == entry.case
            assert abs(float(block["L1"]) - entry.L1) <= 1e-11
            assert len(block["vertices_a"]) == len(entry.geometry_a.vertices)


def test_solve_both_case_lists_two_solutions(capsys):
    a0 = find_alpha0()
    code, out, _ = run_cli(["solve", "--alpha", repr(a0), "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["case"] == "both"
    assert [b["case"] for b in record["solutions"]] == ["embedded", "kissing"]


# ---------------------------------------------------------------- sweep


def test_sweep_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, err = run_cli(
            ["sweep", "--from", "0.1", "--to", "0.2", "--steps", "12", "--out", str(out)],
            capsys,
        )
        assert code == 0 and err == ""
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    lines = b1.decode("ascii").splitlines()
    assert lines[0] == "alpha,case,perimeter,L1,L2"
    assert len(lines) == 13  # header + one row per grid point
    assert lines[1].startswith("0.1,embedded,")
    assert lines[-1].startswith("0.2,kissing,")


# ---------------------------------------------------------------- verify


def test_verify_quick_deterministic(capsys):
    code1, out1, _ = run_cli(["verify", "--suite", "quick", "--seed", "3"], capsys)
    code2, out2, _ = run_cli(["verify", "--suite", "quick", "--seed", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "hexbubble verification" in out1
    assert "suite: quick" in out1
    assert "seed: 3" in out1
    assert "result: PASS (10/10)" in out1
    assert sum(1 for ln in out1.splitlines() if ln.startswith("PASS ")) == 10


def test_verify_full_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "full", "--seed", "0"], capsys)
    assert code == 0
    assert "result: PASS (16/16)" in out


def test_verify_timings_go_to_stderr_only(capsys):
    code, out, err = run_cli(["verify", "--suite", "quick", "--seed", "3"], capsys)
    assert code == 0 and err == ""
    code_t, out_t, err_t = run_cli(["verify", "--suite", "quick", "--seed", "3", "--timings"], capsys)
    assert code_t == 0
    assert out_t == out  # stdout is byte-identical with or without the flag
    assert err_t.endswith("\n") and err_t.count("\n") == 1
    timings = json.loads(err_t)
    names = [ln.split()[1] for ln in out.splitlines() if ln.startswith("PASS ")]
    assert list(timings) == names and len(names) == 10
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


@pytest.mark.parametrize("seed", [20, 35, 50, 103, 114, 199, 232, 241, 249, 264, 368])
def test_verify_quick_passes_where_the_fixed_side_witness_was_infeasible(seed):
    # these seeds draw a long side with a small volume, where an early
    # feasibility witness (0, 2V/(sqrt(3) L) + 0.1) had x5 < 0 and failed the
    # check.  The oracle has no witness now (an objective raising ValueError
    # is its only infeasibility signal); this stays as the regression test
    # for these 11 seeds
    out = io.StringIO()
    assert cli.run_verify("quick", seed, out) == 0, out.getvalue()


def test_run_verify_rejects_an_unknown_suite():
    # a misspelt suite once ran all 16 checks and printed "suite: quik"
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown suite 'quik'"):
        cli.run_verify("quik", 0, out)
    assert out.getvalue() == ""


def test_verify_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("HEXBUBBLE_SEED", "42")
    code, out, _ = run_cli(["verify", "--suite", "quick", "--seed", "7"], capsys)
    assert code == 0
    assert "seed: 42" in out
    monkeypatch.setenv("HEXBUBBLE_SEED", "not-an-int")
    code, out, err = run_cli(["verify", "--suite", "quick"], capsys)
    assert code == 2
    assert "HEXBUBBLE_SEED" in err


def test_verify_catches_distorted_formula(monkeypatch, capsys):
    import hexbubble.checks as checks_mod

    real = checks_mod.equal_perimeters

    def distorted(L, alpha):
        p3, p4, p5, p6 = real(L, alpha)
        return p3 + 1e-6, p4, p5, p6

    monkeypatch.setattr(checks_mod, "equal_perimeters", distorted)
    code, out, _ = run_cli(["verify", "--suite", "quick", "--seed", "0"], capsys)
    assert code == 1
    assert "FAIL p3-dominance" in out
    assert "result: FAIL" in out


@pytest.mark.parametrize(
    "other",
    # either neighbour of the double nearest alpha0, and a Newton iterate 96 ulp below
    [math.nextafter(solver.ALPHA0, 0.0), math.nextafter(solver.ALPHA0, 1.0), 0.15245721143346874],
)
def test_verify_rejects_a_neighbour_of_alpha0(monkeypatch, other):
    # the exact sign test fails there, though the perimeter gap is still
    # below its bound
    monkeypatch.setattr(solver, "find_alpha0", lambda: other)
    out = io.StringIO()
    assert cli.run_verify("quick", 0, out) == 1
    lines = out.getvalue().splitlines()
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL alpha0-bracket: P does not change sign within half an ulp of alpha0=0.152457211433"
    ]
    assert lines[-1] == "result: FAIL (9/10)"


def test_verify_reports_a_crashed_check(monkeypatch, capsys):
    # bench/workloads.py tells "raised, not wrong" apart by this line's text
    import hexbubble.checks as checks_mod

    def crashing(rng):
        raise ValueError("no such cell")

    quick = [(name, crashing if name == "regime-continuity" else check)
             for name, check in checks_mod._SUITES["quick"]]
    monkeypatch.setitem(checks_mod._SUITES, "quick", quick)
    code, out, _ = run_cli(["verify", "--suite", "quick", "--seed", "0"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL regime-continuity: raised ValueError: no such cell" in lines
    assert lines[-1] == "result: FAIL (9/10)"


# ---------------------------------------------------------------- render


def test_render_single_case(tmp_path, capsys):
    out = tmp_path / "pair.svg"
    code, _, _ = run_cli(["render", "--alpha", "0.5", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "scale: 100 SVG user units per plane unit" in text
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f".//{ns}polygon")
    assert len(polys) == 2
    fills = {p.get("fill") for p in polys}
    assert fills == {"#1f77b4", "#d62728"}
    lines = root.findall(f".//{ns}line")
    assert any(l.get("stroke") == "#2ca02c" for l in lines)


def test_render_transition_shows_both_panels(tmp_path, capsys):
    out = tmp_path / "both.svg"
    code, _, _ = run_cli(["render", "--alpha", repr(find_alpha0()), "--out", str(out)], capsys)
    assert code == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polygon")) == 4


# ---------------------------------------------------------------- iso


def test_iso_default(capsys):
    code, out, _ = run_cli(["iso"], capsys)
    assert code == 0
    assert "L0        = 0.620403239401" in out
    assert "perimeter = 3.72241943641" in out


def test_iso_volume_scaling(capsys):
    _, out1, _ = run_cli(["iso"], capsys)
    code, out4, _ = run_cli(["iso", "--volume", "4"], capsys)
    assert code == 0
    L1 = float(out1.splitlines()[0].split("=")[1])
    L4 = float(out4.splitlines()[0].split("=")[1])
    P1 = float(out1.splitlines()[1].split("=")[1])
    P4 = float(out4.splitlines()[1].split("=")[1])
    assert abs(L4 - 2.0 * L1) <= 1e-11
    assert abs(P4 - 2.0 * P1) <= 1e-11


def test_iso_svg(tmp_path, capsys):
    out = tmp_path / "hex.svg"
    code, _, _ = run_cli(["iso", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert "isoperimetric hexagon" in text
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polygon")) == 1


@pytest.mark.parametrize("volume", ["inf", "nan", "0", "-1"])
def test_iso_rejects_non_positive_or_non_finite_volume(volume, capsys):
    code, out, err = run_cli(["iso", "--volume", volume], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: volume must be positive and finite\n"


def test_iso_rejects_a_volume_too_small_to_draw(tmp_path, capsys):
    # below ~2.6e-16 the optimal side L0 falls under MIN_SIDE: the value
    # exists but the hexagon cannot be built, so nothing is printed or written
    out_path = tmp_path / "f.svg"
    code, out, err = run_cli(["iso", "--volume", "1e-20", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: volume 1e-20 is too small to draw")
    assert err.count("\n") == 1
    assert not out_path.exists()
    # without --out the value is still printed
    code, out, _ = run_cli(["iso", "--volume", "1e-20"], capsys)
    assert code == 0 and out.startswith("L0        = ")


@pytest.mark.parametrize("volume", ["1e308", repr(sys.float_info.max)])
def test_iso_answers_at_huge_volumes(volume, capsys):
    # 2V overflows here; the value is still finite
    code, out, err = run_cli(["iso", "--volume", volume], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split("=")[0] for line in lines] == ["L0        ", "perimeter "]
    assert all(math.isfinite(float(line.split("=")[1])) for line in lines)


def test_iso_draws_where_the_fixed_side_squares_overflow(tmp_path, capsys):
    # 4 sqrt(3) V overflows at 1e308; solve_fixed_side rescales there (it
    # returned infinite sides, and the drawing failed on a non-finite vertex)
    out_path = tmp_path / "f.svg"
    code, out, err = run_cli(["iso", "--volume", "1e308", "--out", str(out_path)], capsys)
    assert code == 0 and err == ""
    assert out_path.read_text(encoding="utf-8").startswith("<?xml")


def test_iso_rejects_a_volume_too_large_to_draw(tmp_path, capsys):
    # the value exists, but the cell built at the largest double is not
    # simple: the side walk's rounding leaves a last vertex about 1e138 from
    # the first, which folds back along the first side
    out_path = tmp_path / "f.svg"
    volume = repr(sys.float_info.max)
    code, out, err = run_cli(["iso", "--volume", volume, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: volume 1.79769313486e+308 is too large to draw (")
    assert err.count("\n") == 1
    assert not out_path.exists()


# ---------------------------------------------------------------- exit codes


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["no-such-command"], capsys)[0] == 2
    assert run_cli(["solve", "--alpha", "1.5"], capsys)[0] == 2
    assert run_cli(["solve", "--alpha", "zero"], capsys)[0] == 2
    assert run_cli(["solve"], capsys)[0] == 2  # --alpha is required
    assert run_cli(["iso", "--volume", "-1"], capsys)[0] == 2
    assert run_cli(["sweep", "--from", "0.5", "--to", "0.1", "--steps", "3",
                    "--out", str(tmp_path / "x.csv")], capsys)[0] == 2
    code, _, err = run_cli(
        ["sweep", "--from", "0.1", "--to", "0.2", "--steps", "3",
         "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 3
    assert "cannot write" in err
    assert run_cli(
        ["render", "--alpha", "0.5", "--out", "/nonexistent-dir/x.svg"], capsys
    )[0] == 3
    out_of_domain = tmp_path / "bad.svg"
    assert run_cli(["render", "--alpha", "1.5", "--out", str(out_of_domain)], capsys)[0] == 2
    assert not out_of_domain.exists()
    code, out, err = run_cli(["iso", "--out", "/nonexistent-dir/x.svg"], capsys)
    assert code == 3
    assert out.startswith("L0        = ")
    assert err.startswith("error: cannot write /nonexistent-dir/x.svg")


def test_solve_smallest_subnormal_ratio_is_a_domain_error(capsys):
    # the root-finder's c/L^3 once underflowed to a zero divisor here, and
    # the command died with a ZeroDivisionError traceback
    code, out, err = run_cli(["solve", "--alpha", "5e-324"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hexbubble")
    assert "solve" in proc.stdout and "verify" in proc.stdout


def _run_child(args, cwd):
    """Run a fresh interpreter with the hexbubble under test importable."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), cwd=cwd
    )


def test_console_script_help(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT_PATH.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hexbubble"]
    module, _, attr = target.partition(":")
    # The body of the console script an installer generates for the target.
    script = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'hexbubble'\n"
        f"sys.exit({attr}())\n"
    )

    # Run it against the copy of hexbubble under test, so the check needs no
    # install step and no executable on PATH.
    _assert_help(_run_child(["-c", script, "--help"], tmp_path))

    # An installed copy, where there is one, must behave the same.
    installed = shutil.which("hexbubble")
    if installed is not None:
        _assert_help(subprocess.run([installed, "--help"], capture_output=True, text=True))


def test_module_entry_point_help(tmp_path):
    _assert_help(_run_child(["-m", "hexbubble", "--help"], tmp_path))


def test_solve_does_not_import_numpy(tmp_path):
    # the solver path loads neither numpy nor the checkers (oracle, checks, cli)
    script = (
        "import json, sys, hexbubble\n"
        "hexbubble.solve(0.05)\n"
        "hexbubble.solve(0.3)\n"
        "hexbubble.find_alpha0()\n"
        "hexbubble.sweep(0.1, 0.2, 3)\n"
        "top = {m: m.split('.')[0] for m in sys.modules}\n"
        "print(json.dumps([sorted(m for m, t in top.items() if t == name)\n"
        "                  for name in ('numpy', 'hexbubble')]))\n"
    )
    proc = _run_child(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    numpy_modules, hexbubble_modules = json.loads(proc.stdout)
    assert numpy_modules == []
    assert hexbubble_modules == [
        "hexbubble",
        "hexbubble.embedded",
        "hexbubble.hexnorm",
        "hexbubble.kissing",
        "hexbubble.singlebubble",
        "hexbubble.solver",
    ]


def test_only_verify_imports_the_checker(tmp_path):
    # solve, sweep, render, iso and a library find_alpha0 run without checks
    # and oracle, which hold the paper's exclusions; run_verify loads them
    script = (
        "import contextlib, io, json, sys\n"
        "from hexbubble import cli, find_alpha0\n"
        "loaded = lambda: sorted(m for m in ('hexbubble.checks', 'hexbubble.oracle') if m in sys.modules)\n"
        "steps = {}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['solve', '--alpha', '0.3', '--format', 'json'],\n"
        "                 ['sweep', '--from', '0.05', '--to', '1', '--steps', '5', '--out', 'sweep.csv'],\n"
        "                 ['render', '--alpha', '0.152', '--out', 'pair.svg'],\n"
        "                 ['iso', '--volume', '2', '--out', 'hexagon.svg']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "        steps[argv[0]] = loaded()\n"
        "    find_alpha0()\n"
        "    steps['find_alpha0'] = loaded()\n"
        "    cli.main(['verify', '--suite', 'quick'])\n"
        "    steps['verify'] = loaded()\n"
        "print(json.dumps(steps))\n"
    )
    proc = _run_child(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "solve": [], "sweep": [], "render": [], "iso": [], "find_alpha0": [],
        "verify": ["hexbubble.checks", "hexbubble.oracle"],
    }


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX pipe")
@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--alpha", "0.3"],
        ["solve", "--alpha", "0.3", "--format", "json"],
        ["verify"],
    ],
)
def test_closed_stdout_pipe_exits_quietly(args, tmp_path):
    # the reader end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hexbubble", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), cwd=tmp_path,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
