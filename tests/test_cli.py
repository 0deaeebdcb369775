import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkstat
from linkstat import default_parameters, format_parameter_file
from linkstat.cli import SWEEP_CSV_HEADER, main

DESIGN_OK = """
[target]
interval_lo_deg = -10
interval_hi_deg = 15
press_angle_deg = -15
threshold_lo_n = 3
threshold_hi_n = 8

[search]
free = theta2
budget = 400

[bounds]
theta2 = 10, 30
"""

DESIGN_HOPELESS = """
[target]
interval_lo_deg = -10
interval_hi_deg = 15
press_angle_deg = 0
threshold_lo_n = 1000
threshold_hi_n = 1000000000

[search]
free = spring_k
budget = 40

[bounds]
spring_k = 0.01, 1
"""


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(format_parameter_file(default_parameters()))
    return path


def write_bad_params(tmp_path):
    p = default_parameters().with_values(l2=-4.0)
    path = tmp_path / "bad.txt"
    path.write_text(format_parameter_file(p))
    return path


def write_singular_params(tmp_path):
    p = default_parameters()
    path = tmp_path / "singular.txt"
    path.write_text(format_parameter_file(p.with_values(theta3=p.theta1)))
    return path


def test_analyze_opens(capsys):
    assert main(["analyze", "--zeta-deg", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict: opens" in out
    assert "5.17117463" in out


def test_analyze_blocked(capsys):
    assert main(["analyze", "--zeta-deg", "-15"]) == 0
    out = capsys.readouterr().out
    assert "verdict: blocked (contact_maintained)" in out


def test_analyze_reads_params_file(params_file, capsys):
    assert main(["analyze", "--params", str(params_file), "--zeta-deg", "0"]) == 0
    assert "verdict: opens" in capsys.readouterr().out


def test_analyze_singular_exit_code(tmp_path, capsys):
    path = write_singular_params(tmp_path)
    assert main(["analyze", "--params", str(path), "--zeta-deg", "9"]) == 3
    assert "singular" in capsys.readouterr().out


def test_analyze_indeterminate_friction_branch_exits_3(tmp_path, capsys):
    # With theta1 = 18 deg, at 6 deg the +1 branch's strut force is
    # negative and the -1 branch's positive: neither slip sense holds.
    path = tmp_path / "indeterminate.txt"
    path.write_text(format_parameter_file(default_parameters().with_values(
        theta1=math.radians(18.0))))
    assert main(["analyze", "--params", str(path), "--zeta-deg", "6"]) == 3
    out = capsys.readouterr().out
    assert "friction branch: -1 " in out and "INCONSISTENT" in out
    assert out.endswith("verdict: indeterminate friction branch\n")


def test_sweep_writes_the_singular_row(tmp_path, capsys):
    # theta3 = theta1 = 9 deg, a point of the default grid.
    path = write_singular_params(tmp_path)
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--params", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[79] == "9,0,false,singular,nan,nan,0,false"
    assert [line for line in lines if "singular" in line] == [lines[79]]
    assert "interval_1_hi_deg = 8.9921875" in capsys.readouterr().out


def test_validate_ok(capsys):
    assert main(["validate"]) == 0
    assert "parameters ok" in capsys.readouterr().out


def test_validate_rejects(tmp_path, capsys):
    path = write_bad_params(tmp_path)
    assert main(["validate", "--params", str(path)]) == 2
    assert "l2" in capsys.readouterr().out


def test_invalid_params_rejected_before_analysis(tmp_path, capsys):
    path = write_bad_params(tmp_path)
    assert main(["analyze", "--params", str(path), "--zeta-deg", "0"]) == 2
    assert "l2" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    assert main(["sweep", "--params", "/no/such/file.txt"]) == 5
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--params", "--measurements", "--design"])
def test_non_utf8_file_exits_2(flag, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"[lengths_mm]\nl0 = 1\xff\n")
    command = {"--params": "validate", "--measurements": "compare", "--design": "optimize"}
    assert main([command[flag], flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, flags", [
    ("validate", ["--params"]),
    ("compare", ["--params", "--measurements"]),
    ("optimize", ["--params", "--design"]),
])
def test_a_byte_order_mark_is_read_past(command, flags, tmp_path, capsys):
    # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark;
    # every input file reads as it does without one.
    texts = {
        "--params": format_parameter_file(default_parameters()),
        "--measurements": "zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n",
        "--design": DESIGN_OK,
    }
    paths = {flag: tmp_path / f"input{flag[1:]}.txt" for flag in flags}
    out = tmp_path / "out.txt"
    argv = [command] + [arg for flag in flags for arg in (flag, str(paths[flag]))]
    if command != "validate":
        argv += ["--out", str(out)]
    runs = []
    for bom in ("", "\ufeff"):
        for flag in flags:
            paths[flag].write_text(bom + texts[flag], encoding="utf-8")
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        runs.append((code, captured.out, captured.err, written))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


def test_closed_stdout_exits_5(child_env):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linkstat.cli", "sweep"], stdout=write_end,
            stderr=subprocess.PIPE, env=child_env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_malformed_params_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("[lengths_mm]\nl0 = 1/0\n")
    assert main(["validate", "--params", str(path)]) == 2
    assert "division by zero" in capsys.readouterr().err


def test_sweep_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 242  # header + 241 samples
    assert lines[1].startswith("-30,0,false,contact_maintained,")

    sidecar = (tmp_path / "curve.csv.summary").read_text()
    assert "opening_intervals = 1" in sidecar
    assert "threshold_n = not_opening" in sidecar
    stdout = capsys.readouterr().out
    assert "interval_1_lo_deg" in stdout


def test_sweep_threshold_line_when_open(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--out", str(out), "--press-angle-deg", "0"]) == 0
    sidecar = (tmp_path / "curve.csv.summary").read_text()
    assert "threshold_n = 5.17117463" in sidecar
    assert "grip_budget_n = 4.1369397" in sidecar


def test_sweep_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--out", str(a)]) == 0
    assert main(["sweep", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["sweep", "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


SHIPPED = Path(linkstat.__file__).resolve().parent / "data" / "default_linkage.txt"


def test_shipped_file_sweep_matches_builtin(tmp_path):
    """The shipped copy of the built-in build, [sweep] included, sweeps the same bytes."""
    builtin, shipped = tmp_path / "builtin.csv", tmp_path / "shipped.csv"
    assert main(["sweep", "--out", str(builtin)]) == 0
    assert main(["sweep", "--params", str(SHIPPED), "--out", str(shipped)]) == 0
    assert shipped.read_bytes() == builtin.read_bytes()
    # Line 62 is the 0 deg point: read in degrees, the file's -30 lands on it exactly.
    assert shipped.read_text().splitlines()[61].startswith("0,")
    summaries = [
        Path(f"{out}.summary").read_text().splitlines() for out in (builtin, shipped)
    ]
    assert summaries[0][0] == "params = builtin"
    assert summaries[1][0] == f"params = {SHIPPED}"
    assert summaries[0][1:] == summaries[1][1:]


def test_file_sweep_settings_equal_flags(tmp_path):
    """[sweep] values are the degrees the flags would give, unconverted."""
    text = SHIPPED.read_text().replace(
        "zeta_lo_deg = -30\nzeta_hi_deg = 90\nstep_deg = 0.5",
        "zeta_lo_deg = -7.4\nzeta_hi_deg = 22.77\nstep_deg = 0.1",
    )
    assert "zeta_lo_deg = -7.4" in text
    params = tmp_path / "params.txt"
    params.write_text(text)
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["sweep", "--params", str(params), "--out", str(from_file)]) == 0
    assert main(["sweep", "--params", str(params), "--out", str(from_flags),
                 "--lo-deg", "-7.4", "--hi-deg", "22.77", "--step-deg", "0.1"]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert "\n0," in from_file.read_text()


def test_sweep_svg(tmp_path):
    svg = tmp_path / "curve.svg"
    assert main(["sweep", "--svg", str(svg), "--lo-deg", "-20", "--hi-deg", "25"]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_sweep_file_settings_apply(tmp_path):
    from linkstat import SweepSettings

    path = tmp_path / "params.txt"
    settings = SweepSettings(zeta_lo_deg=-5.0, zeta_hi_deg=5.0, step_deg=1.0)
    path.write_text(format_parameter_file(default_parameters(), settings))
    out = tmp_path / "short.csv"
    assert main(["sweep", "--params", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 12  # header + 11 samples at 1 deg steps
    assert lines[1].startswith("-5,")


def test_sweep_flag_overrides_file_settings(tmp_path):
    from linkstat import SweepSettings

    path = tmp_path / "params.txt"
    settings = SweepSettings(zeta_lo_deg=-5.0, zeta_hi_deg=5.0, step_deg=1.0)
    path.write_text(format_parameter_file(default_parameters(), settings))
    out = tmp_path / "short.csv"
    assert (
        main(
            [
                "sweep", "--params", str(path), "--out", str(out),
                "--step-deg", "5",
            ]
        )
        == 0
    )
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + samples at -5, 0, 5


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--lo-deg", "10", "--hi-deg", "-10"]) == 2
    assert "reversed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        # 1.2e11 steps: refused by the step count before any point exists.
        ["--step-deg", "1e-9"],
        # The span itself overflows to inf.
        ["--lo-deg=-1e308", "--hi-deg=1e308"],
    ],
)
def test_sweep_rejects_oversized_grid(flags, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sweep grid spans more than")
    assert captured.out == ""
    assert not out.exists()


def test_optimize_feasible(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    found = tmp_path / "found.txt"
    assert main(["optimize", "--design", str(design), "--out", str(found)]) == 0
    out = capsys.readouterr().out
    assert "status: feasible" in out
    assert "verified threshold" in out
    # The written file is a loadable parameter set.
    assert main(["validate", "--params", str(found)]) == 0


def test_optimize_infeasible(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_HOPELESS)
    assert main(["optimize", "--design", str(design)]) == 4
    out = capsys.readouterr().out
    assert "status: infeasible" in out
    assert "violation:" in out


def test_optimize_budget_flag(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_HOPELESS)
    assert main(["optimize", "--design", str(design), "--budget", "3"]) == 4
    assert "evaluations: 3" in capsys.readouterr().out


DESIGN_CLOSED_BAND = """
[target]
interval_lo_deg = 30
interval_hi_deg = 60
press_angle_deg = 0
threshold_lo_n = 3
threshold_hi_n = 8

[search]
free = theta2

[bounds]
theta2 = 10, 30
"""


def test_optimize_failed_reverification_exits_3(tmp_path, capsys, monkeypatch):
    # The search is told that every build opens over the whole range, so
    # it takes the start as feasible; re-verification refuses that hint,
    # sweeps the full grid once and finds the band [30, 60] deg closed.
    import linkstat.design

    monkeypatch.setattr(
        linkstat.design, "_envelope",
        lambda p, grid: (linkstat.OpeningInterval(grid[0], grid[-1], False, False),),
    )
    swept = []
    every_point = linkstat.design.sweep_points
    monkeypatch.setattr(linkstat.design, "sweep_points",
                        lambda *args: swept.append(args) or every_point(*args))
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_CLOSED_BAND)
    found = tmp_path / "found.txt"
    assert main(["optimize", "--design", str(design), "--out", str(found)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {design}: feasible candidate failed re-verification of envelope coverage\n"
    )
    assert not found.exists()
    assert len(swept) == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_optimize_rejects_budget_flag_below_one(budget, tmp_path, capsys):
    # The message names the flag, not the design file it overrides.
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    assert main(["optimize", "--design", str(design), "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --budget must be >= 1, got {budget}\n"
    assert captured.out == ""


def test_optimize_malformed_design(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text("[target]\ninterval_lo_deg = -10\n")
    assert main(["optimize", "--design", str(design)]) == 2
    assert "missing" in capsys.readouterr().err


def test_optimize_refuses_a_bound_on_a_field_it_cannot_vary(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK + "bogus = 1, 2\n")
    assert main(["optimize", "--design", str(design)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {design}: line 15: unknown key 'bogus' in [bounds]; expected one of "
    )


def test_optimize_refuses_an_unordered_bound_on_a_field_it_does_not_vary(tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK + "l3 = 25, 20\n")
    found = tmp_path / "found.txt"
    assert main(["optimize", "--design", str(design), "--out", str(found)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {design}: bounds for 'l3' must be a finite ordered pair, got (25.0, 20.0)\n"
    )
    assert not found.exists()


def test_compare_table(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--measurements", str(meas), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "not opening" in stdout
    assert "mean abs deviation" in stdout
    assert out.read_text().count("\n") == 3


def test_compare_finds_the_comparison_on_paramfile(tmp_path, monkeypatch):
    """A wrapper of compare_measurements set on linkstat.paramfile, as the
    benchmark's tracer sets one, sees the command's call."""
    import linkstat.paramfile as paramfile

    calls = []
    original = paramfile.compare_measurements
    monkeypatch.setattr(paramfile, "compare_measurements",
                        lambda *args: calls.append(args) or original(*args))
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--measurements", str(meas), "--out", str(out)]) == 0
    assert len(calls) == 1


def test_compare_rejects_bad_header(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("angle,force\n0,5\n")
    assert main(["compare", "--measurements", str(meas)]) == 2
    assert "header" in capsys.readouterr().err


def test_analyze_rejects_a_non_numeric_angle(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--zeta-deg", "abc"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("error: argument --zeta-deg: not a number: 'abc'\n")
    assert captured.out == ""


@pytest.mark.parametrize("lo, hi, step, message", [
    # The grid in degrees would repeat 1.0.
    ("1", "1.0000000000000002", "1e-16",
     "sweep step repeats a grid point: [1.0, 1.0000000000000002] by 1e-16 deg"),
    # Two adjacent floats in degrees are one float in radians.
    ("1.9999999999999996", "1.9999999999999998", "2.220446049250313e-16",
     "sweep press directions must be strictly ascending: sample 1 "
     f"({math.radians(1.9999999999999998)!r} rad) follows sample 0 "
     f"({math.radians(1.9999999999999996)!r} rad)"),
], ids=["degrees", "radians"])
def test_sweep_with_a_step_below_float_spacing_exits_2(lo, hi, step, message, capsys):
    assert main(["sweep", "--lo-deg", lo, "--hi-deg", hi, "--step-deg", step]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_sweep_out_on_a_directory_exits_5(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""  # files are written before anything is printed
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "compare"])
def test_out_on_a_directory_exits_5_before_printing(command, tmp_path, capsys):
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_MET_AT_START)
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n")
    target = tmp_path / "out"
    target.mkdir()
    flags = {"optimize": ["--design", str(design)], "compare": ["--measurements", str(meas)]}
    assert main([command, *flags[command], "--out", str(target)]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1  # one error line, no traceback
    assert captured.out == ""
    assert list(target.iterdir()) == []


def test_compare_where_the_model_opens_nowhere(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n-20,2.0\n60,3.5\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--measurements", str(meas), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        " -20.000      2.0000  not opening          -  -",
        "  60.000      3.5000  not opening          -  -",
        "mean abs deviation: undefined (model opens nowhere measured)",
        f"wrote {out}",
    ]
    assert out.read_text().splitlines()[1:] == ["-20,2,,,,false", "60,3.5,,,,false"]


DESIGN_MET_AT_START = """
[target]
interval_lo_deg = -10
interval_hi_deg = 15
press_angle_deg = 0
threshold_lo_n = 3
threshold_hi_n = 8

[search]
free = l4, spring_k, mu

[bounds]
l4 = 2, 3
spring_k = 0.5, 1.5
mu = 0.5, 0.7
"""


def test_optimize_prints_lengths_and_rates_without_deg(tmp_path, capsys):
    """The built-in build already meets this target; no free field is an
    angle, so none is printed in degrees."""
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_MET_AT_START)
    assert main(["optimize", "--design", str(design)]) == 0
    p = default_parameters()
    assert capsys.readouterr().out.splitlines()[-3:] == [
        f"l4 = {p.l4:.9g}",
        f"spring_k = {p.spring_k:.9g}",
        f"mu = {p.mu:.9g}",
    ]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["explode"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--zeta-deg", "nan"],
        ["analyze", "--zeta-deg=-inf"],
        ["sweep", "--lo-deg", "nan"],
        ["sweep", "--hi-deg", "inf"],
        ["sweep", "--step-deg", "nan"],
        ["sweep", "--press-angle-deg", "inf"],
    ],
)
def test_non_finite_angles_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)] if argv[0] == "sweep" else argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --" in captured.err and "finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_undefined_expression_exits_2(tmp_path, capsys):
    text = format_parameter_file(default_parameters()).replace("l2 = 12.0", "l2 = sqrt(-1)")
    assert "sqrt(-1)" in text
    path = tmp_path / "params.txt"
    path.write_text(text)
    assert main(["validate", "--params", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "undefined" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "theta2_deg,sign,mu",
    [(18.5, 1, None), (-18.5, -1, None), (18.5, 1, 3.5), (-18.5, -1, 3.5)],
    ids=["plus", "minus", "plus-mu3.5", "minus-mu3.5"],
)
@pytest.mark.parametrize("command", ["analyze", "sweep", "optimize", "validate", "compare"])
def test_zero_friction_coupling_denominator_exits_2(
    command, theta2_deg, sign, mu, tmp_path, capsys
):
    """A self-locking build, mu >= cot|theta2|, is refused, not run.

    ``mu`` None is the boundary, where the friction coupling divides by zero.
    """
    t2 = math.radians(theta2_deg)
    if mu is None:
        mu = sign * math.cos(t2) / math.sin(t2)
    build = default_parameters().with_values(theta2=t2, mu=mu)
    params = tmp_path / "params.txt"
    params.write_text(format_parameter_file(build))
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n")
    out = tmp_path / "out.txt"
    argv = {
        "analyze": ["--zeta-deg", "0"],
        "sweep": ["--out", str(out)],
        "optimize": ["--design", str(design), "--out", str(out)],
        "validate": [],
        "compare": ["--measurements", str(meas), "--out", str(out)],
    }[command]
    assert main([command, "--params", str(params), *argv]) == 2
    captured = capsys.readouterr()
    if command == "validate":
        # validate reports rule violations on stdout, one per line.
        assert "\nmu: " in captured.out and f"{sign:+d} branch" in captured.out
        assert captured.err == ""
    else:
        assert captured.err.startswith(f"error: {params}: invalid parameters\nmu: ")
        assert captured.out == ""
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def _assert_build_refused(command, tmp_path, capsys, changes, message):
    """``command`` on the default build with ``changes`` exits 2 naming ``message``."""
    params = tmp_path / "params.txt"
    params.write_text(format_parameter_file(default_parameters().with_values(**changes)))
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n")
    out = tmp_path / "out.txt"
    argv = {
        "analyze": ["--zeta-deg", "0"],
        "sweep": ["--out", str(out)],
        "optimize": ["--design", str(design), "--out", str(out)],
        "validate": [],
        "compare": ["--measurements", str(meas), "--out", str(out)],
    }[command]
    assert main([command, "--params", str(params), *argv]) == 2
    captured = capsys.readouterr()
    if command == "validate":
        assert message in captured.out
        assert captured.err == ""
    else:
        assert captured.err.startswith(f"error: {params}: invalid parameters\n{message}")
        assert captured.out == ""
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


_COMMANDS = ["analyze", "sweep", "optimize", "validate", "compare"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_subnormal_strut_length_exits_2(command, tmp_path, capsys):
    """l1 = 1e-320 passes the length rule, but the spring moments over it overflow.

    ``analyze`` read such a build as opening at an infinite force and
    then failed in the grip budget with a traceback.
    """
    _assert_build_refused(
        command, tmp_path, capsys, {"l1": 1e-320},
        "l1: l0/l1 = 10.93/1e-320 times the spring force overflows the spring moments",
    )


@pytest.mark.parametrize("command", _COMMANDS)
def test_subnormal_coupler_length_exits_2(command, tmp_path, capsys):
    """l2 = 5e-324 passes the length rule, but the tip moment ratio over it overflows.

    ``analyze --zeta-deg 0`` read such a build as opening, with a tip
    moment ratio of -inf and a nan strut force.
    """
    _assert_build_refused(
        command, tmp_path, capsys, {"l2": 5e-324},
        "l2: l2*sin(theta2+theta3) = 5e-324 with l2 = 5e-324: |l3| + |l4| = "
        "25.039814565722672 over it overflows the tip moment ratio",
    )


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("command", ["validate", "analyze", "sweep"])
def test_overflowing_friction_branch_exits_2(command, sign, tmp_path, capsys):
    """theta2 = +-1e-300 with mu just below 1e300 passes every other rule,
    but the a11 of branch sign(theta2) overflows.

    ``analyze --zeta-deg 17.19`` on the +1 build read ``opens (turn-over
    at >= nan N)`` and then failed in the grip budget with a traceback.
    """
    _assert_build_refused(
        command, tmp_path, capsys, {"theta2": sign * 1e-300, "mu": 1e300 * (1 - 2**-52)},
        f"mu: mu = 9.999999999999999e+299 with theta2 = {sign * 1e-300!r} overflows "
        f"the {sign:+d} friction branch's a11 = {sign * math.inf!r}",
    )


# Each step runs alone in a fresh interpreter: a Python statement that
# may set ``result``, or a command line whose exit code is the result.
# The child reports which watched modules are then loaded: linkstat's
# own, csv (only ``compare`` reads a CSV), numpy (only the raw-equilibrium
# oracle needs it) and dataclasses/inspect (no record type needs them).
_LOADS_CHILD = """
import json, sys
step = json.loads(sys.argv[1])
result = None
if isinstance(step, list):
    from linkstat.cli import main
    try:
        result = main(step)
    except SystemExit as exc:  # argparse exits on --help or a refused command line
        result = exc.code
else:
    exec(step)
watched = {"csv", "dataclasses", "inspect", "linkstat", "numpy"}
loaded = sorted(m for m in sys.modules if m in watched or m.startswith("linkstat."))
print(json.dumps([result, loaded]))
"""

# What every command loads to parse its command line and read and
# validate a parameter file, what a design or measurement file's reader
# loads, and what a command that solves loads on top.
_FRONT = ["linkstat", "linkstat.cli", "linkstat.model", "linkstat.paramfile"]
_READERS = sorted([*_FRONT, "linkstat.readers"])
_SOLVER = sorted([*_FRONT, "linkstat.modeswitch", "linkstat.statics"])

# step id -> (statement or command line, result, modules loaded).  In a
# command line, {name} stands for a file the test writes.
_LOAD_BUDGET = {
    "interpreter": ("", None, []),
    "import linkstat": ("import linkstat", None, ["linkstat"]),
    "sweep-help": (["sweep", "--help"], 0, _FRONT),
    "validate": (["validate"], 0, _FRONT),
    "validate-parse-failure": (["validate", "--params", "{broken}"], 2, _FRONT),
    "sweep-parse-failure": (["sweep", "--params", "{broken}"], 2, _FRONT),
    "analyze-rule-failure": (["analyze", "--params", "{bad}", "--zeta-deg", "0"], 2, _FRONT),
    "compare-rule-failure": (["compare", "--params", "{bad}", "--measurements", "{meas}"],
                             2, _FRONT),
    "analyze-nan": (["analyze", "--zeta-deg", "nan"], 2, _FRONT),
    "sweep-grid-refused": (["sweep", "--step-deg", "0.00001"], 2, _FRONT),
    "optimize-missing-design": (["optimize", "--design", "{missing}"], 5, _FRONT),
    "optimize-malformed-design": (["optimize", "--design", "{malformed}"], 2, _READERS),
    "optimize-invalid-spec": (["optimize", "--design", "{invalid_spec}"], 2, _READERS),
    "optimize-unknown-bound": (["optimize", "--design", "{unknown_bound}"], 2, _READERS),
    "parse-design-file": ("import linkstat.paramfile\n"
                          f"spec, result = linkstat.paramfile.parse_design_file({DESIGN_OK!r})",
                          400, ["linkstat", "linkstat.model", "linkstat.paramfile",
                                "linkstat.readers"]),
    "analyze": (["analyze", "--zeta-deg", "0"], 0, _SOLVER),
    "sweep": (["sweep", "--out", "{out}", "--svg", "{svg}"], 0, _SOLVER),
    "envelope": ("import linkstat\n"
                 "result = len(linkstat.envelope(linkstat.default_parameters()))",
                 1, ["linkstat", "linkstat.model", "linkstat.modeswitch", "linkstat.roots",
                     "linkstat.statics"]),
    "read-measurements": ("import linkstat.paramfile\n"
                          "result = len(linkstat.paramfile.read_measurements('zeta_deg,"
                          "measured_force_n\\n0,5.0\\n'))",
                          1, ["csv", "linkstat", "linkstat.model", "linkstat.paramfile",
                              "linkstat.readers"]),
    "compare-table-failure": (["compare", "--measurements", "{broken}"], 2,
                              sorted(["csv", *_READERS])),
    "compare": (["compare", "--measurements", "{meas}"], 0,
                sorted(["csv", *_READERS, "linkstat.compare", "linkstat.statics"])),
    "optimize": (["optimize", "--design", "{design}"], 0,
                 sorted({*_SOLVER, *_READERS, "linkstat.design", "linkstat.roots"})),
    "design-spec": ("import linkstat\nresult = linkstat.DesignSpec.__module__", "linkstat.readers",
                    ["linkstat", "linkstat.model", "linkstat.paramfile", "linkstat.readers"]),
    "spring-force": ("import linkstat\n"
                     "result = linkstat.spring_force(linkstat.default_parameters())",
                     3.69172157852751, ["linkstat", "linkstat.model"]),
}

# A fresh sweep compiles every line of each module it loads.
_SWEEP_LINE_BUDGET = 2350


def _load_budget_files(tmp_path):
    files = {name: tmp_path / name
             for name in ("meas", "design", "malformed", "invalid_spec", "unknown_bound",
                          "broken", "out", "svg", "missing")}
    files["meas"].write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    files["design"].write_text(DESIGN_OK)
    files["malformed"].write_text("[target]\ninterval_lo_deg = 1/0\n")
    files["invalid_spec"].write_text(DESIGN_OK.replace("theta2", "theta9"))
    files["unknown_bound"].write_text(DESIGN_OK + "bogus = 1, 2\n")
    files["broken"].write_text("[lengths_mm]\nl0 = 1/0\n")
    files["bad"] = write_bad_params(tmp_path)
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("step", _LOAD_BUDGET)
def test_load_budget(step, tmp_path, run_child):
    """Each step loads exactly its modules: the solver only once a command
    has valid input to solve, csv only for compare, the design search only
    for optimize, and never numpy, dataclasses or inspect."""
    action, result, loaded = _LOAD_BUDGET[step]
    if isinstance(action, list):
        files = _load_budget_files(tmp_path)
        action = [arg.format(**files) for arg in action]
    assert run_child(_LOADS_CHILD, action) == [result, loaded]


def test_sweep_loads_few_lines():
    """The modules a sweep loads (test_load_budget pins which) hold at
    most _SWEEP_LINE_BUDGET lines: the oracle, the root-inferred envelope
    and the design and measurement readers live in modules a sweep does
    not load."""
    package = Path(linkstat.__file__).resolve().parent
    files = [package / (f"{name[len('linkstat.'):]}.py" if "." in name else "__init__.py")
             for name in _LOAD_BUDGET["sweep"][2]]
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert lines <= _SWEEP_LINE_BUDGET


def test_only_the_oracle_loads_numpy(run_child):
    result, loaded = run_child(
        _LOADS_CHILD,
        "import linkstat\n"
        "result = round(linkstat.full_equilibrium(linkstat.default_parameters(), 0.0).xi, 6)",
    )
    assert result == 5.171175
    assert [m for m in loaded if m.startswith("linkstat")] == [
        "linkstat", "linkstat.model", "linkstat.oracle", "linkstat.statics"]
    assert "numpy" in loaded


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        linkstat.no_such_name


def test_every_traced_layer_is_reached(tmp_path, capsys):
    """The benchmark's tracer (bench/tracing.py) wraps linkstat functions by
    name and reads each per-layer figure from their spans.  A sweep, a
    comparison and a search from the command line, plus one raw
    equilibrium, must give every figure a span of its own."""
    import importlib.util

    import linkstat.cli
    import linkstat.design  # the tracer wraps names in every linkstat module

    source = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("linkstat_bench_tracing", source)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    params = str(SHIPPED)
    tracer = tracing.Tracer()
    with tracer.active():
        traced_main = linkstat.cli.main  # the wrapper, where this module's main is not
        assert traced_main(["sweep", "--params", params, "--out", str(tmp_path / "s.csv")]) == 0
        assert traced_main(["compare", "--params", params, "--measurements", str(meas)]) == 0
        assert traced_main(["optimize", "--params", params, "--design", str(design)]) == 0
        linkstat.full_equilibrium(default_parameters(), 0.0)
    capsys.readouterr()
    figures, probed = tracing.layer_metrics(tracer.take(), [], set())
    assert probed == []
    assert figures.keys() == tracing.LAYER_METRICS.keys()
