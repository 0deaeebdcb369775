import json
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


def test_sweep_is_byte_deterministic(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--out", str(a)]) == 0
    assert main(["sweep", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # Thread count must not leak into the output.
    monkeypatch.setenv("LINKSTAT_THREADS", "4")
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


def test_compare_table(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--measurements", str(meas), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "not opening" in stdout
    assert "mean abs deviation" in stdout
    assert out.read_text().count("\n") == 3


def test_compare_rejects_bad_header(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("angle,force\n0,5\n")
    assert main(["compare", "--measurements", str(meas)]) == 2
    assert "header" in capsys.readouterr().err


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


def _run_child(code, commands):
    """Run ``code`` in a fresh interpreter on ``commands``; its last line as JSON."""
    src = str(Path(linkstat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_NUMPY_FREE_CHILD = """
import json, sys
import linkstat, linkstat.cli
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    code = linkstat.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = "numpy" in sys.modules
state = linkstat.full_equilibrium(linkstat.default_parameters(), 0.0)
loaded["xi"] = state.xi
loaded["oracle"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_cli_commands_never_load_numpy(tmp_path):
    """Only the raw-equilibrium oracle needs numpy, and only it loads it."""
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    design = tmp_path / "design.txt"
    design.write_text(DESIGN_OK)
    commands = [
        ["sweep", "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg")],
        ["analyze", "--zeta-deg", "0"],
        ["compare", "--measurements", str(meas)],
        ["optimize", "--design", str(design)],
    ]
    loaded = _run_child(_NUMPY_FREE_CHILD, commands)
    assert loaded.pop("xi") == pytest.approx(5.171175, rel=1e-6)
    assert loaded.pop("oracle") is True
    assert loaded == {
        "import": False, "sweep": False, "analyze": False,
        "compare": False, "optimize": False,
    }


_DESIGN_FREE_CHILD = """
import json, sys
import linkstat, linkstat.cli
loaded = {"import": "linkstat.design" in sys.modules}
for argv in json.loads(sys.argv[1]):
    code = linkstat.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = "linkstat.design" in sys.modules
from linkstat import optimize_design
loaded["from_import"] = optimize_design is sys.modules["linkstat.design"].optimize_design
loaded["attribute"] = linkstat.DesignSpec is linkstat.design.DesignSpec
star = {}
exec("from linkstat import *", star)
loaded["star"] = sorted(set(linkstat.__all__) - set(star))
print(json.dumps(loaded))
"""


def test_cli_commands_but_optimize_never_load_the_design_search(tmp_path):
    """linkstat.design loads on first use of one of its names, not before."""
    meas = tmp_path / "meas.csv"
    meas.write_text("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    commands = [
        ["sweep", "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg")],
        ["analyze", "--zeta-deg", "0"],
        ["compare", "--measurements", str(meas)],
        ["validate"],
    ]
    assert _run_child(_DESIGN_FREE_CHILD, commands) == {
        "import": False, "sweep": False, "analyze": False, "compare": False,
        "validate": False, "from_import": True, "attribute": True, "star": [],
    }


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        linkstat.no_such_name
