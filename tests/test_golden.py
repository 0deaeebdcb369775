"""Byte-for-byte pins on what the CLI writes.

Each test runs one command in-process, or the parameter-file writer that
``optimize --out`` uses, and compares the SHA-256 digest of its output
with a recorded one.  The float formatting of the CLI keeps
nine significant digits, so any change to the solver that moves a digit
of a sweep, a verdict or a comparison fails here.  A change that means
to move one must say why and record the new digests.
"""

import hashlib

import pytest

from linkstat import SweepSettings, default_parameters, format_parameter_file
from linkstat.cli import main

# A non-reference build whose [sweep] section overrides the default
# range: opening points on both friction branches, both non-singular
# blocked reasons, and a finer step than the default.
OVERRIDE_BUILD = """\
[lengths_mm]
l0 = 11.5
l1 = 23.0
l2 = 12.5
l3 = 21.0
l4 = 2.9

[angles_deg]
theta0 = 31.0
theta1 = 8.0
theta2 = 20.0
theta3 = 13.5
theta4 = 8.25
theta5 = 32.0

[spring]
k_n_per_mm = 1.1
natural_length_mm = 9.5

[contact]
mu = 0.45

[solver]
epsilon_n = 0.1

[sweep]
zeta_lo_deg = -40
zeta_hi_deg = 100
step_deg = 0.25
"""

# Two searches from the built-in build.  The feasible one takes 7
# evaluations, with spring-scale moves that keep the envelope and
# geometry moves that do not; the infeasible one exits 4 after 28.
DESIGN_FEASIBLE = """\
[target]
interval_lo_deg = -8
interval_hi_deg = 12
press_angle_deg = 0
threshold_lo_n = 6
threshold_hi_n = 8

[search]
free = spring_k, theta2

[bounds]
spring_k = 0.3, 1.5
theta2 = 10, 30
"""

DESIGN_INFEASIBLE = """\
[target]
interval_lo_deg = -8
interval_hi_deg = 12
press_angle_deg = 0
threshold_lo_n = 20
threshold_hi_n = 30

[search]
free = natural_length

[bounds]
natural_length = 5, 14.5
"""

# Every 7.5 deg over the default sweep range, plus two off-grid angles.
MEASUREMENTS = "zeta_deg,measured_force_n\n" + "".join(
    f"{z},{4.0 + 0.05 * i}\n"
    for i, z in enumerate([*(-30.0 + 7.5 * k for k in range(17)), -12.4, 19.6])
)

GOLDEN = {
    "sweep_builtin.csv": "388fa1daba2ae1048f7fe3891850db51134ad94f9655eb5bb5428a74050802ca",
    "sweep_builtin.csv.summary": "7318032e11e453c7e68f93ae4ccdc37c942bec0887414cc9cd1556bc583c7ee3",
    "sweep_builtin.svg": "867ed322888966f37d116a452f0142503c7286d22cb2f8f47e0a7ee9af59ebf4",
    "sweep_override.csv": "8eb93a3a56ec5c281840d8e99c90f46d0d6217ca6d999cdb9ccc9387cb77dcd2",
    "sweep_override.csv.summary": "31b91a5f8c5a8bb76e65c10da725f1019fa914c463fcb61e14019c609f334cef",
    "sweep_override.svg": "5140852b19c18f70759726d941f7a8985743c8e1fa63db580b096ee1c57a1062",
    "analyze_0": "610128b41a94c4d4bb2fec1941bc228d8aa4fab0a5d9d9f6a767d394010ee80b",
    "analyze_-15": "b6a1d7b48df81f45d8e5dde2e707d708a62bd3ed723a5ef0f908d2ad6041a629",
    "analyze_60": "b154f2ffadf6b152fad59c4dc7cf15bda81e7a3df8a39f759df6a9a0d38c0469",
    "compare": "4c546762c5aa5655d6002457de21ef19593dd58dbaeaed8627b93656f3685425",
    "params_builtin": "1bcd1ccbcf7fccdbc948fb23651f08d39864da4fea9b575878647010c8f1fda4",
    "params_builtin_sweep": "deead3570d419ed3e41226c6567dfb72b825d99f30ba20999850e411de45809d",
    "optimize_feasible": "df5787af44216fc6e80f6d6e3769add878818424cd57d281a9aa7b56bfe7e8db",
    "optimize_feasible.out": "7818570aac3cb7b406ddf1fe1b278940a1e10674416fdb794345dd72a5fef346",
    "optimize_infeasible": "a2c59a49c7f3544d07314fd5771d8e90d3bec60a13e27c57161e9003175c682b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_outputs(workdir, override: bool) -> dict[str, str]:
    """Digests of the CSV, summary and SVG of one ``sweep --out --svg``."""
    tag = "override" if override else "builtin"
    argv = ["sweep", "--out", str(workdir / "curve.csv"), "--svg", str(workdir / "curve.svg")]
    if override:
        (workdir / "build.txt").write_text(OVERRIDE_BUILD)
        # A relative path, because the summary names the parameter file.
        argv += ["--params", "build.txt", "--press-angle-deg", "0"]
    assert main(argv) == 0
    return {
        f"sweep_{tag}.csv": _sha((workdir / "curve.csv").read_bytes()),
        f"sweep_{tag}.csv.summary": _sha((workdir / "curve.csv.summary").read_bytes()),
        f"sweep_{tag}.svg": _sha((workdir / "curve.svg").read_bytes()),
    }


def command_stdout(argv: list[str], capsys) -> bytes:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("override", [False, True], ids=["builtin", "override"])
def test_sweep_bytes(override, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, digest in sweep_outputs(tmp_path, override).items():
        assert digest == GOLDEN[name], name


@pytest.mark.parametrize(
    "zeta_deg,verdict",
    [
        ("0", "verdict: opens"),
        ("-15", "verdict: blocked (contact_maintained)"),
        ("60", "verdict: blocked (negative_xi)"),
    ],
)
def test_analyze_bytes(zeta_deg, verdict, capsys):
    out = command_stdout(["analyze", "--zeta-deg", zeta_deg], capsys)
    assert verdict in out.decode()
    assert _sha(out) == GOLDEN[f"analyze_{zeta_deg}"]


def test_compare_bytes(tmp_path, capsys):
    table = tmp_path / "meas.csv"
    table.write_text(MEASUREMENTS)
    out = command_stdout(["compare", "--measurements", str(table)], capsys)
    assert "not opening" in out.decode()
    assert _sha(out) == GOLDEN["compare"]


@pytest.mark.parametrize(
    "target,design,code,evaluations",
    [
        ("feasible", DESIGN_FEASIBLE, 0, 7),
        ("infeasible", DESIGN_INFEASIBLE, 4, 28),
    ],
)
def test_optimize_bytes(target, design, code, evaluations, tmp_path, monkeypatch, capsys):
    # Relative paths, because stdout names the --out file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "design.txt").write_text(design)
    capsys.readouterr()
    assert main(["optimize", "--design", "design.txt", "--out", "found.txt"]) == code
    out = capsys.readouterr().out
    assert out.startswith(f"evaluations: {evaluations}\n")
    assert _sha(out.encode()) == GOLDEN[f"optimize_{target}"]
    found = tmp_path / "found.txt"
    if code == 0:
        assert _sha(found.read_bytes()) == GOLDEN[f"optimize_{target}.out"]
    else:
        assert not found.exists()


@pytest.mark.parametrize("with_sweep", [False, True], ids=["plain", "sweep"])
def test_parameter_file_bytes(with_sweep):
    sweep = None
    if with_sweep:
        sweep = SweepSettings(-30.0, 90.0, 0.5)
    text = format_parameter_file(default_parameters(), sweep)
    assert ("[sweep]" in text) is with_sweep
    key = "params_builtin_sweep" if with_sweep else "params_builtin"
    assert _sha(text.encode()) == GOLDEN[key]
