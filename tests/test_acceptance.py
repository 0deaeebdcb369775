"""Top-level capability checks, one test per numbered criterion.

Each test prints one PASS or FAIL verdict line; conftest repeats the
lines in a terminal summary after the run.  A criterion fails only as a
whole, with every unmet clause named.
"""

import math
import time

import numpy as np
import pytest

from linkstat import (
    DesignSpec,
    DesignStatus,
    NotOpeningError,
    SingularSystemError,
    default_parameters,
    format_parameter_file,
    full_equilibrium,
    opening_interval,
    optimize_design,
    parse_parameter_file,
    perturbed_joint_forces,
    predict_opening,
    solve_balance,
    solve_balance_with_sign,
    spring_force,
    sweep,
    switching_threshold,
)
from linkstat.cli import main as cli_main

CRITERIA = (1, 2, 3, 4, 5, 6, 7)
RESULTS: dict[int, tuple[bool, str]] = {}


def verdict(n: int, clauses: list[tuple[bool, str]]) -> None:
    failed = [text for ok, text in clauses if not ok]
    ok = not failed
    detail = "; ".join(failed)
    RESULTS[n] = (ok, detail)
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def rad(x: float) -> float:
    return math.radians(x)


def test_criterion_1_reference_envelope(defaults):
    """Default sweep: one contiguous band near the reference anchors,
    switching force in the handbook range, under a second of wall time."""
    t0 = time.perf_counter()
    curve = sweep(defaults)
    intervals = opening_interval(curve)
    elapsed = time.perf_counter() - t0

    clauses: list[tuple[bool, str]] = []
    clauses.append(
        (len(intervals) == 1, f"expected one opening band, got {len(intervals)}")
    )
    if intervals:
        lo = math.degrees(intervals[0].lo)
        hi = math.degrees(intervals[0].hi)
        clauses.append(
            (
                abs(lo - (-15.0)) <= 3.0,
                f"lower edge {lo:.3f} deg not within 3 deg of -15",
            )
        )
        clauses.append(
            (
                abs(hi - 23.0) <= 3.0,
                f"upper edge {hi:.3f} deg not within 3 deg of 23",
            )
        )
    try:
        t = switching_threshold(defaults, rad(-15.0))
        clauses.append(
            (4.5 <= t <= 7.0, f"threshold {t:.3f} N outside [4.5, 7.0]")
        )
    except NotOpeningError as exc:
        clauses.append((False, f"threshold at -15 deg unavailable: {exc}"))
    clauses.append((elapsed < 1.0, f"sweep took {elapsed:.2f} s"))
    verdict(1, clauses)


def test_criterion_2_dual_route_agreement(defaults):
    """Aggregated and raw balances agree to 1e-9 over 1000 perturbed
    linkages at 25 press directions each."""
    fields = (
        "l0", "l1", "l2", "l3", "l4",
        "theta0", "theta1", "theta2", "theta3", "theta4", "theta5",
        "spring_k", "natural_length", "mu",
    )
    rng = np.random.default_rng(20260822)
    worst = 0.0
    compared = 0
    skipped = 0
    for _ in range(1000):
        factors = rng.uniform(0.9, 1.1, size=len(fields))
        p = defaults.with_values(
            **{name: getattr(defaults, name) * f for name, f in zip(fields, factors)}
        )
        zetas = rng.uniform(rad(-30.0), rad(90.0), size=25)
        for zeta in zetas:
            try:
                sol = solve_balance(p, float(zeta))
            except SingularSystemError:
                skipped += 1
                continue
            if not sol.sign_consistent:
                skipped += 1
                continue
            state = full_equilibrium(p, float(zeta), sol.sign_beta3)
            if not state.consistent:
                skipped += 1
                continue
            worst = max(
                worst,
                rel(sol.xi_b, state.xi),
                rel(sol.beta_3b, state.beta_3),
            )
            compared += 1
    verdict(
        2,
        [
            (compared >= 20000, f"only {compared} well-posed comparisons"),
            (worst < 1e-9, f"worst relative disagreement {worst:.3e}"),
            (skipped < 5000, f"{skipped} pairs skipped"),
        ],
    )


def test_criterion_3_forces(defaults):
    """Spring load matches the reference build; the probe-force shortcut
    equals the explicit matrix route; a zero probe step yields zero."""
    clauses: list[tuple[bool, str]] = []
    f_k = spring_force(defaults)
    clauses.append(
        (abs(f_k - 3.69) <= 0.01, f"spring force {f_k:.4f} N not near 3.69")
    )

    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 100:
        p = defaults.with_values(
            l3=defaults.l3 * rng.uniform(0.9, 1.1),
            theta2=defaults.theta2 * rng.uniform(0.9, 1.1),
            spring_k=defaults.spring_k * rng.uniform(0.5, 2.0),
            epsilon=rng.uniform(0.01, 0.5),
        )
        zeta = rng.uniform(rad(-25.0), rad(60.0))
        try:
            sol = solve_balance(p, zeta)
        except SingularSystemError:
            continue
        forces = perturbed_joint_forces(p, zeta, sol)
        a, b = sol.system.matrix, sol.system.rhs
        residual = a @ np.array([sol.xi_b + p.epsilon, sol.beta_3b]) - b
        f_rx = -float(residual[0]) / math.cos(p.theta1)
        f_sx = -float(residual[1]) / math.cos(p.theta4)
        worst = max(worst, rel(forces.f_rx, f_rx), rel(forces.f_sx, f_sx))
        checked += 1
    clauses.append(
        (worst < 1e-12, f"probe-force routes disagree by {worst:.3e}")
    )

    quiet = perturbed_joint_forces(defaults.with_values(epsilon=0.0), 0.0)
    clauses.append(
        (
            quiet.f_rx == 0.0 and quiet.f_sx == 0.0,
            f"zero probe step gave ({quiet.f_rx}, {quiet.f_sx})",
        )
    )
    verdict(3, clauses)


def test_criterion_4_spring_rate_scaling(defaults):
    """Scaling the spring rate scales forces linearly and leaves every
    verdict and envelope edge untouched."""
    base_curve = sweep(defaults)
    base_intervals = opening_interval(base_curve)
    base_threshold = switching_threshold(defaults, 0.0)

    clauses: list[tuple[bool, str]] = []
    for c in (0.5, 2.0, 4.0):
        scaled = defaults.with_values(spring_k=defaults.spring_k * c)
        curve = sweep(scaled)
        worst = 0.0
        verdicts_match = True
        for s_base, s_scaled in zip(base_curve.samples, curve.samples):
            if s_base.decision.opens != s_scaled.decision.opens:
                verdicts_match = False
            a, b = s_base.decision.solution, s_scaled.decision.solution
            if a is not None and b is not None:
                worst = max(worst, rel(c * a.xi_b, b.xi_b))
        clauses.append((verdicts_match, f"verdicts changed at c={c}"))
        clauses.append(
            (worst < 1e-12, f"balance force scaling off by {worst:.3e} at c={c}")
        )

        intervals = opening_interval(curve)
        clauses.append(
            (
                len(intervals) == len(base_intervals),
                f"band count changed at c={c}",
            )
        )
        for iv_base, iv in zip(base_intervals, intervals):
            clauses.append(
                (
                    abs(math.degrees(iv.lo - iv_base.lo)) <= 0.01
                    and abs(math.degrees(iv.hi - iv_base.hi)) <= 0.01,
                    f"band edges moved at c={c}",
                )
            )
        t = switching_threshold(scaled, 0.0)
        clauses.append(
            (
                rel(t, c * base_threshold) < 1e-12,
                f"threshold did not scale by {c}",
            )
        )
    verdict(4, clauses)


def test_criterion_5_frictionless_branch_collapse(defaults):
    """With no pin friction the slip-sense branch cannot matter."""
    p = defaults.with_values(mu=0.0)
    worst = 0.0
    checked = 0
    for sample in sweep(defaults).samples:
        zeta = sample.zeta
        try:
            plus = solve_balance_with_sign(p, zeta, 1)
            minus = solve_balance_with_sign(p, zeta, -1)
        except SingularSystemError:
            continue
        worst = max(
            worst,
            rel(plus.xi_b, minus.xi_b),
            rel(plus.beta_3b, minus.beta_3b),
        )
        checked += 1
    verdict(
        5,
        [
            (checked >= 240, f"only {checked} directions checked"),
            (worst < 1e-12, f"branches disagree by {worst:.3e}"),
        ],
    )


def test_criterion_6_interfaces(tmp_path, defaults):
    """File round-trip precision, byte-stable sweep output, and the
    documented exit codes."""
    clauses: list[tuple[bool, str]] = []

    text = format_parameter_file(defaults)
    again = parse_parameter_file(text)
    worst = max(
        abs(getattr(again, name) - value) / max(1.0, abs(value))
        for name, value in defaults.as_dict().items()
    )
    clauses.append((worst <= 1e-12, f"round-trip drift {worst:.3e}"))

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["sweep", "--out", str(a)])
    code_b = cli_main(["sweep", "--out", str(b)])
    clauses.append((code_a == 0 and code_b == 0, "sweep subcommand failed"))
    clauses.append(
        (a.read_bytes() == b.read_bytes(), "sweep CSV bytes not reproducible")
    )
    header = a.read_text().split("\n", 1)[0]
    expected_header = (
        "zeta_deg,xi_b_n,opens,blocked_reason,f_rx_n,f_sx_n,sign_beta3,sign_consistent"
    )
    clauses.append((header == expected_header, f"CSV header is {header!r}"))

    bad = tmp_path / "bad.txt"
    bad.write_text(format_parameter_file(defaults.with_values(l2=-1.0)))
    singular = tmp_path / "singular.txt"
    singular.write_text(
        format_parameter_file(defaults.with_values(theta3=defaults.theta1))
    )
    hopeless = tmp_path / "design.txt"
    hopeless.write_text(
        "[target]\ninterval_lo_deg = -10\ninterval_hi_deg = 15\n"
        "press_angle_deg = 0\nthreshold_lo_n = 1000\nthreshold_hi_n = 1e9\n"
        "[search]\nfree = spring_k\nbudget = 30\n"
        "[bounds]\nspring_k = 0.01, 1\n"
    )
    codes = {
        0: cli_main(["validate"]),
        2: cli_main(["validate", "--params", str(bad)]),
        3: cli_main(["analyze", "--params", str(singular), "--zeta-deg", "9"]),
        4: cli_main(["optimize", "--design", str(hopeless)]),
        5: cli_main(["sweep", "--params", str(tmp_path / "missing.txt")]),
    }
    for want, got in codes.items():
        clauses.append((got == want, f"exit code {want} path returned {got}"))
    verdict(6, clauses)


def test_criterion_7_design_search(tmp_path, defaults):
    """The optimizer reaches a reachable target, proves it with a fresh
    sweep, and calls an impossible target infeasible."""
    clauses: list[tuple[bool, str]] = []

    spec = DesignSpec(
        interval_lo=rad(-10.0),
        interval_hi=rad(15.0),
        press_angle=rad(-15.0),
        threshold_lo=3.0,
        threshold_hi=8.0,
        free=("theta2",),
        bounds={"theta2": (rad(10.0), rad(30.0))},
    )
    result = optimize_design(spec, defaults, budget=400)
    clauses.append(
        (result.status is DesignStatus.FEASIBLE, "reachable target not found")
    )
    clauses.append((result.evaluations <= 400, "budget exceeded"))
    clauses.append(
        (result.verification is not None, "feasible verdict lacks verification")
    )
    if result.status is DesignStatus.FEASIBLE:
        p = result.parameters
        intervals = opening_interval(sweep(p))
        covered = any(
            iv.lo <= rad(-10.0) and iv.hi >= rad(15.0) for iv in intervals
        )
        clauses.append((covered, "returned build does not cover the band"))
        try:
            t = switching_threshold(p, rad(-15.0))
            clauses.append(
                (3.0 <= t <= 8.0, f"returned threshold {t:.3f} N out of band")
            )
        except NotOpeningError:
            clauses.append((False, "returned build blocks the press direction"))
        repeat = optimize_design(spec, defaults, budget=400)
        clauses.append(
            (
                repeat.parameters == result.parameters
                and repeat.evaluations == result.evaluations,
                "search is not deterministic",
            )
        )

    hopeless = DesignSpec(
        interval_lo=rad(-10.0),
        interval_hi=rad(15.0),
        press_angle=rad(0.0),
        threshold_lo=1000.0,
        threshold_hi=1e9,
        free=("spring_k",),
        bounds={"spring_k": (0.01, 1.0)},
    )
    blocked = optimize_design(hopeless, defaults, budget=60)
    clauses.append(
        (blocked.status is DesignStatus.INFEASIBLE, "impossible target not flagged")
    )
    clauses.append((len(blocked.violations) > 0, "no violations reported"))
    verdict(7, clauses)
