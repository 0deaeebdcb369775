"""Checks on the program's outputs.

Each check raises :class:`CheckError` on the first wrong output.  The
reference quantities come from the benchmark's own closed forms
(``gamma``, ``a00``, ``reference_edges``), from properties the method
must have (sign rules, spring-rate linearity, grid size), or from the
independent raw-equilibrium route passed in as ``oracle``, which shares
no assembly code with the 2x2 balance behind every verdict.

``v`` is a build in file units as the generator wrote it: lengths mm,
angles deg, ``k_n_per_mm``, ``natural_length_mm``, ``mu``, ``epsilon_n``.
"""

from __future__ import annotations

import math
from typing import Callable

SWEEP_HEADER = "zeta_deg,xi_b_n,opens,blocked_reason,f_rx_n,f_sx_n,sign_beta3,sign_consistent"
COMPARE_HEADER = "zeta_deg,measured_force_n,predicted_force_n,abs_dev_n,rel_dev,model_opens"
REFINE_TOL_DEG = 0.01
# Outputs print 9 significant digits.
PRINT_REL = 1e-7
ORACLE_REL = 1e-9
REASONS = ("", "negative_xi", "contact_maintained", "singular")

# (build, zeta deg, friction branch or None) -> balance force N
Oracle = Callable[[dict, float, "int | None"], float]


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def close(got: float, want: float, tol: float = PRINT_REL) -> bool:
    return abs(got - want) <= tol * abs(want) + 1e-12


# ---------------------------------------------------------------------------
# Closed forms.  Opening needs xi >= 0, f_rx <= 0 and f_sx >= 0, where the
# probe forces are the first balance-matrix column scaled by the probe
# step: f_rx = -eps*a00/cos(theta1), f_sx = -eps*a10/cos(theta4).  Both
# entries have the form a*cos(zeta) + b*sin(zeta) and do not depend on
# the spring rate.

def _rad(v: dict, key: str) -> float:
    return math.radians(v[key])


def gamma(v: dict, zeta_deg: float) -> float:
    z = math.radians(zeta_deg)
    t2, t3 = _rad(v, "theta2"), _rad(v, "theta3")
    return (v["l4"] * math.cos(z) - v["l3"] * math.sin(t2 + z)) / (
        v["l2"] * math.sin(t2 + t3))


def a00(v: dict, zeta_deg: float) -> float:
    t1, t3 = _rad(v, "theta1"), _rad(v, "theta3")
    return gamma(v, zeta_deg) * math.sin(t1 - t3) + math.sin(t1 - math.radians(zeta_deg))


def a10(v: dict, zeta_deg: float) -> float:
    return gamma(v, zeta_deg) * math.sin(_rad(v, "theta3") + _rad(v, "theta4"))


def probe_forces(v: dict, zeta_deg: float) -> tuple[float, float]:
    eps = v["epsilon_n"]
    return (-eps * a00(v, zeta_deg) / math.cos(_rad(v, "theta1")),
            -eps * a10(v, zeta_deg) / math.cos(_rad(v, "theta4")))


def contact_blocked(v: dict, zeta_deg: float) -> bool:
    """True where the probe forces keep the clamp shut at any spring rate."""
    f_rx, f_sx = probe_forces(v, zeta_deg)
    return not (f_rx <= 0.0 and f_sx >= 0.0)


def blocked(v: dict, zeta_deg: float, oracle: Oracle) -> bool:
    """True where the clamp holds or some friction branch needs xi < 0.

    Where both friction branches are self-consistent the verdict follows
    the branch the 2x2 route settles on, which an output without a branch
    column does not name.
    """
    return contact_blocked(v, zeta_deg) or min(
        oracle(v, zeta_deg, 1), oracle(v, zeta_deg, -1)) < 0.0


def matches_oracle(x: float, v: dict, zeta_deg: float, oracle: Oracle) -> bool:
    """True if ``x`` is the raw-equilibrium balance force on either branch."""
    return any(close(x, oracle(v, zeta_deg, sign)) for sign in (1, -1))


def reference_edges(v: dict) -> tuple[float, float]:
    """Band edges in degrees: the gamma = 0 line and the root of a00."""
    t1, t2, t3 = _rad(v, "theta1"), _rad(v, "theta2"), _rad(v, "theta3")
    l2, l3, l4 = v["l2"], v["l3"], v["l4"]
    lower = math.atan((l4 - l3 * math.sin(t2)) / (l3 * math.cos(t2)))
    # a00 = A cos(zeta) + B sin(zeta)
    k = math.sin(t1 - t3) / (l2 * math.sin(t2 + t3))
    a = k * (l4 - l3 * math.sin(t2)) + math.sin(t1)
    b = -k * l3 * math.cos(t2) - math.cos(t1)
    upper = math.atan(-a / b)
    return math.degrees(lower), math.degrees(upper)


def grid_size(lo: float, hi: float, step: float) -> int:
    """Samples of a closed grid whose step divides the range."""
    count = (hi - lo) / step
    require(abs(count - round(count)) < 1e-9, f"step {step} does not divide [{lo}, {hi}]")
    return round(count) + 1


# ---------------------------------------------------------------------------
# Output parsers

def parse_summary(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(bool(sep), f"summary line without ' = ': {line!r}")
        out[key] = value
    return out


def _num(cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CheckError(f"{what}: not a number: {cell!r}") from None


def _bool(cell: str, what: str) -> bool:
    require(cell in ("true", "false"), f"{what}: expected true/false, got {cell!r}")
    return cell == "true"


def opening_runs(opens: list[bool]) -> list[tuple[int, int]]:
    runs, start = [], None
    for i, o in enumerate(opens):
        if o and start is None:
            start = i
        elif not o and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(opens) - 1))
    return runs


# ---------------------------------------------------------------------------
# sweep

def check_sweep(
    csv_text: str,
    summary_text: str,
    v: dict,
    grid: tuple[float, float, float],
    press_deg: float,
    oracle: Oracle,
    reference: bool = False,
) -> dict:
    """Check a sweep CSV and its summary sidecar; returns the summary."""
    lo, hi, step = grid
    n = grid_size(lo, hi, step)
    lines = csv_text.splitlines()
    require(bool(lines) and lines[0] == SWEEP_HEADER, f"CSV header is {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    require(len(rows) == n, f"CSV has {len(rows)} rows, grid has {n}")
    zetas, opens = [], []
    for i, row in enumerate(rows):
        where = f"CSV row {i + 2}"
        require(len(row) == 8, f"{where}: {len(row)} columns")
        z = _num(row[0], where)
        require(abs(z - (lo + i * step)) <= 1e-6, f"{where}: zeta {z} is off the grid")
        xi, f_rx, f_sx = (_num(c, where) for c in (row[1], row[4], row[5]))
        is_open = _bool(row[2], where)
        reason = row[3]
        _bool(row[7], where)
        require(reason in REASONS, f"{where}: unknown reason {reason!r}")
        require(is_open == (reason == ""), f"{where}: opens={row[2]} with reason {reason!r}")
        if reason == "singular":
            require(math.isnan(f_rx) and math.isnan(f_sx), f"{where}: singular row with forces")
        else:
            want_rx, want_sx = probe_forces(v, z)
            require(close(f_rx, want_rx) and close(f_sx, want_sx),
                    f"{where}: probe forces ({f_rx}, {f_sx}) != closed form "
                    f"({want_rx:.9g}, {want_sx:.9g})")
            require(row[6] in ("1", "-1"), f"{where}: sign_beta3 {row[6]!r}")
        if is_open:
            require(xi >= 0.0 and f_rx <= 0.0 and f_sx >= 0.0,
                    f"{where}: opening row with xi={xi}, f_rx={f_rx}, f_sx={f_sx}")
            want = oracle(v, z, int(row[6]))
            require(close(xi, want), f"{where}: xi {xi} != raw equilibrium {want:.9g}")
        else:
            require(xi == 0.0, f"{where}: non-opening row with xi={xi}")
            if reason == "contact_maintained":
                require(f_rx > 0.0 or f_sx < 0.0, f"{where}: contact_maintained but probe opens")
            elif reason == "negative_xi":
                require(oracle(v, z, int(row[6])) < 0.0,
                        f"{where}: negative_xi, raw equilibrium is >= 0")
        zetas.append(z)
        opens.append(is_open)

    summary = parse_summary(summary_text)
    for key, want in (("zeta_lo_deg", lo), ("zeta_hi_deg", hi), ("step_deg", step)):
        require(key in summary and close(_num(summary[key], key), want), f"summary {key}")
    require(summary.get("samples") == str(n), f"summary samples {summary.get('samples')} != {n}")
    runs = opening_runs(opens)
    count = int(summary.get("opening_intervals", "-1"))
    require(count == len(runs), f"summary has {count} intervals, CSV has {len(runs)} runs")
    edges = sorted(
        (_num(summary[f"interval_{i}_lo_deg"], "edge"), _num(summary[f"interval_{i}_hi_deg"], "edge"))
        for i in range(1, count + 1))
    slack = 1e-6
    for (first, last), (e_lo, e_hi) in zip(runs, edges):
        if first == 0:
            require(abs(e_lo - zetas[0]) <= slack, f"lower edge {e_lo} should be the range start")
        else:
            require(zetas[first - 1] - slack < e_lo <= zetas[first] + slack,
                    f"lower edge {e_lo} outside ({zetas[first - 1]}, {zetas[first]}]")
        if last == n - 1:
            require(abs(e_hi - zetas[-1]) <= slack, f"upper edge {e_hi} should be the range end")
        else:
            require(zetas[last] - slack <= e_hi < zetas[last + 1] + slack,
                    f"upper edge {e_hi} outside [{zetas[last]}, {zetas[last + 1]})")

    if reference:
        x_lo, x_hi = reference_edges(v)
        require(len(edges) == 1, f"reference build has {len(edges)} bands, expected 1")
        e_lo, e_hi = edges[0]
        require(x_lo - slack <= e_lo <= x_lo + REFINE_TOL_DEG + slack,
                f"lower edge {e_lo} not within {REFINE_TOL_DEG} deg above {x_lo:.9g}")
        require(x_hi - REFINE_TOL_DEG - slack <= e_hi <= x_hi + slack,
                f"upper edge {e_hi} not within {REFINE_TOL_DEG} deg below {x_hi:.9g}")
        for z, o in zip(zetas, opens):
            require(o == (x_lo <= z <= x_hi), f"reference row {z}: opens={o} against closed form")

    require(close(_num(summary.get("press_angle_deg", "nan"), "press"), press_deg),
            "summary press_angle_deg")
    threshold = summary.get("threshold_n")
    if threshold == "not_opening":
        require(blocked(v, press_deg, oracle),
                f"press {press_deg} deg reported not opening, but it opens")
    else:
        t = _num(str(threshold), "threshold_n")
        require(not contact_blocked(v, press_deg), f"threshold {t} at a blocked press direction")
        require(matches_oracle(t, v, press_deg, oracle), f"threshold {t} != raw equilibrium")
        require(close(_num(summary.get("grip_budget_n", "nan"), "budget"), 0.8 * t),
                "grip budget is not 0.8 of the threshold")
    return summary


def check_svg(text: str, n: int) -> None:
    require(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "SVG is not a document")
    points = text.split('<polyline points="', 1)[-1].split('"', 1)[0].split()
    require(len(points) == n, f"SVG polyline has {len(points)} points, grid has {n}")


# ---------------------------------------------------------------------------
# analyze, validate, compare, optimize

def _field(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise CheckError(f"output has no line {prefix!r}")


def check_analyze(stdout: str, v: dict, zeta_deg: float, oracle: Oracle) -> str:
    """Check an exit-0 analyze report; returns the verdict text."""
    xi = _num(_field(stdout, "balance force xi_b:").split()[0], "xi_b")
    forces = _field(stdout, "probe joint forces:").replace(",", " ").split()
    f_rx, f_sx = _num(forces[2], "f_rx"), _num(forces[6], "f_sx")
    want_rx, want_sx = probe_forces(v, zeta_deg)
    require(close(f_rx, want_rx) and close(f_sx, want_sx), "analyze probe forces != closed form")
    sign = int(_field(stdout, "friction branch:").split()[0])
    require(close(xi, oracle(v, zeta_deg, sign)), f"analyze xi_b {xi} != raw equilibrium")
    verdict = _field(stdout, "verdict:")
    if verdict.startswith("opens"):
        require(xi >= 0.0 and f_rx <= 0.0 and f_sx >= 0.0, "analyze opens against the sign rule")
    elif verdict == "blocked (negative_xi)":
        require(xi < 0.0, "negative_xi verdict with xi >= 0")
    elif verdict == "blocked (contact_maintained)":
        require(xi >= 0.0 and contact_blocked(v, zeta_deg), "contact_maintained against the sign rule")
    else:
        raise CheckError(f"unexpected verdict {verdict!r}")
    return verdict


def check_compare(out_csv: str, stdout: str, v: dict, table: list[tuple[float, float]],
                  oracle: Oracle) -> None:
    lines = out_csv.splitlines()
    require(bool(lines) and lines[0] == COMPARE_HEADER, "comparison CSV header")
    require(len(lines) - 1 == len(table), f"comparison has {len(lines) - 1} rows, table {len(table)}")
    devs = []
    for line, (z, measured) in zip(lines[1:], table):
        cells = line.split(",")
        require(len(cells) == 6, f"comparison row {line!r}")
        require(close(_num(cells[0], "zeta"), z) and close(_num(cells[1], "force"), measured),
                f"comparison row {line!r} does not echo the table")
        if _bool(cells[5], "model_opens"):
            predicted, dev = _num(cells[2], "predicted"), _num(cells[3], "abs_dev")
            require(not contact_blocked(v, z), f"comparison opens at blocked {z} deg")
            require(matches_oracle(predicted, v, z, oracle),
                    f"comparison at {z} deg != raw equilibrium")
            require(close(dev, abs(predicted - measured), 1e-6), f"abs_dev at {z} deg")
            devs.append(dev)
        else:
            require(cells[2:5] == ["", "", ""], f"silent row with values: {line!r}")
            require(blocked(v, z, oracle), f"comparison blocks open {z} deg")
    mean = _field(stdout, "mean abs deviation:")
    if devs:
        require(close(_num(mean.split()[0], "mean"), sum(devs) / len(devs), 1e-6), "mean deviation")
    else:
        require(mean.startswith("undefined"), "mean deviation without opening rows")


def spring_rate_proof(target: dict, v: dict, oracle: Oracle) -> str | None:
    """Why a spring-rate-only target is infeasible from ``v``, or None.

    The spring rate scales the balance force and leaves the probe forces
    alone, so the envelope is fixed and the switching force is linear in
    the rate.
    """
    if target["free"] != ["spring_k"]:
        return None
    lo, hi = target["interval_deg"]
    press = target["press_deg"]
    for z in (lo, hi):
        if contact_blocked(v, z):
            return f"band end {z} deg is blocked at every spring rate"
    if contact_blocked(v, press):
        return f"press direction {press} deg is blocked at every spring rate"
    k_lo, k_hi = target["bounds"]["spring_k"]
    t_lo, t_hi = target["threshold_n"]
    per_rate = [oracle(v, press, sign) / v["k_n_per_mm"] for sign in (1, -1)]
    if all(r * k_hi < t_lo or r * k_lo > t_hi for r in per_rate):
        return "switching band is out of reach of the spring-rate bounds"
    return None


def check_optimize(stdout: str, code: int, target: dict, v: dict, oracle: Oracle) -> None:
    status = _field(stdout, "status:")
    if code == 4:
        require(status == "infeasible", f"exit 4 with status {status!r}")
        require(spring_rate_proof(target, v, oracle) is not None,
                "infeasible verdict on a target linearity does not rule out")
        return
    require(code == 0 and status == "feasible", f"exit {code} with status {status!r}")
    env = _field(stdout, "verified envelope:").strip("[] deg").split(",")
    e_lo, e_hi = _num(env[0], "envelope"), _num(env[1], "envelope")
    lo, hi = target["interval_deg"]
    require(e_lo <= lo and e_hi >= hi, f"verified envelope [{e_lo}, {e_hi}] misses [{lo}, {hi}]")
    t = _num(_field(stdout, "verified threshold:").split()[0], "threshold")
    t_lo, t_hi = target["threshold_n"]
    require(t_lo <= t <= t_hi, f"verified threshold {t} outside [{t_lo}, {t_hi}]")
