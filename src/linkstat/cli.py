"""Command line front end.

Five subcommands cover the workflow:

* ``analyze``   one press direction in detail
* ``sweep``     envelope sweep to CSV, summary sidecar, optional SVG
* ``optimize``  search the design space against a target file
* ``validate``  parameter rule report
* ``compare``   predictions against a bench measurement table

Angles cross this boundary in degrees; everything beneath it runs in
radians.  Exit codes: 0 success, 2 parse or validation failure, 3 a
degenerate or indeterminate analysis point, 4 infeasible design target,
5 I/O failure (a stdout closed by its reader included).

This module loads only what every command needs to parse its command
line and read and validate a parameter file.  A handler imports the
solver (``statics``, ``modeswitch``) and its own extras once its input
has validated, so a command refused before that never loads them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .model import (
    _ANGLE_FIELDS,
    DEFAULT_SWEEP_HI_DEG,
    DEFAULT_SWEEP_LO_DEG,
    DEFAULT_SWEEP_STEP_DEG,
    default_parameters,
    spring_force,
    sweep_grid,
    validate_parameters,
)
from .paramfile import (
    ParameterDocument,
    ParameterFileError,
    SweepSettings,
    parse_parameter_document,
)

if TYPE_CHECKING:
    from .modeswitch import OpeningInterval, SweepCurve

__all__ = ["main"]

SWEEP_CSV_HEADER = (
    "zeta_deg,xi_b_n,opens,blocked_reason,f_rx_n,f_sx_n,sign_beta3,sign_consistent"
)

_DEFAULT_PRESS_DEG = -15.0


class _Fail(Exception):
    """Carries an exit code and a message for the top-level handler."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _finite_float(text: str) -> float:
    """argparse type for angle flags: a finite number, never nan or inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _num(x: float) -> str:
    return f"{x:.9g}"


def _read_text(path: str) -> str:
    try:
        # utf-8-sig reads past the byte-order mark of a spreadsheet export.
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise _Fail(5, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Fail(2, f"{path}: not UTF-8 text ({exc.reason})") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Fail(5, f"cannot write {path}: {exc}") from exc


def _load_params(path: str | None) -> tuple[ParameterDocument, str]:
    """The parameter document at ``path``, or the built-in build, and its label."""
    if path is None:
        return ParameterDocument(default_parameters(), None), "builtin"
    text = _read_text(path)
    try:
        return parse_parameter_document(text), path
    except ParameterFileError as exc:
        raise _Fail(2, f"{path}: {exc}") from exc


def _load_valid(path: str | None) -> tuple[ParameterDocument, str]:
    """:func:`_load_params`, refusing a build that breaks a parameter rule."""
    doc, label = _load_params(path)
    report = validate_parameters(doc.parameters)
    if not report.ok:
        raise _Fail(2, f"{label}: invalid parameters\n{report.describe()}")
    return doc, label


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args: argparse.Namespace) -> int:
    doc, label = _load_valid(args.params)
    p = doc.parameters
    from .modeswitch import DEFAULT_GRIP_MARGIN, parallel_grip_budget
    from .statics import (
        OpeningStatus,
        friction_coupling,
        predict_opening,
        tip_moment_ratio,
    )

    zeta = math.radians(args.zeta_deg)

    print(f"parameters: {label}")
    print(f"press direction: {_num(args.zeta_deg)} deg")
    print(f"spring force: {_num(spring_force(p))} N")
    print(f"tip moment ratio: {_num(tip_moment_ratio(p, zeta))}")

    decision = predict_opening(p, zeta)
    if decision.status is OpeningStatus.SINGULAR:
        print("verdict: singular balance system, no usable solution")
        return 3

    sol = decision.solution
    assert sol is not None and decision.forces is not None
    print(
        f"friction branch: {sol.sign_beta3:+d} "
        f"(coupling {_num(friction_coupling(p, sol.sign_beta3))}, "
        f"{'consistent' if sol.sign_consistent else 'INCONSISTENT'})"
    )
    print(f"balance force xi_b: {_num(sol.xi_b)} N")
    print(f"coupler strut force beta_3b: {_num(sol.beta_3b)} N")
    print(
        f"probe joint forces: f_rx = {_num(decision.forces.f_rx)} N, "
        f"f_sx = {_num(decision.forces.f_sx)} N"
    )

    if not sol.sign_consistent:
        print("verdict: indeterminate friction branch")
        return 3
    if decision.opens:
        print(f"verdict: opens (turn-over at >= {_num(sol.xi_b)} N)")
        print(
            f"parallel grip budget ({DEFAULT_GRIP_MARGIN:g} margin): "
            f"{_num(parallel_grip_budget(sol.xi_b))} N"
        )
    else:
        assert decision.blocked_reason is not None
        print(f"verdict: blocked ({decision.blocked_reason.value})")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_csv(curve: SweepCurve, zetas_deg: list[float]) -> str:
    from .statics import OpeningStatus

    lines = [SWEEP_CSV_HEADER]
    for z_deg, sample in zip(zetas_deg, curve.samples):
        d = sample.decision
        if d.status is OpeningStatus.SINGULAR:
            xi, f_rx, f_sx = 0.0, math.nan, math.nan
        else:
            assert d.solution is not None and d.forces is not None
            xi = d.required_force if d.opens else 0.0
            f_rx, f_sx = d.forces.f_rx, d.forces.f_sx
        lines.append(
            ",".join(
                [
                    _num(z_deg),
                    _num(xi),
                    "true" if d.opens else "false",
                    d.blocked_reason.value if d.blocked_reason else "",
                    _num(f_rx),
                    _num(f_sx),
                    str(d.sign_beta3),
                    "true" if d.sign_consistent else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _sweep_summary(
    label: str,
    lo_deg: float,
    hi_deg: float,
    step_deg: float,
    curve: SweepCurve,
    intervals: tuple[OpeningInterval, ...],
    press_deg: float,
    threshold: float | None,
) -> str:
    from .modeswitch import parallel_grip_budget

    lines = [
        f"params = {label}",
        f"zeta_lo_deg = {_num(lo_deg)}",
        f"zeta_hi_deg = {_num(hi_deg)}",
        f"step_deg = {_num(step_deg)}",
        f"samples = {len(curve.samples)}",
        f"opening_intervals = {len(intervals)}",
    ]
    for i, iv in enumerate(intervals, start=1):
        lines.append(f"interval_{i}_lo_deg = {_num(math.degrees(iv.lo))}")
        lines.append(f"interval_{i}_hi_deg = {_num(math.degrees(iv.hi))}")
    lines.append(f"press_angle_deg = {_num(press_deg)}")
    if threshold is None:
        lines.append("threshold_n = not_opening")
    else:
        lines.append(f"threshold_n = {_num(threshold)}")
        lines.append(f"grip_budget_n = {_num(parallel_grip_budget(threshold))}")
    return "\n".join(lines) + "\n"


def _render_svg(zetas_deg: list[float], forces: list[float]) -> str:
    """Minimal self-contained plot of required force over press direction."""
    width, height = 640.0, 400.0
    left, right, top, bottom = 60.0, 20.0, 20.0, 50.0
    x_lo, x_hi = zetas_deg[0], zetas_deg[-1]
    span_x = (x_hi - x_lo) or 1.0
    y_hi = max(max(forces), 1.0)

    def sx(z: float) -> float:
        return left + (z - x_lo) / span_x * (width - left - right)

    def sy(f: float) -> float:
        return height - bottom - f / y_hi * (height - top - bottom)

    points = " ".join(f"{sx(z):.2f},{sy(f):.2f}" for z, f in zip(zetas_deg, forces))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>\n'
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>\n'
        f'<polyline points="{points}" fill="none" stroke="#c33" stroke-width="1.5"/>\n'
        f'<text x="{left:.1f}" y="{height - 12:.1f}" font-size="12">'
        f"{x_lo:g} deg</text>\n"
        f'<text x="{width - right - 60:.1f}" y="{height - 12:.1f}" font-size="12">'
        f"{x_hi:g} deg</text>\n"
        f'<text x="8" y="{top + 8:.1f}" font-size="12">{y_hi:.3g} N</text>\n'
        f'<text x="8" y="{height - bottom:.1f}" font-size="12">0</text>\n'
        f'<text x="{width / 2 - 90:.0f}" y="{height - 12:.1f}" font-size="12">'
        "press direction (deg)</text>\n"
        "</svg>\n"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc, label = _load_valid(args.params)
    p = doc.parameters

    # A flag overrides the file's [sweep], which overrides the default.
    file_sweep = doc.sweep or SweepSettings(
        DEFAULT_SWEEP_LO_DEG, DEFAULT_SWEEP_HI_DEG, DEFAULT_SWEEP_STEP_DEG
    )
    lo_deg = file_sweep.zeta_lo_deg if args.lo_deg is None else args.lo_deg
    hi_deg = file_sweep.zeta_hi_deg if args.hi_deg is None else args.hi_deg
    step_deg = file_sweep.step_deg if args.step_deg is None else args.step_deg

    try:
        zetas_deg = sweep_grid(lo_deg, hi_deg, step_deg)
    except ValueError as exc:
        raise _Fail(2, f"sweep {exc} deg") from exc
    from .modeswitch import opening_interval, sweep_points
    from .statics import predict_opening

    # p is valid and every grid point finite, so no verdict raises here.
    curve = sweep_points(p, [math.radians(z) for z in zetas_deg])
    try:
        intervals = opening_interval(curve)
    except ValueError as exc:  # two grid points one float apart in degrees, equal in radians
        raise _Fail(2, f"sweep {exc}") from exc

    press = predict_opening(p, math.radians(args.press_angle_deg))
    threshold = press.required_force if press.opens else None

    summary = _sweep_summary(
        label, lo_deg, hi_deg, step_deg, curve, intervals,
        args.press_angle_deg, threshold,
    )
    if args.out is not None:
        _write_text(args.out, _sweep_csv(curve, zetas_deg))
        _write_text(args.out + ".summary", summary)
    if args.svg is not None:
        forces = [s.decision.required_force if s.decision.opens else 0.0
                  for s in curve.samples]
        _write_text(args.svg, _render_svg(zetas_deg, forces))

    sys.stdout.write(summary)
    if args.out is not None:
        print(f"wrote {args.out} and {args.out}.summary")
    if args.svg is not None:
        print(f"wrote {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# optimize

def _cmd_optimize(args: argparse.Namespace) -> int:
    if args.budget is not None and args.budget < 1:
        raise _Fail(2, f"--budget must be >= 1, got {args.budget}")
    doc, label = _load_valid(args.params)
    text = _read_text(args.design)
    from .paramfile import format_parameter_file, parse_design_file

    try:
        spec, budget = parse_design_file(text)
        spec.validated()  # a refused spec never loads the solver
        from .design import optimize_design

        if args.budget is not None:
            budget = args.budget
        result = optimize_design(spec, doc.parameters, budget)
    except (ParameterFileError, ValueError) as exc:
        raise _Fail(2, f"{args.design}: {exc}") from exc
    except RuntimeError as exc:  # a feasible answer failed re-verification
        raise _Fail(3, f"{args.design}: {exc}") from exc

    if result.feasible and args.out is not None:
        _write_text(args.out, format_parameter_file(result.parameters))
    print(f"evaluations: {result.evaluations}")
    print(f"penalty: {_num(result.penalty)}")
    if result.feasible:
        record = result.verification
        assert record is not None
        print("status: feasible")
        print(
            f"verified envelope: [{_num(math.degrees(record.interval_lo))}, "
            f"{_num(math.degrees(record.interval_hi))}] deg"
        )
        print(f"verified threshold: {_num(record.threshold)} N")
        for name in spec.free:
            value = getattr(result.parameters, name)
            if name in _ANGLE_FIELDS:
                print(f"{name} = {_num(math.degrees(value))} deg")
            else:
                print(f"{name} = {_num(value)}")
        if args.out is not None:
            print(f"wrote {args.out}")
        return 0
    print("status: infeasible")
    for v in result.violations:
        print(f"violation: {v}")
    return 4


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args: argparse.Namespace) -> int:
    doc, label = _load_params(args.params)
    report = validate_parameters(doc.parameters)
    print(f"parameters: {label}")
    print(report.describe())
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# compare

def _cmd_compare(args: argparse.Namespace) -> int:
    doc, label = _load_valid(args.params)
    # read_ and compare_measurements via paramfile, where the benchmark's tracer wraps them.
    from .paramfile import read_measurements
    from .readers import MeasurementFileError

    text = _read_text(args.measurements)
    try:
        measurements = read_measurements(text)
    except MeasurementFileError as exc:
        raise _Fail(2, f"{args.measurements}: {exc}") from exc
    from .compare import format_comparison_csv
    from .paramfile import compare_measurements

    result = compare_measurements(doc.parameters, measurements)
    if args.out is not None:
        _write_text(args.out, format_comparison_csv(result))
    print("zeta_deg  measured_N  predicted_N  abs_dev_N  rel_dev")
    for row in result.rows:
        z = f"{math.degrees(row.zeta):8.3f}"
        if row.model_opens:
            assert row.predicted is not None and row.abs_dev is not None
            rel = f"{row.rel_dev:.3f}" if row.rel_dev is not None else "-"
            print(
                f"{z}  {row.measured:10.4f}  {row.predicted:11.4f}  "
                f"{row.abs_dev:9.4f}  {rel}"
            )
        else:
            print(f"{z}  {row.measured:10.4f}  {'not opening':>11}  {'-':>9}  -")
    if result.mean_abs_dev is not None:
        print(f"mean abs deviation: {_num(result.mean_abs_dev)} N")
    else:
        print("mean abs deviation: undefined (model opens nowhere measured)")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkstat",
        description=(
            "Statics toolkit for a parallel-link gripper finger: opening "
            "forces, grip/turn-over switching, and design search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    params = argparse.ArgumentParser(add_help=False)  # every subcommand's --params
    params.add_argument("--params", metavar="FILE", default=None,
                        help="parameter file (default: built-in reference build)")

    sp = sub.add_parser("analyze", parents=[params], help="inspect one press direction")
    sp.add_argument("--zeta-deg", type=_finite_float, required=True,
                    help="press direction in degrees")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("sweep", parents=[params], help="sweep press directions, write CSV")
    sp.add_argument("--lo-deg", type=_finite_float, default=None,
                    help=f"sweep start (default {DEFAULT_SWEEP_LO_DEG:g})")
    sp.add_argument("--hi-deg", type=_finite_float, default=None,
                    help=f"sweep end (default {DEFAULT_SWEEP_HI_DEG:g})")
    sp.add_argument("--step-deg", type=_finite_float, default=None,
                    help=f"sweep step (default {DEFAULT_SWEEP_STEP_DEG:g})")
    sp.add_argument("--press-angle-deg", type=_finite_float, default=_DEFAULT_PRESS_DEG,
                    help="press direction for the threshold summary line")
    sp.add_argument("--out", metavar="FILE", default=None,
                    help="CSV output path; a .summary sidecar is written too")
    sp.add_argument("--svg", metavar="FILE", default=None,
                    help="optional SVG plot of the envelope")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("optimize", parents=[params],
                        help="search designs against a target file")
    sp.add_argument("--design", metavar="FILE", required=True,
                    help="design target file")
    sp.add_argument("--budget", type=int, default=None,
                    help="evaluation budget override")
    sp.add_argument("--out", metavar="FILE", default=None,
                    help="write the feasible parameter set here")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("validate", parents=[params],
                        help="report parameter rule violations")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("compare", parents=[params],
                        help="compare predictions with bench data")
    sp.add_argument("--measurements", metavar="FILE", required=True,
                    help="CSV with header zeta_deg,measured_force_n")
    sp.add_argument("--out", metavar="FILE", default=None,
                    help="write the comparison table as CSV")
    sp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _Fail as fail:
        print(f"error: {fail}", file=sys.stderr)
        return fail.code
    except BrokenPipeError as exc:
        # The reader is gone.  Point stdout at devnull so that the flush
        # at interpreter exit cannot fail again on the unwritten rest.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
