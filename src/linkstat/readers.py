"""Readers of design target files and bench measurement tables.

Only ``optimize`` and ``compare`` read these files, so a sweep never
loads this module.  A design file is sectioned key = value text, read by
the reader and expression evaluator of :mod:`linkstat.paramfile`; a
measurement table is CSV.  ``parse_design_file`` and
``read_measurements`` still resolve on :mod:`linkstat.paramfile`,
loading this module on first access there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import _ANGLE_FIELDS, _FREE_FIELDS, DEFAULT_BUDGET, DesignSpec
from .paramfile import (
    MeasurementFileError,
    ParameterFileError,
    _eval_expression,
    _iter_entries,
)

__all__ = ["Measurement", "parse_design_file", "read_measurements"]


_DESIGN_SECTIONS: dict[str, tuple[str, ...]] = {
    "target": (
        "interval_lo_deg",
        "interval_hi_deg",
        "press_angle_deg",
        "threshold_lo_n",
        "threshold_hi_n",
    ),
    "search": ("free", "budget"),
    # [bounds] keys: any field a search may vary, listed in free or not.
    "bounds": tuple(sorted(_FREE_FIELDS)),
}


def parse_design_file(text: str) -> tuple[DesignSpec, int]:
    """Parse a design target file into a spec plus evaluation budget.

    Layout::

        [target]
        interval_lo_deg = -10
        interval_hi_deg = 15
        press_angle_deg = -15
        threshold_lo_n = 3
        threshold_hi_n = 8

        [search]
        free = theta2          # comma-separated parameter names
        budget = 400           # optional, defaults to 400

        [bounds]
        theta2 = 10, 30        # degrees for angles, mm for lengths

    Bound pairs for theta fields are degrees; everything else keeps its
    native unit.  This parser only handles structure and units; call
    :meth:`DesignSpec.validated` for the spec's own rules.
    """
    target: dict[str, float] = {}
    free: tuple[str, ...] = ()
    budget = DEFAULT_BUDGET
    bounds: dict[str, tuple[float, float]] = {}

    for lineno, section, key, raw in _iter_entries(text, _DESIGN_SECTIONS):
        if section == "target":
            target[key] = _eval_expression(raw, lineno)
        elif section == "search":
            if key == "free":
                free = tuple(
                    name.strip() for name in raw.split(",") if name.strip()
                )
                if not free:
                    raise ParameterFileError("'free' lists no names", lineno)
            else:
                value = _eval_expression(raw, lineno)
                if value != int(value) or value < 1:
                    raise ParameterFileError(
                        f"budget must be a positive integer, got {raw!r}", lineno
                    )
                budget = int(value)
        else:
            parts = raw.split(",")
            if len(parts) != 2:
                raise ParameterFileError(
                    f"bound must be 'lo, hi', got {raw!r}", lineno
                )
            lo = _eval_expression(parts[0], lineno)
            hi = _eval_expression(parts[1], lineno)
            if key in _ANGLE_FIELDS:
                lo, hi = math.radians(lo), math.radians(hi)
            bounds[key] = (lo, hi)

    missing = [k for k in _DESIGN_SECTIONS["target"] if k not in target]
    if missing:
        raise ParameterFileError("missing [target] entries: " + ", ".join(missing))
    if not free:
        raise ParameterFileError("missing [search] free = <names>")

    spec = DesignSpec(
        interval_lo=math.radians(target["interval_lo_deg"]),
        interval_hi=math.radians(target["interval_hi_deg"]),
        press_angle=math.radians(target["press_angle_deg"]),
        threshold_lo=target["threshold_lo_n"],
        threshold_hi=target["threshold_hi_n"],
        free=free,
        bounds=bounds,
    )
    return spec, budget


_MEASUREMENT_HEADER = ["zeta_deg", "measured_force_n"]


class Measurement(NamedTuple):
    """One bench reading: press direction (radians) and force (N)."""

    zeta: float
    measured_force: float


def read_measurements(text: str) -> tuple[Measurement, ...]:
    """Read a measurement CSV with header ``zeta_deg,measured_force_n``."""
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MeasurementFileError("file is empty") from None
    if [h.strip() for h in header] != _MEASUREMENT_HEADER:
        raise MeasurementFileError(
            f"header must be {','.join(_MEASUREMENT_HEADER)!r}, "
            f"got {','.join(header)!r}",
            line=1,
        )
    out: list[Measurement] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise MeasurementFileError(
                f"expected 2 columns, got {len(row)}", lineno
            )
        try:
            zeta_deg = float(row[0])
            force = float(row[1])
        except ValueError:
            raise MeasurementFileError(
                f"non-numeric entry in {row!r}", lineno
            ) from None
        if not (math.isfinite(zeta_deg) and math.isfinite(force)):
            raise MeasurementFileError(f"non-finite entry in {row!r}", lineno)
        if force < 0.0:
            raise MeasurementFileError(
                f"measured force must be >= 0, got {force}", lineno
            )
        out.append(Measurement(math.radians(zeta_deg), force))
    if not out:
        raise MeasurementFileError("no data rows")
    return tuple(out)
