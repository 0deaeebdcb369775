"""The design target, and readers of design target files and bench
measurement tables.

:class:`DesignSpec`, the fields a search may vary and its default
evaluation budget live here, beside the reader that builds a spec from
a design file; :mod:`linkstat.design` imports them from here.  Only
``optimize`` and ``compare`` read these files, so a sweep never loads
this module.  A design file is sectioned key = value text, read by
the reader and expression evaluator of :mod:`linkstat.paramfile`; a
measurement table is CSV, and its reader's one error,
:class:`MeasurementFileError`, is defined here.  ``parse_design_file`` and
``read_measurements`` still resolve on :mod:`linkstat.paramfile`,
loading this module on first access there.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from . import _EXPORTS
from .model import (
    _ANGLE_FIELDS,
    DEFAULT_SWEEP_HI,
    DEFAULT_SWEEP_LO,
    DEFAULT_SWEEP_STEP,
    LinkageParameters,
)
from .paramfile import ParameterFileError, _eval_expression, _iter_entries, _LineError

__all__ = _EXPORTS["readers"]


class MeasurementFileError(_LineError):
    """Malformed measurement table."""


# Parameters the search may vary.  The probe step epsilon only scales
# reported probe forces, never the verdict, so it is not a design knob.
_FREE_FIELDS = frozenset(LinkageParameters._fields) - {"epsilon"}

# Evaluations a search may spend when neither caller nor design file says.
DEFAULT_BUDGET = 400


class DesignSpec(NamedTuple):
    """Target and search space for a design run.

    Angles radians, forces N.  The opening envelope must contain
    [interval_lo, interval_hi] and pressing along ``press_angle`` must
    flip the finger at a force inside [threshold_lo, threshold_hi].
    ``free`` lists the parameters the search may vary and ``bounds`` maps
    each of them, and any other searchable field, to an inclusive
    (lo, hi) box.  The search range is fixed:
    ``sweep_lo``, ``sweep_hi`` and ``sweep_step`` are class constants.
    """

    interval_lo: float
    interval_hi: float
    press_angle: float
    threshold_lo: float
    threshold_hi: float
    free: tuple[str, ...]
    bounds: Mapping[str, tuple[float, float]]

    sweep_lo = DEFAULT_SWEEP_LO
    sweep_hi = DEFAULT_SWEEP_HI
    sweep_step = DEFAULT_SWEEP_STEP

    def validated(self) -> "DesignSpec":
        if not self.free:
            raise ValueError("at least one free parameter is required")
        # A bound may name a field that is not free, but not one no search varies.
        named = dict.fromkeys((*self.free, *self.bounds))
        unknown = [n for n in named if n not in _FREE_FIELDS]
        if unknown:
            raise ValueError(
                f"not searchable: {unknown}; allowed fields are "
                f"{sorted(_FREE_FIELDS)}"
            )
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"duplicate free parameters in {self.free}")
        missing = [n for n in self.free if n not in self.bounds]
        if missing:
            raise ValueError(f"free parameter {missing[0]!r} has no bounds")
        for name, (lo, hi) in self.bounds.items():  # every pair, free or not
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(
                    f"bounds for {name!r} must be a finite ordered pair, "
                    f"got ({lo}, {hi})"
                )
        if not (math.isfinite(self.interval_lo) and math.isfinite(self.interval_hi)):
            raise ValueError(
                "target interval must have finite ends, got "
                f"[{self.interval_lo}, {self.interval_hi}]"
            )
        if not self.interval_lo < self.interval_hi:
            raise ValueError(
                "target interval is empty: "
                f"[{self.interval_lo}, {self.interval_hi}]"
            )
        if not (
            math.isfinite(self.threshold_lo)
            and math.isfinite(self.threshold_hi)
            and 0.0 <= self.threshold_lo <= self.threshold_hi
        ):
            raise ValueError(
                "switching band must satisfy 0 <= lo <= hi and be finite, "
                f"got [{self.threshold_lo}, {self.threshold_hi}]"
            )
        if not math.isfinite(self.press_angle):
            raise ValueError(f"press angle must be finite, got {self.press_angle}")
        if not self.sweep_lo <= self.interval_lo or not self.interval_hi <= self.sweep_hi:
            raise ValueError(
                "target interval must lie inside the sweep range "
                f"[{self.sweep_lo}, {self.sweep_hi}], got "
                f"[{self.interval_lo}, {self.interval_hi}]"
            )
        return self


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
