"""Model against bench: predicted switching forces lined up with readings.

Reading a measurement table stays in :mod:`linkstat.paramfile`, which
loads no solver.  This module imports the verdict kernel at its top, so
a comparison carries no import of its own: it hands a table's press
directions to :func:`linkstat.statics._decide_all` in one call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .statics import _OPENS, _decide_all

if TYPE_CHECKING:
    from .model import LinkageParameters
    from .paramfile import Measurement

__all__ = [
    "ComparisonResult",
    "ComparisonRow",
    "compare_measurements",
    "format_comparison_csv",
]


class ComparisonRow(NamedTuple):
    """Model prediction lined up against one bench reading.

    ``predicted`` is None when the model says this press direction does
    not open the finger at all; such rows are flagged, not failed, since
    a bench fixture can still register a force there.  A named tuple, so
    immutable.
    """

    zeta: float
    measured: float
    predicted: float | None
    abs_dev: float | None
    rel_dev: float | None

    @property
    def model_opens(self) -> bool:
        return self.predicted is not None


class ComparisonResult(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    mean_abs_dev: float | None


def compare_measurements(
    p: LinkageParameters, measurements: Sequence[Measurement]
) -> ComparisonResult:
    """Compare predicted switching forces against bench readings.

    The mean absolute deviation covers only rows where the model opens;
    it is None when no row does.
    """
    rows: list[ComparisonRow] = []
    devs: list[float] = []
    # Both columns in one transpose: reading a named-tuple row by field or
    # by unpacking costs more per row.
    zetas, forces = tuple(zip(*measurements)) or ((), ())
    verdicts = _decide_all(p, zetas)
    # _make takes the fields as one tuple, which costs less per row than
    # the generated constructor's keyword-capable signature.
    make = ComparisonRow._make
    for zeta, measured, v in zip(zetas, forces, verdicts):
        if v[0] == _OPENS:
            predicted = v[1]
            abs_dev = abs(predicted - measured)
            rel_dev = abs_dev / measured if measured > 0.0 else None
            devs.append(abs_dev)
            rows.append(make((zeta, measured, predicted, abs_dev, rel_dev)))
        else:
            rows.append(make((zeta, measured, None, None, None)))
    mean = sum(devs) / len(devs) if devs else None
    return ComparisonResult(rows=tuple(rows), mean_abs_dev=mean)


def format_comparison_csv(result: ComparisonResult) -> str:
    """Render a comparison as CSV, blank cells where the model is silent."""
    def num(x: float | None) -> str:
        return "" if x is None else f"{x:.9g}"

    lines = ["zeta_deg,measured_force_n,predicted_force_n,abs_dev_n,rel_dev,model_opens"]
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    f"{math.degrees(row.zeta):.9g}",
                    f"{row.measured:.9g}",
                    num(row.predicted),
                    num(row.abs_dev),
                    num(row.rel_dev),
                    "true" if row.model_opens else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
