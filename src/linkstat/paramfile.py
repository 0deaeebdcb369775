"""Text formats: linkage parameter files, design target files and bench
measurement tables.

Parameter and design files are sectioned key = value text, read by one
reader that reports unknown sections, unknown keys and repeated keys
with their line numbers.  Values are arithmetic expressions over
numeric literals with sin/cos/tan/sqrt, trig arguments in degrees, so a
length derived from a tilted pad can be written the way it appears on a
drawing, e.g. ``l4 = 2.5*cos(15)``.  Expressions are parsed with a tiny
recursive-descent evaluator; nothing is ever passed to eval().

Lining a measurement table up against the model is
:mod:`linkstat.compare`'s job, since it needs the solver and reading a
file never does.  Its four names still resolve here
(``linkstat.paramfile.compare_measurements`` and so on), loading that
module on first access.

The canonical file layout::

    [lengths_mm]
    l0 = 10.93
    l1 = 24
    l2 = 12
    l3 = 22 + 2.5*cos(15)*sin(15)
    l4 = 2.5*cos(15)

    [angles_deg]
    theta0 = 30
    theta1 = 9
    theta2 = 18.5
    theta3 = 15
    theta4 = 7.44
    theta5 = 33.1

    [spring]
    k_n_per_mm = 0.862
    natural_length_mm = 9.7

    [contact]
    mu = 0.6

    [solver]
    epsilon_n = 0.1

    [sweep]
    zeta_lo_deg = -30
    zeta_hi_deg = 90
    step_deg = 0.5

The [sweep] section is optional; everything else is required.  Angles
are converted to radians; [sweep] values stay in the degrees the file
wrote, the unit the sweep grid is built in.  Blank lines and ``#``
comments are ignored.  Parsing is permissive about the physics (a zero
length parses fine); run validation separately to get the full rule
report.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterator, NamedTuple

from .model import (
    _ANGLE_FIELDS,
    _FREE_FIELDS,
    DEFAULT_BUDGET,
    DesignSpec,
    LinkageParameters,
)

__all__ = [
    "Measurement",
    "MeasurementFileError",
    "ParameterFileError",
    "SweepSettings",
    "ParameterDocument",
    "format_parameter_file",
    "parse_design_file",
    "parse_parameter_document",
    "parse_parameter_file",
    "read_measurements",
]


class _LineError(ValueError):
    """A fault in a text file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterFileError(_LineError):
    """Malformed parameter or design file."""


class MeasurementFileError(_LineError):
    """Malformed measurement table."""


# ---------------------------------------------------------------------------
# Expression evaluation

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": lambda d: math.sin(math.radians(d)),
    "cos": lambda d: math.cos(math.radians(d)),
    "tan": lambda d: math.tan(math.radians(d)),
    "sqrt": math.sqrt,
}


def _tokenize(text: str, line: int) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParameterFileError(
                f"cannot read expression at {rest[:12]!r}", line
            )
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


# Deeper nesting of parentheses and calls is refused rather than left to
# hit the interpreter's recursion limit.
_MAX_NESTING = 100


class _ExpressionParser:
    """Recursive descent over +, -, *, /, unary sign, parentheses and
    single-argument functions.  Trig takes degrees.  Every intermediate
    value must be finite: overflow and undefined calls such as sqrt(-1)
    are reported, not carried along."""

    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def _finite(self, value: float) -> float:
        if not math.isfinite(value):
            raise ParameterFileError("value overflows to a non-finite number", self.line)
        return value

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ParameterFileError("expression ends unexpectedly", self.line)
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self._expr()
        if self._peek() is not None:
            raise ParameterFileError(
                f"unexpected {self._peek()!r} after expression", self.line
            )
        return value

    def _expr(self) -> float:
        value = self._term()
        while self._peek() in ("+", "-"):
            if self._take() == "+":
                value = self._finite(value + self._term())
            else:
                value = self._finite(value - self._term())
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = self._factor()
            if op == "*":
                value = self._finite(value * rhs)
            else:
                if rhs == 0.0:
                    raise ParameterFileError("division by zero", self.line)
                value = self._finite(value / rhs)
        return value

    def _factor(self) -> float:
        sign = 1.0
        while self._peek() in ("+", "-"):
            if self._take() == "-":
                sign = -sign
        return sign * self._atom()

    def _nested(self) -> float:
        """The expression inside a pair of parentheses, up to the ')'."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParameterFileError(
                f"expression nests deeper than {_MAX_NESTING} levels", self.line
            )
        value = self._expr()
        if self._take() != ")":
            raise ParameterFileError("missing closing parenthesis", self.line)
        self.depth -= 1
        return value

    def _atom(self) -> float:
        tok = self._take()
        if tok == "(":
            return self._nested()
        if tok in _FUNCTIONS:
            if self._take() != "(":
                raise ParameterFileError(
                    f"{tok} must be called with parentheses", self.line
                )
            arg = self._nested()
            try:
                value = _FUNCTIONS[tok](arg)
            except ValueError:
                raise ParameterFileError(
                    f"{tok}({arg:.6g}) is undefined", self.line
                ) from None
            return self._finite(value)
        # float() would also read names such as "inf" and "nan".
        if not (tok[0].isdigit() or tok[0] == "."):
            raise ParameterFileError(f"unknown name {tok!r}", self.line)
        return self._finite(float(tok))


def _eval_expression(text: str, line: int) -> float:
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParameterFileError("empty value", line)
    return _ExpressionParser(tokens, line).parse()


# ---------------------------------------------------------------------------
# Parameter files

_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "lengths_mm": ("l0", "l1", "l2", "l3", "l4"),
    "angles_deg": _ANGLE_FIELDS,
    "spring": ("k_n_per_mm", "natural_length_mm"),
    "contact": ("mu",),
    "solver": ("epsilon_n",),
    "sweep": ("zeta_lo_deg", "zeta_hi_deg", "step_deg"),
}

_OPTIONAL_SECTIONS = frozenset({"sweep"})

# File keys that name their LinkageParameters field differently; every
# other key of a parameter section is the field name itself.
_FIELD_OF_KEY = {
    "k_n_per_mm": "spring_k",
    "natural_length_mm": "natural_length",
    "epsilon_n": "epsilon",
}


class SweepSettings(NamedTuple):
    """Sweep range override carried by a parameter file, in the degrees
    the file wrote; the CLI builds its degree grid from them unconverted."""

    zeta_lo_deg: float
    zeta_hi_deg: float
    step_deg: float


class ParameterDocument(NamedTuple):
    parameters: LinkageParameters
    sweep: SweepSettings | None


def _iter_entries(
    text: str, layout: dict[str, tuple[str, ...]]
) -> Iterator[tuple[int, str, str, str]]:
    """Yield (line number, section, key, raw value) for every entry.

    ``layout`` maps each section to its keys.  An unknown section or key,
    or a key repeated within its section, is reported here, before the
    caller reads the value.
    """
    section: str | None = None
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in layout:
                raise ParameterFileError(
                    f"unknown section [{name}]; expected one of {sorted(layout)}",
                    lineno,
                )
            section = name
            continue
        if "=" not in line:
            raise ParameterFileError(
                f"expected key = value, got {line!r}", lineno
            )
        if section is None:
            raise ParameterFileError(
                "value appears before any [section] header", lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        allowed = layout[section]
        if key not in allowed:
            raise ParameterFileError(
                f"unknown key {key!r} in [{section}]; expected one of "
                f"{list(allowed)}",
                lineno,
            )
        if (section, key) in seen:
            raise ParameterFileError(
                f"duplicate key {key!r} in [{section}]", lineno
            )
        seen.add((section, key))
        yield lineno, section, key, value.strip()


def parse_parameter_document(text: str) -> ParameterDocument:
    """Parse a sectioned parameter file into parameters plus overrides.

    Reports the first structural problem with its line number.  The
    returned parameters are not physics-validated here.
    """
    values: dict[str, dict[str, float]] = {name: {} for name in _SECTION_KEYS}
    for lineno, section, key, raw_value in _iter_entries(text, _SECTION_KEYS):
        value = _eval_expression(raw_value, lineno)
        if section == "angles_deg":
            value = math.radians(value)
        values[section][key] = value

    missing: list[str] = []
    for section, keys in _SECTION_KEYS.items():
        if section in _OPTIONAL_SECTIONS and not values[section]:
            continue
        for key in keys:
            if key not in values[section]:
                missing.append(f"[{section}] {key}")
    if missing:
        raise ParameterFileError("missing entries: " + ", ".join(missing))

    sweep = values.pop("sweep")
    params = LinkageParameters(**{
        _FIELD_OF_KEY.get(key, key): value
        for entries in values.values()
        for key, value in entries.items()
    })
    return ParameterDocument(params, SweepSettings(**sweep) if sweep else None)


def parse_parameter_file(text: str) -> LinkageParameters:
    """Parse a parameter file, ignoring any sweep override section."""
    return parse_parameter_document(text).parameters


def _fmt(value: float) -> str:
    # repr() keeps the shortest digits that round-trip the exact float.
    return repr(float(value))


def format_parameter_file(
    p: LinkageParameters, sweep: SweepSettings | None = None
) -> str:
    """Render parameters back into canonical file text.

    Values are written with full round-trip precision, so parse and
    format compose to the identity, apart from the degree conversion of
    angles which costs at most one unit in the last place.
    """
    blocks = []
    for section, keys in _SECTION_KEYS.items():
        source = sweep if section == "sweep" else p
        if source is None:
            continue
        values = [getattr(source, _FIELD_OF_KEY.get(key, key)) for key in keys]
        if section == "angles_deg":
            values = [math.degrees(v) for v in values]
        blocks.append("\n".join(
            [f"[{section}]", *(f"{k} = {_fmt(v)}" for k, v in zip(keys, values))]
        ))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Design target files

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


# ---------------------------------------------------------------------------
# Measurements

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


# The comparison of a table against the model lives in linkstat.compare,
# which loads the solver.  Its names still resolve here, loading it on
# first access; each is then bound in this module.
_COMPARE_NAMES = frozenset(
    {"ComparisonResult", "ComparisonRow", "compare_measurements", "format_comparison_csv"}
)


def __getattr__(name: str):
    if name in _COMPARE_NAMES:
        from . import compare

        value = globals()[name] = getattr(compare, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
