import math
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import linkstat.statics as statics
from linkstat import (
    ComparisonRow,
    Measurement,
    MeasurementFileError,
    ParameterFileError,
    SweepSettings,
    compare_measurements,
    default_parameters,
    format_comparison_csv,
    format_parameter_file,
    parse_design_file,
    parse_parameter_document,
    parse_parameter_file,
    read_measurements,
)
from linkstat.model import LinkageParameters


def shipped_text() -> str:
    return (
        resources.files("linkstat").joinpath("data/default_linkage.txt").read_text()
    )


def fields_close(a: LinkageParameters, b: LinkageParameters, tol: float) -> bool:
    for name, value in a.as_dict().items():
        other = getattr(b, name)
        if abs(value - other) > tol * max(1.0, abs(value), abs(other)):
            return False
    return True


def test_shipped_file_matches_builtin_defaults(defaults):
    parsed = parse_parameter_file(shipped_text())
    assert fields_close(parsed, defaults, 1e-12)


def test_shipped_file_carries_sweep_settings():
    doc = parse_parameter_document(shipped_text())
    assert doc.sweep == SweepSettings(zeta_lo_deg=-30.0, zeta_hi_deg=90.0, step_deg=0.5)


def test_expression_values():
    text = shipped_text().replace("l0 = 10.93", "l0 = 10 + 0.93")
    parsed = parse_parameter_file(text)
    assert math.isclose(parsed.l0, 10.93, rel_tol=1e-12)


def test_trig_expression_is_degrees():
    text = shipped_text().replace("l2 = 12", "l2 = 24*cos(60)")
    parsed = parse_parameter_file(text)
    assert math.isclose(parsed.l2, 12.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "needle,replacement,fragment",
    [
        ("l0 = 10.93", "l0 = 10.93 imported", "unexpected"),
        ("l0 = 10.93", "l0 = 10 @ 3", "cannot read expression"),
        ("l0 = 10.93", "l0 = __import__", "unknown name"),
        ("l0 = 10.93", "l0 = exp(1)", "unknown name"),
        ("l0 = 10.93", "l0 = 2*(3", "ends unexpectedly"),
        ("l0 = 10.93", "l0 = 1/0", "division by zero"),
        ("l0 = 10.93", "l0 = ", "empty value"),
        ("[contact]", "[friction]", "unknown section"),
        ("mu = 0.6", "nu = 0.6", "unknown key"),
    ],
)
def test_malformed_files_are_named(needle, replacement, fragment):
    text = shipped_text().replace(needle, replacement)
    with pytest.raises(ParameterFileError, match=fragment):
        parse_parameter_document(text)


def test_missing_keys_all_listed():
    with pytest.raises(ParameterFileError) as err:
        parse_parameter_file("[lengths_mm]\nl0 = 1\n")
    message = str(err.value)
    assert "l1" in message and "theta0" in message and "mu" in message


def test_duplicate_key_rejected():
    text = shipped_text().replace("l0 = 10.93", "l0 = 10.93\nl0 = 11")
    with pytest.raises(ParameterFileError, match="duplicate"):
        parse_parameter_document(text)


def test_error_carries_line_number():
    text = shipped_text().replace("mu = 0.6", "mu = bogus")
    with pytest.raises(ParameterFileError, match=r"line \d+"):
        parse_parameter_document(text)


def test_roundtrip_identity(defaults):
    text = format_parameter_file(defaults)
    again = parse_parameter_file(text)
    assert fields_close(defaults, again, 1e-12)


def test_roundtrip_preserves_sweep(defaults):
    sweep = SweepSettings(zeta_lo_deg=-20.0, zeta_hi_deg=40.0, step_deg=0.25)
    text = format_parameter_file(defaults, sweep)
    assert "zeta_lo_deg = -20.0\nzeta_hi_deg = 40.0\nstep_deg = 0.25\n" in text
    assert parse_parameter_document(text).sweep == sweep


@given(
    st.floats(min_value=0.05, max_value=500.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_roundtrip_arbitrary_values(length, angle, rate):
    p = default_parameters().with_values(l3=length, theta4=angle, spring_k=rate)
    again = parse_parameter_file(format_parameter_file(p))
    assert abs(again.l3 - length) <= 1e-12 * max(1.0, length)
    assert abs(again.theta4 - angle) <= 1e-12 * max(1.0, abs(angle))
    assert abs(again.spring_k - rate) <= 1e-12 * max(1.0, rate)


def test_design_file_parsing():
    spec, budget = parse_design_file(
        """
        [target]
        interval_lo_deg = -10
        interval_hi_deg = 15
        press_angle_deg = -15
        threshold_lo_n = 3
        threshold_hi_n = 8

        [search]
        free = theta2, spring_k
        budget = 123

        [bounds]
        theta2 = 10, 30
        spring_k = 0.1, 2
        """
    )
    assert budget == 123
    assert spec.free == ("theta2", "spring_k")
    assert math.isclose(spec.interval_lo, math.radians(-10.0))
    lo, hi = spec.bounds["theta2"]
    assert math.isclose(lo, math.radians(10.0))
    assert math.isclose(hi, math.radians(30.0))
    assert spec.bounds["spring_k"] == (0.1, 2.0)
    spec.validated()


def test_design_file_requires_target():
    with pytest.raises(ParameterFileError, match="missing"):
        parse_design_file("[search]\nfree = theta2\n")


def test_design_file_bad_bound():
    with pytest.raises(ParameterFileError, match="lo, hi"):
        parse_design_file(
            "[target]\ninterval_lo_deg = -10\ninterval_hi_deg = 15\n"
            "press_angle_deg = -15\nthreshold_lo_n = 3\nthreshold_hi_n = 8\n"
            "[search]\nfree = theta2\n[bounds]\ntheta2 = 10\n"
        )


DESIGN_TEXT = """\
[target]
interval_lo_deg = -10
interval_hi_deg = 15
press_angle_deg = -15
threshold_lo_n = 3
threshold_hi_n = 8
[search]
free = theta2
budget = 40
[bounds]
theta2 = 10, 30
"""


@pytest.mark.parametrize(
    "needle,replacement,fragment,line",
    [
        ("threshold_hi_n = 8", "threshold_hi_n = 8\npress_angle = 0",
         r"unknown key 'press_angle' in \[target\]", 7),
        ("budget = 40", "budget = 40\nbudgets = 4", r"unknown key 'budgets' in \[search\]", 10),
        ("threshold_hi_n = 8", "threshold_hi_n = 8\nthreshold_lo_n = 4",
         r"duplicate key 'threshold_lo_n' in \[target\]", 7),
        ("budget = 40", "budget = 40\nfree = l3", r"duplicate key 'free' in \[search\]", 10),
        ("budget = 40", "budget = 40\nbudget = 50", r"duplicate key 'budget' in \[search\]", 10),
        ("theta2 = 10, 30", "theta2 = 10, 30\ntheta2 = 12, 20",
         r"duplicate key 'theta2' in \[bounds\]", 12),
        ("theta2 = 10, 30", "theta2 = 10, 30\nbogus = 1, 2",
         r"unknown key 'bogus' in \[bounds\]; expected one of \['l0', ", 12),
        ("theta2 = 10, 30", "theta2 = 10, 30\nepsilon = 0, 1",
         r"unknown key 'epsilon' in \[bounds\]", 12),
        ("free = theta2", "free = , ,", "'free' lists no names", 8),
        ("budget = 40", "budget = 2.5", "budget must be a positive integer", 9),
        ("free = theta2\n", "", r"missing \[search\] free", None),
    ],
    ids=["unknown-target-key", "unknown-search-key", "repeated-target-key", "repeated-free",
         "repeated-budget", "repeated-bound", "unknown-bound", "epsilon-bound", "empty-free",
         "fractional-budget", "missing-free"],
)
def test_design_file_faults_name_their_line(needle, replacement, fragment, line):
    text = DESIGN_TEXT.replace(needle, replacement)
    assert text != DESIGN_TEXT
    with pytest.raises(ParameterFileError, match=fragment) as err:
        parse_design_file(text)
    assert err.value.line == line


def test_bounds_may_name_a_field_the_search_does_not_vary():
    text = DESIGN_TEXT.replace("theta2 = 10, 30", "theta2 = 10, 30\nl3 = 20, 25")
    spec, _ = parse_design_file(text)
    assert spec.free == ("theta2",)
    assert spec.bounds["l3"] == (20.0, 25.0)
    assert spec.validated() is spec


def test_measurements_roundtrip():
    table = "zeta_deg,measured_force_n\n-10,5.1\n0,5.0\n10,4.8\n"
    rows = read_measurements(table)
    assert len(rows) == 3
    assert math.isclose(rows[0].zeta, math.radians(-10.0))
    assert rows[1].measured_force == 5.0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("angle,force\n0,5\n", "header"),
        ("zeta_deg,measured_force_n\n", "no data"),
        ("zeta_deg,measured_force_n\n0,5,9\n", "2 columns"),
        ("zeta_deg,measured_force_n\nzero,5\n", "non-numeric"),
        ("zeta_deg,measured_force_n\n0,-2\n", ">= 0"),
        ("zeta_deg,measured_force_n\n0,inf\n", "non-finite"),
    ],
)
def test_malformed_measurements(text, fragment):
    with pytest.raises(MeasurementFileError, match=fragment):
        read_measurements(text)


def test_compare_flags_blocked_rows(defaults):
    rows = read_measurements(
        "zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n"
    )
    result = compare_measurements(defaults, rows)
    assert result.rows[0].model_opens
    assert result.rows[0].abs_dev == pytest.approx(0.171175, rel=1e-4)
    assert not result.rows[1].model_opens
    assert result.rows[1].predicted is None
    # The mean covers only rows the model can speak to.
    assert result.mean_abs_dev == pytest.approx(0.171175, rel=1e-4)


def test_compare_csv_layout(defaults):
    rows = read_measurements("zeta_deg,measured_force_n\n0,5.0\n-20,2.0\n")
    text = format_comparison_csv(compare_measurements(defaults, rows))
    lines = text.strip().split("\n")
    assert lines[0] == (
        "zeta_deg,measured_force_n,predicted_force_n,abs_dev_n,rel_dev,model_opens"
    )
    assert lines[1].endswith("true")
    assert ",,,," in lines[2] and lines[2].endswith("false")


def _hex(value):
    return value.hex() if isinstance(value, float) else value


@given(
    st.lists(st.floats(min_value=0.8, max_value=1.2), min_size=3, max_size=3),
    st.lists(
        st.tuples(st.floats(min_value=-30.0, max_value=90.0),
                  st.floats(min_value=0.0, max_value=20.0)),
        min_size=1, max_size=40,
    ),
)
def test_compare_rows_equal_a_per_row_rebuild(scales, table):
    # One batch of verdicts for the table gives the rows, the bits and the
    # mean of one verdict per row.
    base = default_parameters()
    p = base.with_values(l3=base.l3 * scales[0], theta2=base.theta2 * scales[1],
                         mu=base.mu * scales[2])
    measurements = [Measurement(math.radians(z), f) for z, f in table]
    result = compare_measurements(p, measurements)
    devs = []
    for m, row in zip(measurements, result.rows, strict=True):
        code, xi = statics._decide(p, m.zeta)[:2]
        if code == statics._OPENS:
            abs_dev = abs(xi - m.measured_force)
            rel_dev = abs_dev / m.measured_force if m.measured_force > 0.0 else None
            devs.append(abs_dev)
            want = (m.zeta, m.measured_force, xi, abs_dev, rel_dev)
        else:
            want = (m.zeta, m.measured_force, None, None, None)
        assert [_hex(v) for v in row] == [_hex(v) for v in want]
        assert row.model_opens == (code == statics._OPENS)
        # Rows built from one tuple are the class's own, field for field.
        assert type(row) is ComparisonRow
        assert row == ComparisonRow(*row)
        assert repr(row) == "ComparisonRow(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(ComparisonRow._fields, want)) + ")"
    mean = sum(devs) / len(devs) if devs else None
    assert _hex(result.mean_abs_dev) == _hex(mean)


def test_comparison_row_is_an_immutable_named_tuple():
    row = ComparisonRow(0.5, 5.0, 4.5, 0.5, 0.1)
    assert ComparisonRow._fields == ("zeta", "measured", "predicted", "abs_dev", "rel_dev")
    assert tuple(row) == (0.5, 5.0, 4.5, 0.5, 0.1)
    assert row.model_opens
    assert not ComparisonRow(0.5, 5.0, None, None, None).model_opens
    assert repr(row) == (
        "ComparisonRow(zeta=0.5, measured=5.0, predicted=4.5, abs_dev=0.5, rel_dev=0.1)"
    )
    with pytest.raises(AttributeError):
        row.predicted = 1.0


@pytest.mark.parametrize(
    "value,fragment",
    [
        ("sqrt(-1)", "undefined"),
        ("(" * 3000 + "1" + ")" * 3000, "nests deeper"),
        ("1e308*10", "non-finite"),
        ("1e999 - 1e999", "non-finite"),
        ("1/(1e308*10)", "non-finite"),
        ("inf", "unknown name"),
        ("nan", "unknown name"),
        ("(12 3", "missing closing parenthesis"),
        ("sin 30", "sin must be called with parentheses"),
    ],
)
def test_expression_faults_name_their_line(value, fragment):
    text = shipped_text().replace("l2 = 12", f"l2 = {value}")
    lineno = text.splitlines().index(f"l2 = {value}") + 1
    with pytest.raises(ParameterFileError, match=fragment) as err:
        parse_parameter_document(text)
    assert err.value.line == lineno


def test_nesting_limit_leaves_room_for_drawings():
    text = shipped_text().replace("l2 = 12", "l2 = " + "(" * 100 + "12" + ")" * 100)
    assert parse_parameter_file(text).l2 == 12.0


EXPRESSION_TEXT = st.text(alphabet="0123456789.eE+-*/() sqrtincoa_", max_size=40)


@given(st.one_of(
    st.text(max_size=200),
    EXPRESSION_TEXT.map(lambda v: shipped_text().replace("l2 = 12", f"l2 = {v}")),
    EXPRESSION_TEXT.map(lambda v: shipped_text().replace("step_deg = 0.5", f"step_deg = {v}")),
))
def test_any_text_parses_or_is_rejected(text):
    try:
        doc = parse_parameter_document(text)
    except ParameterFileError:
        return
    assert all(math.isfinite(v) for v in doc.parameters.as_dict().values())


def test_division_that_succeeds_is_exact():
    text = shipped_text().replace("l2 = 12", "l2 = 24/2")
    assert parse_parameter_file(text).l2 == 12.0


def test_value_before_any_section_names_its_line():
    text = shipped_text().replace("[lengths_mm]\n", "mu = 0.6\n[lengths_mm]\n", 1)
    lineno = text.splitlines().index("mu = 0.6") + 1
    assert lineno == 5  # after the three comment lines and a blank one
    with pytest.raises(ParameterFileError) as err:
        parse_parameter_document(text)
    assert str(err.value) == f"line {lineno}: value appears before any [section] header"


def test_bound_with_a_blank_before_its_comma():
    spec, _ = parse_design_file(DESIGN_TEXT.replace("theta2 = 10, 30", "theta2 = 10 , 30"))
    assert spec.bounds["theta2"] == (math.radians(10.0), math.radians(30.0))


def test_blank_line_between_measurement_rows_is_skipped():
    rows = read_measurements("zeta_deg,measured_force_n\n-10,5.1\n\n10,4.8\n")
    assert rows == (Measurement(math.radians(-10.0), 5.1), Measurement(math.radians(10.0), 4.8))
    # The blank line still counts: a fault after it names its own line.
    with pytest.raises(MeasurementFileError) as err:
        read_measurements("zeta_deg,measured_force_n\n-10,5.1\n\n10,x\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "needle,replacement,message",
    [
        ("free = theta2", "free = theta2, theta2",
         "duplicate free parameters in ('theta2', 'theta2')"),
        ("theta2 = 10, 30", "theta2 = 30, 10",
         f"bounds for 'theta2' must be a finite ordered pair, got "
         f"({math.radians(30.0)}, {math.radians(10.0)})"),
        ("interval_hi_deg = 15", "interval_hi_deg = -10",
         f"target interval is empty: [{math.radians(-10.0)}, {math.radians(-10.0)}]"),
        ("interval_hi_deg = 15", "interval_hi_deg = 95",
         "target interval must lie inside the sweep range "
         f"[{math.radians(-30.0)}, {math.radians(90.0)}], got "
         f"[{math.radians(-10.0)}, {math.radians(95.0)}]"),
        ("theta2 = 10, 30", "theta2 = 10, 30\nl3 = 25, 20",
         "bounds for 'l3' must be a finite ordered pair, got (25.0, 20.0)"),
    ],
    ids=["duplicate-free", "unordered-bounds", "empty-band", "band-outside-sweep",
         "unordered-bounds-not-free"],
)
def test_design_spec_refusals(needle, replacement, message):
    """Files that parse but whose spec DesignSpec.validated refuses."""
    text = DESIGN_TEXT.replace(needle, replacement)
    assert text != DESIGN_TEXT
    spec, _ = parse_design_file(text)
    with pytest.raises(ValueError) as err:
        spec.validated()
    assert str(err.value) == message
