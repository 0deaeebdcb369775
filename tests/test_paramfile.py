import math
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkstat import (
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
    assert doc.sweep is not None
    assert math.isclose(doc.sweep.zeta_lo, math.radians(-30.0))
    assert math.isclose(doc.sweep.step, math.radians(0.5))


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
    sweep = SweepSettings(
        zeta_lo=math.radians(-20.0),
        zeta_hi=math.radians(40.0),
        step=math.radians(0.25),
    )
    doc = parse_parameter_document(format_parameter_file(defaults, sweep))
    assert doc.sweep is not None
    assert math.isclose(doc.sweep.zeta_hi, sweep.zeta_hi, rel_tol=1e-12)


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
