"""Smoke test of ``tools/identity_digest.py`` on small corpora."""

import sys
from pathlib import Path


def test_identity_digest_repeats_itself(load_tool):
    tool = load_tool("identity_digest")
    sections = list(tool.SECTIONS)
    lines = tool.run(sections, scale=0.01)
    assert lines == tool.run(sections, scale=0.01)
    assert [line.split(":")[0] for line in lines] == sections
    by_section = {line.split(":")[0]: dict(item.split("=") for item in line.split()[1:])
                  for line in lines}
    assert by_section["envelope"]["mismatches"] == by_section["fallback"]["mismatches"] == "0"
    assert by_section["fallback"]["calls"] == by_section["envelope"]["calls"] != "0"
    fields = {key: value for section in by_section.values() for key, value in section.items()}
    assert fields["a11_refused"] == fields["a11_builds"] != "0"
    assert "0" not in (fields["targets"], fields["envelope_calls"], fields["kernel_verdicts"])
    assert "bench" not in {Path(path).name for path in sys.path}  # loaded by path only


def test_fallback_section_takes_the_full_sweep_route(load_tool, monkeypatch):
    import linkstat.roots as roots

    tool = load_tool("identity_digest")
    floor, every_point, swept = roots._CANCELLATION_FLOOR, roots.sweep_points, []
    monkeypatch.setattr(roots, "sweep_points", lambda p, g: swept.append(g) or every_point(p, g))
    (line,) = tool.run(["fallback"], scale=0.01)
    assert swept and line.startswith(f"fallback: calls={len(swept)} mismatches=0 ")
    assert roots._CANCELLATION_FLOOR == floor
