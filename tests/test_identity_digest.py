"""Smoke test of ``tools/identity_digest.py`` on small corpora."""

import sys
from pathlib import Path


def test_identity_digest_repeats_itself(load_tool):
    tool = load_tool("identity_digest")
    sections = list(tool.SECTIONS)
    lines = tool.run(sections, scale=0.01)
    assert lines == tool.run(sections, scale=0.01)
    assert [line.split(":")[0] for line in lines] == sections
    fields = dict(item.split("=") for line in lines for item in line.split()[1:]
                  if not item.startswith(("digest", "a11_digest")))
    assert fields["mismatches"] == "0"
    assert fields["a11_refused"] == fields["a11_builds"] != "0"
    assert "0" not in (fields["targets"], fields["envelope_calls"], fields["kernel_verdicts"])
    assert "bench" not in {Path(path).name for path in sys.path}  # loaded by path only
