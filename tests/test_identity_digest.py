"""Smoke test of ``tools/identity_digest.py`` on small corpora."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("identity_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_digest_repeats_itself():
    tool = _tool()
    sections = ["kernel", "envelope", "validation", "cli"]
    lines = tool.run(sections, scale=0.01)
    assert lines == tool.run(sections, scale=0.01)
    assert [line.split(":")[0] for line in lines] == sections
    fields = dict(item.split("=") for line in lines for item in line.split()[1:]
                  if not item.startswith(("digest", "a11_digest")))
    assert fields["mismatches"] == "0"
    assert fields["a11_refused"] == fields["a11_builds"] != "0"
