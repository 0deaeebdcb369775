"""Load a workload's generated inputs, as a user's set-up would.

Imports nothing but ``linkstat``, so that the set-up interpreters in
``setup_child.py`` time linkstat's import and the parsing of the inputs,
not the benchmark's own modules.
"""

from __future__ import annotations

from pathlib import Path

import linkstat


def load_inputs(name: str, work: Path, manifest: dict) -> dict:
    """Read and parse a workload's generated files."""
    pf = linkstat.paramfile

    def build(rel: str):
        doc = pf.parse_parameter_document((work / rel).read_text(encoding="utf-8"))
        return doc.parameters, linkstat.validate_parameters(doc.parameters).ok

    loaded: dict = {}
    if name == "cli_session":
        for key, b in manifest["builds"].items():
            loaded[key] = build(b["path"])[0]
    elif name == "design_search":
        loaded["reference"] = build(manifest["reference"]["path"])[0]
        loaded["targets"] = [pf.parse_design_file((work / t["path"]).read_text(encoding="utf-8"))
                             for t in manifest["targets"]]
    else:
        kept = []
        for b in manifest["builds"]:
            p, ok = build(b["path"])
            if ok:
                kept.append((b, p, (work / b["table"]).read_text(encoding="utf-8")))
        loaded["builds"] = kept
    return loaded
