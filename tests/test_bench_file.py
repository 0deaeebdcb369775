"""``tools/bench_file.py`` reads a run's two lines into the file's schema."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(seed, work_per_s, correct=True):
    record = {"record": {"workload": "cli_session", "seed": seed, "trace": 0}}
    result = {"correct": correct, "attempted": 19, "failed": 0,
              "metrics": {"work_per_s": {"value": work_per_s, "unit": "1/s"},
                          "op_ms": {"value": 90.0, "unit": "ms"}}}
    return f"generating inputs\n{json.dumps(record)}\n{json.dumps(result)}\n"


def test_canned_runs_fill_the_schema():
    tool = _tool()
    runs = []
    for seed, parent, change in ((1, 10.0, 10.5), (2, 10.2, 10.1), (3, 9.9, 10.4)):
        for tree, value in (("parent", parent), ("change", change)):
            lines = tool.parse_run(_stdout(seed, value, correct=seed != 2))
            runs.append({"tree": tree, "workload": "cli_session", "seed": seed, "trace": 0,
                         "lines": list(lines)})
    assert runs[0]["lines"][0].startswith('{"record": ')  # kept verbatim
    summary = tool.summarize(runs, {"work_per_s": "higher", "op_ms": "lower"})["cli_session"]
    assert summary["parent"]["work_per_s"] == {"median": 10.0, "q1": 9.95, "q3": 10.1, "n": 3}
    assert summary["change"]["work_per_s"]["median"] == 10.4
    assert summary["change_wins"] == {"work_per_s": {"won": 2, "pairs": 3},
                                      "op_ms": {"won": 0, "pairs": 3}}


def test_a_run_without_its_two_lines_is_refused():
    with pytest.raises(ValueError, match="two JSON lines"):
        _tool().parse_run('{"record": {}}\n')
