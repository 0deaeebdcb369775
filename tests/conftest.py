import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# One deterministic profile for the whole suite: property tests must not
# flake in CI, and numeric cases can be slow enough to trip the default
# deadline on loaded machines.
settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per capability criterion after the run."""
    try:
        from test_acceptance import CRITERIA, RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("capability criteria")
    for n in sorted(CRITERIA):
        if n in RESULTS:
            ok, detail = RESULTS[n]
            line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" - {detail}"
        else:
            line = f"CRITERION {n}: FAIL - no result recorded"
        terminalreporter.write_line(line)


@pytest.fixture
def defaults():
    from linkstat import default_parameters

    return default_parameters()


@pytest.fixture
def child_env():
    """The environment of a fresh interpreter that imports this checkout's linkstat."""
    import linkstat

    src = str(Path(linkstat.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture
def run_child(child_env):
    """Run code in a fresh interpreter that imports this checkout's linkstat.

    ``run_child(code, arg)`` passes ``arg`` as JSON in argv[1] and returns
    the last line of the child's output, read as JSON.
    """

    def run(code, arg=None):
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(arg)],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
