import contextlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

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


@pytest.fixture
def load_tool():
    """Import ``tools/<name>.py`` of this checkout as a fresh module."""

    def load(name):
        path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@contextlib.contextmanager
def _counting_verdicts(calls, batches=None):
    """Patch the one-point and batch kernels to append every press direction
    they are asked about to ``calls``, and each batch call's list of them to
    ``batches``.

    The kernels are patched at the ``_decide`` and ``_decide_all`` names of
    every loaded ``linkstat`` module that imported them, but not at their
    home, ``linkstat.statics``, whose own calls between the two would count
    twice.
    """
    import linkstat.statics

    one, batch = linkstat.statics._decide, linkstat.statics._decide_all

    def counted(p, zeta):
        calls.append(zeta)
        return one(p, zeta)

    def counted_batch(p, zetas):
        zetas = list(zetas)
        calls.extend(zetas)
        if batches is not None:
            batches.append(zetas)
        return batch(p, zetas)

    with contextlib.ExitStack() as stack:
        for key, module in list(sys.modules.items()):
            if key.startswith("linkstat.") and module is not linkstat.statics:
                for name, kernel in (("_decide", counted), ("_decide_all", counted_batch)):
                    if name in vars(module):
                        stack.enter_context(mock.patch.object(module, name, kernel))
        yield


@pytest.fixture(scope="session")
def counted_verdicts():
    """``_counting_verdicts``, for tests that count the verdicts of a block
    (session-scoped, so that property tests may take it too)."""
    return _counting_verdicts


@pytest.fixture
def kernel_calls():
    """Press directions of every kernel verdict computed during the test."""
    calls = []
    with _counting_verdicts(calls):
        yield calls
