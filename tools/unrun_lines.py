"""List the lines of ``src/linkstat`` that no tier-1 test runs.

Runs the test suite in this process under ``sys.settrace`` and
``threading.settrace``, then compares the lines that ran with every line
of the compiled code objects of ``src/linkstat/*.py``.  Each line that
never ran is printed as ``path:line: source``, then their count.
``coverage`` is not a dependency, so this is the line trace to re-run
after a change that adds a branch.

Run it from anywhere; extra arguments go to pytest::

    python tools/unrun_lines.py
    python tools/unrun_lines.py -k oracle

Lines run only by subprocesses the tests start (the CLI's ``__main__``
line) are not seen.  A failing test still counts the lines it ran.
Tracing makes the suite several times slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linkstat"


def _code_lines(code: CodeType) -> set[int]:
    """Every line that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def main(pytest_args: list[str]) -> int:
    import pytest

    sources = {str(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in sources}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # not package code: no line events for this frame
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--rootdir", str(ROOT), *pytest_args, str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for name, text in sources.items():
        rel, source_lines = Path(name).relative_to(ROOT), text.splitlines()
        code = compile(text, name, "exec", dont_inherit=True)
        for line in sorted(_code_lines(code) - ran[name]):
            print(f"{rel}:{line}: {source_lines[line - 1].strip()}")
            count += 1
    print(f"{count} lines of src/linkstat never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
