"""Show that the benchmark's checks reject doctored outputs.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs the reference sweep, a comparison and the CLI round's rejected-input
commands in process, confirms the checks accept the real outputs, then
doctors each output in one way and confirms the checks reject it.  Exits
0 only if every real output passes and every doctored one is rejected.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

import linkstat.cli  # noqa: E402

SEED = 0  # the inputs the doctored outputs are made from


def shift_edge(summary: str, key: str, delta: float) -> str:
    lines = []
    for line in summary.splitlines():
        name, _, value = line.partition(" = ")
        if name == key:
            line = f"{name} = {float(value) + delta!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def flip_opens(csv: str, want_open: bool) -> str:
    """Flip the opens cell of the middle row that currently reads ``want_open``."""
    lines = csv.splitlines()
    hits = [i for i, line in enumerate(lines[1:], 1)
            if line.split(",")[2] == ("true" if want_open else "false")]
    i = hits[len(hits) // 2]
    cells = lines[i].split(",")
    cells[2] = "false" if want_open else "true"
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_row(csv: str) -> str:
    lines = csv.splitlines()
    del lines[len(lines) // 2]
    return "\n".join(lines) + "\n"


def nudge_prediction(csv: str) -> str:
    lines = csv.splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(",true"))
    cells = lines[i].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cli(argv: list[str]) -> None:
    code = linkstat.cli.main(argv)
    if code != 0:
        raise SystemExit(f"linkstat {' '.join(argv)} exited {code}")


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckError:
        return True
    return False


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    try:
        return run(SEED, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(seed: int, work: Path) -> int:
    manifest = gen.generate("cli_session", seed, work)
    ref = manifest["builds"]["reference"]
    v, table = ref["values"], manifest["tables"]["reference"]
    out = work / "selftest"
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        cli(["sweep", "--params", str(work / ref["path"]), "--out", str(out / "ref.csv")])
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        cli(["compare", "--params", str(work / ref["path"]), "--measurements",
             str(work / table["path"]), "--out", str(out / "cmp.csv")])
    compare_stdout = stdout.getvalue()
    csv = (out / "ref.csv").read_text()
    summary = (out / "ref.csv.summary").read_text()
    cmp_csv = (out / "cmp.csv").read_text()
    rows = [tuple(map(float, line.split(",")))
            for line in (work / table["path"]).read_text().splitlines()[1:]]

    def sweep_check(csv_text: str, summary_text: str) -> None:
        checks.check_sweep(csv_text, summary_text, v, workloads.DEFAULT_GRID,
                           workloads.DEFAULT_PRESS_DEG, workloads.oracle, reference=True)

    def compare_check(text: str) -> None:
        checks.check_compare(text, compare_stdout, v, rows, workloads.oracle)

    session = workloads.CliSession(work, manifest, in_process=True)
    commands = {c.name: c for c in session.round()}

    def exit_code_check(name: str, code: int | None = None) -> None:
        """Run one round command; with ``code``, pretend it exited so."""
        real = session._run
        if code is not None:
            session._run = lambda argv: (0.0, code, "", "")
        try:
            outcome = session.execute(commands[name])
        finally:
            session._run = real
        if outcome.error or outcome.failed:
            raise checks.CheckError(outcome.error or f"{name} counted as failed")

    accepted = {
        "reference sweep": lambda: sweep_check(csv, summary),
        "reference comparison": lambda: compare_check(cmp_csv),
        "rule-breaking file exits 2": lambda: exit_code_check("validate_rule"),
        "reference sweep through the round": lambda: exit_code_check("sweep_reference"),
    }
    doctored = {
        "lower edge moved by +0.05 deg": (sweep_check, csv,
                                          shift_edge(summary, "interval_1_lo_deg", 0.05)),
        "upper edge moved by -0.05 deg": (sweep_check, csv,
                                          shift_edge(summary, "interval_1_hi_deg", -0.05)),
        "opens cell flipped to false": (sweep_check, flip_opens(csv, True), summary),
        "opens cell flipped to true": (sweep_check, flip_opens(csv, False), summary),
        "CSV row dropped": (sweep_check, drop_row(csv), summary),
        "predicted force off by 1e-6": (compare_check, nudge_prediction(cmp_csv)),
        "rule-breaking file exits 0": (exit_code_check, "validate_rule", 0),
        "sweep exits 3": (exit_code_check, "sweep_reference", 3),
        "known fault exits 2 without an error line": (exit_code_check, "analyze_nan", 2),
    }
    ok = True
    for name, check in accepted.items():
        try:
            check()
            print(f"accepted as it should be: {name}")
        except checks.CheckError as exc:
            print(f"WRONGLY REJECTED: {name}: {exc}")
            ok = False
    for name, (check, *args) in doctored.items():
        if rejects(check, *args):
            print(f"rejected as it should be: {name}")
        else:
            print(f"NOT REJECTED: {name}")
            ok = False
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
