"""The three workloads: their operations, timing and output checks.

Every workload is a fixed round of operations built from its generated
inputs; a run repeats whole rounds, so the share of failed operations is
the same in every run.  ``execute`` times one operation, then checks its
output outside the timed region and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import linkstat
import linkstat.cli
import linkstat.design
import linkstat.modeswitch
import linkstat.paramfile
import linkstat.statics

import calibrate
import checks
from checks import CheckError, require

DEFAULT_GRID = (-30.0, 90.0, 0.5)
DEFAULT_PRESS_DEG = -15.0


@dataclass
class Outcome:
    name: str
    seconds: float
    failed: bool = False
    error: str | None = None  # set when a check rejected the output
    detail: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)  # named parts of ``seconds``

    def scaled(self, factor: float) -> "Outcome":
        """The same outcome with every time multiplied by ``factor``."""
        return replace(self, seconds=self.seconds * factor,
                       parts={k: v * factor for k, v in self.parts.items()})


def params_of(v: dict) -> linkstat.LinkageParameters:
    """Parameters from the generator's own numbers, not from the files."""
    r = math.radians
    return linkstat.LinkageParameters(
        l0=v["l0"], l1=v["l1"], l2=v["l2"], l3=v["l3"], l4=v["l4"],
        theta0=r(v["theta0"]), theta1=r(v["theta1"]), theta2=r(v["theta2"]),
        theta3=r(v["theta3"]), theta4=r(v["theta4"]), theta5=r(v["theta5"]),
        spring_k=v["k_n_per_mm"], natural_length=v["natural_length_mm"],
        mu=v["mu"], epsilon=v["epsilon_n"],
    )


def oracle(v: dict, zeta_deg: float, sign_beta3: int | None = None) -> float:
    """Balance force from the raw 9-unknown equilibrium, on the friction
    branch matching ``sign_beta3`` when both branches are consistent."""
    return linkstat.statics.full_equilibrium(
        params_of(v), math.radians(zeta_deg), sign_beta3).xi


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


class Workload:
    """``quiet`` wraps the output checks; a traced run makes it pause the
    tracer so that spans cover only the operations.  ``time_calibration``
    times the calibration work that brackets each operation, whose
    reference time is ``ref`` (see calibrate.py)."""

    quiet = staticmethod(contextlib.nullcontext)
    ref = calibrate.KERNEL_REF_S

    def time_calibration(self) -> float:
        return calibrate.kernel()


# ---------------------------------------------------------------------------
# cli_session

@dataclass
class Command:
    name: str
    argv: list[str]
    expect: tuple[int, ...]
    check: object = None  # callable(stdout, code) run after the exit code check
    fault: bool = False  # a known fault: counted failed until it is rejected cleanly
    sweep: bool = False


class CliSession(Workload):
    ref = calibrate.NUMPY_IMPORT_REF_S

    def __init__(self, work: Path, manifest: dict, in_process: bool = False):
        self.work = work
        self.in_process = in_process
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "LINKSTAT_THREADS"}
        self.env["PYTHONPATH"] = str(Path(linkstat.__file__).parent.parent)
        self.commands = self._commands(manifest)

    def _path(self, rel: str) -> str:
        return str(self.work / rel)

    def _commands(self, m: dict) -> list[Command]:
        builds = m["builds"]
        cmds: list[Command] = []

        def sweep(key: str, svg: bool) -> None:
            b = builds[key]
            csv, argv = self.out / f"{key}.csv", ["sweep", "--params", self._path(b["path"])]
            argv += ["--out", str(csv)]
            if svg:
                argv += ["--svg", str(self.out / f"{key}.svg")]
            grid = tuple(b["sweep"]) if b["sweep"] else DEFAULT_GRID

            def check(stdout: str, code: int) -> None:
                checks.check_sweep(csv.read_text(), Path(f"{csv}.summary").read_text(),
                                   b["values"], grid, DEFAULT_PRESS_DEG, oracle,
                                   reference=key == "reference")
                if svg:
                    checks.check_svg((self.out / f"{key}.svg").read_text(),
                                     checks.grid_size(*grid))
            cmds.append(Command(f"sweep_{key}", argv, (0,), check, sweep=True))

        sweep("reference", False)
        sweep("a", True)
        sweep("b", False)
        sweep("c", True)
        sweep("d", False)
        sweep("e", True)

        for key in ("d", "reference"):
            z = m["analyze_zeta_deg"][key]
            v = builds[key]["values"]

            def analyze(stdout: str, code: int, v=v, z=z, key=key) -> None:
                if code == 3:
                    require("INCONSISTENT" in stdout or "singular" in stdout,
                            "exit 3 without a degenerate point")
                    return
                verdict = checks.check_analyze(stdout, v, z, oracle)
                if key == "reference":
                    lo, hi = checks.reference_edges(v)
                    require(verdict.startswith("opens") == (lo <= z <= hi),
                            f"reference verdict {verdict!r} at {z} deg against closed form")
            cmds.append(Command(f"analyze_{key}", ["analyze", "--params",
                                self._path(builds[key]["path"]), "--zeta-deg", repr(z)],
                                (0, 3), analyze))

        cmds.append(Command("validate_e", ["validate", "--params", self._path(builds["e"]["path"])],
                            (0,), lambda out, code: require("parameters ok" in out, "validate")))
        cmds.append(Command("validate_rule", ["validate", "--params",
                            self._path(m["invalid"]["rule"]["path"])], (2,)))

        for key in ("f", "reference"):
            table = m["tables"][key]
            rows = [tuple(map(float, line.split(",")))
                    for line in (self.work / table["path"]).read_text().splitlines()[1:]]
            dest = self.out / f"compare_{key}.csv"

            def compare(stdout: str, code: int, key=key, rows=rows, dest=dest) -> None:
                checks.check_compare(dest.read_text(), stdout, builds[key]["values"], rows, oracle)
            cmds.append(Command(f"compare_{key}", ["compare", "--params",
                                self._path(builds[key]["path"]), "--measurements",
                                self._path(table["path"]), "--out", str(dest)], (0,), compare))

        ref = self._path(builds["reference"]["path"])
        for key, code in (("feasible", 0), ("hopeless", 4)):
            target = m["targets"][key]

            def optimize(stdout: str, code: int, target=target) -> None:
                checks.check_optimize(stdout, code, target, builds["reference"]["values"], oracle)
            cmds.append(Command(f"optimize_{key}", ["optimize", "--params", ref, "--design",
                                self._path(target["path"])], (code,), optimize))

        cmds.append(Command("sweep_invalid", ["sweep", "--params",
                            self._path(m["invalid"]["parse_1"]["path"]),
                            "--out", str(self.out / "invalid.csv")], (2,)))
        cmds.append(Command("analyze_invalid", ["analyze", "--params",
                            self._path(m["invalid"]["parse_2"]["path"]), "--zeta-deg", "0"], (2,)))
        cmds.append(Command("validate_sqrt_negative", ["validate", "--params",
                            self._path(m["invalid"]["sqrt_negative"]["path"])], (2,), fault=True))
        cmds.append(Command("analyze_nan", ["analyze", "--zeta-deg", "nan"], (2,), fault=True))
        return cmds

    def round(self) -> list[Command]:
        return self.commands

    def time_calibration(self) -> float:
        return calibrate.numpy_import(self.env, self.work)

    def _run(self, argv: list[str]) -> tuple[float, int, str, str]:
        if not self.in_process:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "linkstat.cli", *argv],
                                  cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = linkstat.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = 1
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        return elapsed, code, stdout.getvalue(), stderr.getvalue()

    def execute(self, cmd: Command) -> Outcome:
        for stale in self.out.iterdir():
            stale.unlink()
        elapsed, code, stdout, stderr = self._run(cmd.argv)
        result = Outcome(cmd.name, elapsed, detail={"sweep": cmd.sweep})
        try:
            require(code in cmd.expect, f"exit code {code}, documented {cmd.expect}: "
                    f"{stderr.strip()[-300:]}")
            require("Traceback" not in stderr, "traceback on stderr")
            if code == 2:
                require(any(line.startswith("error:") or ": error: " in line
                            for line in stderr.splitlines()) or ": must " in stdout,
                        "exit 2 without an error line")
                require(not any(self.out.iterdir()), "output written for a rejected input")
        except CheckError as exc:
            if cmd.fault:
                result.failed = True
            else:
                result.error = f"{cmd.name}: {exc}"
            return result
        try:
            if cmd.check is not None:
                with self.quiet():
                    cmd.check(stdout, code)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            result.error = f"{cmd.name}: {exc}"
        return result

    @staticmethod
    def metrics(results: list[Outcome]) -> tuple[dict, dict]:
        times = [r.seconds for r in results]
        sweeps = [r.seconds for r in results if r.detail["sweep"]]
        e2e = {
            "op_ms": (_median_ms(times), "ms", len(times)),
            "work_per_s": (len(sweeps) / sum(sweeps), "1/s", len(sweeps)),
        }
        named = {
            "cli_run_s": (statistics.median(times), "s", len(times)),
            "cli_sweep_s": (statistics.median(sweeps), "s", len(sweeps)),
        }
        return e2e, named


# ---------------------------------------------------------------------------
# design_search

class DesignSearch(Workload):
    def __init__(self, work: Path, manifest: dict, loaded: dict):
        self.start = loaded["reference"]
        self.targets = list(zip(manifest["targets"], loaded["targets"]))
        self.ref_values = manifest["reference"]["values"]
        self.first: dict[int, object] = {}

    def round(self) -> list[int]:
        return list(range(len(self.targets)))

    def execute(self, index: int) -> Outcome:
        info, (spec, budget) = self.targets[index]
        start = time.perf_counter()
        result = linkstat.design.optimize_design(spec, self.start, budget)
        elapsed = time.perf_counter() - start
        out = Outcome(f"target_{index}", elapsed, detail={"evaluations": result.evaluations})
        try:
            with self.quiet():
                self._check(index, info, spec, result)
        except (CheckError, RuntimeError, ValueError) as exc:
            out.error = f"target {index} ({info['free']}): {exc}"
        return out

    def _check(self, index: int, info: dict, spec, result) -> None:
        seen = self.first.get(index)
        if seen is not None:
            require(result.parameters == seen.parameters
                    and result.evaluations == seen.evaluations, "search is not repeatable")
            return
        self.first[index] = result
        if "repeat_of" in info:
            original = self.first[info["repeat_of"]]
            require(result.parameters == original.parameters,
                    "a repeated target returned different parameters")
        if not result.feasible:
            proof = checks.spring_rate_proof(info, self.ref_values, oracle)
            require(proof is not None, f"infeasible after {result.evaluations} evaluations, "
                    "and spring-rate linearity does not rule the target out")
            return
        # Fresh sweep and threshold on the returned build.
        ms = linkstat.modeswitch
        p = result.parameters
        bands = ms.opening_interval(ms.sweep(p, spec.sweep_lo, spec.sweep_hi, spec.sweep_step))
        require(any(iv.lo <= spec.interval_lo and iv.hi >= spec.interval_hi for iv in bands),
                "feasible design does not cover the target band")
        t = ms.switching_threshold(p, spec.press_angle)
        require(spec.threshold_lo <= t <= spec.threshold_hi, f"threshold {t} outside the band")
        xi = linkstat.statics.full_equilibrium(p, spec.press_angle).xi
        require(checks.rel(t, xi) < checks.ORACLE_REL, "threshold disagrees with raw equilibrium")

    def metrics(self, results: list[Outcome]) -> tuple[dict, dict]:
        times = [r.seconds for r in results]
        evaluations = sum(r.detail["evaluations"] for r in results)
        # Targets differ in cost by 10x and the seed moves them, so the
        # median target is a different one from seed to seed; the mean
        # over a whole round is not.
        n = len(self.targets)
        rounds = [statistics.mean(times[i:i + n]) for i in range(0, len(times), n)]
        e2e = {
            "op_ms": (_median_ms(rounds), "ms", len(rounds)),
            "work_per_s": (evaluations / sum(times), "1/s", evaluations),
        }
        named = {
            "design_search_s": (statistics.median(times), "s", len(times)),
            "design_evals_per_s": (evaluations / sum(times), "1/s", evaluations),
        }
        return e2e, named


# ---------------------------------------------------------------------------
# tolerance_batch

class ToleranceBatch(Workload):
    def __init__(self, work: Path, manifest: dict, loaded: dict):
        self.builds = loaded["builds"]
        self.dropped = len(manifest["builds"]) - len(self.builds)
        self.checked: set[int] = set()
        self.reasons: dict[str, int] = {}

    def round(self) -> list[int]:
        return list(range(len(self.builds)))

    def execute(self, index: int) -> Outcome:
        info, p, text = self.builds[index]
        pf, full_equilibrium = linkstat.paramfile, linkstat.statics.full_equilibrium
        t0 = time.perf_counter()
        measurements = pf.read_measurements(text)
        t1 = time.perf_counter()
        comparison = pf.compare_measurements(p, measurements)
        t2 = time.perf_counter()
        states = [full_equilibrium(p, row.zeta) for row in comparison.rows if row.model_opens]
        t3 = time.perf_counter()
        out = Outcome(f"build_{index}", t3 - t0,
                      detail={"rows": len(comparison.rows), "crosschecks": len(states)},
                      parts={"read": t1 - t0, "compare": t2 - t1, "cross": t3 - t2})
        try:
            opening = [row for row in comparison.rows if row.model_opens]
            for row, state in zip(opening, states):
                require(checks.rel(row.predicted, state.xi) < checks.ORACLE_REL,
                        f"verdict at {math.degrees(row.zeta):.4f} deg disagrees with raw "
                        f"equilibrium: {row.predicted!r} vs {state.xi!r}")
            if index not in self.checked:
                self.checked.add(index)
                with self.quiet():
                    self._check_build(info, p, comparison)
        except CheckError as exc:
            out.error = f"build {index}: {exc}"
        return out

    def _check_build(self, info: dict, p, comparison) -> None:
        v, zetas = info["values"], info["zetas"]
        require(len(comparison.rows) == len(zetas), "comparison dropped rows")
        doubled = p.with_values(spring_k=2.0 * p.spring_k)
        spring_checked = False
        for row, z in zip(comparison.rows, zetas):
            require(row.zeta == math.radians(z), f"row at {math.degrees(row.zeta)} is not {z}")
            decision = linkstat.statics.predict_opening(p, row.zeta)
            reason = decision.blocked_reason.value if decision.blocked_reason else "opens"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            require(decision.opens == row.model_opens, "compare and predict_opening disagree")
            if row.model_opens:
                require(not checks.contact_blocked(v, z), f"opens at blocked {z} deg")
                if not spring_checked:
                    twice = linkstat.statics.predict_opening(doubled, row.zeta).required_force
                    require(checks.rel(twice, 2.0 * row.predicted) < 1e-12,
                            f"doubling spring_k gives {twice!r}, not 2 x {row.predicted!r}")
                    spring_checked = True
            elif reason == "singular":
                require(v["theta1"] == v["theta3"] and z == v["theta1"],
                        f"singular at {z} deg without the degenerate pair")
            elif reason == "negative_xi":
                require(oracle(v, z, decision.sign_beta3) < 0.0,
                        f"negative_xi at {z} deg, raw equilibrium is >= 0")
            else:
                require(checks.contact_blocked(v, z), f"contact_maintained at open {z} deg")

    @staticmethod
    def metrics(results: list[Outcome]) -> tuple[dict, dict]:
        times = [r.seconds for r in results]
        rows = sum(r.detail["rows"] for r in results)
        cross = sum(r.detail["crosschecks"] for r in results)
        verdicts = rows / sum(r.parts["compare"] for r in results)
        e2e = {
            "op_ms": (_median_ms(times), "ms", len(times)),
            "work_per_s": (verdicts, "1/s", rows),
        }
        named = {
            "verdicts_per_s": (verdicts, "1/s", rows),
            "crosschecks_per_s": (cross / sum(r.parts["cross"] for r in results), "1/s", cross),
            "read_measurements_us_per_row": (
                1e6 * sum(r.parts["read"] for r in results) / rows, "us", rows),
        }
        return e2e, named


def make(name: str, work: Path, manifest: dict, loaded: dict, in_process: bool = False):
    if name == "cli_session":
        return CliSession(work, manifest, in_process)
    if name == "design_search":
        return DesignSearch(work, manifest, loaded)
    return ToleranceBatch(work, manifest, loaded)


def run_probe(work: Path, manifest: dict) -> None:
    """Call every layer once on the workload's probe inputs.

    The traced run uses the spans of this probe only for layers the
    workload itself never calls.
    """
    probe = manifest["probe"]
    out = work / "probe_out"
    out.mkdir(exist_ok=True)
    build, table = str(work / probe["build"]), str(work / probe["table"])
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in (["sweep", "--params", build, "--out", str(out / "probe.csv")],
                     ["compare", "--params", build, "--measurements", table],
                     ["optimize", "--params", build, "--design", str(work / probe["target"])]):
            code = linkstat.cli.main(argv)
            require(code == 0, f"probe {argv[0]} exited {code}")
    p = params_of(probe["values"])
    for z in probe["zetas"]:
        linkstat.statics.full_equilibrium(p, math.radians(z))
