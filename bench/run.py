"""linkstat benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli_session --seed 1 --seconds 12 --trace 0

Workloads: ``cli_session``, ``design_search``, ``tolerance_batch`` (see
README.md).  The run generates its inputs from ``--seed`` under
``.bench_work/``, times ``--seconds`` seconds of whole rounds of
operations, checks every output, and prints a run record followed by one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, every time scaled to a
reference machine speed by calibration work timed around each operation
(see calibrate.py); with ``--trace 1`` the
run alternates plain rounds with rounds under spans, and the metrics are
the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import gen  # noqa: E402

SETUP_REPEATS = 5
# A traced run keeps the spans of whole operations up to this many.
SPAN_BUDGET = 200_000


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="linkstat benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def measure_setup(workload: str, work: Path) -> tuple[list[float], list[float], list[float]]:
    """Wall time of fresh interpreters that import linkstat and load the
    inputs, their import times, and the calibrations around them."""
    env = {k: v for k, v in os.environ.items() if k != "LINKSTAT_THREADS"}
    env["PYTHONPATH"] = str(BENCH)
    walls, imports, cals = [], [], [calibrate.numpy_import(env, ROOT)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(SRC), workload, str(work)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        report = json.loads(proc.stdout.splitlines()[-1])
        if not Path(report["linkstat"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"set-up imported linkstat from {report['linkstat']}, not {SRC}")
        imports.append(report["import_s"])
        cals.append(calibrate.numpy_import(env, ROOT))
    return walls, imports, cals


def run_round(wl, outcomes: list, tracer=None, cals: list | None = None) -> None:
    """Run one round; under ``tracer``, drop the spans of each operation
    that would take the kept spans past the budget; with ``cals``, time
    the calibration work after each operation."""
    for op in wl.round():
        if tracer is not None:
            tracer.op = len(outcomes)
            first = len(tracer.spans)
        outcomes.append(wl.execute(op))
        if tracer is not None and len(tracer.spans) > SPAN_BUDGET:
            tracer.drop_from(first)
        if cals is not None:
            cals.append(wl.time_calibration())


def run_rounds(wl, seconds: float) -> tuple[list, list]:
    """Repeat whole rounds until ``seconds`` have passed (at least one),
    with every operation between two calibrations."""
    outcomes: list = []
    cals = [wl.time_calibration()]
    start = time.perf_counter()
    while True:
        run_round(wl, outcomes, cals=cals)
        if time.perf_counter() - start >= seconds:
            return outcomes, cals


def run_traced_rounds(wl, seconds: float, tracer) -> tuple[list, list]:
    """Alternate plain rounds and traced rounds until ``seconds`` have
    passed, so that both meet the same spells of machine speed."""
    plain: list = []
    traced: list = []
    start = time.perf_counter()
    while True:
        run_round(wl, plain)
        with tracer.active():
            run_round(wl, traced, tracer)
        if time.perf_counter() - start >= seconds:
            return plain, traced


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    args = parse_args()
    if not (SRC / "linkstat" / "__init__.py").is_file():
        print(f"error: no linkstat sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("LINKSTAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, work: Path) -> int:
    manifest = gen.generate(args.workload, args.seed, work)
    setup_walls, import_times, setup_cals = measure_setup(args.workload, work)

    import numpy

    import inputs
    import linkstat
    import workloads

    if not Path(linkstat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported linkstat from {linkstat.__file__}, not {SRC}")
    loaded = inputs.load_inputs(args.workload, work, manifest)
    wl = workloads.make(args.workload, work, manifest, loaded, in_process=bool(args.trace))

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "round_ops": len(wl.round()),
        "setup_samples": len(setup_walls),
    }

    if not args.trace:
        outcomes, cals = run_rounds(wl, args.seconds)
        scaled = [o.scaled(f) for o, f in zip(outcomes, calibrate.scales(cals, wl.ref))]
        setups = [w * f for w, f in zip(setup_walls, calibrate.scales(
            setup_cals, calibrate.NUMPY_IMPORT_REF_S))]
        e2e, named = wl.metrics(scaled)
        e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
        metrics = {k: metric(v, u) for k, (v, u, _) in e2e.items()}
        record["samples"] = {k: n for k, (_, _, n) in {**e2e, **named}.items()}
        record["workload_metrics"] = {k: metric(v, u) for k, (v, u, _) in named.items()}
        raw, raw_named = wl.metrics(outcomes)
        raw.update(raw_named, setup_s=(statistics.median(setup_walls), "s", len(setup_walls)))
        record["raw_metrics"] = {k: metric(v, u) for k, (v, u, _) in raw.items()}
        record["calibration_s"] = {"median": statistics.median(cals), "ref": wl.ref,
                                   "samples": len(cals)}
    else:
        import tracing

        tracer = tracing.Tracer()
        wl.quiet = tracer.paused
        plain, traced = run_traced_rounds(wl, args.seconds, tracer)
        spans, dropped = tracer.take(), tracer.dropped
        with tracer.active():
            workloads.run_probe(work, manifest)
        probe_spans = tracer.take()
        outcomes = plain + traced
        layers, probed = tracing.layer_metrics(spans, probe_spans, dropped)
        plain_ms = statistics.median(o.seconds for o in plain)
        traced_ms = statistics.median(o.seconds for o in traced)
        layers["init.import_s"] = metric(statistics.median(import_times), "s")
        layers["trace.overhead_pct"] = metric(100.0 * (traced_ms / plain_ms - 1.0), "%")
        metrics = layers
        record["probed_layers"] = probed
        record["spans_dropped"] = sorted(dropped)
        record["span_counts"] = tracing.span_counts(spans)
        record["samples"] = {"plain_ops": len(plain), "traced_ops": len(traced),
                             "spans": len(spans), "span_ops": len({s[4] for s in spans}),
                             "import": len(import_times)}
        spans_file = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(spans))
        record["spans_file"] = str(spans_file.relative_to(ROOT))

    errors = [o.error for o in outcomes if o.error]
    failed = [o.name for o in outcomes if o.failed]
    record["attempted"] = len(outcomes)
    record["failed"] = len(failed)
    record["failed_ops"] = sorted(set(failed))
    record["errors"] = errors[:10]
    if hasattr(wl, "reasons"):
        record["verdict_reasons"] = wl.reasons
        record["builds_dropped_by_validation"] = wl.dropped
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not errors, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
