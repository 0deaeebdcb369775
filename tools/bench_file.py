"""Write a ``BENCH_<n>.json`` benchmark file: a parent checkout against this one.

Runs ``bench/run.py`` of each tree as a subprocess (nothing of ``bench/``
is imported here) on seeds fixed before the first run: for each workload,
``PAIRS`` seeds from ``--first-seed`` on, each run once per tree at
``--trace 0`` for the run length ``BENCHMARK.json`` sets, the two trees
alternating which runs first from pair to pair.  Then one ``--trace 1``
run per tree and workload, on the first seed.  Every run is recorded, a
``"correct": false`` one included.

The file holds a schema version, the machine facts the harness does not
record (``PYTHONDONTWRITEBYTECODE`` and the median start-up times of a
bare interpreter and of one run with ``-S``), every run's two JSON lines
verbatim, and, per workload, tree and end-to-end metric, the median,
quartiles and sample count of the ``--trace 0`` runs, with the number of
pairs the change won by the direction ``BENCHMARK.json`` gives.  The
parent checkout can come from ``git archive``::

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/bench_file.py --parent /tmp/parent --first-seed 3201 --out BENCH_32.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
TREES = ("parent", "change")
# Seeds per workload, each run once per tree.
PAIRS = 10
# A traced run only has to reach every layer once; its figures are not compared.
TRACE_SECONDS = 12.0


def parse_run(stdout: str) -> tuple[str, str]:
    """The record line and the result line that ``bench/run.py`` printed last."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError(f"expected two JSON lines, got {len(lines)}")
    record, result = lines[-2:]
    if "record" not in json.loads(record) or "metrics" not in json.loads(result):
        raise ValueError("the last two JSON lines are not a record and a result")
    return record, result


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload, tree and metric of the ``--trace 0`` runs: median,
    quartiles and n; per workload and metric, the pairs the change won.

    ``better`` maps each end-to-end metric to "lower" or "higher"; a pair
    is the parent's and the change's run of one seed.
    """
    values: dict = {}
    by_seed: dict = {}
    for run in runs:
        if run["trace"] != 0 or run["lines"] is None:
            continue
        metrics = json.loads(run["lines"][1])["metrics"]
        for name in better:
            if name in metrics:
                value = metrics[name]["value"]
                values.setdefault(run["workload"], {}).setdefault(run["tree"], {}) \
                    .setdefault(name, []).append(value)
                by_seed.setdefault((run["workload"], name, run["seed"]), {})[run["tree"]] = value
    summary: dict = {}
    for workload, trees in values.items():
        entry = summary[workload] = {tree: {name: _quartiles(v) for name, v in metrics.items()}
                                     for tree, metrics in trees.items()}
        wins = entry["change_wins"] = {}
        for name, direction in better.items():
            pairs = [pair for (w, n, _), pair in by_seed.items()
                     if w == workload and n == name and len(pair) == 2]
            won = sum(1 for pair in pairs if (pair["change"] < pair["parent"]) ==
                      (direction == "lower") and pair["change"] != pair["parent"])
            wins[name] = {"won": won, "pairs": len(pairs)}
    return summary


def _start_up_ms(args: list[str], repeats: int = 21) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    try:
        lines: list[str] | None = list(parse_run(proc.stdout))
    except ValueError:
        lines = None
    return {"workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode,
            "lines": lines, "stderr_tail": proc.stderr[-2000:] if lines is None else ""}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    facts = {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python_bare_ms": _start_up_ms([]),
        "python_no_site_ms": _start_up_ms(["-S"]),
    }
    runs: list[dict] = []

    def record(tree: str, run: dict) -> None:
        run = {"tree": tree, "order": len(runs), **run}
        runs.append(run)
        status = "no result" if run["lines"] is None else json.loads(run["lines"][1])["correct"]
        print(f"{tree} {run['workload']} seed {run['seed']} trace {run['trace']}: {status}",
              file=sys.stderr, flush=True)

    for workload in workloads:
        for i, seed in enumerate(seeds):
            for tree in (TREES if i % 2 == 0 else TREES[::-1]):
                record(tree, _run(trees[tree], workload, seed, seconds, 0))
        for tree in TREES:
            record(tree, _run(trees[tree], workload, seeds[0], TRACE_SECONDS, 1))

    document = {
        "schema": SCHEMA,
        "command": {"seconds": seconds, "trace_seconds": TRACE_SECONDS,
                    "seeds": seeds, "workloads": workloads},
        "machine": facts,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
