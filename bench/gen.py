"""Generate every workload input of the benchmark from a seed.

Usage::

    python3 bench/gen.py --seed 7 --out DIR    # DIR/<workload>/ for every workload

The same seed always gives byte-identical files.  Nothing here imports
linkstat: inputs are written from the benchmark's own numbers, and each
workload's ``manifest.json`` keeps those numbers so the checks can compare
the program's answers against them.

Each workload directory holds:

* ``builds/*.txt``   parameter files, values written as expressions
* ``targets/*.txt``  design target files (design_search, cli_session)
* ``tables/*.csv``   bench tables ``zeta_deg,measured_force_n``
* ``invalid/*.txt``  files the CLI must reject with exit 2 (cli_session)
* ``probe/``         one build, bench table and small design target, used
                     by the traced run for layers the workload never calls
* ``manifest.json``  what each file is and the values behind it
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli_session", "design_search", "tolerance_batch")

# The reference build in file units: lengths mm, angles deg.  l3 and l4
# derive from a 2.5 mm tip pad tilted 15 deg off the coupler line.
PAD_LENGTH = 2.5
PAD_TILT_DEG = 15.0
STRUT_BASE = 22.0
REFERENCE = {
    "l0": 10.93,
    "l1": 24.0,
    "l2": 12.0,
    "theta0": 30.0,
    "theta1": 9.0,
    "theta2": 18.5,
    "theta3": 15.0,
    "theta4": 7.44,
    "theta5": 33.1,
    "k_n_per_mm": 0.862,
    "natural_length_mm": 9.7,
    "mu": 0.6,
    "epsilon_n": 0.1,
}

SECTIONS = (
    ("lengths_mm", ("l0", "l1", "l2", "l3", "l4")),
    ("angles_deg", ("theta0", "theta1", "theta2", "theta3", "theta4", "theta5")),
    ("spring", ("k_n_per_mm", "natural_length_mm")),
    ("contact", ("mu",)),
    ("solver", ("epsilon_n",)),
)

# [sweep] overrides; each step divides its range, so the grid size is
# (hi - lo) / step + 1 with both ends sampled.
SWEEP_OVERRIDES = ((-25.0, 60.0, 0.25), (-30.0, 45.0, 0.5), (-20.0, 40.0, 0.2))

# Bounds of design searches, degrees for angles.
SEARCH_BOUNDS = {
    "theta1": (3.0, 15.0),
    "theta2": (10.0, 30.0),
    "theta3": (5.0, 25.0),
    "l3": (18.0, 26.0),
    "l4": (1.0, 4.0),
    "spring_k": (0.3, 1.5),
}

# Design targets the search reaches from the reference build:
# (free fields, band lo/hi deg, press angle deg, threshold lo/hi N).
# Bands lie inside and beyond the reference band (about -12.5..19.6 deg)
# and press angles are blocked (-15, -17) and open (0, 5).
FEASIBLE_TARGETS = (
    (("theta2",), (-10.0, 15.0), -15.0, (3.0, 8.0)),
    (("theta2",), (-8.0, 12.0), 0.0, (3.0, 8.0)),
    (("spring_k",), (-8.0, 12.0), 0.0, (6.0, 8.0)),
    (("spring_k", "theta2"), (-8.0, 12.0), 0.0, (6.0, 8.0)),
    (("theta2", "l3"), (-15.0, 21.0), 0.0, (3.0, 8.0)),
    (("theta2", "theta3"), (-16.0, 22.0), -15.0, (3.0, 8.0)),
    (("theta1", "theta3"), (-10.0, 25.0), 0.0, (3.0, 8.0)),
    (("theta2", "theta3", "l3"), (-14.0, 24.0), 5.0, (3.0, 8.0)),
    (("theta2", "theta3", "l3", "l4"), (-18.0, 21.0), -17.0, (2.0, 9.0)),
)
# Targets that spring-rate linearity proves infeasible: with only the
# spring rate free the envelope cannot move and the switching force
# scales with the rate.  Band beyond the envelope; press direction
# blocked; switching band out of reach of the rate bounds.
INFEASIBLE_TARGETS = (
    (("spring_k",), (-8.0, 23.0), 0.0, (3.0, 8.0)),
    (("spring_k",), (-8.0, 12.0), 30.0, (3.0, 8.0)),
    (("spring_k",), (-8.0, 12.0), 0.0, (20.0, 30.0)),
)
TARGET_JITTER_DEG = 0.5
TARGET_JITTER_N = 0.25

BUILD_SCATTER = 0.03
TABLE_ROWS = 48
TOLERANCE_BUILDS = 24

# Parse failures and rule violations; each must give exit code 2.
PARSE_FAULTS = (
    "unknown_key",
    "missing_entry",
    "bad_token",
    "division_by_zero",
    "unknown_section",
    "duplicate_key",
)
RULE_FAULTS = ("negative_length", "angle_out_of_range")


def reference_values() -> dict[str, float]:
    """The reference build as floats in file units, l3 and l4 derived."""
    values = dict(REFERENCE)
    values.update(_pad_lengths(STRUT_BASE, PAD_LENGTH, PAD_TILT_DEG))
    return values


def _pad_lengths(base: float, pad: float, tilt_deg: float) -> dict[str, float]:
    t = math.radians(tilt_deg)
    return {
        "l3": base + pad * math.cos(t) * math.sin(t),
        "l4": pad * math.cos(t),
    }


def _expression(rng: random.Random, value: float) -> str:
    """Write ``value`` as one of a few equivalent arithmetic forms."""
    form = rng.randrange(4)
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value / 2.0!r}*2"
    if form == 2:
        return f"({value!r})"
    whole = math.floor(value)
    return f"{whole} + {value - whole!r}"


def _build_text(
    rng: random.Random,
    values: dict[str, float],
    pad: tuple[float, float, float],
    sweep: tuple[float, float, float] | None,
    header: str,
) -> str:
    base, pad_len, tilt = pad
    lines = [f"# {header}"]
    for section, keys in SECTIONS:
        lines.append(f"[{section}]")
        for key in keys:
            if key == "l3":
                expr = f"{base!r} + {pad_len!r}*cos({tilt!r})*sin({tilt!r})"
            elif key == "l4":
                expr = f"{pad_len!r}*cos({tilt!r})"
            else:
                expr = _expression(rng, values[key])
            lines.append(f"{key} = {expr}")
        lines.append("")
    if sweep is not None:
        lo, hi, step = sweep
        lines += ["[sweep]", f"zeta_lo_deg = {lo!r}", f"zeta_hi_deg = {hi!r}",
                  f"step_deg = {step!r}", ""]
    return "\n".join(lines)


def reference_build(rng: random.Random) -> tuple[str, dict[str, float]]:
    """Reference build file, seeded only in how each value is written."""
    text = _build_text(
        rng, reference_values(), (STRUT_BASE, PAD_LENGTH, PAD_TILT_DEG), None,
        "reference build",
    )
    return text, reference_values()


def perturbed_build(
    rng: random.Random,
    scatter: float = BUILD_SCATTER,
    sweep: tuple[float, float, float] | None = None,
) -> tuple[str, dict[str, float]]:
    """Reference build with every dimension scattered by up to ``scatter``."""
    def jitter(x: float) -> float:
        return x * (1.0 + rng.uniform(-scatter, scatter))

    values = {key: jitter(value) for key, value in REFERENCE.items()}
    values["epsilon_n"] = REFERENCE["epsilon_n"]
    pad = (jitter(STRUT_BASE), jitter(PAD_LENGTH), jitter(PAD_TILT_DEG))
    values.update(_pad_lengths(*pad))
    return _build_text(rng, values, pad, sweep, "perturbed build"), values


def bench_table(
    rng: random.Random, rows: int = TABLE_ROWS, extra: tuple[float, ...] = ()
) -> tuple[str, list[float]]:
    """Bench readings at seeded press directions across -30..90 deg."""
    zetas = sorted(round(rng.uniform(-30.0, 90.0), 2) for _ in range(rows))
    zetas = sorted(zetas + list(extra))
    lines = ["zeta_deg,measured_force_n"]
    for z in zetas:
        lines.append(f"{z!r},{round(rng.uniform(1.0, 9.0), 3)!r}")
    return "\n".join(lines) + "\n", zetas


def design_target(
    rng: random.Random,
    template: tuple,
    budget: int = 400,
) -> tuple[str, dict]:
    free, (lo, hi), press, (tlo, thi) = template
    lo += rng.uniform(-TARGET_JITTER_DEG, TARGET_JITTER_DEG)
    hi += rng.uniform(-TARGET_JITTER_DEG, TARGET_JITTER_DEG)
    press += rng.uniform(-TARGET_JITTER_DEG, TARGET_JITTER_DEG)
    tlo += rng.uniform(-TARGET_JITTER_N, TARGET_JITTER_N)
    thi += rng.uniform(-TARGET_JITTER_N, TARGET_JITTER_N)
    lo, hi, press, tlo, thi = (round(x, 4) for x in (lo, hi, press, tlo, thi))
    lines = [
        "[target]",
        f"interval_lo_deg = {lo!r}",
        f"interval_hi_deg = {hi!r}",
        f"press_angle_deg = {press!r}",
        f"threshold_lo_n = {tlo!r}",
        f"threshold_hi_n = {thi!r}",
        "",
        "[search]",
        f"free = {', '.join(free)}",
        f"budget = {budget}",
        "",
        "[bounds]",
    ]
    for name in free:
        b_lo, b_hi = SEARCH_BOUNDS[name]
        lines.append(f"{name} = {b_lo!r}, {b_hi!r}")
    info = {
        "free": list(free),
        "interval_deg": [lo, hi],
        "press_deg": press,
        "threshold_n": [tlo, thi],
        "bounds": {name: list(SEARCH_BOUNDS[name]) for name in free},
        "budget": budget,
    }
    return "\n".join(lines) + "\n", info


def invalid_build(rng: random.Random, kind: str) -> str:
    """Reference build broken in one way the CLI must reject with exit 2."""
    text, _ = reference_build(rng)
    lines = text.splitlines()

    def index(prefix: str) -> int:
        return next(i for i, line in enumerate(lines) if line.startswith(prefix))

    if kind == "unknown_key":
        lines.insert(index("l2 ") + 1, "l9 = 3")
    elif kind == "missing_entry":
        del lines[index("mu ")]
    elif kind == "bad_token":
        lines[index("l2 ")] = "l2 = 12 $ 3"
    elif kind == "division_by_zero":
        lines[index("l2 ")] = "l2 = 12/0"
    elif kind == "unknown_section":
        lines[index("[spring]")] = "[springs]"
    elif kind == "duplicate_key":
        lines.insert(index("l2 ") + 1, lines[index("l2 ")])
    elif kind == "negative_length":
        lines[index("l2 ")] = f"l2 = -{rng.uniform(1.0, 10.0):.3f}"
    elif kind == "angle_out_of_range":
        lines[index("theta1 ")] = f"theta1 = {rng.uniform(91.0, 120.0):.3f}"
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return "\n".join(lines) + "\n"


# Inputs of the two known faults.  They do not depend on the seed, so the
# share of failed operations is the same in every run.
SQRT_NEGATIVE_BUILD = """[lengths_mm]
l0 = 10.93
l1 = 24
l2 = sqrt(-1)
l3 = 22 + 2.5*cos(15)*sin(15)
l4 = 2.5*cos(15)

[angles_deg]
theta0 = 30
theta1 = 9
theta2 = 18.5
theta3 = 15
theta4 = 7.44
theta5 = 33.1

[spring]
k_n_per_mm = 0.862
natural_length_mm = 9.7

[contact]
mu = 0.6

[solver]
epsilon_n = 0.1
"""


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.manifest: dict = {}

    def write(self, rel: str, text: str) -> str:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return rel

    def finish(self) -> None:
        self.write("manifest.json", json.dumps(self.manifest, indent=1, sort_keys=True))


def _probe(rng: random.Random, w: _Writer) -> None:
    text, values = reference_build(rng)
    table, zetas = bench_table(rng)
    target, info = design_target(rng, FEASIBLE_TARGETS[0])
    w.manifest["probe"] = {
        "build": w.write("probe/build.txt", text),
        "values": values,
        "table": w.write("probe/bench.csv", table),
        "zetas": zetas,
        "target": w.write("probe/target.txt", target),
        "target_info": info,
    }


def gen_cli_session(rng: random.Random, w: _Writer) -> None:
    """One round of CLI commands; the mix is fixed, the files are seeded."""
    builds = {}
    text, values = reference_build(rng)
    builds["reference"] = {"path": w.write("builds/reference.txt", text),
                           "values": values, "sweep": None}
    for name in ("a", "d", "e", "f"):
        text, values = perturbed_build(rng)
        builds[name] = {"path": w.write(f"builds/{name}.txt", text),
                        "values": values, "sweep": None}
    for name in ("b", "c"):
        sweep = SWEEP_OVERRIDES[rng.randrange(len(SWEEP_OVERRIDES))]
        text, values = perturbed_build(rng, sweep=sweep)
        builds[name] = {"path": w.write(f"builds/{name}.txt", text),
                        "values": values, "sweep": list(sweep)}
    table, zetas = bench_table(rng)
    table_ref, zetas_ref = bench_table(rng)
    feasible, feasible_info = design_target(rng, FEASIBLE_TARGETS[0], budget=40)
    hopeless, hopeless_info = design_target(rng, INFEASIBLE_TARGETS[0], budget=40)
    parse_faults = rng.sample(PARSE_FAULTS, 2)
    rule_fault = RULE_FAULTS[rng.randrange(len(RULE_FAULTS))]

    w.manifest["builds"] = builds
    w.manifest["tables"] = {
        "f": {"path": w.write("tables/f.csv", table), "zetas": zetas},
        "reference": {"path": w.write("tables/reference.csv", table_ref),
                      "zetas": zetas_ref},
    }
    w.manifest["targets"] = {
        "feasible": {"path": w.write("targets/feasible.txt", feasible),
                     **feasible_info},
        "hopeless": {"path": w.write("targets/hopeless.txt", hopeless),
                     **hopeless_info},
    }
    w.manifest["invalid"] = {
        "rule": {"path": w.write("invalid/rule.txt", invalid_build(rng, rule_fault)),
                 "kind": rule_fault},
        "parse_1": {"path": w.write("invalid/parse_1.txt",
                                    invalid_build(rng, parse_faults[0])),
                    "kind": parse_faults[0]},
        "parse_2": {"path": w.write("invalid/parse_2.txt",
                                    invalid_build(rng, parse_faults[1])),
                    "kind": parse_faults[1]},
        "sqrt_negative": {"path": w.write("invalid/sqrt_negative.txt",
                                          SQRT_NEGATIVE_BUILD),
                          "kind": "sqrt_negative"},
    }
    # Press directions for analyze: one well inside the reference band,
    # for a scattered build, and one outside it, for the reference build.
    w.manifest["analyze_zeta_deg"] = {
        "d": round(rng.uniform(-5.0, 12.0), 3),
        "reference": round(rng.uniform(25.0, 85.0), 3),
    }


def gen_design_search(rng: random.Random, w: _Writer) -> None:
    """A round of design targets: every template once, the first twice."""
    text, values = reference_build(rng)
    w.manifest["reference"] = {"path": w.write("builds/reference.txt", text),
                               "values": values}
    targets = []
    templates = [(t, True) for t in FEASIBLE_TARGETS]
    templates += [(t, False) for t in INFEASIBLE_TARGETS]
    for i, (template, reachable) in enumerate(templates):
        target, info = design_target(rng, template)
        info.update(path=w.write(f"targets/t{i:02d}.txt", target),
                    reachable=reachable)
        targets.append(info)
    # The first target again: the search must return identical parameters.
    targets.append(dict(targets[0], repeat_of=0))
    w.manifest["targets"] = targets


def gen_tolerance_batch(rng: random.Random, w: _Writer) -> None:
    """Scattered builds, each with its own bench table; one build pairs
    theta3 with theta1 so the press direction zeta = theta1 is singular."""
    builds = []
    for i in range(TOLERANCE_BUILDS + 1):
        text, values = perturbed_build(rng, scatter=2 * BUILD_SCATTER)
        extra: tuple[float, ...] = ()
        if i == TOLERANCE_BUILDS:
            values["theta3"] = values["theta1"]
            same = {"theta1 ", "theta3 "}
            text = "\n".join(
                f"{line[:6]} = {values['theta1']!r}" if line[:7] in same else line
                for line in text.splitlines()
            ) + "\n"
            extra = (values["theta1"],)
        table, zetas = bench_table(rng, extra=extra)
        builds.append({
            "path": w.write(f"builds/b{i:02d}.txt", text),
            "values": values,
            "table": w.write(f"tables/b{i:02d}.csv", table),
            "zetas": zetas,
        })
    w.manifest["builds"] = builds


GENERATORS = {
    "cli_session": gen_cli_session,
    "design_search": gen_design_search,
    "tolerance_batch": gen_tolerance_batch,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(out)
    w.manifest.update(workload=workload, seed=seed)
    GENERATORS[workload](rng, w)
    _probe(rng, w)
    w.finish()
    return w.manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name in WORKLOADS:
        generate(name, args.seed, args.out / name)
        print(f"wrote {args.out / name}")


if __name__ == "__main__":
    main()
