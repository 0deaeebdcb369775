"""Digest what linkstat computes, section by section, so that two trees can
be shown to agree bit for bit.

Each section prints one line, ``section: name=value ...``, from the fixed
seeds below; every float is hashed as ``float.hex`` and everything else
as ``repr``:

* ``kernel``: ``statics._decide_all`` over scattered valid builds x the
  default grid, every field of every verdict.
* ``envelope``: ``envelope`` against ``opening_interval(sweep(...))`` on
  the same builds, over the default range and over one random range
  each.  ``mismatches`` counts the calls whose results (or error texts)
  differ, and must be 0.
* ``fallback``: the ``envelope`` section with ``roots._CANCELLATION_FLOOR``
  set to infinity while it runs, so that no root is trusted and every
  call takes the envelope's full-sweep route; ``mismatches`` must be 0.
* ``validation``: ``validate_parameters(p).describe()`` over valid builds,
  invalid builds and builds pushed to extremes (magnitudes from 1e-320 to
  1e308, angles near +-pi/2, non-finite values, mu on a self-lock
  boundary, tiny theta2 with a huge mu).
* ``cli``: in-process ``linkstat.cli.main`` over parameter, measurement
  and design files written from such builds: the exit code, stdout,
  stderr and the bytes each command wrote, each with the scratch
  directory's path replaced by ``<tmp>``.  An exception escaping ``main`` is
  recorded by type and text.
* ``search``: ``optimize_design`` from the reference build over the
  targets of ``bench/gen.py``'s ``design_search`` inputs for seeds 1-10,
  loaded by ``bench/inputs.py``, each with its budget: the number of
  targets, the ``design._envelope`` calls, the kernel verdicts (counted
  where the kernel's callers read ``_decide`` and ``_decide_all``) and a
  full SHA-256 over every result, or the type and text of its error.
* ``oracle``: ``full_equilibrium`` over builds scattered +-20 % and +-50 %
  (valid or not) x random press directions x the hints None, +1 and -1,
  then over the builds it refuses (a zero coupler moment arm, l1 = 0,
  l1 = 1e-320, l2 = 5e-324 and each field at +-inf): every field of
  every state, or the type and text of its error.

``validation`` and ``cli`` digest apart, as ``a11_digest``, the
``a11_builds`` whose angles and mu pass their range rules, whose coupling
denominators are positive, and whose a11, the slotted pin's coupling
times sin(theta4 - theta2), is not finite on some branch; ``a11_refused``
counts the reports among them that name an a11.  Two trees that agree
print the same lines.  Run it from anywhere::

    python tools/identity_digest.py                        # every section
    python tools/identity_digest.py --sections kernel,cli  # the named ones
    python tools/identity_digest.py --tree OTHER           # another checkout's src and bench
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = ("kernel", "envelope", "fallback", "validation", "cli", "search", "oracle")

# Fixed seeds, one per section (``search`` runs the benchmark's seeds from 1),
# and the corpus sizes of a full run.
SEEDS = {"kernel": 31001, "validation": 31002, "cli": 31003, "oracle": 32001}
SIZES = {"kernel": 4000, "validation": 40000, "cli": 300, "search": 10, "oracle": 1000}

_PHYSICAL = ("l0", "l1", "l2", "l3", "l4", "theta0", "theta1", "theta2", "theta3",
             "theta4", "theta5", "spring_k", "natural_length", "mu")
_HALF_PI = math.pi / 2
_A11_MU = 1e300 * (1 - 2**-52)


def _hex(value: object) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


class _Digest:
    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, *values: object) -> None:
        self._sha.update(("\x1f".join(map(_hex, values)) + "\x1e").encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()[:16]


def _outcome(call, *errors: type[BaseException]) -> tuple:
    """The flattened result of ``call()``, or the type and text of its error."""
    try:
        result = call()
    except errors as exc:
        return (type(exc).__name__, str(exc))
    return tuple(v for item in result for v in item)


def _scattered(rng: random.Random, base, spread: float):
    p = base.with_values(**{f: getattr(base, f) * rng.uniform(1 - spread, 1 + spread)
                            for f in _PHYSICAL})
    return p.with_values(mu=0.0) if rng.random() < 0.1 else p


def _extreme_value(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-320, 308)
    if kind == 1:
        edge = rng.choice((_HALF_PI, -_HALF_PI))
        for _ in range(rng.randrange(4)):
            edge = math.nextafter(edge, 0.0 if rng.random() < 0.5 else 2 * edge)
        return edge
    if kind == 2:
        return rng.choice((0.0, -0.0, math.nan, math.inf, -math.inf))
    return rng.uniform(-2.0, 2.0)


def _on_self_lock(rng: random.Random, p):
    """``p`` with mu on a self-lock boundary of its theta2, give or take a few ulps."""
    if not (math.isfinite(p.theta2) and math.sin(p.theta2) != 0.0):
        return p
    mu = abs(math.cos(p.theta2) / math.sin(p.theta2))
    toward = math.inf if rng.random() < 0.5 else 0.0
    for _ in range(rng.randrange(4)):
        mu = math.nextafter(mu, toward)
    return p.with_values(mu=mu)


def _extreme(rng: random.Random, base):
    p = base.with_values(**{f: _extreme_value(rng) for f in rng.sample(_PHYSICAL, rng.randint(1, 3))})
    kind = rng.randrange(5)
    if kind == 0:
        return _on_self_lock(rng, p)
    if kind == 1:  # a tiny theta2, and mu near its huge cotangent
        theta2 = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-306, -293)
        return _on_self_lock(rng, base.with_values(theta2=theta2))
    return p


def _invalid(rng: random.Random, base):
    name = rng.choice(_PHYSICAL)
    if name.startswith("theta"):
        value = rng.choice((1.0, -1.0)) * rng.uniform(_HALF_PI, 4.0)
    else:
        value = -rng.uniform(0.0, 10.0)
    return _scattered(rng, base, 0.2).with_values(**{name: value})


def _valid_builds(linkstat, count: int) -> list:
    """The reference build, then builds scattered +-20 % and +-50 % that validate."""
    base = linkstat.default_parameters()
    rng = random.Random(SEEDS["kernel"])
    builds = [base]
    while len(builds) < count:
        p = _scattered(rng, base, 0.2 if len(builds) % 3 else 0.5)
        if linkstat.validate_parameters(p).ok:
            builds.append(p)
    return builds


def _a11_build(p) -> bool:
    """Whether ``p`` has angles and mu in range, positive coupling
    denominators and a non-finite a11 on some branch, written out here,
    since linkstat's ``friction_coupling`` refuses such a build."""
    angles = (p.theta2, p.theta3, p.theta4)
    if not (all(-_HALF_PI < t < _HALF_PI for t in angles) and 0.0 <= p.mu < math.inf):
        return False
    sin2, cos2 = math.sin(p.theta2), math.cos(p.theta2)
    if not (-p.mu * sin2 + cos2 > 0.0 and p.mu * sin2 + cos2 > 0.0):
        return False
    if math.sin(p.theta2 + p.theta3) == 0.0:
        return False
    sin3, cos3, s42 = math.sin(p.theta3), math.cos(p.theta3), math.sin(p.theta4 - p.theta2)
    return not all(math.isfinite((s * p.mu * sin3 + cos3) / (-s * p.mu * sin2 + cos2) * s42)
                   for s in (1, -1))


def kernel(linkstat, size: int) -> str:
    statics, grid = linkstat.statics, linkstat.model.sweep_grid(
        linkstat.model.DEFAULT_SWEEP_LO, linkstat.model.DEFAULT_SWEEP_HI,
        linkstat.model.DEFAULT_SWEEP_STEP)
    digest, verdicts = _Digest(), 0
    for p in _valid_builds(linkstat, size):
        for verdict in statics._decide_all(p, grid):
            digest.add(*verdict)
            verdicts += 1
    return f"kernel: builds={size} verdicts={verdicts} digest={digest.hexdigest()}"


def envelope(linkstat, size: int, section: str = "envelope") -> str:
    rng = random.Random(SEEDS["kernel"] + 1)
    digest, calls, mismatches = _Digest(), 0, 0
    errors = (ValueError, linkstat.SingularSystemError)
    for p in _valid_builds(linkstat, size // 4):
        lo = rng.uniform(-1.2, 0.5)
        for bounds in ((), (lo, lo + rng.uniform(0.05, 1.5), rng.uniform(0.002, 0.05))):
            fast = _outcome(lambda: linkstat.envelope(p, *bounds), *errors)
            full = _outcome(lambda: linkstat.opening_interval(linkstat.sweep(p, *bounds)), *errors)
            digest.add(*fast)
            calls += 1
            mismatches += fast != full
    return f"{section}: calls={calls} mismatches={mismatches} digest={digest.hexdigest()}"


def fallback(linkstat, size: int) -> str:
    roots = importlib.import_module("linkstat.roots")
    floor = roots._CANCELLATION_FLOOR
    roots._CANCELLATION_FLOOR = math.inf
    try:
        return envelope(linkstat, size, "fallback")
    finally:
        roots._CANCELLATION_FLOOR = floor


def _validation_builds(linkstat, size: int) -> list:
    base = linkstat.default_parameters()
    rng = random.Random(SEEDS["validation"])
    builds = [base, base.with_values(theta2=1e-300, mu=_A11_MU),
              base.with_values(theta2=-1e-300, mu=_A11_MU)]
    while len(builds) < size:
        kind = len(builds) % 4
        builds.append(_scattered(rng, base, 0.2) if kind == 0
                      else _invalid(rng, base) if kind == 1 else _extreme(rng, base))
    return builds


def validation(linkstat, size: int) -> str:
    digest, a11_digest = _Digest(), _Digest()
    ok = a11_builds = a11_refused = 0
    for p in _validation_builds(linkstat, size):
        text = linkstat.validate_parameters(p).describe()
        ok += text == "parameters ok"
        if _a11_build(p):
            a11_builds += 1
            a11_refused += "friction branch's a11" in text
            a11_digest.add(*p, text)
        else:
            digest.add(*p, text)
    return (f"validation: builds={size} ok={ok} a11_builds={a11_builds} "
            f"a11_refused={a11_refused} digest={digest.hexdigest()} "
            f"a11_digest={a11_digest.hexdigest()}")


_DESIGN = """[target]
interval_lo_deg = -10
interval_hi_deg = 15
press_angle_deg = -15
threshold_lo_n = 3
threshold_hi_n = 8

[search]
free = theta2
budget = 60

[bounds]
theta2 = 10, 30
"""


def _run_main(main, argv: list[str], work: Path) -> tuple:
    """Exit code, stdout, stderr and written files of one in-process ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        except Exception as exc:  # recorded, so that a crash shows in the digest
            code = (type(exc).__name__, str(exc))
    tmp = str(work)
    written = []
    for path in sorted(work.glob("out*")):
        written.append((path.name, path.read_bytes().replace(tmp.encode(), b"<tmp>")))
        path.unlink()
    return (code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>"),
            *written)


def cli(linkstat, size: int) -> str:
    from linkstat.cli import main

    rng = random.Random(SEEDS["cli"])
    base = linkstat.default_parameters()
    builds = [base, base.with_values(theta2=1e-300, mu=_A11_MU),
              base.with_values(theta2=-1e-300, mu=_A11_MU)]
    while len(builds) < size:
        kind = len(builds) % 3
        builds.append(_scattered(rng, base, 0.3) if kind == 0
                      else _invalid(rng, base) if kind == 1 else _extreme(rng, base))
    digest, a11_digest = _Digest(), _Digest()
    runs = a11_runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        params, meas, design = work / "params.txt", work / "meas.csv", work / "design.txt"
        meas.write_text("zeta_deg,measured_force_n\n-15,4.8\n0,5.2\n10,4.7\n40,1.0\n")
        design.write_text(_DESIGN)
        out = str(work / "out.csv")
        for i, p in enumerate(builds):
            params.write_text(linkstat.format_parameter_file(p))
            a11 = _a11_build(p)
            zeta = f"{rng.uniform(-30.0, 90.0):.2f}"
            commands = [["validate"], ["analyze", "--zeta-deg", zeta],
                        ["analyze", "--zeta-deg", "17.19"], ["sweep", "--out", out],
                        ["compare", "--measurements", str(meas), "--out", out]]
            if i % 10 == 0:
                commands.append(["optimize", "--design", str(design), "--out", out])
            for command in commands:
                record = _run_main(main, [*command, "--params", str(params)], work)
                (a11_digest if a11 else digest).add(*command[:1], *record)
                runs += 1
                a11_runs += a11
    return (f"cli: runs={runs} a11_runs={a11_runs} digest={digest.hexdigest()} "
            f"a11_digest={a11_digest.hexdigest()}")


def _oracle_builds(linkstat, size: int) -> list:
    """Scattered builds, then the builds the oracle refuses."""
    base = linkstat.default_parameters()
    rng = random.Random(SEEDS["oracle"])
    builds = [base] + [_scattered(rng, base, 0.2 if i % 3 else 0.5) for i in range(1, size)]
    builds += [base.with_values(**change) for change in
               ({"l2": 0.0}, {"l1": 0.0}, {"l1": 1e-320}, {"l2": 5e-324})]
    builds += [base.with_values(**{name: value})
               for name in base._fields for value in (math.inf, -math.inf)]
    return builds


def oracle(linkstat, size: int) -> str:
    rng = random.Random(SEEDS["oracle"] + 1)
    digest, states, errors = _Digest(), 0, 0
    builds = _oracle_builds(linkstat, size)
    for p in builds:
        for zeta in [0.3, *(rng.uniform(-1.2, 1.8) for _ in range(3))]:
            for hint in (None, 1, -1):
                try:
                    state = linkstat.full_equilibrium(p, zeta, hint)
                except (linkstat.SingularSystemError, ValueError) as exc:
                    digest.add(type(exc).__name__, str(exc))
                    errors += 1
                else:
                    digest.add(*(v for item in state
                                 for v in (item if isinstance(item, tuple) else (item,))))
                    states += 1
    return (f"oracle: builds={len(builds)} states={states} errors={errors} "
            f"digest={digest.hexdigest()}")


def _bench(tree: Path, name: str):
    """``<tree>/bench/<name>.py`` as a fresh module, without putting ``bench/`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", tree / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _counted(design):
    """Counts ``design._envelope`` calls and kernel verdicts while the block runs.

    Verdicts are counted at the ``_decide`` and ``_decide_all`` names of
    every loaded ``linkstat`` module that imported them, but not at the
    kernel's home, whose own calls between the two would count twice.
    """
    counts = {"envelope_calls": 0, "kernel_verdicts": 0}
    saved = []

    def envelope(*args, _envelope, **kwargs):
        counts["envelope_calls"] += 1
        return _envelope(*args, **kwargs)

    def decide(*args, _decide, **kwargs):
        counts["kernel_verdicts"] += 1
        return _decide(*args, **kwargs)

    def decide_all(*args, _decide_all, **kwargs):
        verdicts = _decide_all(*args, **kwargs)
        counts["kernel_verdicts"] += len(verdicts)
        return verdicts

    wrappers = [(design, "_envelope", envelope)]
    for module in [m for key, m in list(sys.modules.items()) if key.startswith("linkstat.")]:
        for name, counted in (("_decide", decide), ("_decide_all", decide_all)):
            kernel = vars(module).get(name)
            if kernel is not None and kernel.__module__ != module.__name__:
                wrappers.append((module, name, counted))
    for module, name, counted in wrappers:
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, functools.partial(counted, **{name: original}))
    try:
        yield counts
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def _design_fields(result) -> list[str]:
    """One string per field of a DesignResult, floats as float.hex."""
    record = result.verification
    return [
        result.status.value,
        *map(_hex, result.parameters),
        repr(result.evaluations),
        _hex(result.penalty),
        *result.violations,
        "None" if record is None else ",".join(map(_hex, record)),
    ]


def search(tree: Path, size: int) -> str:
    gen, inputs = _bench(tree, "gen"), _bench(tree, "inputs")
    design = importlib.import_module("linkstat.design")
    sha, targets = hashlib.sha256(), 0
    with _counted(design) as counts:
        for seed in range(1, size + 1):
            with tempfile.TemporaryDirectory() as work:
                manifest = gen.generate("design_search", seed, Path(work))
                loaded = inputs.load_inputs("design_search", Path(work), manifest)
            for spec, budget in loaded["targets"]:
                targets += 1
                try:
                    fields = _design_fields(
                        design.optimize_design(spec, loaded["reference"], budget))
                except (ValueError, RuntimeError) as exc:  # the errors a search documents
                    fields = [type(exc).__name__, str(exc)]
                sha.update(("\x1f".join(fields) + "\x1e").encode())
    return (f"search: targets={targets} envelope_calls={counts['envelope_calls']} "
            f"kernel_verdicts={counts['kernel_verdicts']} digest={sha.hexdigest()}")


def run(sections, tree: Path = ROOT, scale: float = 1.0) -> list[str]:
    """The lines of ``sections`` for the ``linkstat`` already imported and
    ``tree``'s ``bench/``, with every corpus size multiplied by ``scale``."""
    linkstat = importlib.import_module("linkstat")
    for module in ("model", "statics", "cli"):
        importlib.import_module(f"linkstat.{module}")
    sized = {name: max(4, int(size * scale)) for name, size in SIZES.items()}
    makers = {
        "kernel": lambda: kernel(linkstat, sized["kernel"]),
        "envelope": lambda: envelope(linkstat, sized["kernel"]),
        "fallback": lambda: fallback(linkstat, sized["kernel"]),
        "validation": lambda: validation(linkstat, sized["validation"]),
        "cli": lambda: cli(linkstat, sized["cli"]),
        "search": lambda: search(tree, sized["search"]),
        "oracle": lambda: oracle(linkstat, sized["oracle"]),
    }
    return [makers[name]() for name in sections]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and bench/ to digest (default this one)")
    parser.add_argument("--sections", default=",".join(SECTIONS),
                        help=f"comma-separated sections (default {','.join(SECTIONS)})")
    args = parser.parse_args(argv)
    sections = args.sections.split(",")
    unknown = [name for name in sections if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown sections {unknown}; choose from {list(SECTIONS)}")
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    for line in run(sections, tree):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
