"""Digest the design search over the benchmark's ``design_search`` targets.

For each seed, generates the ``design_search`` inputs with the
benchmark's own generator (``bench/gen.py``), loads them as the
benchmark does (``bench/inputs.py``) and runs ``optimize_design`` on
every target from the reference build with the target's budget.  Then
prints

* the number of targets,
* the ``_envelope`` calls the search made,
* the verdicts the kernel computed, counted at the ``_decide_all`` and
  ``_decide`` names that the kernel's callers among the loaded modules
  read (``linkstat.design``, ``linkstat.modeswitch`` and, where it
  exists, ``linkstat.roots``),
* a SHA-256 over every result: status, parameters, evaluations,
  penalty, violations and verification record, floats as ``float.hex``,
  or the type and text of the exception a search raised.

Two trees whose searches agree bit for bit, and do the same work, print
the same four lines.  Nothing under ``bench/`` is changed; its modules
are only imported.  Run it from anywhere::

    python tools/search_digest.py                  # seeds 1-10
    python tools/search_digest.py 26111 26112      # the given seeds
    python tools/search_digest.py --tree OTHER     # another checkout's src and bench
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _hex(value: object) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _fields(result) -> list[str]:
    """One string per field of a DesignResult, floats as float.hex."""
    record = result.verification
    return [
        result.status.value,
        *(_hex(v) for v in result.parameters),
        repr(result.evaluations),
        _hex(result.penalty),
        *result.violations,
        "None" if record is None else ",".join(_hex(v) for v in record),
    ]


class _Counter:
    """Wraps module-level names in place and counts what they return."""

    def __init__(self) -> None:
        self.envelopes = 0
        self.verdicts = 0
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, module: object, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self, design) -> None:
        envelope = design._envelope

        def counted_envelope(*args, **kwargs):
            self.envelopes += 1
            return envelope(*args, **kwargs)

        self._replace(design, "_envelope", counted_envelope)

        def counted_decide(*args, _decide, **kwargs):
            self.verdicts += 1
            return _decide(*args, **kwargs)

        def counted_decide_all(*args, _decide_all, **kwargs):
            verdicts = _decide_all(*args, **kwargs)
            self.verdicts += len(verdicts)
            return verdicts

        # Every loaded linkstat module that imported a kernel name, but not
        # the kernel's home, whose own calls between the two would count twice.
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("linkstat.")]
        for module in modules:
            for name, counted in (("_decide", counted_decide),
                                  ("_decide_all", counted_decide_all)):
                kernel = vars(module).get(name)
                if kernel is not None and kernel.__module__ != module.__name__:
                    self._replace(module, name, functools.partial(counted, **{name: kernel}))

    def restore(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=list(range(1, 11)),
                        help="benchmark seeds (default 1-10)")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and bench/ to use (default this one)")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    gen = importlib.import_module("gen")
    inputs = importlib.import_module("inputs")
    design = importlib.import_module("linkstat.design")

    digest = hashlib.sha256()
    targets = 0
    counter = _Counter()
    counter.install(design)
    try:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                manifest = gen.generate("design_search", seed, Path(work))
                loaded = inputs.load_inputs("design_search", Path(work), manifest)
            for spec, budget in loaded["targets"]:
                targets += 1
                try:
                    fields = _fields(design.optimize_design(spec, loaded["reference"], budget))
                except (ValueError, RuntimeError) as exc:  # the errors a search documents
                    fields = [type(exc).__name__, str(exc)]
                digest.update(("\x1f".join(fields) + "\x1e").encode())
    finally:
        counter.restore()

    print(f"targets: {targets}")
    print(f"envelope calls: {counter.envelopes}")
    print(f"kernel verdicts: {counter.verdicts}")
    print(f"digest: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
