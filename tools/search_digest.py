"""Digest the design search over the benchmark's ``design_search`` targets.

For each seed, generates the ``design_search`` inputs with the
benchmark's own generator (``bench/gen.py``), loads them as the
benchmark does (``bench/inputs.py``) and runs ``optimize_design`` on
every target from the reference build with the target's budget.  Then
prints

* the number of targets,
* the ``_envelope`` calls the search made,
* the verdicts the kernel computed, counted at the ``_decide_all`` and
  ``_decide`` names that ``linkstat.design`` and ``linkstat.modeswitch``
  read,
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

    def install(self, design, modeswitch) -> None:
        envelope = design._envelope

        def counted_envelope(*args, **kwargs):
            self.envelopes += 1
            return envelope(*args, **kwargs)

        self._replace(design, "_envelope", counted_envelope)
        for module in (design, modeswitch):
            decide, decide_all = module._decide, module._decide_all

            def counted_decide(*args, _decide=decide, **kwargs):
                self.verdicts += 1
                return _decide(*args, **kwargs)

            def counted_decide_all(*args, _decide_all=decide_all, **kwargs):
                verdicts = _decide_all(*args, **kwargs)
                self.verdicts += len(verdicts)
                return verdicts

            self._replace(module, "_decide", counted_decide)
            self._replace(module, "_decide_all", counted_decide_all)

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
    modeswitch = importlib.import_module("linkstat.modeswitch")

    digest = hashlib.sha256()
    targets = 0
    counter = _Counter()
    counter.install(design, modeswitch)
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
