"""Machine-speed calibration for the end-to-end timings.

The small virtual machines this benchmark is run on change speed by up
to 2x for seconds to minutes at a time, for reasons outside the run
(a default sweep takes 4.7 ms in one spell and 9.5 ms in the next).  Raw
medians of one workload then differ by a third from run to run, more
than any bound a regression check could use.  So every timed operation
is bracketed by a fixed piece of calibration work that shares nothing
with linkstat, and its time is scaled to the machine speed at which that
work takes its reference time:

    scaled = raw * REF / mean(calibration before, calibration after)

In-process operations are bracketed by ``kernel``: small numpy arrays,
2x2 solves and ``math`` calls, the same kind of work as linkstat's
statics.  Fresh-process commands and set-up interpreters are bracketed
by ``numpy_import``: a fresh interpreter that imports numpy, the same
kind of work as starting the CLI.  Over two minutes of changing spells,
the quartile spread of a default sweep's time was 0.53 of its median
raw and 0.03 scaled by ``kernel``; that of a fresh ``import linkstat``
was 0.11 raw and 0.02 scaled by ``numpy_import``.  A change to linkstat
moves the scaled figures as it moves the raw ones; the run record keeps
the raw figures too.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Times of the calibration work on a 2-vCPU Intel Xeon virtual machine in
# its fast spell (Python 3.11.7, numpy 2.4.6).
KERNEL_REF_S = 0.0029
NUMPY_IMPORT_REF_S = 0.17

_RHS = np.array([1.0, 2.0])


def kernel() -> float:
    """Seconds taken by a fixed batch of small numpy solves."""
    start = time.perf_counter()
    total = 0.0
    for i in range(300):
        c, s = math.cos(i), math.sin(i)
        x = np.linalg.solve(np.array([[c, s], [-0.5 * s, 1.0 + c * c]]), _RHS)
        m = np.zeros((9, 9))
        m[0, 0], m[1, 1] = x[0], float(x[1])
        total += float(x[0]) + float(np.dot(x, _RHS))
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("calibration kernel went wrong")
    return elapsed


def numpy_import(env: dict, cwd) -> float:
    """Seconds taken by a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=120)
    return time.perf_counter() - start


def scales(calibrations: list[float], ref: float) -> list[float]:
    """Scale factor of each operation, from the calibrations either side.

    ``calibrations`` has one entry more than there are operations: the
    i-th operation ran between entries i and i + 1.
    """
    return [2.0 * ref / (before + after)
            for before, after in zip(calibrations, calibrations[1:])]
