"""One fresh-interpreter set-up: import linkstat, then load the inputs.

Usage: ``python3 bench/setup_child.py SRC_DIR WORKLOAD INPUT_DIR``.  Prints
one JSON object with the import and load times in seconds.
"""

import json
import sys
import time
from pathlib import Path

src, workload, work = sys.argv[1], sys.argv[2], Path(sys.argv[3])
sys.path.insert(0, src)
start = time.perf_counter()
import linkstat  # noqa: E402

imported = time.perf_counter()
from inputs import load_inputs  # noqa: E402

load_inputs(workload, work, json.loads((work / "manifest.json").read_text()))
print(json.dumps({"import_s": imported - start, "load_s": time.perf_counter() - imported,
                  "linkstat": linkstat.__file__}))
