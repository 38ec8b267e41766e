"""Set-up probe: run in a fresh interpreter by ``run.py``.

Imports ``occutime.cli`` from the checkout's ``src`` and loads the config
files named on the command line, then prints the monotonic clock reading
and the import and load times as one JSON line. The parent takes set-up
time as that reading minus its own reading before starting this process.

    python3 benchmarks/probe.py CONFIG...
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

started = time.perf_counter()
import occutime.cli  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    occutime.cli.load_config(Path(path).read_text())
loaded = time.perf_counter()
print(json.dumps({"clock": loaded, "import_s": imported - started,
                  "load_s": loaded - imported}))
