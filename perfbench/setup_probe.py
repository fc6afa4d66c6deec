"""Set-up probe: a fresh interpreter importing the CLI.

Run as ``python setup_probe.py SRC_DIR``.  It imports
``repro.__main__``, loads the scenario registry, and prints the
``time.perf_counter()`` reading at that moment as JSON.  On Linux that
clock is the system-wide monotonic clock, so the parent subtracts its
own reading from before the launch to get the set-up time.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import repro.__main__  # noqa: E402,F401
from repro.runner import registry  # noqa: E402

registry.load_builtin()
print(json.dumps({"end": time.perf_counter()}))
