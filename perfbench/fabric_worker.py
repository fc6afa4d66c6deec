"""Traced fabric worker: ``repro worker`` with the layer spans on.

Run as ``python fabric_worker.py SRC_DIR FABRIC_DIR SPANS_PATH
PASS_ID``.  It wraps the ``FileTransport`` and ``execute_item`` calls
(and every other layer boundary, see ``layers.install``), enables the
``repro.obs`` counters, then calls :func:`repro.fabric.run_worker`
with the ``repro worker`` defaults.  When the worker returns, it
writes its spans to ``SPANS_PATH`` and a JSON line with its counters
and the moment it became ready to ``SPANS_PATH.meta``.
"""

import json
import sys
import time
from pathlib import Path

import layers
from spans import Tracer

WORKER_ID = "bench-w0"


def main(argv) -> int:
    src, fabric_dir, spans_path, pass_id = argv
    sys.path.insert(0, src)
    from repro.fabric import run_worker
    from repro.obs import metrics

    tracer = Tracer()
    tracer.pass_id = int(pass_id)
    layers.install(tracer)
    metrics.enable()
    ready = time.perf_counter()
    run_worker(fabric_dir, worker_id=WORKER_ID, lease_ttl=20.0,
               poll_s=0.5, plan_timeout=60.0)
    tracer.dump(spans_path)
    Path(spans_path + ".meta").write_text(json.dumps({
        "ready": ready,
        "counters": layers.counters(metrics.REGISTRY),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
