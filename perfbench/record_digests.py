"""Record the artifact digests the benchmark checks its passes against.

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py --seeds 0-99

For every digest table (``paper``, ``mesh-sweep``, ``campaign``,
``fabric-sweep``) and seed, this runs the workload's reference once in
a fresh ``python -m repro`` process (for ``fabric-sweep``, the same
grid in-process, which the fabric must reproduce) and stores the tree
digest in ``digests.json``; seeds already recorded are kept.  Delete
the file and record again only when a change is meant to alter the
program's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import checks
from run import HERE, SCRATCH, _env
from workloads import WORKLOADS


def _cli(argv) -> int:
    return subprocess.run(
        [sys.executable, "-m", "repro"] + argv, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _seeds(spec: str):
    first, _, last = spec.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive seed range, e.g. 0-99")
    args = parser.parse_args(argv)
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work = SCRATCH / "record"
    for workload in WORKLOADS.values():
        keys = (["*"] if workload.name == "paper"
                else [str(s) for s in _seeds(args.seeds)])
        for key in keys:
            if key in table.get(workload.name, {}):
                continue
            seed = 0 if key == "*" else int(key)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ref = workload.prepare(seed, work, _cli)
            if ref is None:
                ref = work / "out"
                code = _cli(workload.argv(seed, ref, work, work))
            else:
                code = 0
            points = checks.point_digests(ref)
            failing = checks.failing_points(ref)
            if code != 0 or failing or not points:
                print(f"{workload.name} seed {key}: failed (exit {code}, "
                      f"{len(failing)} failing of {len(points)} points)",
                      file=sys.stderr)
                return 1
            table.setdefault(workload.name, {})[key] = checks.tree_digest(
                points
            )
            path.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")
            print(f"{workload.name} seed {key}: recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
