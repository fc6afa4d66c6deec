"""The benchmark's workloads: what one pass runs through the CLI.

Each workload is chosen so one layer of ``repro`` does most of the
work in it and almost none in the others (see ``layers.py`` for the
layer -> metric -> workload map).  The workload seed only shapes the
generated grid; the program never sees it as anything but parameter
values.

A pass is one ``repro.__main__.main(argv)`` call.  Every pass must
reproduce a reference tree: the warm-up pass's, or, for the fabric
workload, the same grid run in-process once, untimed, before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

#: consecutive stimulus seeds in one campaign pass
CAMPAIGN_SEEDS = 1024
#: traffic seeds per mesh size in one fabric pass
FABRIC_SEEDS = 150
#: give up on a fabric pass after this many seconds
FABRIC_TIMEOUT_S = 60

RunCli = Callable[[List[str]], int]


def _seeds(first: int, count: int) -> str:
    return "seed=" + ",".join(str(first + i) for i in range(count))


def _campaign(seed: int, out: Path, store: Path) -> List[str]:
    return [
        "sweep", "compiled-fault-campaign", "--fast",
        "--param", _seeds(seed, CAMPAIGN_SEEDS),
        "--out", str(out), "--store", str(store),
    ]


def _fabric_grid(seed: int, out: Path) -> List[str]:
    return [
        "sweep", "mesh-design-space",
        "--param", "mesh_size=2,3",
        "--param", _seeds(seed, FABRIC_SEEDS),
        "--set", "cycles=100",
        "--out", str(out),
    ]


#: ``argv(seed, out_dir, pass_dir, work_dir)`` -> CLI arguments
Argv = Callable[[int, Path, Path, Path], List[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json
    why: str
    #: one timed pass, writing its artifacts to ``out_dir``
    argv: Argv
    #: the untimed reference run, when the warm-up pass cannot be it
    reference_argv: Optional[Argv] = None
    #: passes go through a fabric directory served by one worker
    fabric: bool = False
    #: timed passes per run, whatever ``--seconds`` allows
    min_passes: int = 3

    def prepare(self, seed: int, work: Path,
                run_cli: RunCli) -> Optional[Path]:
        """Untimed set-up; returns the reference tree, if not the
        warm-up pass's."""
        if self.reference_argv is None:
            return None
        out = work / "reference"
        run_cli(self.reference_argv(seed, out, work, work))
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper",
        "repro run: the nine paper scenarios at gate-level fidelity, "
        "unseeded; loads sim.Simulator.run (~88%); noc, compiled, store "
        "and fabric idle",
        lambda seed, out, pass_dir, work: ["run", "--out", str(out)],
    ),
    Workload(
        "mesh-sweep",
        "mesh-design-space default grid (21 points, 800 cycles), cold "
        "store; loads noc.Network.run (~95%), low load and saturation; "
        "sim and compiled idle",
        lambda seed, out, pass_dir, work: [
            "sweep", "mesh-design-space", "--set", f"seed={seed}",
            "--out", str(out), "--store", str(pass_dir / "store"),
        ],
        # long passes: its median takes more of them than --seconds allows
        min_passes=4,
    ),
    Workload(
        "campaign",
        "compiled-fault-campaign --fast over 1024 seeds, cold store; "
        "loads compiled codegen/settle and the durable write path "
        "(artifacts, store.put, journal)",
        lambda seed, out, pass_dir, work: _campaign(
            seed, out, pass_dir / "store"),
        # long passes: its median takes more of them than --seconds allows
        min_passes=4,
    ),
    Workload(
        "fabric-sweep",
        "300 cheap mesh points (2x2/3x3, 100 cycles) through --fabric "
        "and one worker process; loads lease/publish/poll; the only "
        "workload where fabric runs",
        lambda seed, out, pass_dir, work: _fabric_grid(seed, out) + [
            "--fabric", str(pass_dir / "fabric"),
            "--fabric-timeout", str(FABRIC_TIMEOUT_S),
        ],
        # the same grid in-process: what the fabric must reproduce
        reference_argv=lambda seed, out, pass_dir, work: _fabric_grid(
            seed, out),
        fabric=True,
        # two processes, polling and file traffic: its passes vary the
        # most, so its median takes more of them
        min_passes=5,
    ),
)}
