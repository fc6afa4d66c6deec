"""End-to-end benchmark of the ``repro`` CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 12
    python3 perfbench/run.py --workload mesh-sweep --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

One run measures one workload (see ``workloads.py``) in this process,
through the public entry ``repro.__main__.main(argv)`` with
``--jobs 1``; the fabric workload adds exactly one worker process per
pass.  The run:

1. times set-up in fresh interpreters (``setup_probe.py``);
2. makes the untimed reference run where the workload needs one, or
   else one untimed warm-up pass that serves as the reference;
3. runs timed passes until
   ``--seconds`` have elapsed (at least the workload's ``min_passes``);
4. checks every pass's artifact tree: each point must pass its own
   checks and match the reference digest, and the reference must
   match the digest recorded in ``digests.json`` for the workload and
   seed when one is recorded;
5. prints each metric as a median with its sample count, then the
   result as one JSON line.  ``--trace 0`` reports the end-to-end
   metrics; ``--trace 1`` alternates untraced and traced passes,
   reports the per-layer metrics (``layers.py``) and writes the spans
   to ``.perfbench/spans-<workload>.jsonl``.

Why warm passes, medians and calibration: the host's CPU speed drifts
with its other tenants' load (1.2x to 2.4x slower than idle, in
episodes of 10 to 60 seconds), so one cold CLI call per sample varies
by about a third, and even the median of a run's warm passes moved by
30 to 40% (IQR/median over ten runs) from one run to the next.  A run
therefore reports the median of several passes after a warm-up; the
part a user pays on every cold call (interpreter start and imports) is
timed on its own, in fresh interpreters, as ``setup_s``; and every
timing is divided by the host slowdown that a calibration walk
(:class:`Calibration`) measures just before and after its sample and,
in untraced passes, during it (:class:`Sampler`).  The
human-readable report shows the raw host-second medians and the
slowdown next to each timing.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the program to benchmark is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import layers
import spans as spans_mod
from fabric_worker import WORKER_ID
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: fresh-interpreter set-up samples per run (their median is setup_s)
SETUP_PROBES = 3
#: timed passes per side (untraced, traced) of a traced run
MIN_TRACED_PASSES = 2
#: seconds to wait for a fabric worker to exit after its sweep
WORKER_EXIT_TIMEOUT_S = 20
#: seconds the :class:`Calibration` walk takes on an uncontended core
#: of the host the benchmark was tuned on (Intel Xeon, 2.0 GHz,
#: CPython 3.11), so reported times read close to host seconds there
CALIBRATION_REF_S = 0.055
#: steps of the interpreter-bound loop (``calibrate_loop.py``)
CALIBRATION_STEPS = 60_000
#: seconds between, and steps of, the short walks :class:`Sampler`
#: interleaves with an untraced pass
SAMPLE_INTERVAL_S = 0.1
SAMPLE_STEPS = 5_000
#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


@dataclass
class Pass:
    """One timed pass: its clocks and its checked outputs."""

    wall_s: float
    cpu_s: float
    #: host slowdown during the pass (see :func:`slowdown`)
    slowdown: float
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)


def _env() -> Dict[str, str]:
    """Child environment: the checkout's ``src`` first on the path, and
    no inherited telemetry switch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p]
    )
    env.pop("REPRO_TELEMETRY", None)
    return env


def _usage() -> Tuple[float, float]:
    """(user, system) CPU seconds of this process and its reaped
    children so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + kids.ru_utime, me.ru_stime + kids.ru_stime


def _import_times(stderr: str) -> Dict[str, float]:
    """Set-up layers from ``-X importtime`` output: the scenario
    modules (what ``registry.load_builtin()`` imports, registering each
    scenario) and every other ``repro`` import."""
    top = 0.0
    experiments = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        module = name.strip()
        seconds = int(cumulative) / 1e6
        if module == "repro.experiments":
            experiments = seconds
        if module.split(".")[0] == "repro" and name == " " + module:
            top += seconds  # a top-level import: no indentation
    return {"cli.import_s": top - experiments,
            "runner.registry_load_s": experiments}


def probe_setup(import_times: bool,
                calibration: "Calibration") -> Dict[str, float]:
    """One fresh interpreter from launch to the CLI being importable.

    ``import_times`` adds ``-X importtime`` to split the import into
    layers; it slows the import, so untraced runs leave it off.
    """
    flags = ["-X", "importtime"] if import_times else []
    before = calibration.walk()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable] + flags + [str(HERE / "setup_probe.py"),
                                    str(SRC)],
        env=_env(), capture_output=True, text=True, check=True,
        timeout=60,
    )
    sample = {
        "setup_s": json.loads(done.stdout)["end"] - start,
        "slowdown": slowdown(before, calibration.walk()),
    }
    if import_times:
        sample.update(_import_times(done.stderr))
    return sample


class Calibration:
    """A ``calibrate_loop.py`` child on this run's CPU that times a
    fixed interpreter-bound walk on request.

    The host's CPU speed drifts with its other tenants' load (1.2x to
    2.4x slower than idle within a minute); the drift slows the walk
    and the program alike.  It slows the program's file writes too, and
    the walk tracks those better than timing file writes does: the
    kernel's cost of creating files jumps 3x from one pass to the next
    with no change in the program's speed.  Use as a context manager:
    leaving it stops the child and waits for it.
    """

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate_loop.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        if self.child.poll() is None:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()

    def walk(self, steps: int = CALIBRATION_STEPS) -> float:
        """The child's walk of ``steps`` steps, in seconds scaled to
        ``CALIBRATION_STEPS`` steps."""
        self.child.stdin.write(f"{steps}\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())


def slowdown(before: float, after: float,
             during: Sequence[float] = ()) -> float:
    """How much slower than the reference host a sample ran: the mean
    of the walks just before and after it and ``during`` it, over the
    reference walk."""
    return statistics.fmean([before, after, *during]) / CALIBRATION_REF_S


class Sampler:
    """Short calibration walks interleaved with a pass.

    A pass runs for seconds, and the host's speed can change within it;
    walks only before and after it missed that and left the run-to-run
    spread of mesh-sweep near 0.2.  While started, a wall-clock timer
    interrupts the program every ``SAMPLE_INTERVAL_S`` and has the
    calibration child walk ``SAMPLE_STEPS`` steps (a few milliseconds)
    while this process waits; ``spent`` is the time those
    interruptions took, which the pass's wall time leaves out.  A fabric
    worker is stopped for each walk: it runs on the same CPU and would
    otherwise read as host load.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.walks: List[float] = []
        self.spent = 0.0
        self.worker: Optional[subprocess.Popen] = None
        self.busy = False

    def _tick(self, signum, frame) -> None:
        if self.busy:  # a tick during a slow walk: skip it
            return
        self.busy = True
        start = time.perf_counter()
        # the worker is reaped only after stop(), so its pid is ours
        if self.worker is not None:
            os.kill(self.worker.pid, signal.SIGSTOP)
        try:
            self.walks.append(self.calibration.walk(SAMPLE_STEPS))
        finally:
            if self.worker is not None:
                os.kill(self.worker.pid, signal.SIGCONT)
            self.spent += time.perf_counter() - start
            self.busy = False

    def start(self, worker: Optional[subprocess.Popen]) -> None:
        self.worker = worker
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _stat(values: List[float], of: str) -> Tuple[float, str]:
    """The median, and how it was taken."""
    return _median(values), (
        f"median of {len(values)} {of} "
        f"(min {min(values):.6g}, max {max(values):.6g})"
    )


def _timed(raw: List[float], slowdowns: List[float],
           of: str) -> Tuple[float, str]:
    """Median of the ``raw`` host seconds, each divided by its sample's
    :func:`slowdown`, and how it was taken."""
    value, how = _stat([r / f for r, f in zip(raw, slowdowns)], of)
    return value, (f"{how}; raw host median {_median(raw):.6g}, "
                   f"host slowdown {_median(slowdowns):.3g}x")


class Bench:
    """One workload run: set-up, reference, passes, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path,
                 calibration: Calibration) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.calibration = calibration
        self.tracer = spans_mod.Tracer()
        self.reference: Dict[str, str] = {}
        self.reference_ok = True
        self.recorded = False
        self.paper_error_max = 0.0
        self.problems: List[str] = []
        from repro import __main__ as cli
        from repro.obs import metrics
        from repro.store import store

        self._cli = cli
        self._metrics = metrics
        self._store = store

    # -- the program ----------------------------------------------------
    def cli(self, argv: List[str]) -> int:
        """``repro.__main__.main(argv)`` with its output captured."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                return self._cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the pass, not the run
                traceback.print_exc()
                return 1
            finally:
                self.last_output = sink.getvalue()

    # -- reference --------------------------------------------------------
    def set_reference(self, out_dir: Path) -> None:
        self.reference = checks.point_digests(out_dir)
        table = json.loads((HERE / "digests.json").read_text())
        key = "*" if self.workload.name == "paper" else str(self.seed)
        recorded = table.get(self.workload.name, {}).get(key)
        if not self.reference:
            self.reference_ok = False
            self.problems.append("reference run wrote no artifacts")
        elif recorded and checks.tree_digest(self.reference) != recorded:
            self.reference_ok = False
            self.problems.append(
                f"artifacts differ from the digest recorded for "
                f"{self.workload.name} seed {key}"
            )
        self.recorded = bool(recorded)
        if self.workload.name == "paper":
            self.paper_error_max = checks.paper_error_max(out_dir)

    # -- one pass ---------------------------------------------------------
    def run_pass(self, index: int, traced: bool) -> Pass:
        pass_dir = self.work / f"pass-{index}"
        argv = self.workload.argv(self.seed, pass_dir / "out", pass_dir,
                                  self.work)
        self._store._fingerprint_cache = None  # as a fresh CLI process
        if traced:
            self.tracer.pass_id = index
            layers.install(self.tracer)
            self._metrics.enable()
            self._metrics.REGISTRY.reset()
        worker = None
        worker_spans = pass_dir / "worker-spans.jsonl"
        sampler = Sampler(self.calibration)
        before = self.calibration.walk()
        user0, system0 = _usage()
        start = time.perf_counter()
        try:
            if self.workload.fabric:
                worker = self._launch_worker(pass_dir, worker_spans,
                                             index, traced)
            if not self.trace:
                sampler.start(worker)
            if traced:
                code = self.tracer.call("pass", self.cli, (argv,), {})
            else:
                code = self.cli(argv)
            sampler.stop()
            wall = time.perf_counter() - start - sampler.spent
            worker_code = self._reap(worker)
        finally:
            sampler.stop()
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait()
            if traced:
                self.tracer.restore()
                self._metrics.disable()
        user, system = _usage()
        user, system = user - user0, system - system0
        factor = slowdown(before, self.calibration.walk(), sampler.walks)
        if not self.reference:
            self.set_reference(pass_dir / "out")
        attempted, failed = self._check(pass_dir / "out", code,
                                        worker_code)
        layer = (self._layer_metrics(index, worker_spans)
                 if traced else {})
        shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(wall, user + system, factor, attempted, failed,
                    layer)

    def _launch_worker(self, pass_dir: Path, spans_path: Path,
                       index: int, traced: bool) -> subprocess.Popen:
        fabric_dir = pass_dir / "fabric"
        fabric_dir.mkdir(parents=True)
        if traced:
            command = [sys.executable, str(HERE / "fabric_worker.py"),
                       str(SRC), str(fabric_dir), str(spans_path),
                       str(index)]
        else:
            command = [sys.executable, "-m", "repro", "worker",
                       str(fabric_dir), "--id", WORKER_ID]
        self._worker_start = time.perf_counter()
        with open(pass_dir / "worker.log", "w") as log:
            return subprocess.Popen(command, env=_env(),
                                    stdout=subprocess.DEVNULL, stderr=log)

    def _reap(self, worker: Optional[subprocess.Popen]) -> int:
        if worker is None:
            return 0
        try:
            return worker.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append("fabric worker did not exit")
            return 1

    def _check(self, out_dir: Path, code: int,
               worker_code: int) -> Tuple[int, int]:
        """(points attempted, points failed) of one pass."""
        expected = len(self.reference)
        if code not in (0, 1) or worker_code != 0:
            # the CLI or the worker broke down: nothing it wrote counts
            self.problems.append(
                f"pass exited {code}, worker {worker_code}: "
                f"{self.last_output.strip()[-300:]}"
            )
            return expected, expected
        points = checks.point_digests(out_dir)
        bad = checks.failing_points(out_dir) | checks.wrong_points(
            points, self.reference
        )
        if not self.reference_ok:
            bad |= set(points) | set(self.reference)
        return max(expected, len(points)), len(bad)

    def _layer_metrics(self, index: int,
                       worker_spans: Path) -> Dict[str, float]:
        mine = [s for s in self.tracer.spans if s[5] == index]
        pass_span = next(s for s in mine if s[1] == "pass")
        counters = layers.counters(self._metrics.REGISTRY)
        worker: List[spans_mod.Span] = []
        worker_start = 0.0
        meta_path = Path(str(worker_spans) + ".meta")
        if meta_path.exists():  # a worker that died wrote none
            worker = self.tracer.adopt(spans_mod.load(worker_spans))
            meta = json.loads(meta_path.read_text())
            worker_start = meta["ready"] - self._worker_start
            for key, value in meta["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return layers.pass_metrics(mine, pass_span, counters, worker,
                                   worker_start)

    # -- the run ----------------------------------------------------------
    def run(self) -> Dict[str, object]:
        self.setups = [probe_setup(self.trace, self.calibration)
                       for _ in range(SETUP_PROBES)]
        # untimed: lazy imports and first-touch costs land in the
        # reference run, or else in a warm-up pass that is the reference
        reference = self.workload.prepare(self.seed, self.work, self.cli)
        if reference is not None:
            self.set_reference(reference)
            self.warm_pass = None
        else:
            self.warm_pass = self.run_pass(-1, False)

        plain: List[Pass] = []
        traced: List[Pass] = []
        deadline = time.perf_counter() + self.seconds
        minimum = (MIN_TRACED_PASSES if self.trace
                   else self.workload.min_passes)
        index = 0
        while len(plain) < minimum or time.perf_counter() < deadline:
            if not self.trace:
                order = (False,)
            elif len(plain) % 2:
                order = (True, False)  # alternate who goes first, so
            else:                      # drift cancels in the overhead
                order = (False, True)
            for on in order:
                (traced if on else plain).append(
                    self.run_pass(index, on)
                )
                index += 1
        self.plain, self.traced = plain, traced
        return self.summary()

    @staticmethod
    def _pass_timing(passes: List[Pass], name: str) -> Tuple[float, str]:
        return _timed([getattr(p, name) for p in passes],
                      [p.slowdown for p in passes], "passes")

    def summary(self) -> Dict[str, object]:
        passes = self.plain + self.traced
        if self.warm_pass is not None:
            passes.append(self.warm_pass)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        if self.trace:
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            metrics = {
                name: _stat([p.layer[name] for p in self.traced], "passes")
                for name in self.traced[0].layer
            }
            for name in ("cli.import_s", "runner.registry_load_s"):
                metrics[name] = _stat([s[name] for s in self.setups],
                                      "interpreters")
            metrics["paper.error_max"] = (self.paper_error_max,
                                          "of the reference")
            metrics["trace.overhead"] = (
                self._pass_timing(self.traced, "wall_s")[0]
                / self._pass_timing(self.plain, "wall_s")[0],
                "median traced / median untraced wall_s",
            )
        else:
            units = END_TO_END
            metrics = {
                "wall_s": self._pass_timing(self.plain, "wall_s"),
                "cpu_s": self._pass_timing(self.plain, "cpu_s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0, "peak of this process"),
                "setup_s": _timed([s["setup_s"] for s in self.setups],
                                  [s["slowdown"] for s in self.setups],
                                  "interpreters"),
            }
        recorded = ("the recorded digest" if self.recorded
                    else "no recorded digest (seed not in digests.json)")
        print(f"workload {self.workload.name}, seed {self.seed}: "
              f"{len(self.plain)} untraced + {len(self.traced)} traced "
              f"timed passes; reference checked against "
              f"{recorded}")
        print(f"  failed_share {failed / attempted:.6g} "
              f"({failed} of {attempted} points attempted)")
        for problem in self.problems:
            print(f"  problem: {problem}")
        for name, (value, how) in metrics.items():
            print(f"  {name:<26} {value:>13.6g} {units[name]:<6} {how}")
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, (value, _) in metrics.items()
            },
        }


def _run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps({
        "correct": all(r and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {
            f"{name}:{metric}": value
            for name, r in results.items() if r
            for metric, value in r["metrics"].items()
        },
    }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_TELEMETRY", None)
    # one CPU for the whole run, children included: the calibration
    # then measures the CPU the work runs on (the host's CPUs are
    # contended unevenly), and a fabric worker shares it with the
    # coordinator, which mostly sleeps between polls
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Calibration() as calibration:
            bench = Bench(WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), work,
                          calibration)
            result = bench.run()
        if args.trace:
            bench.tracer.dump(
                SCRATCH / f"spans-{args.workload}.jsonl"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
