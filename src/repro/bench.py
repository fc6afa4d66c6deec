"""Kernel benchmark harness behind ``python -m repro bench``.

Every timed workload is one row of :data:`WORKLOADS`; its ``build``
returns a :class:`Trial` with an optimized and a reference side and a
cross-check of their answers.  One harness times every row: best-of-N
wall per side, ``speedup = lanes * reference_wall / optimized_wall``
(``lanes`` > 1 only on the compiled fault batch: aggregate lanes/sec),
``stats_match`` from the cross-check, and counter deltas from one extra
*untimed* replay.  ``--check`` gates each speedup against a committed
baseline (a ratio of two kernels timed in one process is stable across
machines; raw throughput is not) and holds rows to their floor.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence
from typing import Tuple

from .obs import metrics as obs_metrics

#: bench JSON schema (2: gate, 3: compiled, 4: sweep suite added)
SCHEMA = 4

#: one side of a trial, a generator: untimed set-up up to a bare
#: ``yield``, the timed run up to a ``yield`` of the run's artifact,
#: then untimed teardown
Setup = Callable[[], Iterator[Any]]


@dataclass(frozen=True)
class Trial:
    """A sized workload (what ``Workload.build`` returns): ``check``
    compares the two sides' artifacts, ``work`` is an artifact's rate
    numerator and ``extra`` the suite's own record fields."""

    optimized: Setup
    reference: Setup
    check: Callable[[Any, Any], bool]
    work: Callable[[Any], float]
    extra: Callable[[Any], Dict[str, object]]
    lanes: int = 1


@dataclass(frozen=True)
class Workload:
    """One row of the bench table: ``size`` is the default size in the
    row's own unit (cycles, flits, tokens, ns, vectors, toggles, grid
    points), recorded as ``cycles``; ``fields`` name the record's
    (optimized rate, reference rate, optimized wall, reference wall),
    ``None`` leaving one out; ``floor`` is the speedup ``--check``
    demands."""

    suite: str
    name: str
    size: int
    unit: str
    fields: Tuple[Optional[str], ...]
    build: Callable[[int], Trial] = field(compare=False)
    floor: Optional[float] = None
    min_size: int = 1  # the smallest size ``--scale`` may shrink it to

    def key(self, size: int) -> str:
        """Stable identity used to match points across bench runs (noc
        keys predate sized keys: they name the mesh configuration)."""
        if self.suite == "noc":
            return self.name
        return f"{self.suite}/{self.name}@{size}"

    def scaled(self, scale: float) -> int:
        return max(self.min_size, round(self.size * scale))


# -- noc: cycle kernel vs the seed kernel --------------------------------
#: default (mesh_size, injection_rate): nominal, low load, saturation
NOC_POINTS: Sequence[Tuple[int, float]] = ((4, 0.10), (8, 0.02), (8, 0.35))


def _noc_trial(config: Dict[str, object], cycles: int) -> Trial:
    from .link.behavioral import derive_link_params
    from .noc import (Network, Topology, TrafficConfig, TrafficGenerator,
                      reset_packet_ids)
    from .noc.reference import ReferenceNetwork
    from .tech import st012

    def setup(network_cls):
        reset_packet_ids()
        topology = Topology(config["mesh_size"], config["mesh_size"])
        params = derive_link_params(st012(), config["kind"], 300.0)
        network = network_cls(topology, params, n_vcs=config["n_vcs"],
                              routing=config["routing"])
        hotspot = ((topology.cols // 2, topology.rows // 2)
                   if config["pattern"] == "hotspot" else None)
        traffic = TrafficGenerator(topology, TrafficConfig(
            pattern=config["pattern"],
            injection_rate=config["injection_rate"],
            seed=2008, hotspot=hotspot, n_vcs=config["n_vcs"],
        ))
        yield
        network.run(cycles, traffic)
        yield network

    return Trial(
        optimized=partial(setup, Network),
        reference=partial(setup, ReferenceNetwork),
        check=lambda opt, ref: (
            opt.stats.summary() == ref.stats.summary()
            and opt.stats.packet_latencies == ref.stats.packet_latencies),
        work=lambda _network: cycles,
        extra=lambda network: {
            **config,
            "flits_ejected": network.stats.flits_ejected,
            "active_counts_final": dict(network.active_component_counts),
        },
    )


def noc_workload(mesh_size: int, injection_rate: float,
                 pattern: str = "uniform", routing: str = "xy",
                 n_vcs: int = 1, kind: str = "I3") -> Workload:
    """A noc row for one mesh configuration (sized in cycles)."""
    config = dict(mesh_size=mesh_size, injection_rate=injection_rate,
                  pattern=pattern, routing=routing, n_vcs=n_vcs, kind=kind)
    name = (f"{mesh_size}x{mesh_size}@{injection_rate:g}/{pattern}"
            f"/{routing}/vc{n_vcs}/{kind}")
    return Workload("noc", name, 1500, "cycles/sec",
                    ("optimized_cps", "reference_cps"),
                    partial(_noc_trial, config))


# -- gate: event kernel vs the seed kernel ------------------------------
# Each workload is a Setup over one kernel ``stack``; its artifact is
# ``(sim, fingerprint thunk)``, which must agree across the kernels.
def _gate_serializer(kind: str, stack, n_flits: int):
    """Serializer-link testbench; the fingerprint pins delivery."""
    from .link import LinkConfig, LinkTestbench, build_i2, build_i3
    from .tech import st012

    sim = stack.Simulator()
    clock = stack.Clock.from_mhz(sim, 300)
    builder = build_i3 if kind == "I3" else build_i2
    link = builder(sim, clock.signal, LinkConfig(), st012())
    bench = LinkTestbench(sim, clock, link)
    flits = [(0xA5A5A5A5, 0x5A5A5A5A)[i % 2] for i in range(n_flits)]
    yield
    measurement = bench.run(flits)
    yield sim, lambda: (
        link.flits_accepted(), link.flits_delivered(),
        tuple(measurement.received_values),
        tuple(measurement.delivery_times_ps),
        tuple((group, link.monitor.transitions(group))
              for group in sorted(link.monitor.groups)),
    )


def _gate_fourphase(stack, n_tokens: int):
    """Four-phase wire-buffer-chain token pump."""
    from .link.wiring import AsyncWireBufferChain, wire
    from .sim.process import Delay, WaitValue
    from .tech import st012

    tech = st012()
    t_p = tech.handshake.t_p_per_segment
    sim = stack.Simulator()
    data_in = sim.bus(8, "din")
    req_in = sim.signal("req")
    chain = AsyncWireBufferChain(
        sim, data_in, req_in, 4, t_p_ps=t_p, delays=tech.gates,
        ctl_delay_ps=tech.handshake.t_wire_buffer_ctl, name="chain",
    )
    ack_back = sim.signal("ackback")
    wire(chain.ack_out, ack_back, t_p)
    received: List[int] = []

    def source():
        for i in range(n_tokens):
            data_in.set((0xA5 + i * 31) & 0xFF)
            yield Delay(tech.gates.mux2)
            req_in.set(1)
            yield WaitValue(ack_back, 1)
            req_in.set(0)
            yield WaitValue(ack_back, 0)

    def sink():
        for _ in range(n_tokens):
            yield WaitValue(chain.req_out, 1)
            received.append(chain.data_out.value)
            yield Delay(40)
            chain.ack_in.set(1)
            yield WaitValue(chain.req_out, 0)
            chain.ack_in.set(0)

    yield
    stack.spawn(sim, source(), "src")
    stack.spawn(sim, sink(), "snk")
    sim.run(max_events=50_000_000)
    yield sim, lambda: (tuple(received), sim.now,
                        chain.data_out.transitions, chain.req_out.transitions)


def _ring(sim):
    """A five-stage gated ring oscillator: pure kernel churn."""
    from .elements.ringosc import RingOscillator

    enable = sim.signal("en")
    return enable, RingOscillator(sim, enable, stages=5)


def _gate_ringosc(stack, duration_ns: int):
    sim = stack.Simulator()
    enable, osc = _ring(sim)
    enable.set(1)
    yield
    sim.run(until=duration_ns * 1000)
    yield sim, lambda: (osc.out.transitions, osc.out.value, sim.now)


def _gate_trial(workload, size: int) -> Trial:
    import repro.sim as optimized_stack
    from .sim import reference as reference_stack

    return Trial(
        optimized=partial(workload, optimized_stack, size),
        reference=partial(workload, reference_stack, size),
        check=lambda opt, ref: opt[1]() == ref[1](),
        work=lambda artifact: artifact[0].events_executed,
        extra=lambda artifact: {
            "events_executed": artifact[0].events_executed,
            "events_cancelled": artifact[0].events_cancelled,
        },
    )


# -- compiled: bit-parallel backend vs one lane on the event kernel -----
def _fault_batch_trial(vectors: int) -> Trial:
    """64-lane fault-injection batch on the compilable i3 bench vs
    lane 0's projection of its stimulus on the event kernel."""
    from .compiled import (LANES, MASK, StepOracle, build_bench,
                           compile_component, lane_phases, stimulus_phases)
    from .sim import Simulator

    # 16 seeds x (1 golden + 3 stuck-net lanes) fill the 64-bit word
    n_seeds, group = 16, 4
    seeds = [s for s in range(1, n_seeds + 1) for _ in range(group)]
    phases = stimulus_phases("i3", seeds, vectors, 32)

    def optimized():
        bench = build_bench(Simulator(), "i3", 32)
        sites = bench.fault_sites
        circuit = compile_component(bench.root, forceable=sites)
        for r in range(n_seeds):
            for j in range(1, group):
                circuit.force(sites[(r + j) % len(sites)], (j % 2) * MASK,
                              lanes=1 << (r * group + j))
        yield
        for phase in phases:
            circuit.step(phase)
        yield circuit

    def reference():
        sim = Simulator()
        oracle = StepOracle(sim, build_bench(sim, "i3", 32).root)
        lane0 = lane_phases(phases, 0)
        yield
        for phase in lane0:
            oracle.step(phase)
        yield oracle

    def check(circuit, oracle) -> bool:
        counts, ocounts = circuit.counts(), oracle.counts()
        return (circuit.lane_values(0) == oracle.values()
                and counts["rising0"] == ocounts["rising"]
                and counts["falling0"] == ocounts["falling"])

    return Trial(optimized, reference, check,
                 work=lambda _circuit: LANES * len(phases),
                 extra=lambda _circuit: {"lanes": LANES}, lanes=LANES)


def _compiled_ringosc_trial(toggles: int) -> Trial:
    """Single-lane ring oscillator, the compiled backend's worst case:
    no batch to amortize over, so the ratio prices raw per-step cost."""
    from .compiled import MASK, compile_component
    from .sim import Simulator

    def optimized():
        enable, osc = _ring(Simulator())
        circuit = compile_component(osc)
        circuit.poke(enable, MASK)
        circuit.settle()
        yield
        circuit.tick(toggles)
        yield circuit, osc

    def reference():
        sim = Simulator()
        enable, osc = _ring(sim)
        enable.set(1)
        yield
        sim.run(until=toggles * osc.half_period + 1)
        yield enable, osc

    def check(compiled, ref) -> bool:
        (circuit, cosc), (enable, rosc) = compiled, ref
        counts = circuit.counts()
        return (circuit.lane(cosc.out, 0) == rosc.out.value
                and counts["rising0"] == enable.rising + rosc.out.rising
                and counts["falling0"] == enable.falling + rosc.out.falling)

    # one meaningful lane: the other 63 compute the same ring
    return Trial(optimized, reference, check,
                 work=lambda _artifact: toggles,
                 extra=lambda _artifact: {"lanes": 1})


# -- sweep: fabric scheduling overhead vs the bare engine ---------------
def _sweep_trial(points: int) -> Trial:
    """``points`` no-op grid points through the fabric and the engine.
    One fabric worker runs as an in-process thread; the clock covers its
    start through the coordinator seeing the last published result."""
    import tempfile
    import threading

    from .fabric import FileTransport, run_fabric_sweep, run_worker
    from .runner import engine, registry
    from .store import codec

    def canonical(outcomes) -> List[str]:
        return [json.dumps(codec.strip_volatile(codec.outcome_to_record(o)),
                           sort_keys=True) for o in outcomes]

    registry.load_builtin()
    requests = [engine.RunRequest.create("sweep-noop", {"point": i})
                for i in range(points)]

    def fabric():
        with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as td:
            transport = FileTransport(td)
            worker = threading.Thread(daemon=True, target=partial(
                run_worker, fabric=transport, worker_id="bench-w0",
                lease_ttl=10.0, poll_s=0.01, plan_timeout=30.0))
            yield
            worker.start()
            yield run_fabric_sweep(
                transport, "sweep-noop", requests, workers=0,
                lease_ttl=10.0, poll_s=0.002, timeout=300.0,
            ).outcomes
            worker.join(timeout=10.0)

    def bare_engine():
        yield
        yield engine.execute(requests, jobs=1)

    return Trial(
        fabric, bare_engine,
        check=lambda fab, eng: canonical(fab) == canonical(eng),
        work=lambda _outcomes: points,
        extra=lambda _outcomes: {"workers": 1},
    )


# -- the table -----------------------------------------------------------
def _gate(name: str, size: int, workload) -> Workload:
    return Workload("gate", name, size, "events/sec",
                    ("optimized_eps", "reference_eps"),
                    partial(_gate_trial, workload), min_size=4)


_COMPILED = ("lane-steps/sec",
             ("compiled_lps", None, "compiled_wall_s", "reference_wall_s"))

#: every default bench point, in run order.  Floors: the fault batch
#: must reach 4x the event kernel's aggregate lanes/sec, a single lane
#: must not lose to it, the fabric must keep 0.2% of engine throughput
WORKLOADS: Tuple[Workload, ...] = (
    *(noc_workload(mesh, rate) for mesh, rate in NOC_POINTS),
    _gate("serializer-i3", 24, partial(_gate_serializer, "I3")),
    _gate("serializer-i2", 16, partial(_gate_serializer, "I2")),
    _gate("fourphase-chain", 40, _gate_fourphase),
    _gate("ringosc", 40_000, _gate_ringosc),
    Workload("compiled", "fault-batch", 12, *_COMPILED,
             _fault_batch_trial, floor=4.0, min_size=2),
    Workload("compiled", "ringosc", 20_000, *_COMPILED,
             _compiled_ringosc_trial, floor=1.0, min_size=2),
    Workload("sweep", "noop", 64, "points/sec",
             ("fabric_pps", "engine_pps", "fabric_wall_s", "engine_wall_s"),
             _sweep_trial, floor=0.002, min_size=8),
)


def find(suite: str, name: str) -> Workload:
    """The table row named ``name`` in ``suite``."""
    for row in WORKLOADS:
        if row.suite == suite and row.name == name:
            return row
    raise ValueError(f"unknown {suite} workload {name!r}")


# -- the harness ---------------------------------------------------------
def _once(setup: Setup, profiler: Optional[cProfile.Profile] = None
          ) -> Tuple[float, Any]:
    """Run one side once; return its timed wall seconds and artifact."""
    steps = setup()
    next(steps)
    with profiler or contextlib.nullcontext():
        t0 = time.perf_counter()
        artifact = next(steps)
        wall = time.perf_counter() - t0
    next(steps, None)
    return wall, artifact


def _best_of(setup: Setup, repeats: int) -> Tuple[float, Any]:
    return min((_once(setup) for _ in range(repeats)), key=lambda r: r[0])


def _counter_deltas(trial: Trial) -> Dict[str, int]:
    """Counter deltas of one extra, *untimed*, instrumented optimized run."""
    with obs_metrics.collecting(reset=True) as reg:
        for _step in trial.optimized():
            pass
        snapshot = reg.snapshot()
    return {key.split(":", 1)[1]: value for key, value in snapshot.items()
            if key.startswith("counter:")}


def _measure(row: Workload, size: int, reference: bool,
             repeats: int) -> Tuple[float, Dict[str, object]]:
    """Time one point; return its optimized wall and its record."""
    trial = row.build(size)
    opt_wall, opt = _best_of(trial.optimized, repeats)
    ref_wall = ref = speedup = stats_match = None
    if reference:
        ref_wall, ref = _best_of(trial.reference, repeats)
        stats_match = trial.check(opt, ref)
        if opt_wall and ref_wall:
            speedup = round(trial.lanes * ref_wall / opt_wall, 3)
    record: Dict[str, object] = {
        "suite": row.suite, "key": row.key(size), "cycles": size,
    }
    if row.suite != "noc":
        record["workload"] = row.name
    values = (trial.work(opt) / opt_wall if opt_wall else 0.0,
              trial.work(ref) / ref_wall if ref_wall else None,
              opt_wall, ref_wall)
    for name, value, digits in zip(row.fields, values, (1, 1, 6, 6)):
        if name is not None:
            record[name] = None if value is None else round(value, digits)
    record.update(trial.extra(opt), speedup=speedup, stats_match=stats_match)
    return opt_wall, record


def run_bench(points: Sequence[Tuple[Workload, int]], reference: bool = True,
              repeats: int = 3,
              progress: Callable[[str], None] = lambda _line: None,
              collect_metrics: bool = True,
              profile_slowest: bool = False) -> Dict[str, object]:
    """Time every ``(row, size)`` point; return the bench document.
    ``progress`` gets a line per point, and with ``profile_slowest`` a
    cProfile of each suite's slowest optimized run; ``collect_metrics``
    adds counter deltas as each record's ``metrics``."""
    records = []
    slowest: Dict[str, Tuple[float, Workload, int]] = {}
    for row, size in points:
        opt_wall, record = _measure(row, size, reference, repeats)
        speedup = record["speedup"]
        speed = (f"{speedup:.3g}x vs reference" if speedup is not None
                 else "reference skipped")
        match = {True: ", stats identical",
                 False: ", STATS DIVERGED"}.get(record["stats_match"], "")
        progress(f"{record['key']}: {record[row.fields[0]]:,.0f} "
                 f"{row.unit} ({speed}{match})")
        if collect_metrics:
            record["metrics"] = _counter_deltas(row.build(size))
        records.append(record)
        if opt_wall > slowest.get(row.suite, (-1.0,))[0]:
            slowest[row.suite] = (opt_wall, row, size)
    for _wall, row, size in slowest.values() if profile_slowest else ():
        profiler = cProfile.Profile()
        _once(row.build(size).optimized, profiler)
        table = io.StringIO()
        pstats.Stats(profiler, stream=table).sort_stats(
            "cumulative").print_stats(15)
        progress(f"\ncProfile of the optimized kernel ({row.key(size)}):\n"
                 f"{table.getvalue()}")
    return {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "repeats": repeats,
        "suites": list(slowest),
        "points": records,
    }


def check_floors(points: Sequence[Tuple[Workload, int]],
                 document: Dict[str, object]) -> List[str]:
    """Points whose speedup is missing or below their row's floor."""
    floors = {row.key(size): row.floor for row, size in points
              if row.floor is not None}
    problems: List[str] = []
    for record in document["points"]:
        floor, speedup = floors.get(record["key"]), record.get("speedup")
        if floor is None:
            continue
        if speedup is None:
            problems.append(f"{record['key']}: no speedup recorded "
                            f"(ran with --no-reference?)")
        elif speedup < floor:
            problems.append(f"{record['key']}: speedup {speedup:.3g}x "
                            f"below its {floor:g}x floor")
    return problems


def check_against_baseline(current: Dict[str, object],
                           baseline: Dict[str, object],
                           tolerance: float = 0.30) -> List[str]:
    """Problems comparing ``current`` to a committed baseline: speedups
    more than ``tolerance`` (relative) below the baseline's, missing
    points or speedups, diverged stats, size mismatches, and another
    CPython major.minor (ratios are only stable within one).  Suites
    ``current`` did not run are skipped; suite-less points are noc."""
    problems: List[str] = []
    # a pre-suite document: infer its suites from the recorded points
    current_suites = set(current.get("suites") or (
        p.get("suite", "noc") for p in current.get("points", [])))
    cur_python, base_python = (
        ".".join(str(doc.get("python") or "").split(".")[:2])
        for doc in (current, baseline))
    if base_python and cur_python and base_python != cur_python:
        problems.append(
            f"interpreter mismatch: bench ran on Python {cur_python} but "
            f"the baseline was recorded on {base_python} — kernel speedup "
            f"ratios are only comparable on the same interpreter; "
            f"regenerate the baseline")
    current_by_key = {p["key"]: p for p in current.get("points", [])}
    for base_point in baseline.get("points", []):
        key, base_speedup = base_point["key"], base_point.get("speedup")
        suite = base_point.get("suite", "noc")
        if suite not in current_suites or base_speedup is None:
            continue
        point = current_by_key.get(key)
        if point is None:
            problems.append(f"{key}: missing from current bench run")
            continue
        base_cycles, cycles = base_point.get("cycles"), point.get("cycles")
        if None not in (base_cycles, cycles) and base_cycles != cycles:
            # noc points are sized by --cycles, the other suites by
            # --scale: point the user at the right knob
            flag = "--cycles" if suite == "noc" else "--scale"
            unit = {"noc": "cycles", "sweep": "grid points"}.get(
                suite, "workload units")
            problems.append(
                f"{key}: measured over {cycles} {unit} but the baseline "
                f"used {base_cycles} — rerun with matching {flag} (the "
                f"committed baseline uses --fast) or regenerate it")
            continue
        if point.get("stats_match") is False:
            problems.append(
                f"{key}: optimized kernel diverged from reference stats")
        speedup = point.get("speedup")
        if speedup is None:
            problems.append(f"{key}: no speedup recorded (ran without "
                            f"--reference?)")
            continue
        floor = base_speedup * (1.0 - tolerance)
        if speedup < floor:
            problems.append(
                f"{key}: speedup {speedup:.2f}x fell below {floor:.2f}x "
                f"(baseline {base_speedup:.2f}x - {tolerance:.0%} tolerance)")
    return problems


def load_baseline(path: str) -> Dict[str, object]:
    """Read a committed bench document of any schema up to ours (a
    newer one is refused: gating fields this code does not understand
    would make the check vacuous)."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = document.get("schema")
    if isinstance(schema, int) and schema > SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {schema}, newer than the "
            f"supported schema {SCHEMA}; update the code or regenerate "
            f"the baseline")
    return document


def write_json(document: Dict[str, object], path: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
