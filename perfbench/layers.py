"""Layer boundaries the traced run times, and the per-layer metrics.

:func:`install` wraps the public calls into each layer of the
``repro`` package (from outside it: no span lives in the program).
:func:`pass_metrics` turns one traced pass's spans and ``repro.obs``
counters into the per-layer metrics named in ``BENCHMARK.json``.

Which end-to-end metric each layer metric should move, and on which
workload (the prediction a change to one layer states by these names;
"idle" means the layer should not move there):

=========================================  =============  ==========================================
per-layer metric                            moves          workloads
=========================================  =============  ==========================================
cli.import_s, runner.registry_load_s        setup_s        all
runner.plan_s, runner.execute_s,            wall_s         paper, mesh-sweep, campaign
runner.items                                               (in-process)
runner.lane_fill                            wall_s         campaign only
runner.artifacts_s                          wall_s         campaign, fabric-sweep;
                                                           under 1% on mesh-sweep
experiments.self_s                          wall_s         campaign
sim.run_s, sim.events_executed,             wall_s         paper; idle elsewhere
sim.events_cancelled, sim.events_per_s
noc.run_s, noc.drain_s, noc.cycles,         wall_s         mesh-sweep, a little fabric-sweep;
noc.flits_delivered,                                       idle on paper, campaign
noc.arbitration_conflicts, noc.cycles_per_s
compiled.build_s, compiled.step_s,          wall_s         campaign; idle elsewhere
compiled.circuits, compiled.settles,
compiled.lane_fill
store.put_s, store.get_s, store.gets,       wall_s         campaign (one miss and one put
store.fingerprint_s,                                       per point); a little mesh-sweep
store.journal_append_s,
store.journal_rewrite_s
obs.telemetry_append_s                      wall_s         campaign, fabric-sweep
fabric.sweep_s, fabric.worker_start_s,      wall_s, cpu_s  fabric-sweep; idle elsewhere
fabric.claims, fabric.claim_s,
fabric.claim_win_ratio, fabric.publish_s,
fabric.read_result_s, fabric.execute_s,
fabric.idle_s, fabric.useful_ratio
trace.unattributed_s, trace.overhead        (tracing)      all
=========================================  =============  ==========================================

Process rule for the fabric workload: kernel, experiment, store and
telemetry layers sum over the coordinator and its worker (the work is
the same wherever it runs); ``runner.execute_s`` counts in-process
execution only and ``fabric.execute_s`` the worker's.  A metric whose
layer did no work in a pass reads 0, ratios included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import spans as spans_mod
from spans import Span, Tracer

#: every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("runner.registry_load_s", "s", "lower"),
    ("runner.plan_s", "s", "lower"),
    ("runner.execute_s", "s", "lower"),
    ("runner.items", "count", "lower"),
    ("runner.lane_fill", "ratio", "higher"),
    ("runner.artifacts_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events_executed", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("noc.run_s", "s", "lower"),
    ("noc.drain_s", "s", "lower"),
    ("noc.cycles", "count", "lower"),
    ("noc.flits_delivered", "count", "lower"),
    ("noc.arbitration_conflicts", "count", "lower"),
    ("noc.cycles_per_s", "1/s", "higher"),
    ("compiled.build_s", "s", "lower"),
    ("compiled.step_s", "s", "lower"),
    ("compiled.circuits", "count", "lower"),
    ("compiled.settles", "count", "lower"),
    ("compiled.lane_fill", "ratio", "higher"),
    ("store.put_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.fingerprint_s", "s", "lower"),
    ("store.journal_append_s", "s", "lower"),
    ("store.journal_rewrite_s", "s", "lower"),
    ("obs.telemetry_append_s", "s", "lower"),
    ("fabric.sweep_s", "s", "lower"),
    ("fabric.worker_start_s", "s", "lower"),
    ("fabric.claims", "count", "lower"),
    ("fabric.claim_s", "s", "lower"),
    ("fabric.claim_win_ratio", "ratio", "higher"),
    ("fabric.publish_s", "s", "lower"),
    ("fabric.read_result_s", "s", "lower"),
    ("fabric.execute_s", "s", "lower"),
    ("fabric.idle_s", "s", "lower"),
    ("fabric.useful_ratio", "ratio", "higher"),
    ("paper.error_max", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: FileTransport methods traced, and the span each one opens
TRANSPORT_SPANS = {
    "try_claim": "fabric.claim",
    "publish_result": "fabric.publish",
    "read_result": "fabric.read_result",
    "renew": "fabric.transport",
    "release": "fabric.transport",
    "lease": "fabric.transport",
    "leases": "fabric.transport",
    "result_indices": "fabric.transport",
    "heartbeat": "fabric.transport",
    "alive_workers": "fabric.transport",
    "read_plan": "fabric.transport",
    "write_plan": "fabric.transport",
}


def _item_note(args, result) -> Dict[str, object]:
    """What one ``execute_item`` call executed: its points' artifact
    keys, and for a packed group the scenario's lane capacity."""
    from repro.runner import artifacts, registry

    kind, payload = args[0]
    note: Dict[str, object] = {
        "points": [
            f"{o.request.scenario_id}/{artifacts.point_slug(o)}"
            for o in result
        ],
    }
    if kind == "batch":
        note["lanes"] = registry.get(payload[0].scenario_id).batch_lanes
    return note


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; ``tracer.restore()`` undoes it."""
    from repro.compiled import backend
    from repro.fabric import coordinator
    from repro.fabric.transport import FileTransport
    from repro.noc.network import Network
    from repro.obs.telemetry import TelemetryWriter
    from repro.runner import artifacts, engine, sweep
    from repro.sim.kernel import Simulator
    from repro.store import store
    from repro.store.journal import Journal

    tracer.patch(sweep, "build_requests", "runner.plan")
    tracer.patch(engine, "plan_items", "runner.plan")
    tracer.patch(engine, "execute_item", "runner.execute", _item_note)
    tracer.patch(artifacts, "write_artifacts", "runner.artifacts")
    tracer.patch(Simulator, "run", "sim.run")
    tracer.patch(Network, "run", "noc.run")
    tracer.patch(Network, "drain", "noc.drain")
    tracer.patch(backend, "compile_component", "compiled.build")
    tracer.patch(backend.CompiledCircuit, "step", "compiled.step")
    tracer.patch(store.RunStore, "put", "store.put")
    tracer.patch(store.RunStore, "get", "store.get")
    tracer.patch(store, "code_fingerprint", "store.fingerprint")
    tracer.patch(Journal, "append", "store.journal_append")
    tracer.patch(Journal, "rewrite", "store.journal_rewrite")
    tracer.patch(TelemetryWriter, "append_point", "obs.telemetry_append")
    tracer.patch(coordinator, "run_fabric_sweep", "fabric.sweep")
    for method, name in TRANSPORT_SPANS.items():
        note = ((lambda args, result: result is not None)
                if method == "try_claim" else None)
        tracer.patch(FileTransport, method, name, note)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(
    main: Sequence[Span],
    pass_span: Span,
    counters: Dict[str, float],
    worker: Sequence[Span] = (),
    worker_start_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``main`` holds the benchmark process's spans of the pass (the
    ``pass_span`` among them), ``worker`` the fabric worker's, and
    ``counters`` the pass's ``repro.obs`` counter deltas summed over
    both processes, plus ``compiled.lanes_packed`` /
    ``compiled.lane_words`` for the compiled lane fill.
    """
    both = list(main) + list(worker)
    total = spans_mod.layer_totals(both)
    here = spans_mod.layer_totals(main)
    there = spans_mod.layer_totals(worker)
    n_main = spans_mod.counts(main)
    selfs = spans_mod.self_times(main)
    selfs.update(spans_mod.self_times(worker))

    items = [s for s in both if s[1] == "runner.execute"]
    batch_fill = [
        len(s[6]["points"]) / s[6]["lanes"]
        for s in main
        if s[1] == "runner.execute" and s[6] and "lanes" in s[6]
    ]
    worker_points: List[str] = [
        key
        for s in worker
        if s[1] == "runner.execute" and s[6]
        for key in s[6]["points"]
    ]
    gets = [s for s in both if s[1] == "store.get"]
    claims = [s for s in worker if s[1] == "fabric.claim"]

    busy = [
        (s[2], s[3]) for s in both
        if s[1].startswith("fabric.") and s[1] != "fabric.sweep"
    ] + [(s[2], s[3]) for s in worker if s[1] == "runner.execute"]
    idle = sum(
        ((s[3] - s[2]) - spans_mod.covered(busy, s[2], s[3])
         for s in main if s[1] == "fabric.sweep"),
        0.0,
    )

    sim_s = total.get("sim.run", 0.0)
    noc_s = total.get("noc.run", 0.0) + total.get("noc.drain", 0.0)
    return {
        "runner.plan_s": here.get("runner.plan", 0.0),
        "runner.execute_s": here.get("runner.execute", 0.0),
        "runner.items": n_main.get("runner.execute", 0),
        "runner.lane_fill": _ratio(sum(batch_fill), len(batch_fill)),
        "runner.artifacts_s": total.get("runner.artifacts", 0.0),
        "experiments.self_s": sum(selfs[s[0]] for s in items),
        "sim.run_s": sim_s,
        "sim.events_executed": counters.get("sim.events_executed", 0),
        "sim.events_cancelled": counters.get("sim.events_cancelled", 0),
        "sim.events_per_s": _ratio(
            counters.get("sim.events_executed", 0), sim_s
        ),
        "noc.run_s": total.get("noc.run", 0.0),
        "noc.drain_s": total.get("noc.drain", 0.0),
        "noc.cycles": counters.get("noc.cycles", 0),
        "noc.flits_delivered": counters.get("noc.flits_delivered", 0),
        "noc.arbitration_conflicts": counters.get(
            "noc.arbitration_conflicts", 0
        ),
        "noc.cycles_per_s": _ratio(counters.get("noc.cycles", 0), noc_s),
        "compiled.build_s": total.get("compiled.build", 0.0),
        "compiled.step_s": total.get("compiled.step", 0.0),
        "compiled.circuits": counters.get("compiled.circuits", 0),
        "compiled.settles": counters.get("compiled.settles", 0),
        "compiled.lane_fill": _ratio(
            counters.get("compiled.lanes_packed", 0),
            counters.get("compiled.lane_words", 0),
        ),
        "store.put_s": total.get("store.put", 0.0),
        "store.get_s": total.get("store.get", 0.0),
        "store.gets": len(gets),
        "store.fingerprint_s": total.get("store.fingerprint", 0.0),
        "store.journal_append_s": total.get("store.journal_append", 0.0),
        "store.journal_rewrite_s": total.get("store.journal_rewrite", 0.0),
        "obs.telemetry_append_s": total.get("obs.telemetry_append", 0.0),
        "fabric.sweep_s": here.get("fabric.sweep", 0.0),
        "fabric.worker_start_s": worker_start_s,
        "fabric.claims": len(claims),
        "fabric.claim_s": there.get("fabric.claim", 0.0),
        "fabric.claim_win_ratio": _ratio(
            sum(1 for s in claims if s[6]), len(claims)
        ),
        "fabric.publish_s": there.get("fabric.publish", 0.0),
        "fabric.read_result_s": here.get("fabric.read_result", 0.0),
        "fabric.execute_s": there.get("runner.execute", 0.0),
        "fabric.idle_s": idle,
        "fabric.useful_ratio": _ratio(
            len(set(worker_points)), len(worker_points)
        ),
        "trace.unattributed_s": selfs[pass_span[0]],
    }


def counters(registry) -> Dict[str, float]:
    """The registry's counters plus the compiled lane totals."""
    out: Dict[str, float] = dict(registry.counters())
    if "hist:compiled.lanes_packed" in registry.snapshot():
        packed = registry.histogram(
            "compiled.lanes_packed", (1, 4, 8, 16, 32, 64)
        )
        out["compiled.lanes_packed"] = packed.total
        out["compiled.lane_words"] = (
            packed.count * registry.gauge("compiled.lanes").value
        )
    return out
