"""The network simulator: switches + links + traffic, cycle by cycle.

A :class:`Network` instantiates one :class:`~repro.noc.switch.Switch`
per mesh node and one :class:`~repro.link.behavioral.TokenLink` per
directed inter-switch connection, all sharing the behavioural parameters
of the link implementation under study (I1 / I2 / I3).  This is the
system-level payoff of the paper: a mesh wired with 8-wire serialized
asynchronous links instead of 32-wire synchronous ones, at matching
network performance.

Each cycle:

1. links deliver matured flits into downstream input FIFOs
   (respecting FIFO space — backpressure);
2. the traffic generator injects new packets into per-node source
   queues; one flit per node per cycle may enter the LOCAL input;
3. every switch arbitrates and forwards at most one flit per output.

The cycle kernel is **activity-driven**: instead of polling every link
twice and sorting every switch each cycle (the seed kernel, preserved
verbatim in :mod:`repro.noc.reference`), :meth:`Network.step` maintains

* ``_active_links`` — links with flits in flight (delivery is a single
  integer comparison against the head flit's ready cycle);
* ``_active_switches`` — switches with buffered flits (empty switches
  are never visited; the sorted node order is hoisted to ``__init__``
  and reused whenever every switch is active);
* ``_pending_sources`` — nodes whose source queues hold flits waiting
  to enter the network (``drain`` no longer rescans every queue).

Rate credit accrues lazily, at send time: the switch calls
:meth:`~repro.link.behavioral.TokenLink.accrue_to` on a link just
before each ``try_send`` on it, and ``accrue_to`` replays the idle gap
exactly.  All of this is decision-identical to the seed kernel —
``tests/test_kernel_equivalence.py`` pins bit-identical statistics,
link counters and traced routes across routing modes, VC counts,
traffic patterns and mesh sizes; ``python -m repro bench`` measures
the resulting speedup.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..link.behavioral import BehavioralLinkParams, TokenLink
from ..obs.metrics import REGISTRY as _OBS
from .flit import Flit, Packet
from .stats import NetworkStats
from .switch import InputQueue, Switch
from .topology import (
    Coord,
    Port,
    Topology,
    compile_next_hop,
    west_first_permitted,
)
from .traffic import TrafficConfig, TrafficGenerator

#: where a link delivers: (dst switch, dst node, dst input lanes by VC)
_LinkTarget = Tuple[Switch, Coord, List[InputQueue]]


class Network:
    """A mesh NoC with uniform or per-link parameters.

    ``link_params`` sets the default for every directed link;
    ``link_params_for(src, port, dst)`` (if given) may return a
    different :class:`BehavioralLinkParams` for specific links — e.g.
    serialized asynchronous links only on the long cross-die rows, a
    GALS mesh mixing clock domains (the ``gals-mesh`` scenario), or a
    fault-injection campaign degrading chosen links (the
    ``fault-injection`` scenario).  Returning None keeps the default.
    """

    def __init__(
        self,
        topology: Topology,
        link_params: BehavioralLinkParams,
        fifo_depth: int = 4,
        link_params_for: Optional[
            Callable[[Coord, Port, Coord], Optional[BehavioralLinkParams]]
        ] = None,
        n_vcs: int = 1,
        routing: str = "xy",
    ) -> None:
        if routing not in ("xy", "west_first"):
            raise ValueError(
                f"unknown routing {routing!r}; expected 'xy' or 'west_first'"
            )
        self.topology = topology
        self.link_params = link_params
        self.n_vcs = n_vcs
        self.routing = routing
        self.stats = NetworkStats()
        self.cycle = 0

        if routing == "xy":
            # dimension-ordered; the compiled closure skips the
            # full-route construction of topology.next_hop
            route = compile_next_hop(topology)
        else:
            # west-first adaptive: among the permitted productive ports,
            # steer towards the least-occupied outgoing link
            def route(current: Coord, dest: Coord) -> Port:
                ports = west_first_permitted(current, dest, topology)
                if len(ports) == 1:
                    return ports[0]
                return min(
                    ports,
                    key=lambda p: (
                        self.links[(current, p)].occupancy,
                        p.value,  # deterministic tie-break
                    ),
                )

        self.switches: Dict[Coord, Switch] = {
            node: Switch(node, route, fifo_depth, n_vcs)
            for node in topology.nodes()
        }
        #: directed links keyed by (src_node, src_port)
        self.links: Dict[Tuple[Coord, Port], TokenLink] = {}
        self._link_dst: Dict[Tuple[Coord, Port], Tuple[Coord, Port]] = {}
        for src, port, dst in topology.links():
            key = (src, port)
            params = link_params
            if link_params_for is not None:
                override = link_params_for(src, port, dst)
                if override is not None:
                    params = override
            link = TokenLink(params, name=f"link{src}{port.value}")
            self.links[key] = link
            self._link_dst[key] = (dst, port.opposite)
            self.switches[src].attach_link(port, link)

        #: per-node source queues of flits waiting to enter the network
        self.source_queues: Dict[Coord, Deque[Flit]] = {
            node: deque() for node in topology.nodes()
        }
        self._packet_meta: Dict[int, Tuple[int, int]] = {}
        #: when True, every head flit records the switches it visits in
        #: ``self.routes[packet_id]`` (debug/observability aid)
        self.trace_routes: bool = False
        self.routes: Dict[int, list[Coord]] = {}

        # ------------------------------------------------------------------
        # activity-driven kernel state
        # ------------------------------------------------------------------
        #: arbitration order, hoisted out of the cycle loop
        self._node_order: Tuple[Coord, ...] = tuple(sorted(self.switches))
        self._n_switches = len(self.switches)
        #: nodes whose switches hold buffered flits
        self._active_switches: set = set()
        #: links with flits in flight, mapped to their precomputed
        #: delivery target (dst switch, dst node, dst input lanes by VC)
        self._active_links: Dict[TokenLink, _LinkTarget] = {}
        #: nodes with non-empty source queues
        self._pending_sources: set = set()
        # per-switch (link, delivery-target) tuples so phase 3 can
        # (re)activate links without dict lookups
        self._switch_links: Dict[
            Coord, Tuple[Tuple[TokenLink, _LinkTarget], ...]
        ] = {}
        for node, switch in self.switches.items():
            entries = []
            for port, link in switch.out_links.items():
                dst, dport = self._link_dst[(node, port)]
                dst_switch = self.switches[dst]
                entries.append(
                    (link, (dst_switch, dst, dst_switch.inputs[dport]))
                )
            self._switch_links[node] = tuple(entries)
        #: per-node injection target: (source queue, switch, LOCAL lanes)
        self._sources: Dict[
            Coord, Tuple[Deque[Flit], Switch, List[InputQueue]]
        ] = {
            node: (self.source_queues[node], switch,
                   switch.inputs[Port.LOCAL])
            for node, switch in self.switches.items()
        }

    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet for injection at its source node."""
        if packet.src not in self.source_queues:
            raise ValueError(f"unknown source node {packet.src}")
        if not 0 <= packet.vc < self.n_vcs:
            raise ValueError(
                f"packet {packet.packet_id} carries VC {packet.vc} but the "
                f"network has {self.n_vcs} VC(s)"
            )
        self._packet_meta[packet.packet_id] = (
            packet.length_flits,
            packet.created_cycle,
        )
        self.source_queues[packet.src].extend(packet.flits())
        self._pending_sources.add(packet.src)

    # ------------------------------------------------------------------
    def step(self, traffic: Optional[TrafficGenerator] = None) -> None:
        """Advance the network by one clock cycle."""
        now = self.cycle
        active_switches = self._active_switches

        # 1. link transport — only links with flits in flight; delivery
        # of a matured head flit is one integer comparison
        active_links = self._active_links
        if active_links:
            for link in list(active_links):
                in_flight = link._in_flight
                ready, flit = in_flight[0]
                if ready > now:
                    continue
                switch, dst_node, lanes = active_links[link]
                queue = lanes[flit.vc]
                if len(queue.fifo) >= queue.depth:
                    continue  # backpressure: retry next cycle
                del in_flight[0]
                link.flits_delivered += 1
                queue.fifo.append(flit)
                switch._buffered += 1
                active_switches.add(dst_node)
                if not in_flight:
                    del active_links[link]

        # 2. traffic injection — only nodes with queued flits
        if traffic is not None:
            for packet in traffic.packets_for_cycle(now):
                self.offer_packet(packet)
        pending = self._pending_sources
        if pending:
            stats = self.stats
            packet_meta = self._packet_meta
            sources = self._sources
            for node in list(pending):
                queue, switch, lanes = sources[node]
                flit = queue[0]
                lane = lanes[flit.vc]
                if len(lane.fifo) < lane.depth:
                    queue.popleft()
                    length, created = packet_meta[flit.packet_id]
                    stats.record_injection(flit, now, length, created)
                    lane.fifo.append(flit)
                    switch._buffered += 1
                    active_switches.add(node)
                    if not queue:
                        pending.discard(node)

        # 3. switching — only switches with buffered flits, in the same
        # sorted node order the seed kernel used (hoisted to __init__)
        if active_switches:
            if len(active_switches) == self._n_switches:
                order: Iterable[Coord] = self._node_order
            else:
                order = sorted(active_switches)
            switches = self.switches
            switch_links = self._switch_links
            eject = self._eject
            trace = self.trace_routes
            for node in order:
                switch = switches[node]
                if trace:
                    self._record_heads(node, switch)
                if switch.arbitrate_and_send(now, eject):
                    for link, info in switch_links[node]:
                        if link._in_flight:
                            active_links[link] = info
                if switch._buffered == 0:
                    active_switches.discard(node)

        self.cycle = now + 1
        self.stats.cycles = self.cycle

    def _eject(self, flit: Flit) -> None:
        self.stats.record_ejection(flit, self.cycle)

    def _record_heads(self, node: Coord, switch: Switch) -> None:
        """Append ``node`` to the route of every head flit waiting here."""
        for queues in switch.inputs.values():
            for queue in queues:
                if queue.empty:
                    continue
                flit = queue.head()
                if not flit.kind.opens_route:
                    continue
                route = self.routes.setdefault(flit.packet_id, [])
                if not route or route[-1] != node:
                    route.append(node)

    # ------------------------------------------------------------------
    def run(
        self,
        cycles: int,
        traffic: Optional[TrafficGenerator] = None,
    ) -> NetworkStats:
        """Run ``cycles`` cycles of simulation."""
        obs_base = self._obs_totals() if _OBS.enabled else None
        for _ in range(cycles):
            self.step(traffic)
        if obs_base is not None and _OBS.enabled:
            self._obs_publish(obs_base, cycles)
        return self.stats

    def drain(self, max_cycles: int = 100_000) -> NetworkStats:
        """Run without new traffic until every in-flight flit ejects.

        The loop condition reuses the pending-source set instead of
        rescanning every source queue with ``any(...)`` each cycle.
        """
        obs_base = self._obs_totals() if _OBS.enabled else None
        waited = 0
        stats = self.stats
        while stats.in_flight_flits > 0 or self._pending_sources:
            self.step(None)
            waited += 1
            if waited > max_cycles:
                raise TimeoutError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({stats.in_flight_flits} flits stuck)"
                )
        if obs_base is not None and _OBS.enabled:
            self._obs_publish(obs_base, waited)
        return stats

    # ------------------------------------------------------------------
    # observability: plain-int counters summed at the coarse run/drain
    # boundaries only — the cycle loop never touches the registry.
    # Credit accrues at send time, so ``noc.credit_accruals`` counts the
    # per-cycle credit steps replayed for the links up to their latest
    # send attempt (idle cycles since a link's previous attempt are
    # replayed then, in one batch), and ``noc.accrual_batches`` counts
    # the send attempts that found the link behind — at most one per
    # link per cycle.  A link never attempted accrues nothing.
    # ------------------------------------------------------------------
    _OBS_COUNTERS = (
        "noc.arbitration_fast",
        "noc.arbitration_conflicts",
        "noc.flits_routed",
        "noc.credit_accruals",
        "noc.accrual_batches",
        "noc.flits_delivered",
    )

    def _obs_totals(self) -> Tuple[int, ...]:
        """Current sums of the kernel's plain-int counters, in
        :data:`_OBS_COUNTERS` order."""
        arb_fast = arb_conflicts = routed = 0
        for switch in self.switches.values():
            arb_fast += switch.arbitration_fast
            arb_conflicts += switch.arbitration_conflicts
            routed += switch.flits_routed
        accruals = batches = delivered = 0
        for link in self.links.values():
            accruals += link._accruals
            batches += link._accrual_batches
            delivered += link.flits_delivered
        return (arb_fast, arb_conflicts, routed, accruals, batches,
                delivered)

    def _obs_publish(self, base: Tuple[int, ...], cycles: int) -> None:
        """Hand this run's counter deltas and activity levels to the
        registry in one bulk update."""
        for name, before, after in zip(
            self._OBS_COUNTERS, base, self._obs_totals()
        ):
            _OBS.counter(name).inc(after - before)
        _OBS.counter("noc.cycles").inc(cycles)
        for name, value in self.active_component_counts.items():
            _OBS.gauge(f"noc.{name}").set(value)

    # ------------------------------------------------------------------
    @property
    def total_wires(self) -> int:
        """Physical wires across all inter-switch links (cost metric)."""
        return sum(link.params.wire_count for link in self.links.values())

    @property
    def active_component_counts(self) -> Dict[str, int]:
        """Live sizes of the kernel's activity sets (observability)."""
        return {
            "links_in_flight": len(self._active_links),
            "switches_buffered": len(self._active_switches),
            "sources_pending": len(self._pending_sources),
        }

    def link_utilization(self) -> Dict[Tuple[Coord, Port], float]:
        """Flits carried per cycle for every directed link (load map).

        One pass over the link table; ``flits_delivered`` is maintained
        incrementally by the active-link delivery fast path, so this is
        a pure read — no per-link polling.  (Division stays per-link:
        multiplying by a hoisted reciprocal changes the last ulp and
        would break bit-identity with the seed kernel.)
        """
        cycles = self.cycle
        if cycles == 0:
            return {key: 0.0 for key in self.links}
        return {
            key: link.flits_delivered / cycles
            for key, link in self.links.items()
        }


def run_mesh_point(
    topology: Topology,
    link_params: BehavioralLinkParams,
    injection_rate: float,
    pattern: str = "uniform",
    packet_length: int = 4,
    cycles: int = 2000,
    seed: int = 2008,
    drain_max_cycles: int = 300_000,
    fifo_depth: int = 4,
    routing: str = "xy",
    hotspot: Optional[Coord] = None,
    hotspot_fraction: float = 0.5,
    n_vcs: int = 1,
    link_params_for: Optional[
        Callable[[Coord, Port, Coord], Optional[BehavioralLinkParams]]
    ] = None,
) -> Dict[str, float]:
    """One fully-drained traffic run at a single operating point.

    The common mesh/link setup that the examples, the design-space
    benches and the ``mesh-design-space`` scenario all share: build a
    fresh :class:`Network`, drive seeded synthetic traffic for
    ``cycles`` cycles, drain every in-flight flit, and report the
    steady metrics.  Packet ids are reset first so repeated calls are
    bit-for-bit reproducible within one process.  ``n_vcs`` and
    ``link_params_for`` thread through to :class:`Network` (and the
    traffic generator) so the VC, GALS and fault-injection scenarios
    can reuse this entry point.
    """
    from .flit import reset_packet_ids

    reset_packet_ids()
    if pattern == "hotspot" and hotspot is None:
        # centre of the mesh: the worst-case convergence point
        hotspot = (topology.cols // 2, topology.rows // 2)
    network = Network(
        topology, link_params, fifo_depth=fifo_depth, routing=routing,
        n_vcs=n_vcs, link_params_for=link_params_for,
    )
    traffic = TrafficGenerator(
        topology,
        TrafficConfig(
            pattern=pattern,
            injection_rate=injection_rate,
            packet_length=packet_length,
            seed=seed,
            hotspot=hotspot,
            hotspot_fraction=hotspot_fraction,
            n_vcs=n_vcs,
        ),
    )
    network.run(cycles, traffic)
    network.drain(max_cycles=drain_max_cycles)
    stats = network.stats
    return {
        "offered_rate": injection_rate,
        "throughput": stats.throughput_flits_per_node_cycle(
            topology.n_nodes
        ),
        "mean_latency": stats.mean_packet_latency,
        "p99_latency": stats.p99_packet_latency,
        "flits_injected": stats.flits_injected,
        "flits_ejected": stats.flits_ejected,
        "packets_ejected": stats.packets_ejected,
        "total_wires": network.total_wires,
    }


def latency_vs_load(
    topology: Topology,
    link_params: BehavioralLinkParams,
    injection_rates: Iterable[float],
    pattern: str = "uniform",
    packet_length: int = 4,
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    seed: int = 2008,
) -> list[dict[str, float]]:
    """Mean packet latency and accepted throughput per offered load.

    The standard NoC load-latency sweep; the mesh example and the
    design-space benches build on it.
    """
    results = []
    for rate in injection_rates:
        network = Network(topology, link_params)
        config = TrafficConfig(
            pattern=pattern,
            injection_rate=rate,
            packet_length=packet_length,
            seed=seed,
        )
        traffic = TrafficGenerator(topology, config)
        network.run(warmup_cycles + measure_cycles, traffic)
        stats = network.stats
        results.append(
            {
                "offered_rate": rate,
                "throughput": stats.throughput_flits_per_node_cycle(
                    topology.n_nodes
                ),
                "mean_latency": stats.mean_packet_latency,
                "p99_latency": stats.p99_packet_latency,
                "packets": float(stats.packets_ejected),
            }
        )
    return results
