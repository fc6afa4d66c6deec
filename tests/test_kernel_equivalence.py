"""Equivalence suite: optimized cycle kernel vs frozen seed kernel.

The activity-driven kernel in ``repro.noc.network``/``switch`` and the
batched-credit ``TokenLink`` must be *decision-identical* to the seed
kernel preserved in ``repro.noc.reference`` — not approximately equal,
bit-identical.  These tests drive both kernels with identical seeded
traffic over {xy, west_first} routing x {1, 2} VCs x {uniform, hotspot,
transpose, bit-complement} patterns x mesh sizes 2-6 (plus XY on tori of
the same sizes) and compare

* the full statistics (counters and the exact packet-latency list),
* per-link sent/delivered counters and in-flight contents,
* per-switch routed/conflict counters and buffered occupancy,
* traced routes (``trace_routes=True`` on both).

The networks run a fixed cycle budget (traffic phase + settle phase)
rather than draining to empty: west-first adaptive routing with
multiple VCs can deadlock under hotspot traffic (a protocol property
the seed kernel exhibits identically — see the lockstep state
comparison, which must agree even about the deadlock), and a fixed
budget compares those states too instead of hanging.

Directed cases pin the corners where a lane's desired output changes
within one cycle (``TestSameCycleReroute``).
"""

import pytest

from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    reset_packet_ids,
    run_mesh_point,
)
from repro.noc.reference import (
    ReferenceNetwork,
    reference_mesh_point,
)
from repro.tech import st012

ROUTINGS = ("xy", "west_first")
VCS = (1, 2)
PATTERNS = ("uniform", "hotspot", "transpose", "bit_complement")
MESH_SIZES = (2, 3, 4, 5, 6)


def _link_state(network):
    """Observable per-link state: counters + in-flight flit identities."""
    return {
        key: (
            link.flits_sent,
            link.flits_delivered,
            tuple(
                (ready, flit.packet_id, flit.seq, flit.kind, flit.vc)
                for ready, flit in link._in_flight
            ),
        )
        for key, link in network.links.items()
    }


def _switch_state(network):
    return {
        node: (
            switch.flits_routed,
            switch.arbitration_conflicts,
            switch.buffered_flits,
        )
        for node, switch in network.switches.items()
    }


def _run_lockstep(cls, size, routing, n_vcs, pattern, cycles, settle,
                  rate=0.2, seed=2008, torus=False):
    reset_packet_ids()
    topology = Topology(size, size, torus=torus)
    params = derive_link_params(st012(), "I3", 300)
    network = cls(topology, params, n_vcs=n_vcs, routing=routing)
    network.trace_routes = True
    hotspot = (topology.cols // 2, topology.rows // 2)
    traffic = TrafficGenerator(
        topology,
        TrafficConfig(
            pattern=pattern,
            injection_rate=rate,
            seed=seed,
            hotspot=hotspot if pattern == "hotspot" else None,
            n_vcs=n_vcs,
        ),
    )
    network.run(cycles, traffic)
    network.run(settle, None)
    return network


def _assert_equivalent(opt, ref, context):
    assert opt.stats.summary() == ref.stats.summary(), context
    assert opt.stats.packet_latencies == ref.stats.packet_latencies, context
    assert opt.stats.flits_injected == ref.stats.flits_injected, context
    assert _link_state(opt) == _link_state(ref), context
    assert _switch_state(opt) == _switch_state(ref), context
    assert opt.routes == ref.routes, context
    assert opt.link_utilization() == ref.link_utilization(), context
    # the optimized kernel's own bookkeeping must agree with the truth
    for node, switch in opt.switches.items():
        assert switch._buffered == switch.buffered_flits, (context, node)


class TestKernelEquivalence:
    """Optimized vs seed kernel over the full configuration grid."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("n_vcs", VCS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("size", MESH_SIZES)
    def test_lockstep_grid(self, size, pattern, n_vcs, routing):
        cycles, settle = 100, 80
        opt = _run_lockstep(Network, size, routing, n_vcs, pattern,
                            cycles, settle)
        ref = _run_lockstep(ReferenceNetwork, size, routing, n_vcs,
                            pattern, cycles, settle)
        _assert_equivalent(
            opt, ref, f"{size}x{size}/{pattern}/vc{n_vcs}/{routing}"
        )


    @pytest.mark.parametrize("n_vcs", VCS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("size", MESH_SIZES)
    def test_lockstep_torus_xy(self, size, pattern, n_vcs):
        # the wrap-aware closure from compile_next_hop vs the seed's
        # next_hop over xy_route (west-first is mesh-only)
        cycles, settle = 100, 80
        opt = _run_lockstep(Network, size, "xy", n_vcs, pattern,
                            cycles, settle, torus=True)
        ref = _run_lockstep(ReferenceNetwork, size, "xy", n_vcs,
                            pattern, cycles, settle, torus=True)
        _assert_equivalent(
            opt, ref, f"torus {size}x{size}/{pattern}/vc{n_vcs}/xy"
        )


class TestSameCycleReroute:
    """Directed corners where a lane's desired output changes within
    one cycle, after an earlier output has been served.

    The optimized switch routes each lane once per cycle and re-routes
    only on these events; the seed rescans every lane per output.  Each
    test builds the corner with explicit packets on a 3x3 mesh, checks
    on the seed kernel that the corner really occurs, and then compares
    both kernels' full state after every cycle.
    """

    SWITCH = (1, 1)

    def _lockstep(self, make, schedule, cycles):
        """Step both kernels, offering ``schedule[cycle]`` packets
        before each step; return the reference network."""
        reset_packet_ids()
        opt, ref = make(Network), make(ReferenceNetwork)
        for cycle in range(cycles):
            for packet in schedule.get(cycle, ()):
                opt.offer_packet(packet)
                ref.offer_packet(packet)
            opt.step(None)
            ref.step(None)
            _assert_equivalent(opt, ref, f"cycle {cycle}")
        return ref

    @staticmethod
    def _sent_at(network, node, port, packet_id, kind):
        """Cycle the given flit was sent on a link (it must still be in
        flight)."""
        link = network.links[(node, port)]
        for ready, flit in link._in_flight:
            if flit.packet_id == packet_id and flit.kind is kind:
                return ready - link.params.latency_cycles
        raise AssertionError(f"{packet_id}/{kind} not on {node}{port}")

    def test_xy_tail_early_then_next_head_later_output(self):
        # a half-rate NORTH link makes the LOCAL lane back up, so the
        # tail of P1 (NORTH) and the head of P2 (EAST) are adjacent in
        # one FIFO; the tail's pop exposes the head, which must leave
        # on EAST in the same cycle
        from repro.link.behavioral import BehavioralLinkParams
        from repro.noc import FlitKind, Packet, Port

        fast = BehavioralLinkParams("T", 6, 1.0, 8, 10, 300.0)
        slow = BehavioralLinkParams("T", 6, 0.5, 8, 10, 300.0)
        node = self.SWITCH

        def make(cls):
            return cls(
                Topology(3, 3), fast,
                link_params_for=lambda src, port, dst: (
                    slow if (src, port) == (node, Port.NORTH) else None
                ),
            )

        p1 = Packet(src=node, dest=(1, 2), length_flits=2)
        p2 = Packet(src=node, dest=(2, 1), length_flits=2)
        ref = self._lockstep(make, {0: (p1, p2)}, cycles=6)
        tail_sent = self._sent_at(ref, node, Port.NORTH, p1.packet_id,
                                  FlitKind.TAIL)
        head_sent = self._sent_at(ref, node, Port.EAST, p2.packet_id,
                                  FlitKind.HEAD)
        assert tail_sent == head_sent == 3

    def test_west_first_loser_takes_later_output_after_send(self):
        # two heads bound north-east meet at (1,1) while its EAST link
        # holds one more flit than its NORTH link, so both want NORTH.
        # The winner's send evens the occupancies, the tie goes to EAST
        # ("E" < "N"), and the loser must leave on EAST in the same cycle
        from repro.link.behavioral import BehavioralLinkParams
        from repro.noc import FlitKind, Packet, Port

        latency = 6
        params = BehavioralLinkParams("T", latency, 1.0, 8, 10, 300.0)
        node = self.SWITCH

        def make(cls):
            return cls(Topology(3, 3), params, n_vcs=2,
                       routing="west_first")

        # B enters (1,1) from the WEST on VC 1 at cycle `latency`; A
        # occupies the EAST link from the cycle before; C arrives from
        # the LOCAL core on VC 0 together with B
        b = Packet(src=(0, 1), dest=(2, 2), length_flits=1, vc=1)
        a = Packet(src=node, dest=(2, 1), length_flits=1)
        c = Packet(src=node, dest=(2, 2), length_flits=1)
        ref = self._lockstep(
            make, {0: (b,), latency - 1: (a,), latency: (c,)},
            cycles=latency + 3,
        )
        assert self._sent_at(ref, node, Port.NORTH, b.packet_id,
                             FlitKind.HEAD_TAIL) == latency
        assert self._sent_at(ref, node, Port.EAST, c.packet_id,
                             FlitKind.HEAD_TAIL) == latency


class TestDrainedPointEquivalence:
    """Full run-and-drain equivalence through the shared entry points.

    ``run_mesh_point`` (optimized) and ``reference_mesh_point`` (seed)
    must return identical result dictionaries — this is the same path
    the mesh-design-space sweep artifacts and the committed baselines
    in ``tests/baselines/`` are produced from, so equality here is what
    keeps ``repro diff`` clean across the kernel swap.
    """

    @pytest.mark.parametrize("kind", ("I1", "I2", "I3"))
    @pytest.mark.parametrize("pattern",
                             ("uniform", "hotspot", "transpose"))
    def test_drained_equality(self, kind, pattern):
        topology = Topology(4, 4)
        params = derive_link_params(st012(), kind, 300)
        kwargs = dict(
            injection_rate=0.15, pattern=pattern, cycles=300,
            drain_max_cycles=100_000,
        )
        assert run_mesh_point(topology, params, **kwargs) \
            == reference_mesh_point(topology, params, **kwargs)

    def test_drained_equality_with_vcs_and_adaptive_routing(self):
        topology = Topology(5, 5)
        params = derive_link_params(st012(), "I3", 300)
        kwargs = dict(
            injection_rate=0.12, pattern="uniform", cycles=300,
            routing="west_first", n_vcs=2, drain_max_cycles=100_000,
        )
        assert run_mesh_point(topology, params, **kwargs) \
            == reference_mesh_point(topology, params, **kwargs)


class TestCreditAccrualEquivalence:
    """Batched lazy accrual must replay per-cycle accrual exactly."""

    @pytest.mark.parametrize("rate", (1.0, 0.9523, 0.5, 0.3, 0.07))
    def test_accrue_to_matches_begin_cycle_sequence(self, rate):
        from repro.link.behavioral import BehavioralLinkParams, TokenLink
        from repro.noc.reference import ReferenceTokenLink

        params = BehavioralLinkParams("T", 2, rate, 8, 10, 300.0)
        stepped = ReferenceTokenLink(params)
        batched = TokenLink(params)
        # interleave sends so credit leaves the clamp repeatedly
        send_at = {3, 4, 17, 18, 19, 40}
        for cycle in range(60):
            stepped.begin_cycle()
            batched.accrue_to(cycle + 1)
            if cycle in send_at:
                assert stepped.can_send() == batched.can_send(), cycle
                assert stepped.try_send("f", cycle) \
                    == batched.try_send("f", cycle), cycle
            assert stepped._rate_credit == batched._rate_credit, cycle

    def test_accrue_to_is_idempotent_and_monotonic(self):
        from repro.link.behavioral import BehavioralLinkParams, TokenLink

        params = BehavioralLinkParams("T", 1, 0.4, 8, 10, 300.0)
        link = TokenLink(params)
        link.accrue_to(10)
        credit = link._rate_credit
        link.accrue_to(10)
        link.accrue_to(5)  # going backwards is a no-op
        assert link._rate_credit == credit
        assert link._accruals == 10

    def test_long_idle_link_saturates_in_bounded_steps(self):
        from repro.link.behavioral import BehavioralLinkParams, TokenLink

        params = BehavioralLinkParams("T", 1, 0.25, 8, 10, 300.0)
        link = TokenLink(params)
        link.accrue_to(1_000_000)  # must not loop a million times
        assert link._rate_credit == 1.0 + 0.25
        assert link._accruals == 1_000_000
