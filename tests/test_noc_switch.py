"""Unit tests for the wormhole switch."""

import pytest

from repro.link.behavioral import BehavioralLinkParams, TokenLink
from repro.noc import Flit, FlitKind, Packet, Port, Switch, Topology, next_hop
from repro.noc.switch import InputQueue


def make_switch(position=(1, 1), topo=None, fifo_depth=4):
    topo = topo or Topology(3, 3)
    sw = Switch(position, lambda cur, dest: next_hop(cur, dest, topo),
                fifo_depth)
    params = BehavioralLinkParams("T", 1, 1.0, 8, 10, 300.0)
    for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
        sw.attach_link(port, TokenLink(params))
    return sw


def head(dest, pid=1):
    return Flit(packet_id=pid, kind=FlitKind.HEAD, src=(1, 1), dest=dest)


def body(pid=1, seq=1):
    return Flit(packet_id=pid, kind=FlitKind.BODY, src=(1, 1), dest=(9, 9),
                seq=seq)


def tail(pid=1, seq=2):
    return Flit(packet_id=pid, kind=FlitKind.TAIL, src=(1, 1), dest=(9, 9),
                seq=seq)


class TestInputQueue:
    def test_fifo_order(self):
        q = InputQueue(4)
        q.push("a")
        q.push("b")
        assert q.pop() == "a"
        assert q.pop() == "b"

    def test_full(self):
        q = InputQueue(2)
        q.push(1)
        q.push(2)
        assert q.full
        with pytest.raises(RuntimeError):
            q.push(3)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            InputQueue(0)


class TestSwitchRouting:
    def test_local_ejection(self):
        sw = make_switch(position=(1, 1))
        ejected = []
        sw.accept(Port.WEST, head(dest=(1, 1)))
        sw.arbitrate_and_send(0, ejected.append)
        assert len(ejected) == 1

    def test_forwards_east(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        link = sw.out_links[Port.EAST]
        link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert link.flits_sent == 1

    def test_xy_goes_x_first(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.LOCAL, head(dest=(2, 2)))
        east = sw.out_links[Port.EAST]
        north = sw.out_links[Port.NORTH]
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert east.flits_sent == 1
        assert north.flits_sent == 0


class TestWormhole:
    def test_body_follows_head_route(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=7))
        sw.accept(Port.LOCAL, body(pid=7))
        sw.accept(Port.LOCAL, tail(pid=7))
        for cycle in range(3):
            for link in sw.out_links.values():
                link.begin_cycle()
            sw.arbitrate_and_send(cycle, lambda f: None)
        assert east.flits_sent == 3

    def test_output_locked_against_other_packet(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # cycle 0: packet A's head is the only candidate → locks EAST
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=1))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert sw.output_owner[(Port.EAST, 0)] == (Port.LOCAL, 0)
        # now a competing head arrives while A's body still flows
        sw.accept(Port.LOCAL, body(pid=1))
        sw.accept(Port.WEST, head(dest=(2, 1), pid=2))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(1, lambda f: None)
        # only packet A's flits have crossed; B's head is still queued
        assert east.flits_sent == 2
        assert not sw.queue(Port.WEST).empty

    def test_tail_releases_lock(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        sw.accept(Port.LOCAL, head(dest=(2, 1), pid=1))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)  # A locks EAST
        sw.accept(Port.LOCAL, tail(pid=1, seq=1))
        sw.accept(Port.WEST, head(dest=(2, 1), pid=2))
        for cycle in range(1, 3):
            for link in sw.out_links.values():
                link.begin_cycle()
            sw.arbitrate_and_send(cycle, lambda f: None)
        assert east.flits_sent == 3  # A head, A tail, then B head
        assert sw.output_owner[(Port.EAST, 0)] == (Port.WEST, 0)

    def test_single_flit_packet_does_not_leave_lock(self):
        sw = make_switch(position=(1, 1))
        flit = Flit(packet_id=5, kind=FlitKind.HEAD_TAIL, src=(0, 0),
                    dest=(2, 1))
        sw.accept(Port.LOCAL, flit)
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert sw.output_owner[(Port.EAST, 0)] is None


class TestArbitration:
    def test_round_robin_alternates(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # two single-flit streams competing for EAST
        for i in range(2):
            sw.accept(Port.WEST, Flit(packet_id=10 + i,
                                      kind=FlitKind.HEAD_TAIL,
                                      src=(0, 1), dest=(2, 1)))
            sw.accept(Port.SOUTH, Flit(packet_id=20 + i,
                                       kind=FlitKind.HEAD_TAIL,
                                       src=(1, 0), dest=(2, 1)))
        winners = []
        for cycle in range(4):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f: None)
            if east.flits_sent > before:
                winners.append(east._in_flight[-1][1].packet_id // 10)
        assert sorted(winners) == [1, 1, 2, 2]
        assert winners[0] != winners[1]  # alternation, not starvation

    def test_conflict_counter(self):
        sw = make_switch(position=(1, 1))
        sw.accept(Port.WEST, Flit(packet_id=1, kind=FlitKind.HEAD_TAIL,
                                  src=(0, 1), dest=(2, 1)))
        sw.accept(Port.SOUTH, Flit(packet_id=2, kind=FlitKind.HEAD_TAIL,
                                   src=(1, 0), dest=(2, 1)))
        for link in sw.out_links.values():
            link.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert sw.arbitration_conflicts == 1


class TestBackpressure:
    def test_flit_stays_when_link_full(self):
        sw = make_switch(position=(1, 1))
        east = sw.out_links[Port.EAST]
        # saturate the link (capacity 8)
        east.begin_cycle()
        for i in range(8):
            east.begin_cycle()
            east.try_send(f"x{i}", 0)
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        east.begin_cycle()
        sw.arbitrate_and_send(0, lambda f: None)
        assert not sw.queue(Port.LOCAL).empty  # still waiting

    def test_missing_link_raises(self):
        topo = Topology(3, 3)
        sw = Switch((1, 1), lambda c, d: next_hop(c, d, topo))
        sw.accept(Port.LOCAL, head(dest=(2, 1)))
        with pytest.raises(RuntimeError):
            sw.arbitrate_and_send(0, lambda f: None)
