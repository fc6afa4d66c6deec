"""Synchronous wormhole switch (the paper's NoC context).

The paper's links connect "switches of synchronous NoC"; this module
provides that substrate: a 5-port input-buffered wormhole switch with

* XY (dimension-ordered) routing — deadlock-free on a mesh,
* per-output round-robin arbitration,
* wormhole route locking: a head flit claims an output lane; body flits
  follow; the tail flit releases it,
* optional **virtual channels**: with ``n_vcs > 1`` each input port has
  one FIFO per VC and each output port one wormhole lock per VC, so
  packets on different VCs interleave flit-by-flit over the same
  physical link — the classic cure for head-of-line blocking.  VCs are
  assigned statically at injection (``flit.vc``) and kept end to end,
* credit-style backpressure: a flit advances only if the downstream
  link accepts it (the links are
  :class:`~repro.link.behavioral.TokenLink` instances whose rate and
  capacity come from the link implementation under study).

The switch is cycle-driven: the network calls :meth:`arbitrate_and_send`
once per clock after link deliveries have been drained into the input
FIFOs.  At most one flit crosses each physical output per cycle —
virtual channels share the wire, they do not widen it.

Arbitration is decision-identical to the straightforward seed
implementation (kept verbatim in :mod:`repro.noc.reference` and pinned
by ``tests/test_kernel_equivalence.py``) but routes each non-empty lane
once per cycle instead of once per output port.  Lanes, outputs, VCs
and wormhole owners are plain integers (``Port.index``), and the lanes
are bucketed by the output their head flit wants.  The outputs are then
served in ``Port`` order, as the seed does, and a lane is routed again
only when the answer the seed would compute at a later output can
differ:

* when a pop exposes a new head flit, which may want a later output in
  the same cycle;
* after a send on a link, for the head flits still waiting for that
  output: adaptive routing (west-first) steers by link occupancy, and
  the send just raised it.

A lane whose new answer is an output already served waits for the next
cycle, exactly as the seed's rescan would leave it.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from .flit import Flit
from .topology import Coord, Port

#: signature of the routing function: (current, dest) -> output port
RouteFn = Callable[[Coord, Coord], Port]

#: an input lane: (input port, virtual channel)
Lane = Tuple[Port, int]


class InputQueue:
    """One input lane's FIFO with its wormhole route state."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"FIFO depth must be >= 1, got {depth}")
        self.depth = depth
        self.fifo: Deque[Flit] = deque()
        #: output port currently locked by an in-progress packet
        self.locked_output: Optional[Port] = None

    @property
    def full(self) -> bool:
        return len(self.fifo) >= self.depth

    @property
    def empty(self) -> bool:
        return not self.fifo

    def push(self, flit: Flit) -> None:
        if self.full:
            raise RuntimeError("push into full input queue")
        self.fifo.append(flit)

    def head(self) -> Flit:
        return self.fifo[0]

    def pop(self) -> Flit:
        return self.fifo.popleft()


#: outputs in service order; ``_PORTS[i].index == i``
_PORTS: Tuple[Port, ...] = tuple(Port)
_LOCAL = Port.LOCAL.index


class Switch:
    """A 5-port synchronous wormhole switch with optional VCs."""

    def __init__(
        self,
        position: Coord,
        route_fn: RouteFn,
        fifo_depth: int = 4,
        n_vcs: int = 1,
        name: Optional[str] = None,
    ) -> None:
        if n_vcs < 1:
            raise ValueError(f"need at least one virtual channel, got {n_vcs}")
        self.position = position
        self.route_fn = route_fn
        self.name = name or f"sw{position}"
        self.n_vcs = n_vcs
        #: input FIFOs indexed by port, then VC
        self.inputs: Dict[Port, List[InputQueue]] = {
            port: [InputQueue(fifo_depth) for _ in range(n_vcs)]
            for port in Port
        }
        # outgoing links by output index, set by :meth:`attach_link`
        self._links: List[Optional[object]] = [None] * len(_PORTS)
        self._out_links: Dict[Port, object] = {}
        #: read-only view of the outgoing links by port
        self.out_links: Mapping[Port, object] = MappingProxyType(
            self._out_links
        )
        # integer-indexed arbitration state (hot path): lane
        # ``port.index * n_vcs + vc`` is the seed's lane order, and
        # wormhole lane ``out.index * n_vcs + vc`` the (output, VC) pair
        self._queues: Tuple[InputQueue, ...] = tuple(
            queue for port in Port for queue in self.inputs[port]
        )
        #: lane index that owns each wormhole lane, or None when free
        self._owner: List[Optional[int]] = [None] * (len(_PORTS) * n_vcs)
        #: round-robin pointer per output (over lane indices)
        self._rr: List[int] = [0] * len(_PORTS)
        #: flits currently buffered across all lanes (maintained by
        #: :meth:`accept` and the arbitration pops; lets both the switch
        #: and the network skip empty switches without scanning FIFOs)
        self._buffered = 0
        # statistics
        self.flits_routed = 0
        self.arbitration_conflicts = 0
        #: outputs won uncontested (single candidate — no round-robin)
        self.arbitration_fast = 0

    # ------------------------------------------------------------------
    def queue(self, port: Port, vc: int = 0) -> InputQueue:
        """The input FIFO of one lane."""
        return self.inputs[port][vc]

    def can_accept(self, port: Port, vc: int = 0) -> bool:
        """Space available on the given input lane?"""
        return not self.inputs[port][vc].full

    def accept(self, port: Port, flit: Flit) -> None:
        """Push an arriving flit into its lane's FIFO (lane = flit.vc)."""
        vc = flit.vc
        if not (0 <= vc < self.n_vcs):
            raise ValueError(
                f"{self.name}: flit carries VC {vc} but switch has "
                f"{self.n_vcs} VC(s)"
            )
        self.inputs[port][vc].push(flit)
        self._buffered += 1

    def attach_link(self, port: Port, link: object) -> None:
        """Connect the outgoing link that leaves through ``port``."""
        self._out_links[port] = link
        self._links[port.index] = link

    @property
    def output_owner(self) -> Dict[Tuple[Port, int], Optional[Lane]]:
        """Which input lane owns each (output port, VC) wormhole lane."""
        n_vcs = self.n_vcs
        return {
            (_PORTS[i // n_vcs], i % n_vcs):
                None if lane is None
                else (_PORTS[lane // n_vcs], lane % n_vcs)
            for i, lane in enumerate(self._owner)
        }

    # ------------------------------------------------------------------
    def arbitrate_and_send(
        self,
        now_cycle: int,
        eject: Callable[[Flit], None],
    ) -> int:
        """One cycle of switching: returns the number of flits moved.

        ``eject`` consumes flits whose output is LOCAL.  At most one
        flit advances per *physical* output port per cycle; round-robin
        over the input lanes resolves conflicts; the wormhole lock is
        per (output, VC) so different VCs interleave.  A link's rate
        credit is brought up to date (``accrue_to``) just before each
        send attempt on it.
        """
        if self._buffered == 0:
            return 0
        route_fn = self.route_fn
        position = self.position
        queues = self._queues
        # route every non-empty lane once: bucket it by desired output
        buckets: List[List[int]] = [[], [], [], [], []]
        for i, queue in enumerate(queues):
            fifo = queue.fifo
            if fifo:
                if fifo[0].kind.opens_route:
                    buckets[route_fn(position, fifo[0].dest).index].append(i)
                elif queue.locked_output is not None:
                    # body/tail follow the locked route
                    buckets[queue.locked_output.index].append(i)

        owner = self._owner
        rr = self._rr
        n_vcs = self.n_vcs
        n_lanes = len(queues)
        moved = 0
        for out, bucket in enumerate(buckets):
            if not bucket:
                continue
            base = out * n_vcs
            candidates: List[int] = []
            for i in bucket:
                flit = queues[i].fifo[0]
                if flit.kind.opens_route:
                    held = owner[base + flit.vc]
                    if held is not None and held != i:
                        continue  # VC lane locked by another packet
                candidates.append(i)

            if not candidates:
                continue
            if len(candidates) == 1:
                self.arbitration_fast += 1
                pick = candidates[0]
            else:
                self.arbitration_conflicts += 1
                # round-robin: the first candidate at or after the pointer
                start = rr[out]
                pick = min(candidates, key=lambda i: (i - start) % n_lanes)

            fifo = queues[pick].fifo
            if out == _LOCAL:
                flit = fifo.popleft()
                eject(flit)
            else:
                link = self._links[out]
                if link is None:
                    raise RuntimeError(
                        f"{self.name}: no link attached on {_PORTS[out]}"
                    )
                link.accrue_to(now_cycle + 1)
                if not link.try_send(fifo[0], now_cycle):
                    continue
                flit = fifo.popleft()
                # the send raised this link's occupancy: a waiting head
                # may now prefer a later output (adaptive routing)
                for i in bucket:
                    if i != pick:
                        head = queues[i].fifo[0]
                        if head.kind.opens_route:
                            later = route_fn(position, head.dest).index
                            if later > out:
                                buckets[later].append(i)
            self._buffered -= 1
            moved += 1
            rr[out] = (pick + 1) % n_lanes
            # update the wormhole locks
            kind = flit.kind
            if kind.opens_route:
                owner[base + flit.vc] = pick
                queues[pick].locked_output = _PORTS[out]
            if kind.closes_route:
                owner[base + flit.vc] = None
                queues[pick].locked_output = None
            # the pop exposed a new head, which may leave on a later
            # output this same cycle
            if fifo and fifo[0].kind.opens_route:
                later = route_fn(position, fifo[0].dest).index
                if later > out:
                    buckets[later].append(pick)
        self.flits_routed += moved
        return moved

    # ------------------------------------------------------------------
    @property
    def buffered_flits(self) -> int:
        return sum(
            len(q.fifo) for queues in self.inputs.values() for q in queues
        )
