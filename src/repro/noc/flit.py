"""Flits and packets — the data units of the NoC substrate.

The paper's links carry 32-bit flits between switches; packets are
sequences of flits (head / body / tail) routed by wormhole switching.
Timestamps ride on each flit so the statistics module can compute
injection-to-ejection latency without global bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Tuple

Coord = Tuple[int, int]

_packet_ids = itertools.count()


class FlitKind(Enum):
    """Position of a flit within its packet.

    ``opens_route`` / ``closes_route`` are plain member attributes
    (assigned right after the class body) rather than properties: the
    switch arbitration loop reads them for every lane head every
    cycle, and a concrete bool avoids a descriptor call plus tuple
    construction on that hot path.
    """

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: single-flit packet: simultaneously head and tail
    HEAD_TAIL = "head_tail"


FlitKind.HEAD.opens_route = True
FlitKind.BODY.opens_route = False
FlitKind.TAIL.opens_route = False
FlitKind.HEAD_TAIL.opens_route = True

FlitKind.HEAD.closes_route = False
FlitKind.BODY.closes_route = False
FlitKind.TAIL.closes_route = True
FlitKind.HEAD_TAIL.closes_route = True


@dataclass
class Flit:
    """One 32-bit unit travelling the network."""

    packet_id: int
    kind: FlitKind
    src: Coord
    dest: Coord
    seq: int = 0
    payload: int = 0
    #: virtual channel, assigned at injection and kept end to end
    vc: int = 0
    injected_cycle: int = -1
    ejected_cycle: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit(p{self.packet_id}.{self.seq} {self.kind.value} "
            f"{self.src}->{self.dest})"
        )


@dataclass
class Packet:
    """A multi-flit message."""

    src: Coord
    dest: Coord
    length_flits: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_cycle: int = 0
    payload_base: int = 0
    #: virtual channel all of this packet's flits travel on
    vc: int = 0

    def __post_init__(self) -> None:
        if self.length_flits < 1:
            raise ValueError(
                f"packet needs at least one flit, got {self.length_flits}"
            )

    def flits(self) -> Iterator[Flit]:
        """Generate the packet's flits in wire order."""
        n = self.length_flits
        for seq in range(n):
            if n == 1:
                kind = FlitKind.HEAD_TAIL
            elif seq == 0:
                kind = FlitKind.HEAD
            elif seq == n - 1:
                kind = FlitKind.TAIL
            else:
                kind = FlitKind.BODY
            yield Flit(
                packet_id=self.packet_id,
                kind=kind,
                src=self.src,
                dest=self.dest,
                seq=seq,
                payload=(self.payload_base + seq) & 0xFFFFFFFF,
                vc=self.vc,
            )


def reset_packet_ids(start: int = 0) -> None:
    """Reset the global packet-id counter (test isolation)."""
    global _packet_ids
    _packet_ids = itertools.count(start)
