"""Traffic generators for the NoC experiments.

Standard synthetic patterns driving the mesh experiments:

* uniform random — every node sends to a uniformly random other node;
* transpose — (x, y) sends to (y, x);
* bit-complement — (x, y) sends to (cols-1-x, rows-1-y);
* hotspot — a fraction of traffic converges on one node;
* neighbour — each node sends to its east neighbour (minimal-distance
  background load).

Injection is Bernoulli per node per cycle at ``injection_rate`` flits
per node per cycle (packets of ``packet_length`` flits are injected as
a whole; the rate counts flits).  Generators are deterministic given a
seed — the property tests rely on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from .flit import Packet
from .topology import Coord, Topology


@dataclass
class TrafficConfig:
    """Parameters of a synthetic traffic run."""

    pattern: str = "uniform"
    injection_rate: float = 0.1  # flits / node / cycle
    packet_length: int = 4  # flits per packet
    hotspot: Optional[Coord] = None
    hotspot_fraction: float = 0.5
    seed: int = 2008  # the paper's year, for determinism
    #: virtual channels: packets are spread round-robin over [0, n_vcs)
    n_vcs: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.injection_rate <= 1.0):
            raise ValueError(
                f"injection rate must be in [0, 1], got {self.injection_rate}"
            )
        if self.packet_length < 1:
            raise ValueError("packets need at least one flit")
        if not (0.0 <= self.hotspot_fraction <= 1.0):
            raise ValueError("hotspot fraction must be in [0, 1]")
        if self.n_vcs < 1:
            raise ValueError("n_vcs must be >= 1")


class TrafficGenerator:
    """Produces packets for every node, cycle by cycle."""

    PATTERNS = ("uniform", "transpose", "bit_complement", "hotspot",
                "neighbor")

    def __init__(self, topology: Topology, config: TrafficConfig) -> None:
        if config.pattern not in self.PATTERNS:
            raise ValueError(
                f"unknown pattern {config.pattern!r}; "
                f"expected one of {self.PATTERNS}"
            )
        if config.pattern == "hotspot" and config.hotspot is None:
            raise ValueError("hotspot pattern needs a hotspot coordinate")
        self.topology = topology
        self.config = config
        self._rng = random.Random(config.seed)
        self.packets_generated = 0
        #: sources in injection order, and each one's possible uniform
        #: destinations (every other node, in ``topology.nodes()`` order)
        self._nodes = tuple(topology.nodes())
        self._others = {
            src: [node for node in self._nodes if node != src]
            for src in self._nodes
        }

    # ------------------------------------------------------------------
    def _destination(self, src: Coord) -> Optional[Coord]:
        cfg = self.config
        topo = self.topology
        if cfg.pattern == "uniform":
            others = self._others[src]
            return self._rng.choice(others) if others else None
        if cfg.pattern == "transpose":
            dest = (src[1], src[0])
            if not topo.in_bounds(dest):
                return None
            return dest if dest != src else None
        if cfg.pattern == "bit_complement":
            dest = (topo.cols - 1 - src[0], topo.rows - 1 - src[1])
            return dest if dest != src else None
        if cfg.pattern == "hotspot":
            assert cfg.hotspot is not None
            if src != cfg.hotspot and self._rng.random() < cfg.hotspot_fraction:
                return cfg.hotspot
            others = self._others[src]
            return self._rng.choice(others) if others else None
        if cfg.pattern == "neighbor":
            dest = ((src[0] + 1) % topo.cols, src[1])
            return dest if dest != src else None
        raise AssertionError("unreachable")

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets injected network-wide during ``cycle``."""
        cfg = self.config
        packet_probability = cfg.injection_rate / cfg.packet_length
        packets = []
        for src in self._nodes:
            if self._rng.random() >= packet_probability:
                continue
            dest = self._destination(src)
            if dest is None:
                continue
            packet = Packet(
                src=src,
                dest=dest,
                length_flits=cfg.packet_length,
                created_cycle=cycle,
                payload_base=self._rng.getrandbits(16),
                vc=self.packets_generated % cfg.n_vcs,
            )
            packets.append(packet)
            self.packets_generated += 1
        return packets


def message_sequence(
    topology: Topology,
    pairs: List[tuple[Coord, Coord]],
    packet_length: int = 4,
) -> Iterator[Packet]:
    """Explicit packet list for directed tests (src, dest) pairs."""
    for src, dest in pairs:
        if not topology.in_bounds(src) or not topology.in_bounds(dest):
            raise ValueError(f"pair out of bounds: {src} -> {dest}")
        yield Packet(src=src, dest=dest, length_flits=packet_length)
