"""Mesh/torus topologies for the NoC substrate.

Switch positions are (x, y) coordinates; ports are compass directions
plus LOCAL for the attached core.  A topology is a description object —
:class:`~repro.noc.network.Network` instantiates switches and links from
it.  Path-length analysis (:meth:`Topology.average_hop_count`) uses the
standard-library BFS in :mod:`repro.graphutil`; a ``networkx`` view is
available on request (:meth:`Topology.to_networkx`) for callers that
have networkx installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Tuple

from ..graphutil import bfs_distances

Coord = Tuple[int, int]


class Port(Enum):
    """Switch ports: four neighbours plus the local core.

    ``index`` is each member's position in iteration order (NORTH=0 …
    LOCAL=4), a plain member attribute assigned right after the class
    body (as ``FlitKind.opens_route`` is): the switch arbitration loop
    indexes its per-output state by it instead of hashing the enum.
    """

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    LOCAL = "L"

    @property
    def opposite(self) -> "Port":
        return {
            Port.NORTH: Port.SOUTH,
            Port.SOUTH: Port.NORTH,
            Port.EAST: Port.WEST,
            Port.WEST: Port.EAST,
            Port.LOCAL: Port.LOCAL,
        }[self]


for _index, _port in enumerate(Port):
    _port.index = _index
del _index, _port


_DELTAS: Dict[Port, Tuple[int, int]] = {
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}


@dataclass(frozen=True)
class Topology:
    """A rectangular mesh (optionally wrapped into a torus)."""

    cols: int
    rows: int
    torus: bool = False

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError(
                f"mesh must be at least 1x1, got {self.cols}x{self.rows}"
            )

    @property
    def n_nodes(self) -> int:
        return self.cols * self.rows

    def nodes(self) -> Iterator[Coord]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield (x, y)

    def in_bounds(self, node: Coord) -> bool:
        x, y = node
        return 0 <= x < self.cols and 0 <= y < self.rows

    def neighbor(self, node: Coord, port: Port) -> Coord | None:
        """Neighbouring node through ``port``, or None at a mesh edge."""
        if port == Port.LOCAL:
            return None
        dx, dy = _DELTAS[port]
        x, y = node[0] + dx, node[1] + dy
        if self.torus:
            return (x % self.cols, y % self.rows)
        if 0 <= x < self.cols and 0 <= y < self.rows:
            return (x, y)
        return None

    def links(self) -> Iterator[Tuple[Coord, Port, Coord]]:
        """All directed switch-to-switch links (src, src_port, dst)."""
        for node in self.nodes():
            for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
                dst = self.neighbor(node, port)
                if dst is not None:
                    yield (node, port, dst)

    @property
    def n_directed_links(self) -> int:
        return sum(1 for _ in self.links())

    def to_networkx(self):
        """Directed ``networkx.DiGraph`` view of the topology.

        networkx is imported here, not at module scope, so the package
        itself needs only the standard library.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        for src, port, dst in self.links():
            graph.add_edge(src, dst, port=port.value)
        return graph

    def average_hop_count(self) -> float:
        """Mean shortest-path hops over all src≠dst pairs."""
        nodes = list(self.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        succ: List[List[int]] = [[] for _ in nodes]
        for src, _port, dst in self.links():
            succ[index[src]].append(index[dst])
        total, pairs = 0, 0
        for start in range(len(nodes)):
            for hops in bfs_distances(succ, start).values():
                if hops:
                    total += hops
                    pairs += 1
        return total / pairs if pairs else 0.0


def xy_route(src: Coord, dest: Coord, topology: Topology) -> List[Port]:
    """Dimension-ordered (X then Y) route — deadlock-free on a mesh."""
    if not topology.in_bounds(src) or not topology.in_bounds(dest):
        raise ValueError(f"route endpoints out of bounds: {src} -> {dest}")
    route: List[Port] = []
    x, y = src
    dx, dy = dest[0] - x, dest[1] - y
    if topology.torus:
        # shortest wrap-aware direction
        if abs(dx) > topology.cols // 2:
            dx = dx - topology.cols if dx > 0 else dx + topology.cols
        if abs(dy) > topology.rows // 2:
            dy = dy - topology.rows if dy > 0 else dy + topology.rows
    route.extend([Port.EAST if dx > 0 else Port.WEST] * abs(dx))
    route.extend([Port.NORTH if dy > 0 else Port.SOUTH] * abs(dy))
    return route


def next_hop(current: Coord, dest: Coord, topology: Topology) -> Port:
    """The next output port on the XY route from ``current`` to ``dest``."""
    if current == dest:
        return Port.LOCAL
    route = xy_route(current, dest, topology)
    return route[0]


def compile_next_hop(topology: Topology):
    """A fast ``(current, dest) -> Port`` closure for one topology.

    Decision-identical to :func:`next_hop` (see the equivalence tests in
    ``tests/test_noc_topology.py`` and the mesh and torus lockstep grids
    in ``tests/test_kernel_equivalence.py``) but skips the bounds
    validation and the full-route list that :func:`xy_route` builds —
    the switch calls this once per lane head per cycle (plus the few
    same-cycle re-routes described in :mod:`repro.noc.switch`), so
    materialising the whole remaining path would be pure waste.
    """
    east, west = Port.EAST, Port.WEST
    north, south = Port.NORTH, Port.SOUTH
    local = Port.LOCAL

    if not topology.torus:

        def fast_next_hop(current: Coord, dest: Coord) -> Port:
            dx = dest[0] - current[0]
            if dx > 0:
                return east
            if dx < 0:
                return west
            dy = dest[1] - current[1]
            if dy > 0:
                return north
            if dy < 0:
                return south
            return local

        return fast_next_hop

    cols, rows = topology.cols, topology.rows
    half_cols, half_rows = cols // 2, rows // 2

    def fast_next_hop_torus(current: Coord, dest: Coord) -> Port:
        dx = dest[0] - current[0]
        if dx > half_cols:
            dx -= cols
        elif -dx > half_cols:
            dx += cols
        if dx > 0:
            return east
        if dx < 0:
            return west
        dy = dest[1] - current[1]
        if dy > half_rows:
            dy -= rows
        elif -dy > half_rows:
            dy += rows
        if dy > 0:
            return north
        if dy < 0:
            return south
        return local

    return fast_next_hop_torus


def west_first_permitted(
    current: Coord, dest: Coord, topology: Topology
) -> List[Port]:
    """Output ports the *west-first* turn model permits (Glass/Ni).

    The rule: all westward hops must be taken first (while moving west
    no turns to other directions are allowed); once the destination is
    not to the west, the packet may route adaptively among the
    productive E/N/S directions.  Prohibiting the {N,S,E}→W turns makes
    the resulting channel-dependency graph acyclic, so wormhole routing
    is deadlock-free with a single virtual channel — while still leaving
    room to steer around congestion.

    Returns the list of permitted *productive* ports (LOCAL when the
    packet has arrived).  Only defined for meshes (no wraparound).
    """
    if topology.torus:
        raise ValueError("west-first turn model requires a mesh, not a torus")
    if not topology.in_bounds(current) or not topology.in_bounds(dest):
        raise ValueError(f"route endpoints out of bounds: {current}->{dest}")
    if current == dest:
        return [Port.LOCAL]
    dx = dest[0] - current[0]
    dy = dest[1] - current[1]
    if dx < 0:
        return [Port.WEST]
    ports: List[Port] = []
    if dx > 0:
        ports.append(Port.EAST)
    if dy > 0:
        ports.append(Port.NORTH)
    elif dy < 0:
        ports.append(Port.SOUTH)
    return ports
