"""Shared directed-graph algorithms over index-based dependency lists.

Both the compiled backend's levelizer (:mod:`repro.compiled.levelize`)
and the static lint engine (:mod:`repro.lint`) reason about the same
shape of graph: ``deps[i]`` lists the node indices node ``i`` *depends
on* (reads from).  This module holds the algorithms they share so the
two report feedback identically:

* :func:`topological_levels` — Kahn's algorithm, returning the level
  structure plus whatever could not be placed (the members of at least
  one dependency cycle);
* :func:`shortest_cycle` — the globally shortest cycle among a set of
  nodes, by BFS from every member.  This is the levelizer's historical
  diagnostic, extracted verbatim: given the same graph it returns the
  same cycle, in the same order, so
  :class:`~repro.compiled.levelize.CombinationalLoopError` messages are
  bit-identical to what the in-module implementation produced;
* :func:`feedback_cycles` — *every* independent feedback loop (one
  shortest cycle per strongly connected component), which is what a
  lint report wants: a design with three separate loops gets three
  findings, not just the globally shortest one.

:func:`bfs_distances` is the plain unweighted shortest-path BFS that
:meth:`repro.noc.topology.Topology.average_hop_count` runs from every
switch (it replaced a networkx all-pairs call).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple


def topological_levels(
    deps: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[int]]:
    """Kahn levelization of ``deps``; returns ``(levels, leftover)``.

    Every node in ``levels[k]`` depends only on nodes in levels
    ``< k``; each level is sorted ascending.  ``leftover`` lists the
    nodes that could not be placed — non-empty exactly when the graph
    has at least one cycle, and every leftover node sits on (or
    strictly downstream of) one.
    """
    n = len(deps)
    fanout: List[List[int]] = [[] for _ in range(n)]
    missing: List[int] = []
    for i, row in enumerate(deps):
        missing.append(len(row))
        for src in row:
            fanout[src].append(i)
    levels: List[List[int]] = []
    frontier = [i for i, count in enumerate(missing) if count == 0]
    placed = 0
    while frontier:
        levels.append(sorted(frontier))
        placed += len(frontier)
        next_frontier: List[int] = []
        for i in frontier:
            for dst in fanout[i]:
                missing[dst] -= 1
                if missing[dst] == 0:
                    next_frontier.append(dst)
        frontier = next_frontier
    if placed == n:
        return levels, []
    return levels, [i for i, count in enumerate(missing) if count > 0]


def bfs_distances(
    succ: Sequence[Sequence[int]], start: int
) -> Dict[int, int]:
    """Hop count from ``start`` to every node reachable along ``succ``.

    ``succ[i]`` lists the nodes one edge away from ``i``; ``start``
    itself maps to 0 and unreachable nodes are absent.
    """
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        hops = dist[node] + 1
        for nxt in succ[node]:
            if nxt not in dist:
                dist[nxt] = hops
                queue.append(nxt)
    return dist


def shortest_cycle(
    deps: Sequence[Sequence[int]], members: Sequence[int]
) -> List[int]:
    """Globally shortest cycle among ``members``, as node indices.

    BFS from each member along dependency edges until the start node
    reappears; the shortest such loop found over all starts wins (ties
    broken by the first member, in ``members`` order, that reaches the
    winning length).  The result lists the cycle in dependency order —
    each node reads the previous one — starting at the node the BFS
    closed through.  Returns ``[]`` when no cycle exists among
    ``members``.
    """
    member_set = set(members)
    best: List[int] = []
    for start in members:
        # parent links let us reconstruct the path start -> ... -> start
        parent: Dict[int, int] = {}
        queue = deque([start])
        seen = {start}
        found = None
        while queue and found is None:
            node = queue.popleft()
            for dep in deps[node]:
                if dep not in member_set:
                    continue
                if dep == start:
                    found = node
                    break
                if dep not in seen:
                    seen.add(dep)
                    parent[dep] = node
                    queue.append(dep)
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        if not best or len(path) < len(best):
            best = path
    return best


def strongly_connected_components(
    deps: Sequence[Sequence[int]], members: Sequence[int]
) -> List[List[int]]:
    """Tarjan SCCs of the subgraph induced by ``members``.

    Iterative (no recursion limit risk on deep gate chains).  Returned
    components are in a deterministic order — sorted by their smallest
    member — and each component's nodes are sorted ascending.
    """
    member_set = set(members)
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    counter = [0]
    components: List[List[int]] = []

    for root in members:
        if root in index:
            continue
        # explicit DFS stack of (node, iterator position)
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            row = deps[node]
            while pos < len(row):
                dep = row[pos]
                pos += 1
                if dep not in member_set:
                    continue
                if dep not in index:
                    work[-1] = (node, pos)
                    work.append((dep, 0))
                    advanced = True
                    break
                if on_stack.get(dep):
                    low[node] = min(low[node], index[dep])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[int] = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    component.append(top)
                    if top == node:
                        break
                components.append(sorted(component))
            if work:
                parent_node, _ = work[-1]
                low[parent_node] = min(low[parent_node], low[node])
    components.sort(key=lambda comp: comp[0])
    return components


def feedback_cycles(
    deps: Sequence[Sequence[int]], members: Sequence[int]
) -> List[List[int]]:
    """One shortest cycle per strongly connected feedback region.

    ``members`` is typically the leftover of :func:`topological_levels`
    — everything Kahn could not place.  Leftover nodes merely
    *downstream* of a loop form singleton SCCs with no self-edge and
    are skipped; every genuine loop contributes exactly one cycle (its
    shortest, per :func:`shortest_cycle`), so independent loops are all
    reported while a tangled strongly connected blob still reads as a
    single concise diagnostic.
    """
    cycles: List[List[int]] = []
    for component in strongly_connected_components(deps, members):
        if len(component) == 1:
            node = component[0]
            if node not in deps[node]:
                continue  # downstream of a loop, not on one
        cycle = shortest_cycle(deps, component)
        if cycle:
            cycles.append(cycle)
    return cycles
