"""Unit tests for the shared graph utilities.

``shortest_cycle`` is the levelizer's historical loop diagnostic
extracted into :mod:`repro.graphutil`; these tests pin its exact
behavior (order, tie-breaks) alongside the Kahn levelization and the
all-loops reporting the lint engine builds on.
"""

import pytest

from repro.graphutil import (
    bfs_distances,
    feedback_cycles,
    shortest_cycle,
    strongly_connected_components,
    topological_levels,
)


class TestTopologicalLevels:
    def test_chain_levels(self):
        # 0 <- 1 <- 2  (deps[i] = what i reads)
        deps = [[], [0], [1]]
        levels, leftover = topological_levels(deps)
        assert levels == [[0], [1], [2]]
        assert leftover == []

    def test_diamond_groups_parallel_nodes(self):
        # 1 and 2 both read 0; 3 reads both
        deps = [[], [0], [0], [1, 2]]
        levels, leftover = topological_levels(deps)
        assert levels == [[0], [1, 2], [3]]
        assert leftover == []

    def test_levels_sorted_ascending(self):
        deps = [[], [], [0, 1], [0, 1]]
        levels, _ = topological_levels(deps)
        assert levels == [[0, 1], [2, 3]]

    def test_cycle_members_left_over(self):
        # 1 <-> 2 loop; 3 reads the loop; 0 is free
        deps = [[], [2], [1], [1]]
        levels, leftover = topological_levels(deps)
        assert levels == [[0]]
        # downstream-of-loop nodes are leftover too
        assert leftover == [1, 2, 3]

    def test_empty_graph(self):
        assert topological_levels([]) == ([], [])


class TestBfsDistances:
    def test_hops_follow_successor_edges_only(self):
        # 0 -> 1 -> 2 -> 0 ring plus a dead end 1 -> 3; 4 is isolated
        succ = [[1], [2, 3], [0], [], []]
        assert bfs_distances(succ, 0) == {0: 0, 1: 1, 2: 2, 3: 2}
        assert bfs_distances(succ, 3) == {3: 0}

    def test_shortest_of_several_paths_wins(self):
        succ = [[1, 3], [2], [3], []]
        assert bfs_distances(succ, 0)[3] == 1


class TestShortestCycle:
    def test_two_node_loop(self):
        deps = [[1], [0]]
        cycle = shortest_cycle(deps, [0, 1])
        assert set(cycle) == {0, 1}
        assert len(cycle) == 2

    def test_cycle_walks_dependency_edges(self):
        # 0 reads 1, 1 reads 2, 2 reads 0; the returned cycle follows
        # dependency edges — each entry reads the entry after it
        deps = [[1], [2], [0]]
        cycle = shortest_cycle(deps, [0, 1, 2])
        assert len(cycle) == 3
        for i, node in enumerate(cycle):
            successor = cycle[(i + 1) % 3]
            assert successor in deps[node]

    def test_shortest_wins_over_blob(self):
        # a 2-cycle (0,1) tangled with a 3-cycle (0,2,3)
        deps = [[1, 3], [0], [0], [2]]
        cycle = shortest_cycle(deps, [0, 1, 2, 3])
        assert set(cycle) == {0, 1}

    def test_self_loop_is_length_one(self):
        deps = [[0]]
        assert shortest_cycle(deps, [0]) == [0]

    def test_no_cycle_returns_empty(self):
        deps = [[], [0]]
        assert shortest_cycle(deps, [0, 1]) == []

    def test_members_restrict_the_search(self):
        # the only cycle goes through node 2, excluded from members
        deps = [[1], [2], [0]]
        assert shortest_cycle(deps, [0, 1]) == []


class TestStronglyConnectedComponents:
    def test_two_independent_loops(self):
        deps = [[1], [0], [3], [2], []]
        comps = strongly_connected_components(deps, [0, 1, 2, 3, 4])
        assert [0, 1] in comps and [2, 3] in comps and [4] in comps

    def test_components_ordered_by_smallest_member(self):
        deps = [[], [2], [1]]
        comps = strongly_connected_components(deps, [2, 1, 0])
        assert comps == [[0], [1, 2]]

    def test_deep_chain_no_recursion_error(self):
        n = 5000
        deps = [[i - 1] if i else [] for i in range(n)]
        comps = strongly_connected_components(deps, list(range(n)))
        assert len(comps) == n


class TestFeedbackCycles:
    def test_reports_every_independent_loop(self):
        # loops (0,1) and (2,3); node 4 strictly downstream of both
        deps = [[1], [0], [3], [2], [0, 2]]
        _levels, leftover = topological_levels(deps)
        assert leftover == [0, 1, 2, 3, 4]
        cycles = feedback_cycles(deps, leftover)
        assert sorted(sorted(c) for c in cycles) == [[0, 1], [2, 3]]

    def test_downstream_singletons_not_reported(self):
        deps = [[1], [0], [0]]
        cycles = feedback_cycles(deps, [0, 1, 2])
        assert sorted(sorted(c) for c in cycles) == [[0, 1]]

    def test_self_loop_reported(self):
        deps = [[0], []]
        assert feedback_cycles(deps, [0]) == [[0]]

    def test_one_cycle_per_tangled_blob(self):
        # 2-cycle and 3-cycle sharing node 0: one SCC, one (shortest)
        # reported cycle
        deps = [[1, 3], [0], [0], [2]]
        cycles = feedback_cycles(deps, [0, 1, 2, 3])
        assert len(cycles) == 1
        assert set(cycles[0]) == {0, 1}


class TestLevelizeIntegration:
    """The extracted helpers feed levelize() unchanged (pinned by
    test_compiled_backend too; these cover the seam directly)."""

    def test_loop_error_matches_shortest_cycle(self):
        from repro.compiled import CombinationalLoopError, extract
        from repro.compiled.levelize import _gate_deps, levelize
        from repro.design.component import Component
        from repro.elements.gates import Nor2
        from repro.sim import Simulator

        sim = Simulator()
        s, r = sim.signal("s"), sim.signal("r")
        q, nq = sim.signal("q"), sim.signal("nq")
        root = Component("sr")
        root.adopt(Nor2(sim, r, nq, out=q, name="n1"))
        root.adopt(Nor2(sim, s, q, out=nq, name="n2"))
        netlist = extract(root)
        with pytest.raises(CombinationalLoopError) as err:
            levelize(netlist)
        deps = _gate_deps(netlist)
        _levels, leftover = topological_levels(deps)
        expected = [
            netlist.gates[gi].path
            for gi in shortest_cycle(deps, leftover)
        ]
        assert err.value.cycle == expected
