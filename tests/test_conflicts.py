import numpy as np
import pytest

from mapfkit import (
    GridMap,
    IntersectionGraph,
    Partitioning,
    SubpathSegment,
    TimedPath,
    build_intersection_graph,
    connected_components,
    detect_conflicts_in_partition,
    generate_random_map,
    partition_conflict_reports,
    split_path,
    validate_solution,
)

from oracles import (
    brute_conflict_pairs,
    brute_partition_pairs,
    random_timed_path,
    union_find_components,
)


def straight_path(agent, cells, start_t=0):
    return TimedPath(agent, tuple((x, y, start_t + i) for i, (x, y) in enumerate(cells)))


def own_endpoints(*paths):
    """Endpoints indexed by agent id, read off the agents' own ``paths``."""
    ends = {p.agent: (p.start, p.goal) for p in paths}
    return [ends[a] for a in range(len(ends))]


class TestSplitPath:
    def test_single_partition(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)
        path = straight_path(0, [(0, 0), (1, 0), (2, 0)])
        segs = split_path(path, part)
        assert len(segs) == 1
        assert segs[0].states == path.states
        assert segs[0].prev_state is None and segs[0].next_state is None

    def test_split_at_block_boundary(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)  # x-cut between 5 and 6
        path = straight_path(1, [(5, 0), (6, 0), (7, 0)])
        segs = split_path(path, part)
        assert len(segs) == 2
        assert segs[0].states == ((5, 0, 0),)
        assert segs[1].states == ((6, 0, 1), (7, 0, 2))
        assert segs[0].next_state == (6, 0, 1)
        assert segs[1].prev_state == (5, 0, 0)

    def test_reentry_gives_time_disjoint_segments(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)
        path = straight_path(2, [(5, 0), (6, 0), (5, 0), (4, 0)])
        segs = split_path(path, part)
        assert len(segs) == 3
        in_first = [s for s in segs if s.partition == segs[0].partition]
        assert len(in_first) == 2
        times = sorted(t for s in in_first for _, _, t in s.states)
        assert len(set(times)) == len(times)

    def test_state_conservation(self):
        rng = np.random.default_rng(5)
        grid = generate_random_map(16, 16, 0.15, seed=8)
        part = Partitioning.for_map(grid, 9)
        for agent in range(20):
            path = random_timed_path(rng, grid, agent, max_len=30)
            segs = split_path(path, part)
            assert sum(len(s.states) for s in segs) == len(path.states)
            # each boundary crossing drops one move from the segment totals
            assert sum(s.length for s in segs) == len(path.states) - len(segs)
            # every state in the segment of its own partition
            for seg in segs:
                for x, y, _ in seg.states:
                    assert part.locate((x, y)) == seg.partition
            assert len(segs) >= 1

    @pytest.mark.parametrize(
        "cells",
        [
            [(11, 0), (12, 0), (12, 1)],  # past the right edge: the next row's cells
            [(0, 11), (0, 12)],  # past the bottom: beyond the partition table
            [(0, 0), (-1, 0)],  # a negative x: wraps to the row above
        ],
    )
    def test_rejects_states_off_the_map(self, cells):
        part = Partitioning.for_map(GridMap(12, 12), 4)
        path = straight_path(3, cells)
        x, y, t = path.states[1]
        with pytest.raises(ValueError, match=rf"agent 3 .* at \({x}, {y}, {t}\)$"):
            split_path(path, part)


class TestSubpathSegment:
    def test_rejects_empty_states(self):
        for empty in ((), []):
            with pytest.raises(ValueError, match="at least one state"):
                SubpathSegment(0, 0, empty)

    def test_states_become_a_tuple(self):
        seg = SubpathSegment(0, 0, [(1, 1, 0), (2, 1, 1)])
        assert seg.states == ((1, 1, 0), (2, 1, 1))
        assert (seg.start_time, seg.length) == (0, 1)


def reports_by_partition(paths, part):
    """Each partition's pairs, from split_path and detect_conflicts_in_partition
    called directly."""
    by_part = {}
    for path in paths:
        for seg in split_path(path, part):
            by_part.setdefault(seg.partition, []).append(seg)
    return {
        pid: detect_conflicts_in_partition(segs).pairs for pid, segs in by_part.items()
    }


def nonempty(reports):
    return {pid: set(pairs) for pid, pairs in reports.items() if pairs}


class TestPartitionReports:
    """Each partition's own report: the merged graph can be right while one
    partition misses a pair another one saw, and ``ig_bits`` counts every
    partition's pairs."""

    @pytest.mark.parametrize("n_parts", [1, 4, 7])
    def test_matches_brute_force_per_partition(self, n_parts):
        rng = np.random.default_rng(301 + n_parts)
        filed = 0
        for _ in range(40):
            grid = generate_random_map(5, 5, 0.1, seed=int(rng.integers(1 << 30)))
            part = Partitioning.for_map(grid, n_parts)
            n_agents = int(rng.integers(10, 13))
            paths = [random_timed_path(rng, grid, a, max_len=10) for a in range(n_agents)]
            latest = max(p.arrival_time for p in paths)
            expected = brute_partition_pairs(paths, part.locate, latest)
            assert nonempty(reports_by_partition(paths, part)) == expected
            _, reports, _, _ = partition_conflict_reports(paths, part)
            assert nonempty({pid: r.pairs for pid, r in reports.items()}) == expected
            filed += sum(len(pairs) for pairs in expected.values())
        assert filed > 0

    def test_three_agents_on_one_state(self):
        # all three stand on (2, 2) at t=1 and meet nowhere else
        grid = GridMap(6, 6)
        part = Partitioning.for_map(grid, 1)
        paths = [
            straight_path(0, [(1, 2), (2, 2), (3, 2)]),
            straight_path(1, [(3, 2), (2, 2), (1, 2)]),
            straight_path(2, [(2, 1), (2, 2), (2, 3)]),
        ]
        reports = reports_by_partition(paths, part)
        assert reports == {0: {(0, 1), (0, 2), (1, 2)}}
        assert nonempty(reports) == brute_partition_pairs(paths, part.locate, 2)

    @pytest.mark.parametrize("n_parts", [1, 4])
    def test_swap_against_two_agents_on_one_move(self, n_parts):
        # 0 and 1 take the move (5, 3) -> (6, 3) at t=0 and 2 takes it the
        # other way: only the swap pairs 1 with 2, so a table that keeps one
        # agent per move misses that pair. With four parts the move crosses
        # the x-cut between 5 and 6, and both partitions see every pair
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, n_parts)
        paths = [
            straight_path(0, [(5, 3), (6, 3)]),
            straight_path(1, [(5, 3), (6, 3)]),
            straight_path(2, [(6, 3), (5, 3)]),
        ]
        reports = reports_by_partition(paths, part)
        everyone = {(0, 1), (0, 2), (1, 2)}
        assert reports == {pid: everyone for pid in {part.locate((5, 3)), part.locate((6, 3))}}
        assert nonempty(reports) == brute_partition_pairs(paths, part.locate, 1)


class TestDetectConflicts:
    def test_vertex_conflict(self):
        grid = GridMap(6, 6)
        part = Partitioning.for_map(grid, 1)
        a = straight_path(0, [(1, 2), (2, 2)])
        b = straight_path(1, [(3, 2), (2, 2)])
        segs = split_path(a, part) + split_path(b, part)
        report = detect_conflicts_in_partition(segs)
        assert report.pairs == {(0, 1)}

    def test_swap_conflict(self):
        grid = GridMap(6, 6)
        part = Partitioning.for_map(grid, 1)
        a = straight_path(0, [(0, 0), (1, 0)])
        b = straight_path(1, [(1, 0), (0, 0)])
        segs = split_path(a, part) + split_path(b, part)
        assert detect_conflicts_in_partition(segs).pairs == {(0, 1)}

    def test_goal_stay_extension(self):
        grid = GridMap(10, 10)
        part = Partitioning.for_map(grid, 1)
        a = straight_path(0, [(3, 2), (3, 3)])  # parks on (3, 3) at t=1
        b = straight_path(1, [(0, 3), (1, 3), (2, 3), (3, 3), (4, 3)])  # passes at t=3
        segs = split_path(a, part) + split_path(b, part)
        report = detect_conflicts_in_partition(segs)
        assert report.pairs == {(0, 1)}  # no shared explicit state, only the stay

    def test_parked_agent_meets_a_later_arrival(self):
        grid = GridMap(10, 10)
        part = Partitioning.for_map(grid, 1)
        a = straight_path(0, [(0, 3), (1, 3), (2, 3), (3, 3)])  # parks on (3, 3) at t=3
        b = straight_path(1, [(3, 7), (3, 6), (3, 5), (3, 4), (3, 3)])  # parks there at t=4
        report = detect_conflicts_in_partition(split_path(a, part) + split_path(b, part))
        assert report.pairs == {(0, 1)} == brute_conflict_pairs([a, b])

    def test_boundary_swap_is_caught(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)  # boundary between x=5 and x=6
        a = straight_path(0, [(5, 3), (6, 3)])
        b = straight_path(1, [(6, 3), (5, 3)])
        _, reports, _, _ = partition_conflict_reports([a, b], part)
        seen = set()
        for rep in reports.values():
            seen |= rep.pairs
        assert seen == {(0, 1)}
        # both endpoint partitions spotted it
        assert sum(1 for rep in reports.values() if rep.pairs) == 2


class TestIntersectionGraph:
    def test_two_crossing_pairs(self):
        # four agents on an empty 12x12 grid: two straight-line crossings
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)
        paths = [
            straight_path(0, [(5, y) for y in range(2, 9)]),     # vertical line x=5
            straight_path(1, [(x, 5) for x in range(2, 9)]),     # horizontal line y=5
            straight_path(2, [(9, y) for y in range(1, 8)]),     # vertical line x=9
            straight_path(3, [(x, 4) for x in range(6, 12)]),    # horizontal line y=4
        ]
        ig = build_intersection_graph(paths, part)
        assert ig.nodes == (0, 1, 2, 3)
        assert ig.edges == {(0, 1), (2, 3)}
        assert ig.n_edges == 2

    def test_disjoint_paths_edgeless(self):
        grid = GridMap(8, 8)
        part = Partitioning.for_map(grid, 4)
        paths = [
            straight_path(0, [(0, 0), (1, 0)]),
            straight_path(1, [(0, 7), (1, 7)]),
            straight_path(2, [(7, 0), (7, 1)]),
        ]
        ig = build_intersection_graph(paths, part)
        assert ig.edges == frozenset()
        assert ig.n_edges == 0

    @pytest.mark.parametrize("n_parts", [1, 4, 7, 10])
    def test_matches_brute_force(self, n_parts):
        rng = np.random.default_rng(101 + n_parts)
        for _ in range(40):
            grid = generate_random_map(10, 10, 0.1, seed=int(rng.integers(1 << 30)))
            part = Partitioning.for_map(grid, n_parts)
            paths = [random_timed_path(rng, grid, a, max_len=14) for a in range(8)]
            ig = build_intersection_graph(paths, part)
            assert set(ig.edges) == brute_conflict_pairs(paths)


class TestConnectedComponents:
    def test_edgeless(self):
        g = IntersectionGraph((0, 1, 2, 3, 4), frozenset())
        assert connected_components(g) == [(0,), (1,), (2,), (3,), (4,)]

    def test_path_graph(self):
        g = IntersectionGraph((1, 2, 3), frozenset({(1, 2), (2, 3)}))
        assert connected_components(g) == [(1, 2, 3)]

    def test_matches_union_find(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            nodes = tuple(range(n))
            edges = set()
            for _ in range(int(rng.integers(0, 2 * n))):
                a, b = int(rng.integers(n)), int(rng.integers(n))
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            g = IntersectionGraph(nodes, frozenset(edges))
            assert connected_components(g) == union_find_components(nodes, edges)


class TestValidateSolution:
    def test_single_valid_path(self):
        grid = GridMap(5, 5)
        p = straight_path(0, [(0, 0), (1, 0), (2, 0)])
        assert validate_solution({0: p}, grid, own_endpoints(p)) == []

    def test_swap_is_one_violation(self):
        grid = GridMap(5, 5)
        a = straight_path(0, [(0, 0), (1, 0)])
        b = straight_path(1, [(1, 0), (0, 0)])
        violations = validate_solution({0: a, 1: b}, grid, own_endpoints(a, b))
        assert len(violations) == 1 and "swap" in violations[0]

    def test_vertex_and_stay_violations(self):
        grid = GridMap(5, 5)
        a = straight_path(0, [(2, 2), (2, 3)])  # parks on (2,3) at t=1
        b = straight_path(1, [(2, 4), (2, 3), (2, 3), (2, 3)])
        violations = validate_solution({0: a, 1: b}, grid, own_endpoints(a, b))
        assert violations  # b sits on a's goal after a arrived

    def test_endpoint_mismatch(self):
        grid = GridMap(5, 5)
        p = straight_path(0, [(0, 0), (1, 0)])
        violations = validate_solution({0: p}, grid, [((0, 0), (2, 0))])
        assert any("ends at" in v for v in violations)

    def test_non_integer_state_reported(self):
        # agent 1 crosses the row in half steps; its endpoints, times and
        # step lengths are all in order. TimedPath refuses such states, so
        # they are written into a built path, as a caller could
        grid = GridMap(4, 4)
        a = straight_path(0, [(0, 0), (1, 0), (2, 0), (3, 0)])
        b = straight_path(1, [(0, 1), (1, 1), (2, 1), (3, 1), (3, 1)])
        half_steps = ((0, 1, 0), (0.5, 1, 1), (1.5, 1, 2), (2.5, 1, 3), (3, 1, 4))
        object.__setattr__(b, "states", half_steps)
        violations = validate_solution({0: a, 1: b}, grid, own_endpoints(a, b))
        assert violations == [
            f"agent 1: state ({x}, 1, {t}) blocked or out of bounds"
            for x, t in ((0.5, 1), (1.5, 2), (2.5, 3))
        ]

    def test_missing_path(self):
        grid = GridMap(5, 5)
        p0 = straight_path(0, [(0, 0), (1, 0)])
        endpoints = [((0, 0), (1, 0)), ((4, 4), (3, 4))]
        assert validate_solution({0: p0}, grid, endpoints) == ["agent 1: no path"]
        assert validate_solution({}, grid, endpoints) == ["agent 0: no path", "agent 1: no path"]

    def test_unknown_agent_reported(self):
        # a path for an agent the endpoints do not list is a violation, not
        # a lookup error; a negative id is not matched against an agent
        # counted from the end
        grid = GridMap(5, 5)
        p7 = straight_path(7, [(4, 4)])
        assert validate_solution({7: p7}, grid, [((0, 0), (1, 0))]) == [
            "agent 0: no path",
            "agent 7: not in the instance",
        ]
        p0 = straight_path(0, [(0, 0), (1, 0)])
        p_neg = straight_path(-1, [(4, 4), (3, 4)])
        endpoints = [((0, 0), (1, 0)), ((4, 4), (3, 4))]
        assert validate_solution({0: p0, -1: p_neg}, grid, endpoints) == [
            "agent 1: no path",
            "agent -1: not in the instance",
        ]

    def test_mislabeled_paths_reported(self):
        # the mapping keys each path by its own agent: swapped or repeated
        # paths are reported even where endpoints and collisions look fine
        grid = GridMap(5, 5)
        p0 = straight_path(0, [(0, 0), (1, 0)])
        p1 = straight_path(1, [(4, 4), (3, 4)])
        endpoints = [((0, 0), (1, 0)), ((4, 4), (3, 4))]
        assert validate_solution({0: p0, 1: p1}, grid, endpoints) == []
        assert validate_solution({0: p1, 1: p0}, grid, endpoints) == [
            "agent 0: path belongs to agent 1",
            "agent 1: path belongs to agent 0",
        ]
        assert validate_solution({0: p0, 1: p0}, grid, own_endpoints(p0)) == [
            "agent 1: path belongs to agent 0"
        ]

    def test_late_start(self):
        # agent 1 passes (2, 0) at t=2, where agent 0 stood before it started
        grid = GridMap(5, 5)
        a = straight_path(0, [(2, 0), (2, 0)], start_t=3)
        b = straight_path(1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        assert validate_solution({0: a, 1: b}, grid, own_endpoints(a, b)) == [
            "agent 0: starts at t=3, expected t=0"
        ]

    def test_obstacle_violation(self):
        grid = GridMap(5, 5, frozenset({(1, 0)}))
        p = straight_path(0, [(0, 0), (1, 0)])
        assert any("blocked" in v for v in validate_solution({0: p}, grid, own_endpoints(p)))
