import re
import time

import numpy as np
import pytest

from mapfkit import (
    GridMap,
    PathConflictError,
    ReservationTable,
    ReverseResumableAStar,
    TimedPath,
    astar_static,
    generate_random_map,
    space_time_astar,
)

from oracles import (
    bfs_descent,
    bfs_distance,
    bfs_distances,
    random_timed_path,
    tie_broken_space_time_path,
    time_expanded_shortest,
)


class TestTimedPath:
    def test_cost_counts_waits(self):
        p = TimedPath(3, ((0, 0, 0), (0, 0, 1), (1, 0, 2)))
        assert p.cost == 2
        assert p.start == (0, 0) and p.goal == (1, 0)

    def test_rejects_time_gaps(self):
        with pytest.raises(ValueError):
            TimedPath(0, ((0, 0, 0), (1, 0, 2)))

    def test_rejects_jumps(self):
        with pytest.raises(ValueError):
            TimedPath(0, ((0, 0, 0), (1, 1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimedPath(0, ())

    def test_rejects_start_before_time_zero(self):
        # a reservation table used to take such a path for a goal clash
        # ("goal stay at (0, 0) from t=-2"); the path itself is the fault
        with pytest.raises(ValueError, match=r"agent 0 path starts at t=-3, before t=0"):
            ReservationTable(GridMap(3, 1)).insert_path(TimedPath(0, ((1, 0, -3), (0, 0, -2))))

    @pytest.mark.parametrize(
        "states",
        [
            ((0.5, 0, 0),),
            ((0, 0, 0), (0, 0, 1.0)),
            ((True, 0, 0),),
            ((1, 0, 0), (True, 0, 1)),  # True == 1, so the step reads as a wait
        ],
    )
    def test_rejects_states_that_are_not_integers(self, states):
        # such a path used to build and reach a table, a split and the codec
        bad = next(st for st in states if any(type(v) is not int for v in st))
        with pytest.raises(ValueError, match=rf"agent 2 state {re.escape(str(bad))} is not"):
            TimedPath(2, states)

    def test_numpy_integer_states_accepted(self):
        x, t = np.int64(1), np.int32(1)
        path = TimedPath(0, ((0, 0, 0), (x, 0, t)))
        assert path.goal == (1, 0) and path.cost == 1


class TestAstarStatic:
    def test_start_equals_goal(self):
        grid = GridMap(5, 5)
        assert astar_static(grid, (2, 2), (2, 2)) == [(2, 2)]

    def test_empty_map_diagonal(self):
        grid = GridMap(5, 5)
        path = astar_static(grid, (0, 0), (4, 4))
        assert len(path) - 1 == 8

    def test_disconnected(self):
        grid = GridMap(3, 1, frozenset({(1, 0)}))
        assert astar_static(grid, (0, 0), (2, 0)) is None

    def test_rejects_blocked_endpoints(self):
        # a space-time search's goal is its heuristic's, refused where the
        # heuristic is built
        grid = GridMap(3, 3, frozenset({(1, 1)}))
        with pytest.raises(ValueError, match="start"):
            astar_static(grid, (1, 1), (0, 0))
        with pytest.raises(ValueError, match="start"):
            space_time_astar(ReverseResumableAStar(grid, (0, 0)), (1, 1), ReservationTable(grid))
        with pytest.raises(ValueError, match="goal"):
            astar_static(grid, (0, 0), (1, 1))
        with pytest.raises(ValueError, match="goal"):
            ReverseResumableAStar(grid, (1, 1))

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(11)
        grid = generate_random_map(20, 20, 0.25, seed=3)
        free = grid.free_cells()
        for _ in range(100):
            s = free[int(rng.integers(len(free)))]
            g = free[int(rng.integers(len(free)))]
            expected = bfs_distance(grid, s, g)
            path = astar_static(grid, s, g)
            if expected is None:
                assert path is None
            else:
                assert len(path) - 1 == expected
                # path is valid: starts, ends, steps through free cells
                assert path[0] == s and path[-1] == g
                assert all(grid.is_free(c) for c in path)

    @staticmethod
    def descent_cases():
        # the open left part of a map split by a wall column ties many
        # shortest paths; the random maps have cut-off components
        rng = np.random.default_rng(7)
        open_grid = GridMap(9, 6, frozenset((7, y) for y in range(6)))
        cells = [c for c in open_grid.free_cells() if c[0] < 7]
        cases = [(open_grid, s, g) for s in cells for g in cells]
        for seed in range(4):
            grid = generate_random_map(14, 14, 0.3, seed=seed)
            free = grid.free_cells()
            pairs = rng.integers(len(free), size=(80, 2))
            cases += [(grid, free[i], free[j]) for i, j in pairs]
            cases.append((grid, free[0], free[0]))
        return cases

    def test_matches_bfs_descent(self):
        # a read-off of full BFS distances pins the tie-break, for both
        # entry points to the descent
        unreachable = 0
        for grid, s, g in self.descent_cases():
            expected = bfs_descent(grid, s, g)
            assert astar_static(grid, s, g) == expected, (s, g)
            path = space_time_astar(ReverseResumableAStar(grid, g), s, ReservationTable(grid))
            assert (None if path is None else path.cells()) == expected, (s, g)
            unreachable += expected is None
        assert unreachable

    def test_matches_space_time_search(self):
        # the tie-broken space-time A* oracle is the reference, against an
        # empty table and against one agent waiting in another component of the
        # map, far out of reach: a table whose reservations miss the path
        compared = 0
        for grid, s, g in self.descent_cases():
            reach = bfs_distances(grid, s)
            aside = [c for c in grid.free_cells() if c not in reach and c != g]
            if not aside:
                continue
            x, y = aside[0]
            waiting = TimedPath(1, tuple((x, y, t) for t in range(40)))
            rt = ReservationTable(grid)
            rt.insert_path(waiting)
            horizon = rt.last_time + grid.width * grid.height
            for fixed in ([], [waiting]):
                states = tie_broken_space_time_path(grid, s, g, fixed, horizon)
                expected = None if states is None else [state[:2] for state in states]
                assert astar_static(grid, s, g) == expected, (s, g)
                table = rt if fixed else ReservationTable(grid)
                path = space_time_astar(ReverseResumableAStar(grid, g), s, table)
                assert (None if path is None else path.states) == states, (s, g)
            compared += 1
        assert compared > 2000


class TestReverseResumable:
    def test_at_goal(self):
        grid = GridMap(5, 5)
        assert ReverseResumableAStar(grid, (3, 3)).distance((3, 3)) == 0

    def test_empty_map_is_manhattan(self):
        grid = GridMap(9, 9)
        h = ReverseResumableAStar(grid, (4, 4))
        assert h.distance((0, 0)) == 8
        assert h.distance((8, 1)) == 7

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bfs_oracle_on_random_maps(self, seed):
        # the goal's component in random order, so queries resume the
        # search; then the other components, whose first query uses the
        # region up; then every cell again, in a new order. Even seeds ask
        # about the goal first.
        rng = np.random.default_rng(seed)
        grid = generate_random_map(16, 16, 0.35, seed=seed)
        free = grid.free_cells()
        goal = free[int(rng.integers(len(free)))]
        expected = {cell: bfs_distance(grid, cell, goal) for cell in free}
        reachable = [c for c in free if expected[c] is not None]
        cut_off = [c for c in free if expected[c] is None]
        assert cut_off
        # Every third query is followed by a read-off from a reachable
        # cell, whose neighbour tests resume the search only through a stop
        # level: the queries after it must resume where it stopped.
        h = ReverseResumableAStar(grid, goal)
        rt = ReservationTable(grid)
        queries = [goal] if seed % 2 == 0 else []
        queries += [reachable[i] for i in rng.permutation(len(reachable))]
        queries += [cut_off[i] for i in rng.permutation(len(cut_off))]
        queries += [free[i] for i in rng.permutation(len(free))]
        for i, cell in enumerate(queries):
            assert h.distance(cell) == expected[cell], cell
            if i % 3 == 0:
                start = reachable[int(rng.integers(len(reachable)))]
                path = space_time_astar(h, start, rt)
                assert path.cells() == bfs_descent(grid, start, goal), start
        assert h.expanded == len(reachable)

    def test_expansion_budget(self):
        # across any sequence of queries and read-offs, total settles never
        # exceed the free-cell count
        grid = generate_random_map(15, 15, 0.2, seed=4)
        free = grid.free_cells()
        h = ReverseResumableAStar(grid, free[0])
        rt = ReservationTable(grid)
        rng = np.random.default_rng(1)
        for i in range(300):
            cell = free[int(rng.integers(len(free)))]
            if i % 2:
                space_time_astar(h, cell, rt)
            else:
                h.distance(cell)
            assert h.expanded <= len(free)

    def test_unreachable(self):
        grid = GridMap(3, 1, frozenset({(1, 0)}))
        h = ReverseResumableAStar(grid, (0, 0))
        assert h.distance((2, 0)) is None
        assert h.distance((2, 0)) is None

    def test_resume_past_previous_query_in_corridor(self):
        # a query that settles a corridor cell must leave its far neighbor
        # on the frontier, or the next query would report unreachable
        grid = GridMap(6, 1)
        h = ReverseResumableAStar(grid, (0, 0))
        assert h.distance((3, 0)) == 3
        assert h.distance((5, 0)) == 5

    def test_query_goal_first_then_resume(self):
        grid = GridMap(4, 4)
        h = ReverseResumableAStar(grid, (2, 2))
        assert h.distance((2, 2)) == 0
        assert h.distance((0, 0)) == 4

    def test_blocked_cell_settles_nothing(self):
        # a blocked first query neither floods the map nor aims the search:
        # the next query settles a few cells toward its own cell
        grid = GridMap(30, 30, frozenset({(5, 5)}))
        h = ReverseResumableAStar(grid, (20, 20))
        assert h.distance((5, 5)) is None
        assert h.expanded == 0
        assert h.distance((18, 20)) == bfs_distance(grid, (18, 20), (20, 20))
        assert h.expanded < 10


class TestReservationTable:
    def test_goal_stay_reserved_forever(self):
        rt = ReservationTable(GridMap(6, 1))
        path = TimedPath(0, tuple((x, 0, x) for x in range(6)))
        rt.insert_path(path)
        assert not rt.is_vertex_free((5, 0), 9)
        assert not rt.is_vertex_free((5, 0), 5)
        assert rt.is_vertex_free((5, 0), 4)

    def test_conflicting_insert_rejected(self):
        rt = ReservationTable(GridMap(3, 2))
        rt.insert_path(TimedPath(0, ((0, 0, 0), (1, 0, 1))))
        with pytest.raises(PathConflictError):
            rt.insert_path(TimedPath(1, ((1, 0, 0), (0, 0, 1))))  # swap
        with pytest.raises(PathConflictError):
            rt.insert_path(TimedPath(2, ((1, 0, 1), (1, 1, 2))))  # vertex
        with pytest.raises(PathConflictError):
            rt.insert_path(TimedPath(3, ((2, 0, 0), (1, 0, 1))))  # onto goal stay

    def test_insert_then_replan_avoids_everything(self):
        grid = GridMap(4, 4)
        rt = ReservationTable(grid)
        first = space_time_astar(ReverseResumableAStar(grid, (3, 0)), (0, 0), rt)
        rt.insert_path(first)
        second = space_time_astar(ReverseResumableAStar(grid, (3, 1)), (0, 1), rt)
        rt.insert_path(second)  # would raise if it collided
        assert second is not None


    def test_goal_clear_time_is_when_a_goal_fits(self):
        # a path that ends on a cell fits from the clear time on; before it
        # the path clashes, on a goal stay wherever its own last state is free
        # (at ``clear - 1`` the cell's last reservation is that state)
        rng = np.random.default_rng(31)
        grid = GridMap(6, 6)
        rt = ReservationTable(grid)
        for agent in range(6):
            p = random_timed_path(rng, grid, agent, max_len=10)
            if rt.path_conflict(p) is None:
                rt.insert_path(p)
        goal_stays = 0
        for cell in grid.free_cells():
            clear = rt.goal_clear_time(cell)
            for t in range(rt.last_time + 3):
                found = rt.path_conflict(TimedPath(9, ((*cell, t),)))
                if clear is not None and t >= clear:
                    assert found is None
                elif rt.is_vertex_free(cell, t):
                    assert found == f"goal stay at {cell} from t={t}"
                    goal_stays += 1
                else:
                    assert found == f"vertex {cell} at t={t}"
        assert goal_stays > 0
        # a cell crossed at t=1 and t=4 is clear from t=5, not in between
        rt = ReservationTable(GridMap(3, 1))
        crossing = ((0, 0, 0), (1, 0, 1), (2, 0, 2), (2, 0, 3), (1, 0, 4), (0, 0, 5))
        rt.insert_path(TimedPath(0, crossing))
        assert rt.goal_clear_time((1, 0)) == 5
        for t in (2, 3):
            assert rt.path_conflict(TimedPath(1, ((1, 0, t),))) == f"goal stay at (1, 0) from t={t}"
        assert rt.path_conflict(TimedPath(1, ((1, 0, 5),))) is None
        # a crossing path keeps the cell busy until one step after it leaves
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(0, ((0, 1, 0), (1, 1, 1), (2, 1, 2))))
        assert rt.goal_clear_time((1, 1)) == 2
        assert rt.goal_clear_time((2, 1)) is None
        assert rt.goal_clear_time((5, 5)) == 0

    def test_cells_off_the_map_rejected(self):
        grid = GridMap(3, 2)
        rt = ReservationTable(grid)
        with pytest.raises(ValueError):
            rt.insert_path(TimedPath(0, ((2, 0, 0), (3, 0, 1), (2, 0, 2))))
        with pytest.raises(ValueError):
            rt.is_vertex_free((0, 2), 0)
        assert rt.vertices == set() and rt.edges == set()

    def test_queries_take_cells_of_two_integers(self):
        # each query refuses a pair that is no cell the same way, as it
        # refuses one off the map; NumPy integers are cells
        rt = ReservationTable(GridMap(3, 2))
        rt.insert_path(TimedPath(0, ((0, 0, 0), (1, 0, 1))))
        for query in (
            lambda: rt.goal_clear_time((0.5, 0)),
            lambda: rt.is_vertex_free((0, 0.0), 0),
            lambda: rt.is_move_free((0.5, 0), (1, 0), 0),
            lambda: rt.is_move_free((1, 0), (1.0, 1), 0),
            lambda: rt.is_vertex_free((True, 0), 0),
        ):
            with pytest.raises(ValueError, match="is not two integers"):
                query()
        assert rt.goal_clear_time((np.int64(1), 0)) is None
        assert not rt.is_vertex_free((np.int64(0), np.int32(0)), 0)
        assert not rt.is_move_free((np.int64(0), 0), (1, 0), 0)


def table_state(rt):
    """Everything a reservation table holds, as plain comparable values."""
    return (set(rt.vertices), set(rt.edges), list(rt.goal_stays), dict(rt._last_vertex), rt.last_time)


def clash_table():
    """Agent 0 crosses row 1 of a 6x4 map and parks on (5, 1) from t=5;
    agent 1 climbs column 4 and parks on (4, 0) from t=3."""
    rt = ReservationTable(GridMap(6, 4))
    rt.insert_path(TimedPath(0, tuple((x, 1, x) for x in range(6))))
    rt.insert_path(TimedPath(1, ((4, 3, 0), (4, 2, 1), (4, 1, 2), (4, 0, 3))))
    return rt


class TestOnePassInsert:
    """``insert_path`` checks and reserves in one pass: a rejected path must
    raise the message ``path_conflict`` gives and leave the table as it
    was, wherever on the path the clash is."""

    def test_one_edge_key_per_fixed_move(self):
        # each fixed move holds the key of the move that would swap with it,
        # and only that key: agent 0 makes 5 moves and agent 1 makes 3
        rt = clash_table()
        a = rt.area
        assert len(rt.edges) == 8
        assert rt.edges == {
            (t * a + y1 * 6 + x1) * a + y0 * 6 + x0
            for path in rt._paths
            for x0, y0, x1, y1, t in path.iter_moves()
        }

    @pytest.mark.parametrize(
        "states, conflict",
        [
            # vertex: at the first state, in the middle, at the last
            (((0, 1, 0), (0, 0, 1), (0, 0, 2)), "vertex (0, 1) at t=0"),
            (((2, 3, 0), (2, 2, 1), (2, 1, 2), (2, 0, 3), (1, 0, 4)), "vertex (2, 1) at t=2"),
            (((3, 3, 0), (3, 3, 1), (3, 2, 2), (3, 1, 3)), "vertex (3, 1) at t=3"),
            # swap: on the first move, a middle one, the last
            (((1, 1, 0), (0, 1, 1), (0, 0, 2)), "edge (1, 1)->(0, 1) at t=0"),
            (((3, 0, 0), (3, 0, 1), (3, 1, 2), (2, 1, 3), (2, 0, 4)), "edge (3, 1)->(2, 1) at t=2"),
            (
                ((5, 0, 0), (5, 0, 1), (5, 0, 2), (5, 0, 3), (5, 1, 4), (4, 1, 5)),
                "edge (5, 1)->(4, 1) at t=4",
            ),
            # onto a goal stay: at the first state, in the middle, at the last
            (((4, 0, 5), (3, 0, 6)), "vertex (4, 0) at t=5"),
            (((3, 0, 4), (4, 0, 5), (5, 0, 6), (5, 0, 7)), "vertex (4, 0) at t=5"),
            (((5, 3, 5), (5, 2, 6), (5, 1, 7)), "vertex (5, 1) at t=7"),
            # parking where a fixed path passes or parks later
            (((3, 1, 1),), "goal stay at (3, 1) from t=1"),
            (((2, 2, 0), (3, 2, 1), (3, 1, 2)), "goal stay at (3, 1) from t=2"),
            (((5, 3, 1), (5, 2, 2), (5, 1, 3)), "goal stay at (5, 1) from t=3"),
        ],
    )
    def test_rejected_path_leaves_the_table(self, states, conflict):
        rt = clash_table()
        before = table_state(rt)
        path = TimedPath(9, states)
        assert rt.path_conflict(path) == conflict
        with pytest.raises(PathConflictError) as exc:
            rt.insert_path(path)
        assert str(exc.value) == f"agent 9 path conflicts with reservations: {conflict}"
        assert table_state(rt) == before
        # the same path fits once the clash is gone
        ReservationTable(GridMap(6, 4)).insert_path(path)

    @pytest.mark.parametrize(
        "states",
        [
            ((0, 3, 0), (0, 2, 1), (-1, 2, 2)),
            # a clash before the state off the map does not hide it
            ((1, 2, 0), (1, 1, 1), (1, 0, 2), (1, -1, 3)),
            # nor does a goal that is off the map
            ((5, 3, 0), (6, 3, 1)),
        ],
    )
    def test_off_the_map_leaves_the_table(self, states):
        rt = clash_table()
        before = table_state(rt)
        with pytest.raises(ValueError, match="leaves the 6x4 map at") as exc:
            rt.insert_path(TimedPath(9, states))
        assert not isinstance(exc.value, PathConflictError)
        assert table_state(rt) == before

    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_inserts_match_path_conflict(self, seed):
        # a path is rejected exactly when path_conflict names a clash, with
        # its message, and what stays is the table of the accepted paths
        rng = np.random.default_rng(seed)
        rejected = 0
        for _ in range(150):
            grid = GridMap(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            rt = ReservationTable(grid)
            accepted = []
            for agent in range(int(rng.integers(1, 10))):
                start = int(rng.integers(0, 4))
                path = random_timed_path(rng, grid, agent, max_len=12, start_t=start)
                conflict = rt.path_conflict(path)
                if conflict is None:
                    rt.insert_path(path)
                    accepted.append(path)
                    continue
                rejected += 1
                with pytest.raises(PathConflictError) as exc:
                    rt.insert_path(path)
                assert str(exc.value).endswith(f"reservations: {conflict}")
            rebuilt = ReservationTable(grid)
            for path in accepted:
                rebuilt.insert_path(path)
            assert table_state(rt) == table_state(rebuilt)
            assert len(rt.edges) == sum(len(list(p.iter_moves())) for p in accepted)
        assert rejected > 300  # the rejections are the point of the test


class TestSpaceTimeAstar:
    def test_reduces_to_astar_without_reservations(self):
        grid = GridMap(3, 1)
        path = space_time_astar(ReverseResumableAStar(grid, (2, 0)), (0, 0), ReservationTable(grid))
        assert path.cost == 2
        assert path.cells() == [(0, 0), (1, 0), (2, 0)]

    def test_waits_out_a_vertex_reservation(self):
        # another agent crosses (1, 0) at t=1 on its way from (1, 1) to (1, 2)
        grid = GridMap(3, 3)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(1, ((1, 1, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3))))
        path = space_time_astar(ReverseResumableAStar(grid, (2, 0)), (0, 0), rt)
        assert path.cost == 3  # wait once, then proceed

    def test_detours_around_goal_stay(self):
        grid = GridMap(3, 2)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(9, ((1, 1, 0), (1, 0, 1))))  # parks on (1, 0) from t=1
        path = space_time_astar(ReverseResumableAStar(grid, (2, 0)), (0, 0), rt)
        assert path.cost == 4
        assert path.cells() == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)]

    def test_goal_stay_feasibility_delays_arrival(self):
        # another agent passes through our goal at t=3: arriving earlier and
        # parking would collide, so arrival must wait until after the visit
        grid = GridMap(5, 5)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(7, ((2, 4, 0), (2, 3, 1), (2, 2, 2), (2, 1, 3), (2, 0, 4))))
        path = space_time_astar(ReverseResumableAStar(grid, (2, 1)), (2, 0), rt)
        assert path is not None
        assert path.arrival_time > 3

    def test_infeasible_within_horizon(self):
        grid = GridMap(3, 1)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(1, ((1, 0, 0), (1, 0, 1))))  # parks mid-corridor
        assert space_time_astar(ReverseResumableAStar(grid, (2, 0)), (0, 0), rt) is None

    def test_start_equals_goal_with_eviction(self):
        # another agent passes through the cell: leave, loop around, return
        grid = GridMap(5, 8)
        rt = ReservationTable(grid)
        rt.insert_path(
            TimedPath(101, ((4, 1, 0), (4, 0, 1), (4, 0, 2), (4, 0, 3), (3, 0, 4), (3, 1, 5), (3, 2, 6)))
        )
        path = space_time_astar(ReverseResumableAStar(grid, (4, 0)), (4, 0), rt)
        assert path is not None
        assert path.arrival_time == 4
        assert rt.path_conflict(path) is None

    def test_reserved_start_rejected(self):
        grid = GridMap(3, 1)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(1, ((0, 0, 0), (1, 0, 1))))
        with pytest.raises(ValueError):
            space_time_astar(ReverseResumableAStar(grid, (2, 0)), (0, 0), rt)

    def test_optional_arguments_are_keyword_only(self):
        # a stale start time passed by position is an error, and so is a
        # search with no table
        grid = GridMap(3, 1)
        h = ReverseResumableAStar(grid, (2, 0))
        with pytest.raises(TypeError):
            space_time_astar(h, (0, 0), ReservationTable(grid), 0)
        with pytest.raises(TypeError):
            space_time_astar(h, (0, 0))

    def test_table_for_another_map_size_rejected(self):
        rt = ReservationTable(GridMap(5, 5))
        with pytest.raises(ValueError, match="5x5"):
            space_time_astar(ReverseResumableAStar(GridMap(8, 8), (2, 2)), (0, 0), rt)

    def test_goal_under_a_stay_fails_at_once(self):
        # another agent parks on the goal: no arrival is ever safe, and the
        # search gives up before it asks the heuristic anything
        grid = GridMap(30, 30)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(1, ((20, 20, 0), (21, 20, 1))))
        h = ReverseResumableAStar(grid, (21, 20))
        assert space_time_astar(h, (0, 0), rt) is None
        assert h.expanded == 0

    def test_past_deadline_cuts_a_long_search(self):
        # a wall column splits the map, and agent 1 holds its one gap until
        # t=400, then steps out and parks aside; the search floods every
        # state left of the wall that can wait for the gap, far more than
        # one check interval of pops
        grid = GridMap(60, 60, frozenset((30, y) for y in range(60) if y != 30))
        rt = ReservationTable(grid)
        held = tuple((30, 30, t) for t in range(401)) + ((31, 30, 401), (31, 31, 402))
        rt.insert_path(TimedPath(1, held))
        h = ReverseResumableAStar(grid, (59, 59))
        with pytest.raises(TimeoutError):
            space_time_astar(h, (0, 0), rt, deadline=time.perf_counter() - 1.0)
        path = space_time_astar(h, (0, 0), rt, deadline=time.perf_counter() + 60)
        assert path.arrival_time == 401 + 1 + 57  # into the gap at 401, then the free walk
        assert rt.path_conflict(path) is None

    def test_empty_table_settles_only_the_descent(self):
        # with no reservations the path is read off the distances, and only
        # cells no cheap bound decides are settled: corner to corner on an
        # open map, far fewer than the 1600 cells of the start-goal
        # rectangle. The read-off pops nothing, so a deadline already past
        # is never read
        grid = GridMap(40, 40)
        h = ReverseResumableAStar(grid, (39, 39))
        rt = ReservationTable(grid)
        path = space_time_astar(h, (0, 0), rt, deadline=time.perf_counter() - 1.0)
        assert path.cost == 78
        assert h.expanded < 200

    def test_missed_reservations_settle_only_the_descent(self):
        # one agent parks in the far corner, off the path: the descent is
        # free, so the path is read off as against an empty table. A heap
        # search would settle nearly all 1600 cells of the rectangle, since
        # it generates the neighbours one f-level up of every state it pops
        grid = GridMap(40, 40)
        rt = ReservationTable(grid)
        rt.insert_path(TimedPath(1, ((0, 39, 0),)))
        h = ReverseResumableAStar(grid, (39, 39))
        path = space_time_astar(h, (0, 0), rt, deadline=time.perf_counter() - 1.0)
        assert path.cost == 78
        assert h.expanded < 200

    def test_goal_busy_until_late_is_no_flood(self):
        # agent 1 crosses the map, and the goal is a cell it passes late.
        # Bounded by the goal's clear time, the heuristic sends the search
        # straight to the goal: it pops fewer states than one check
        # interval, so a deadline already past is never read
        grid = GridMap(30, 30)
        rt = ReservationTable(grid)
        route = space_time_astar(ReverseResumableAStar(grid, (29, 29)), (0, 0), rt, agent=1)
        rt.insert_path(route)
        x, y, _ = route.states[3 * len(route.states) // 4]
        start = grid.neighbors4((x, y))[0]
        h = ReverseResumableAStar(grid, (x, y))
        path = space_time_astar(h, start, rt, deadline=time.perf_counter() - 1.0)
        horizon = rt.last_time + grid.width * grid.height
        assert path.arrival_time == time_expanded_shortest(grid, start, (x, y), [route], 0, horizon)
        assert rt.path_conflict(path) is None

    def test_reservation_queries_match_fixed_path_oracle(self):
        # insert two crossing candidate paths, then probe every state and
        # move in a window against occupancy derived straight from the paths
        from oracles import moves_of, occupies

        grid = GridMap(12, 12)
        rt = ReservationTable(grid)
        red = TimedPath(0, tuple((5, y, i) for i, y in enumerate(range(2, 9))))
        green = TimedPath(2, tuple((9, y, i) for i, y in enumerate(range(1, 8))))
        rt.insert_path(red)
        rt.insert_path(green)
        fixed = [red, green]
        for t in range(0, 10):
            for x in range(3, 11):
                for y in range(0, 10):
                    expected_free = not any(occupies(p, (x, y), t) for p in fixed)
                    assert rt.is_vertex_free((x, y), t) == expected_free, ((x, y), t)
        all_moves = moves_of(red) | moves_of(green)
        for x0, y0, x1, y1, t in all_moves:
            assert not rt.is_move_free((x1, y1), (x0, y0), t)  # swap blocked
            assert not rt.is_move_free((x0, y0), (x1, y1), t)  # same edge blocked

    def test_deterministic(self):
        grid = generate_random_map(12, 12, 0.2, seed=2)
        free = grid.free_cells()
        rt = ReservationTable(grid)
        rt.insert_path(space_time_astar(ReverseResumableAStar(grid, free[-1]), free[0], rt))
        a = space_time_astar(ReverseResumableAStar(grid, free[-4]), free[3], rt, agent=1)
        b = space_time_astar(ReverseResumableAStar(grid, free[-4]), free[3], rt, agent=1)
        assert a == b

    def test_matches_time_expanded_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 60:
            grid = generate_random_map(
                6, 6, float(rng.uniform(0, 0.3)), seed=int(rng.integers(1 << 30))
            )
            free = grid.free_cells()
            if len(free) < 6:
                continue
            fixed = []
            rt = ReservationTable(grid)
            for agent in range(int(rng.integers(3))):
                p = random_timed_path(rng, grid, agent + 10, max_len=8)
                if rt.path_conflict(p) is None:
                    rt.insert_path(p)
                    fixed.append(p)
            s = free[int(rng.integers(len(free)))]
            g = free[int(rng.integers(len(free)))]
            if not rt.is_vertex_free(s, 0):
                continue
            horizon = rt.last_time + grid.width * grid.height
            expected = time_expanded_shortest(grid, s, g, fixed, 0, horizon)
            path = space_time_astar(ReverseResumableAStar(grid, g), s, rt)
            if expected is None:
                assert path is None
            else:
                assert path is not None and path.arrival_time == expected
            checked += 1

    def test_tail_matches_time_expanded_oracle(self):
        # 3-6 fixed paths; every third goal has each free neighbour parked
        # on, so it is sealed off from some time on
        rng = np.random.default_rng(2011)
        sealed = found = tail = 0
        for case in range(60):
            grid = generate_random_map(
                7, 7, float(rng.uniform(0, 0.3)), seed=int(rng.integers(1 << 30))
            )
            free = grid.free_cells()
            if len(free) < 12:
                continue
            rt = ReservationTable(grid)
            fixed = []
            want = int(rng.integers(3, 7))
            for _ in range(100):
                p = random_timed_path(rng, grid, 10 + len(fixed), max_len=10)
                if rt.path_conflict(p) is None:
                    rt.insert_path(p)
                    fixed.append(p)
                    if len(fixed) == want:
                        break
            g = free[int(rng.integers(len(free)))]
            if case % 3 == 0:
                for x, y in grid.neighbors4(g):
                    clear = rt.goal_clear_time((x, y))
                    if clear is not None:
                        p = TimedPath(10 + len(fixed), ((x, y, clear),))
                        rt.insert_path(p)
                        fixed.append(p)
            assert len(fixed) >= 3
            open_starts = [c for c in free if rt.is_vertex_free(c, 0)]
            s = open_starts[int(rng.integers(len(open_starts)))]
            horizon = rt.last_time + grid.width * grid.height
            expected = time_expanded_shortest(grid, s, g, fixed, 0, horizon)
            path = space_time_astar(ReverseResumableAStar(grid, g), s, rt)
            if expected is None:
                assert path is None, (case, s, g)
                sealed += case % 3 == 0
                # a search reaches the tail if it exhausts its states while
                # it can wait on its start past rt.last_time ...
                tail += (
                    rt.goal_clear_time(g) is not None
                    and bfs_distance(grid, s, g) is not None
                    and all(rt.is_vertex_free(s, t) for t in range(rt.last_time + 1))
                )
            else:
                assert path is not None and path.arrival_time == expected, (case, s, g)
                assert path.states[0] == (*s, 0)
                assert rt.path_conflict(path) is None
                found += 1
                tail += expected > rt.last_time  # ... or if it arrives there
        assert sealed >= 3 and found >= 20 and tail >= 10

    def test_corridor_answer_far_into_the_tail(self):
        # a snake corridor through every free cell but one pocket; agent 1
        # holds the corridor's second cell until t=10, then steps into the
        # pocket, so the searching agent waits 10 steps, then walks the
        # other 30 corridor cells: it arrives 29 steps into the tail
        walls = {(x, 0) for x in range(7) if x != 1}
        walls |= {(x, y) for y, gap in ((2, 6), (4, 0), (6, 6)) for x in range(7) if x != gap}
        grid = GridMap(7, 8, frozenset(walls))
        rt = ReservationTable(grid)
        held = TimedPath(1, tuple((1, 1, t) for t in range(11)) + ((1, 0, 11),))
        rt.insert_path(held)
        start, goal = (0, 1), (0, 7)
        horizon = rt.last_time + grid.width * grid.height
        expected = time_expanded_shortest(grid, start, goal, [held], 0, horizon)
        path = space_time_astar(ReverseResumableAStar(grid, goal), start, rt)
        assert len(grid.free_cells()) == 32
        assert expected == rt.last_time + 29 == 40
        assert path is not None and path.arrival_time == expected
        assert rt.path_conflict(path) is None


class TestFreeDescent:
    """A search whose smallest-id static descent the table leaves free
    returns that descent; one whose descent is reserved searches. Either
    way the states are those of the tie-broken space-time A* oracle."""

    @staticmethod
    def solve(grid, start, goal, fixed):
        rt = ReservationTable(grid)
        for p in fixed:
            rt.insert_path(p)
        path = space_time_astar(ReverseResumableAStar(grid, goal), start, rt)
        horizon = rt.last_time + grid.width * grid.height
        expected = tie_broken_space_time_path(grid, start, goal, fixed, horizon)
        assert (None if path is None else path.states) == expected
        return rt, path

    def test_matches_tie_broken_oracle(self):
        rng = np.random.default_rng(26)
        cases = read_off = searched = 0
        while cases < 1500:
            side = int(rng.integers(4, 9))
            grid = generate_random_map(
                side, side, float(rng.uniform(0, 0.3)), seed=int(rng.integers(1 << 30))
            )
            free = grid.free_cells()
            if len(free) < 4:
                continue
            fixed = []
            rt = ReservationTable(grid)
            for _ in range(int(rng.integers(1, 6))):
                p = random_timed_path(rng, grid, 10 + len(fixed), max_len=10)
                if rt.path_conflict(p) is None:
                    rt.insert_path(p)
                    fixed.append(p)
            starts = [c for c in free if rt.is_vertex_free(c, 0)]
            if not starts:
                continue
            s = starts[int(rng.integers(len(starts)))]
            g = free[int(rng.integers(len(free)))]
            _, path = self.solve(grid, s, g, fixed)
            cases += 1
            # a returned descent was free of the table, so it was read off
            if path is not None and path.cells() == bfs_descent(grid, s, g):
                read_off += 1
            else:
                searched += 1
        assert read_off > 500 and searched > 300

    # (0, 1) to (4, 1) on a 5x3 map descends straight along row 1
    grid = GridMap(5, 3)
    descent = [(0, 1, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 4)]

    def test_descent_blocked_only_by_a_swap(self):
        # agent 1 steps (2, 1) -> (1, 1) as the descent steps back across
        swap = TimedPath(1, ((2, 0, 0), (2, 1, 1), (1, 1, 2), (1, 0, 3)))
        rt, path = self.solve(self.grid, (0, 1), (4, 1), [swap])
        assert all(rt.is_vertex_free((x, y), t) for x, y, t in self.descent)
        assert not rt.is_move_free((1, 1), (2, 1), 1)
        assert path.cost == 6

    def test_descent_blocked_only_by_a_parked_agent(self):
        # agent 1 parks on (3, 1) at t=1: the descent passes there at t=3,
        # a state that only the stay reserves
        parked = TimedPath(1, ((3, 0, 0), (3, 1, 1)))
        rt, path = self.solve(self.grid, (0, 1), (4, 1), [parked])
        assert (3, 1, 3) not in parked.states
        assert not rt.is_vertex_free((3, 1), 3)
        assert path.cost == 6

    def test_neighbour_into_a_dead_end_pocket_settles_one_level(self):
        # The walls close the straight way, so the descent from S climbs
        # column 16 to the wall at row 5. There its smaller-id neighbour
        # (15, 6) is one Manhattan step closer to the goal and inside the
        # start-goal rectangle, but it leads into the dead-end pocket of
        # row 6, so it is at d + 2. Finishing the open level 22 decides that:
        # 41 settles in all. Resuming until (15, 6) settles also floods the
        # shadow below the pocket at level 24: 102 settles in all.
        rows = (
            "....................",
            ".......G............",
            "......###########...",
            "......#.............",
            "......#.........#...",
            "......###########...",
            "......#.............",
            "......##########....",
            "....................",
            "....................",
            "....................",
            "....................",
            "................S...",
        )
        cells = {(x, y): ch for y, row in enumerate(rows) for x, ch in enumerate(row)}
        grid = GridMap(len(rows[0]), len(rows), frozenset(c for c, ch in cells.items() if ch == "#"))
        start = next(c for c, ch in cells.items() if ch == "S")
        goal = next(c for c, ch in cells.items() if ch == "G")
        h = ReverseResumableAStar(grid, goal)
        path = space_time_astar(h, start, ReservationTable(grid))
        descent = bfs_descent(grid, start, goal)
        assert path.cells() == descent
        assert (16, 6) in descent and (15, 6) not in descent
        assert h.expanded <= 50

    def test_goal_clearing_after_the_static_arrival(self):
        # agent 1 crosses the goal at t=6, after the descent would arrive
        # at t=4: arrival waits for the goal to clear at t=7
        late = TimedPath(1, tuple((4, 2, t) for t in range(6)) + ((4, 1, 6), (4, 0, 7)))
        rt, path = self.solve(self.grid, (0, 1), (4, 1), [late])
        assert rt.goal_clear_time((4, 1)) == 7
        assert path.arrival_time == 7

    def test_start_on_the_goal(self):
        # a goal nobody visits is reached at t=0; one that agent 1 crosses
        # at t=1 is left and reached again once it clears
        crossing = TimedPath(1, ((2, 0, 0), (2, 1, 1), (1, 1, 2), (1, 0, 3)))
        _, path = self.solve(self.grid, (2, 2), (2, 2), [crossing])
        assert path.states == ((2, 2, 0),)
        _, path = self.solve(self.grid, (2, 1), (2, 1), [crossing])
        assert path.arrival_time == 2
