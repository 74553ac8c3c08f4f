import importlib.util
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mapfkit import (
    GridMap,
    InvalidInstanceError,
    IterationComm,
    Partitioning,
    ProblemInstance,
    ReservationTable,
    ReverseResumableAStar,
    SolveFailure,
    SolveTimeout,
    TimedPath,
    astar_static,
    build_intersection_graph,
    compare,
    generate_instance,
    generate_random_map,
    solve_hca,
    solve_variant,
    space_time_astar,
    validate_solution,
)

import mapfkit.search
import mapfkit.solver
from oracles import joint_min_makespan, time_expanded_shortest


def clock_spent_after_first_read():
    """A stand-in for ``mapfkit.solver.time`` that reads 0 s once, when a
    planner sets its deadline, and 100 s from then on, so any budget below
    that is spent before the first search."""
    reads = iter([0.0])
    return SimpleNamespace(perf_counter=lambda: next(reads, 100.0))


def crossing_pairs_instance():
    """Four agents on an empty 12x12 grid whose shortest paths are forced
    straight lines: agents 0/1 cross at (5, 5), agents 2/3 at (9, 4)."""
    grid = GridMap(12, 12)
    agents = (
        ((5, 2), (5, 8)),   # vertical line x=5
        ((2, 5), (8, 5)),   # horizontal line y=5, meets agent 0 at t=3
        ((9, 1), (9, 7)),   # vertical line x=9
        ((6, 4), (11, 4)),  # horizontal line y=4, meets agent 2 at t=3
    )
    return ProblemInstance(grid, agents)


def walled_map(width):
    """A ``width`` x ``width`` map split by a wall column with one gap, at
    ``(width // 2, width // 2)``."""
    mid = width // 2
    return GridMap(width, width, frozenset((mid, y) for y in range(width) if y != mid))


def walled_gap_instance(width):
    """Agent 0 starts and parks in the gap of ``walled_map(width)``, so
    under the order ``[0, 1]`` agent 1 cannot cross from the far corner."""
    mid = width // 2
    return ProblemInstance(
        walled_map(width), (((mid, mid), (mid, mid)), ((0, 0), (width - 1, width - 1)))
    )


def late_gap_instance():
    """On ``walled_map(80)`` agent 0 walks from the far corner into the gap
    and parks there at t=78, too early for agent 1 to cross from (0, 0) to
    (79, 0). Agent 1's search, planned after agent 0's, floods every state
    left of the wall that can still reach the gap in time: a long search
    that neither the goal-clear bound nor the static tail shortens."""
    return ProblemInstance(walled_map(80), (((79, 79), (40, 40)), ((0, 0), (79, 0))))


def cut_off_instance():
    """A 3x3 map walled down the middle column: agent 0's goal (2, 0) is
    cut off from its start (0, 0), and agent 1 goes (0, 1) -> (0, 2)."""
    grid = GridMap(3, 3, frozenset((1, y) for y in range(3)))
    return ProblemInstance(grid, (((0, 0), (2, 0)), ((0, 1), (0, 2))))


def fail_searches(monkeypatch, agents):
    """Spy on ``mapfkit.solver.space_time_astar`` and make it come back
    empty for each of ``agents`` in turn, at that agent's next search
    against a non-empty table: one against an empty table would end the
    solve. Returns the searches as ``(table, agent)`` pairs."""
    pending = list(agents)
    searched = []
    search = mapfkit.solver.space_time_astar

    def spy(heuristic, src, rt, **kwargs):
        searched.append((rt, kwargs["agent"]))
        if pending and rt.vertices and kwargs["agent"] == pending[0]:
            pending.pop(0)
            return None
        return search(heuristic, src, rt, **kwargs)

    monkeypatch.setattr(mapfkit.solver, "space_time_astar", spy)
    return searched


def per_table(searched):
    """The searched agents of ``fail_searches``, one list per table."""
    tables = []
    for i, (rt, agent) in enumerate(searched):
        if i == 0 or rt is not searched[i - 1][0]:
            tables.append([])
        tables[-1].append(agent)
    return tables


def check_wire(solution, trace, instance):
    """The benchmark's wire check (``perfbench/solving.py``): every final
    path packs and decodes intact, and the bits match ``rt_bits``."""
    module = sys.modules.get("perfbench_solving")
    if module is None:  # loaded once; dataclasses need it in sys.modules
        path = Path(__file__).resolve().parents[1] / "perfbench" / "solving.py"
        spec = importlib.util.spec_from_file_location("perfbench_solving", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.check_wire(solution, trace, instance)


class TestProblemInstance:
    def test_validate_accepts_good_instance(self):
        inst = crossing_pairs_instance()
        inst.validate()

    def test_duplicate_sources_rejected(self):
        grid = GridMap(5, 5)
        with pytest.raises(InvalidInstanceError, match="sources must be pairwise distinct"):
            ProblemInstance(grid, (((0, 0), (4, 4)), ((0, 0), (3, 3))))

    def test_blocked_endpoint_rejected(self):
        grid = GridMap(5, 5, frozenset({(4, 4)}))
        with pytest.raises(InvalidInstanceError) as exc:
            ProblemInstance(grid, (((0, 0), (4, 4)),))
        assert str(exc.value) == "agent 0 goal (4, 4) blocked or out of bounds"
        with pytest.raises(InvalidInstanceError) as exc:
            ProblemInstance(grid, (((0, 0), (1, 1)), ((5, 0), (2, 2))))
        assert str(exc.value) == "agent 1 source (5, 0) blocked or out of bounds"

    def test_numpy_integer_endpoints_accepted(self):
        grid = GridMap(4, 4)
        a, b = (np.int64(v) for v in (0, 3))
        inst = ProblemInstance(grid, (((a, a), (b, a)), ((a, b), (b, b))))
        plain = ProblemInstance(grid, (((0, 0), (3, 0)), ((0, 3), (3, 3))))
        assert inst == plain
        assert solve_hca(inst, [0, 1]).paths == solve_hca(plain, [0, 1]).paths
        assert solve_variant(inst)[0].paths == solve_variant(plain)[0].paths

    def test_unreachable_goal_rejected(self):
        # the instance builds: reachability is checked by validate alone
        grid = GridMap(3, 1, frozenset({(1, 0)}))
        inst = ProblemInstance(grid, (((0, 0), (2, 0)),))
        with pytest.raises(InvalidInstanceError, match=r"agent 0 goal \(2, 0\) unreachable"):
            inst.validate()

    def test_invalid_instance_refused_before_any_search(self, monkeypatch):
        # a shared goal or source, a blocked goal, or an endpoint that is not
        # two integers is refused when the instance is built, so neither
        # planner searches for it (a float endpoint used to reach the first
        # search and die there in a TypeError)
        searched = []
        search = mapfkit.solver.space_time_astar

        def counted(*args, **kwargs):
            searched.append(kwargs["agent"])
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "space_time_astar", counted)
        grid = GridMap(6, 6, frozenset({(5, 0)}))
        for agents, message in (
            ((((0, 0), (3, 3)), ((5, 5), (3, 3))), "goals must be pairwise distinct"),
            ((((0, 0), (3, 3)), ((0, 0), (4, 4))), "sources must be pairwise distinct"),
            ((((0, 0), (3, 3)), ((5, 5), (5, 0))), "agent 1 goal (5, 0) blocked or out of bounds"),
            ((((0.5, 0), (3, 3)),), "agent 0 source (0.5, 0) blocked or out of bounds"),
            ((((0, 0), (3, 3)), ((5, 5), (1.0, 4))), "agent 1 goal (1.0, 4) blocked or out of bounds"),
        ):
            with pytest.raises(InvalidInstanceError) as exc:
                inst = ProblemInstance(grid, agents)
                for plan in (lambda: solve_hca(inst, [0, 1]), lambda: solve_variant(inst)):
                    try:
                        plan()
                    except SolveFailure:
                        pass
            assert str(exc.value) == message
        assert searched == []

    def test_reachability_agrees_with_static_search(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            # a full wall row and column seal up to four regions
            w, h = (int(v) for v in rng.integers(6, 16, size=2))
            wx, wy = int(rng.integers(1, w - 1)), int(rng.integers(1, h - 1))
            walls = {(wx, y) for y in range(h)} | {(x, wy) for x in range(w)}
            scatter = generate_random_map(w, h, 0.15, int(rng.integers(1 << 30)))
            grid = GridMap(w, h, scatter.obstacles | walls)
            free = grid.free_cells()
            n = min(8, len(free) // 2)
            picks = rng.choice(len(free), size=2 * n, replace=False)
            agents = tuple(
                (free[int(picks[k])], free[int(picks[n + k])]) for k in range(n)
            )
            unreachable = [
                i for i, (s, g) in enumerate(agents) if astar_static(grid, s, g) is None
            ]
            for i, pair in enumerate(agents):
                single = ProblemInstance(grid, (pair,))
                if i in unreachable:
                    with pytest.raises(InvalidInstanceError):
                        single.validate()
                else:
                    single.validate()
            inst = ProblemInstance(grid, agents)
            if unreachable:
                first = unreachable[0]
                s, g = agents[first]
                with pytest.raises(InvalidInstanceError) as exc:
                    inst.validate()
                assert str(exc.value) == f"agent {first} goal {g} unreachable from {s}"
            else:
                inst.validate()


class TestSolveHca:
    def test_single_agent_shortest_path(self):
        grid = GridMap(7, 7)
        inst = ProblemInstance(grid, (((1, 1), (5, 4)),))
        solution = solve_hca(inst, [0])
        assert solution.sum_of_costs == 7  # manhattan distance
        assert solution.makespan == 7
        assert validate_solution(solution.paths, grid, inst.agents) == []

    def test_corridor_head_on_failure(self):
        # two agents facing each other in a 1-wide corridor: under this
        # priority order no plan exists, exhibiting incompleteness
        grid = GridMap(5, 1)
        inst = ProblemInstance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))
        with pytest.raises(SolveFailure) as info:
            solve_hca(inst, [0, 1])
        assert info.value.agent == 1

    def test_corridor_failure_confirmed_by_oracle(self):
        grid = GridMap(5, 1)
        first = solve_hca(ProblemInstance(grid, (((0, 0), (4, 0)),)), [0]).paths[0]
        horizon = first.arrival_time + grid.width * grid.height
        assert time_expanded_shortest(grid, (4, 0), (0, 0), [first], 0, horizon) is None

    def test_order_must_be_permutation(self):
        inst = crossing_pairs_instance()
        with pytest.raises(ValueError):
            solve_hca(inst, [0, 1, 2])
        with pytest.raises(ValueError):
            solve_hca(inst, [0, 1, 2, 2])

    def test_order_ids_must_be_integers(self):
        # int() would truncate 0.7 and 1.2 to the permutation [0, 1]
        inst = ProblemInstance(GridMap(4, 4), (((0, 0), (3, 0)), ((0, 3), (3, 3))))
        with pytest.raises(TypeError):
            solve_hca(inst, [0.7, 1.2])
        with pytest.raises(TypeError):
            solve_hca(inst, [0.0, 1.0])
        order = np.random.default_rng(0).permutation(inst.n_agents)
        assert solve_hca(inst, order).paths == solve_hca(inst, order.tolist()).paths

    def test_timeout(self, monkeypatch):
        monkeypatch.setattr(mapfkit.solver, "time", clock_spent_after_first_read())
        inst = crossing_pairs_instance()
        with pytest.raises(SolveTimeout):
            solve_hca(inst, [0, 1, 2, 3], timeout=1.0)

    def test_restart_promotes_the_failed_agent(self, monkeypatch):
        # under [0, 1] agent 0 parks in the gap and seals agent 1 off; the
        # restart plans agent 1 first, and agent 0 parks after it has passed
        searched = []
        search = mapfkit.solver.space_time_astar

        def counted(*args, **kwargs):
            searched.append(kwargs["agent"])
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "space_time_astar", counted)
        inst = walled_gap_instance(50)
        solution = solve_hca(inst, [0, 1])
        assert searched == [0, 1, 1, 0]
        assert validate_solution(solution.paths, inst.grid, inst.agents) == []

    def test_promotion_order_over_several_restarts(self, monkeypatch):
        # agents 1, 0 and 1 again fail in turn: each attempt plans the
        # failed agents newest first, each once, then the rest of the order
        searched = fail_searches(monkeypatch, [1, 0, 1])
        inst = crossing_pairs_instance()
        solution = solve_hca(inst, [3, 2, 1, 0])
        assert per_table(searched) == [[3, 2, 1], [1, 3, 2, 0], [0, 1], [1, 0, 3, 2]]
        assert validate_solution(solution.paths, inst.grid, inst.agents) == []

    def test_heuristics_built_once_per_solve(self, monkeypatch):
        # the restart reuses each agent's distance heuristic
        built = []
        base = mapfkit.solver.ReverseResumableAStar

        class Heuristic(base):
            def __init__(self, grid, goal):
                super().__init__(grid, goal)
                built.append(goal)

        monkeypatch.setattr(mapfkit.solver, "ReverseResumableAStar", Heuristic)
        inst = walled_gap_instance(50)
        solve_hca(inst, [0, 1])
        assert built == [goal for _, goal in inst.agents]

    def test_every_order_valid_on_crossing_instance(self):
        import itertools

        inst = crossing_pairs_instance()
        endpoints = inst.agents
        for order in itertools.permutations(range(4)):
            solution = solve_hca(inst, list(order))
            assert validate_solution(solution.paths, inst.grid, endpoints) == []

    def test_per_agent_paths_optimal_against_predecessors(self):
        # each agent's cost equals the exhaustive time-expanded optimum
        # against the reservations present when it planned
        rng = np.random.default_rng(3)
        grid = generate_random_map(7, 7, 0.15, seed=5)
        inst = generate_instance(grid, 3, seed=11)
        order = [int(a) for a in rng.permutation(3)]
        solution = solve_hca(inst, order)
        planned = []
        for agent in order:
            s, g = inst.agents[agent]
            horizon = max((p.arrival_time for p in planned), default=0) + 49
            expected = time_expanded_shortest(grid, s, g, planned, 0, horizon)
            assert solution.paths[agent].cost == expected
            planned.append(solution.paths[agent])


class TestSolveVariant:
    def test_conflict_free_solves_in_one_iteration(self):
        grid = GridMap(8, 8)
        agents = (((0, 0), (3, 0)), ((0, 4), (3, 4)), ((0, 7), (3, 7)))
        inst = ProblemInstance(grid, agents)
        solution, trace = solve_variant(inst)
        assert trace.n_iterations == 1
        for i, (s, g) in enumerate(inst.agents):
            assert solution.paths[i].cost == len(astar_static(grid, s, g)) - 1

    def test_crossing_pairs_two_iterations(self):
        inst = crossing_pairs_instance()
        solution, trace = solve_variant(inst)
        assert trace.n_iterations == 2
        first = trace.iterations[0]
        assert first.ig.edges == {(0, 1), (2, 3)}
        assert first.independent == (0, 2)  # deterministic tie-break
        assert set(trace.iterations[1].ig.nodes) == {1, 3}
        assert validate_solution(solution.paths, inst.grid, inst.agents) == []

    def test_first_iteration_candidates_equal_plain_astar(self):
        inst = crossing_pairs_instance()
        _, trace = solve_variant(inst)
        for agent, path in trace.iterations[0].candidate_paths.items():
            s, g = inst.agents[agent]
            assert path.cells() == astar_static(inst.grid, s, g)

    def test_fixed_sets_partition_agents(self):
        grid = generate_random_map(20, 20, 0.1, seed=21)
        inst = generate_instance(grid, 8, seed=2)
        _, trace = solve_variant(inst)
        fixed_union = []
        for rec in trace.iterations:
            fixed_union.extend(rec.independent)
        assert sorted(fixed_union) == list(range(8))
        assert trace.n_iterations <= 8
        sizes = [len(r.ig.nodes) for r in trace.iterations]
        assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)

    def test_soundness_property_run(self):
        for seed in range(8):
            grid = generate_random_map(15, 15, 0.12, seed=100 + seed)
            inst = generate_instance(grid, 6, seed=seed)
            solution, trace = solve_variant(inst)
            assert validate_solution(solution.paths, grid, inst.agents) == []
            assert trace.n_iterations <= 6

    def test_same_seed_repeat_gives_same_results(self):
        # the planner runs serially; a same-seed repeat must match exactly
        grid = generate_random_map(15, 15, 0.15, seed=33)
        inst = generate_instance(grid, 6, seed=7)
        s1, t1 = solve_variant(inst)
        s2, t2 = solve_variant(inst)
        assert s1.paths == s2.paths
        assert s1.sum_of_costs == s2.sum_of_costs
        assert [r.independent for r in t1.iterations] == [r.independent for r in t2.iterations]
        assert t1.ledger.iterations == t2.ledger.iterations
        assert t1.ledger.total_bits() == t2.ledger.total_bits()

    def test_variant_failure_on_adversarial_corridor(self):
        # candidates collide head-on; whichever is fixed traps the other
        grid = GridMap(5, 1)
        inst = ProblemInstance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))
        with pytest.raises(SolveFailure):
            solve_variant(inst)

    def test_trace_comm_entries_match_iterations(self):
        inst = crossing_pairs_instance()
        _, trace = solve_variant(inst)
        assert len(trace.ledger.iterations) == trace.n_iterations
        assert trace.ledger.rt_bits > 0
        assert all(it.path_bits > 0 for it in trace.ledger.iterations)

    def test_graph_and_rounds_share_one_conflict_pipeline(self, monkeypatch):
        # build_intersection_graph and every solve_variant round split and
        # check through mapfkit.solver's names, so a wrapper there sees both
        splits, checks = [], []
        split = mapfkit.solver.split_path
        detect = mapfkit.solver.detect_conflicts_in_partition

        def counted_split(path, *args):
            splits.append(path.agent)
            return split(path, *args)

        def counted_detect(segments):
            checks.append({seg.partition for seg in segments})
            return detect(segments)

        monkeypatch.setattr(mapfkit.solver, "split_path", counted_split)
        monkeypatch.setattr(mapfkit.solver, "detect_conflicts_in_partition", counted_detect)
        inst = crossing_pairs_instance()
        grid = inst.grid
        part = Partitioning.for_map(grid, inst.n_agents)
        paths = [
            TimedPath(a, tuple((x, y, t) for t, (x, y) in enumerate(astar_static(grid, s, g))))
            for a, (s, g) in enumerate(inst.agents)
        ]
        ig = build_intersection_graph(paths, part)
        assert ig.edges == {(0, 1), (2, 3)}
        assert splits == [0, 1, 2, 3]
        holding = sorted({part.locate(c) for path in paths for c in path.cells()})
        assert [sorted(c) for c in checks] == [[pid] for pid in holding]

        splits.clear()
        checks.clear()
        _, trace = solve_variant(inst)
        assert trace.n_iterations == 2
        assert splits == [a for rec in trace.iterations for a in rec.ig.nodes]
        assert [sorted(c) for c in checks] == [
            [pid] for rec in trace.iterations for pid in rec.detect_seconds
        ]

    def test_round_steps_called_through_solver_names(self, monkeypatch):
        # the independent set and the path bits of every round are looked up
        # as mapfkit.solver's names, so a wrapper there sees each round's
        # graph, chosen agents and upload bits
        calls, bits = [], []
        choose = mapfkit.solver.independent_set
        path_bits = mapfkit.solver.iteration_path_bits

        def counted_choose(g, first):
            chosen = choose(g, first)
            calls.append((g.nodes, list(first), chosen))
            return chosen

        def counted_bits(*args):
            bits.append(path_bits(*args))
            return bits[-1]

        monkeypatch.setattr(mapfkit.solver, "independent_set", counted_choose)
        monkeypatch.setattr(mapfkit.solver, "iteration_path_bits", counted_bits)
        _, trace = solve_variant(crossing_pairs_instance())
        assert calls == [(rec.ig.nodes, [], set(rec.independent)) for rec in trace.iterations]
        assert bits == [it.path_bits for it in trace.ledger.iterations] == [190, 90]
        # the restart's rounds pass promoted agent 1 first, and the call
        # still sees each round's whole graph and whole fixed set
        calls.clear()
        _, trace = solve_variant(late_gap_instance())
        assert [first for _, first, _ in calls] == [[], [1], [1]]
        assert [(g, chosen) for g, _, chosen in calls] == [
            (rec.ig.nodes, set(rec.independent)) for rec in trace.iterations
        ]
        assert [rec.ig.nodes for rec in trace.iterations] == [(0, 1), (0, 1), (0,)]

    def test_promotion_order_over_several_restarts(self, monkeypatch):
        # round one's graph has the edges (0, 1) and (2, 3), and every
        # restart reuses it; agents 1, 0 and 1 again fail in turn in round
        # two, and each round of an attempt passes independent_set the
        # failed agents newest first, each once
        fail_searches(monkeypatch, [1, 0, 1])
        firsts = []
        choose = mapfkit.solver.independent_set

        def spy(g, first):
            firsts.append(list(first))
            return choose(g, first)

        monkeypatch.setattr(mapfkit.solver, "independent_set", spy)
        inst = crossing_pairs_instance()
        solution, trace = solve_variant(inst)
        assert firsts == [[], [1], [0, 1], [1, 0], [1, 0]]
        assert [r.independent for r in trace.iterations] == [
            (0, 2), (1, 2), (0, 2), (1, 2), (0, 3)
        ]
        assert validate_solution(solution.paths, inst.grid, inst.agents) == []

    def test_round_stops_at_first_failed_search(self, monkeypatch):
        # two walled-off corridors, each with a head-on pair: round one fixes
        # agents 0 and 2, and in round two agent 1 is trapped behind agent 0
        grid = GridMap(5, 3, frozenset((x, 1) for x in range(5)))
        inst = ProblemInstance(
            grid,
            (((0, 0), (4, 0)), ((4, 0), (0, 0)), ((0, 2), (4, 2)), ((4, 2), (0, 2))),
        )
        searched = []
        search = mapfkit.solver.space_time_astar

        def counted(*args, **kwargs):
            searched.append(kwargs["agent"])
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "space_time_astar", counted)
        with pytest.raises(SolveFailure) as exc:
            solve_variant(inst)
        assert exc.value.agent == 1  # the first attempt's failure
        assert searched[:5] == [0, 1, 2, 3, 1]  # agent 3 is not searched again
        # each restart reuses round one, which fixes the newer failed one of
        # agents 0 and 1, and agent 2; it searches only the other one of
        # agents 0 and 1, which round two traps
        assert searched[5:] == [0, 1, 0]

    def test_restart_frees_the_failed_attempt(self, monkeypatch):
        # the failure kept for re-raising holds no traceback, so nothing
        # keeps the failed attempt's table alive while the restart runs
        tables = []
        alive_at_build = []
        base = mapfkit.solver.ReservationTable

        class Table(base):
            def __init__(self, grid):
                alive_at_build.append(sum(ref() is not None for ref in tables))
                super().__init__(grid)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(mapfkit.solver, "ReservationTable", Table)
        solve_hca(walled_gap_instance(50), [0, 1])
        solve_variant(late_gap_instance())
        assert alive_at_build == [0, 0, 0, 0]

    def test_restart_reuses_round_one(self):
        inst = late_gap_instance()
        solution, trace = solve_variant(inst)
        assert validate_solution(solution.paths, inst.grid, inst.agents) == []
        assert check_wire(solution, trace, inst) == []
        # round one fixes agent 0 and agent 1's replan fails, which ends the
        # first attempt; the restart fixes agent 1 first
        assert [r.independent for r in trace.iterations] == [(0,), (1,), (0,)]
        first, again = trace.iterations[0], trace.iterations[1]
        assert again.search_seconds == {} and again.detect_seconds == {}
        assert again.split_seconds == {}  # nothing is split again
        assert first.split_seconds.keys() == first.search_seconds.keys() == {0, 1}
        assert again.candidate_paths == first.candidate_paths
        assert trace.ledger.iterations[1] == IterationComm(0, 0, 0)
        assert trace.ledger.iterations[0].path_bits > 0

    def test_ideal_time_counts_each_agents_own_split(self, monkeypatch):
        # mapfkit.solver's clock moves only inside the wrapped searches,
        # splits and partition checks. Agent 0 searches longest, but agent 1
        # takes longest to search and split its own path, so the round's
        # ideal time starts with agent 1's pair, as in the paper each agent
        # splits its own path. The server step reads no time
        grid = GridMap(8, 8)
        inst = ProblemInstance(grid, (((0, 0), (3, 0)), ((0, 4), (3, 4))))
        search_s, split_s, detect_s = {0: 1.0, 1: 0.5}, {0: 0.125, 1: 0.75}, 0.0625
        search = mapfkit.solver.space_time_astar
        split = mapfkit.solver.split_path
        detect = mapfkit.solver.detect_conflicts_in_partition
        now = [time.perf_counter()]

        def slow_search(*args, **kwargs):
            now[0] += search_s[kwargs["agent"]]
            return search(*args, **kwargs)

        def slow_split(path, part):
            now[0] += split_s[path.agent]
            return split(path, part)

        def slow_detect(segments):
            now[0] += detect_s
            return detect(segments)

        monkeypatch.setattr(mapfkit.solver, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(mapfkit.solver, "space_time_astar", slow_search)
        monkeypatch.setattr(mapfkit.solver, "split_path", slow_split)
        monkeypatch.setattr(mapfkit.solver, "detect_conflicts_in_partition", slow_detect)
        _, trace = solve_variant(inst)
        (rec,) = trace.iterations
        assert rec.independent == (0, 1)
        assert rec.search_seconds == pytest.approx(search_s)
        assert rec.split_seconds == pytest.approx(split_s)
        assert rec.server_seconds == 0.0
        assert rec.parallel_seconds == pytest.approx(0.5 + 0.75 + detect_s)
        assert trace.ideal_parallel_seconds == rec.parallel_seconds


class TestBoundedSearch:
    @pytest.mark.parametrize(
        "solve, expected",
        [
            (lambda inst: solve_hca(inst, [0, 1]), [0]),
            # agent 0 first fails behind agent 1's path, which a restart
            # could change, and then against the empty table, which it cannot
            (lambda inst: solve_hca(inst, [1, 0]), [1, 0, 0]),
            (solve_variant, [0]),
        ],
    )
    def test_failure_against_empty_table_is_final(self, monkeypatch, solve, expected):
        searched = []
        search = mapfkit.solver.space_time_astar

        def counted(*args, **kwargs):
            searched.append(kwargs["agent"])
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "space_time_astar", counted)
        with pytest.raises(SolveFailure) as exc:
            solve(cut_off_instance())
        assert exc.value.agent == 0
        assert searched == expected

    def test_walled_gap_fails_fast(self):
        # agent 0 parks in the only gap: agent 1's sealed search ends fast
        inst = walled_gap_instance(50)
        rt = ReservationTable(inst.grid)
        rt.insert_path(TimedPath(0, ((25, 25, 0),)))
        t0 = time.perf_counter()
        h = ReverseResumableAStar(inst.grid, (49, 49))
        assert space_time_astar(h, (0, 0), rt, agent=1) is None
        assert time.perf_counter() - t0 < 0.5

    def test_timeout_cuts_a_long_search(self, monkeypatch):
        # mapfkit.solver's clock stands still, and every read of the
        # search's clock moves both on by 0.01 s, so the budget runs out at
        # the 11th deadline check inside agent 1's search, whatever the real
        # clock reads. Unbounded, that search reads its clock 76 times
        inst = late_gap_instance()
        now = [0.0]
        reads = []

        def search_clock():
            reads.append(now[0])
            now[0] += 0.01
            return now[0]

        monkeypatch.setattr(mapfkit.solver, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(mapfkit.search, "time", SimpleNamespace(perf_counter=search_clock))
        for solve in (
            lambda: solve_hca(inst, [0, 1], timeout=0.1),
            lambda: solve_variant(inst, timeout=0.1),
        ):
            now[0] = 0.0
            reads.clear()
            with pytest.raises(SolveTimeout) as exc:
                solve()
            assert exc.value.agent == 1
            assert len(reads) == 11

    def test_timeout_checked_before_every_search(self, monkeypatch):
        # mapfkit.solver's clock stands still except that each search moves
        # it 0.05 s on, and no search runs long enough to reach its own
        # deadline check, so only the check before a search can stop a
        # planner: the budget runs out during agent 2's search, and agent 3
        # is never searched. No reading of the real clock decides the outcome
        grid = GridMap(8, 8)
        inst = ProblemInstance(grid, tuple(((0, y), (3, y)) for y in range(8)))
        search = mapfkit.solver.space_time_astar
        now = [time.perf_counter()]
        searched = []

        def slow(*args, **kwargs):
            searched.append(kwargs["agent"])
            now[0] += 0.05
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(mapfkit.solver, "space_time_astar", slow)
        for solve in (
            lambda: solve_hca(inst, range(8), timeout=0.12),
            lambda: solve_variant(inst, timeout=0.12),
        ):
            searched.clear()
            with pytest.raises(SolveTimeout) as exc:
                solve()
            assert exc.value.agent == 3
            assert searched == [0, 1, 2]

    def test_variant_timeout_between_rounds_names_first_pending(self, monkeypatch):
        monkeypatch.setattr(mapfkit.solver, "time", clock_spent_after_first_read())
        inst = crossing_pairs_instance()
        with pytest.raises(SolveTimeout) as exc:
            solve_variant(inst, timeout=1.0)
        assert exc.value.agent == 0

    @pytest.mark.parametrize("timeout", [float("nan"), 0.0, -1.0])
    def test_bad_timeout_rejected_before_any_search(self, monkeypatch, timeout):
        # every comparison with a NaN deadline is false, so a NaN budget
        # would never run out, and one at or below 0 is spent before it
        # starts: each is an error, not a timed-out solve or a failed pair
        searched = []
        search = mapfkit.solver.space_time_astar

        def counted(*args, **kwargs):
            searched.append(kwargs["agent"])
            return search(*args, **kwargs)

        monkeypatch.setattr(mapfkit.solver, "space_time_astar", counted)
        inst = crossing_pairs_instance()
        for solve in (
            lambda: solve_hca(inst, [0, 1, 2, 3], timeout=timeout),
            lambda: solve_variant(inst, timeout=timeout),
            lambda: compare(inst, [0, 1, 2, 3], timeout=timeout),
        ):
            with pytest.raises(ValueError, match=f"positive number of seconds, got {timeout}"):
                solve()
        assert searched == []


def tiny_instances(seed, count):
    """``count`` random valid instances of 2 or 3 agents on maps of 2 to 4
    cells a side, at most a quarter of them obstacles."""
    rng = np.random.default_rng(seed)
    while count:
        w, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        cells = [(x, y) for y in range(h) for x in range(w)]
        order = rng.permutation(len(cells))
        n_obstacles = int(rng.integers(0, w * h // 4 + 1))
        free = [cells[i] for i in order[n_obstacles:]]
        k = min(int(rng.integers(2, 4)), len(free))
        sources = rng.permutation(len(free))[:k]
        goals = rng.permutation(len(free))[:k]
        inst = ProblemInstance(
            GridMap(w, h, frozenset(cells[i] for i in order[:n_obstacles])),
            tuple((free[s], free[g]) for s, g in zip(sources, goals)),
        )
        try:
            inst.validate()
        except InvalidInstanceError:
            continue
        count -= 1
        yield inst


class TestTinyOracle:
    def test_joint_oracle_hand_cases(self):
        corridor = GridMap(3, 1)
        assert joint_min_makespan(corridor, (((0, 0), (2, 0)),)) == 2
        # head-on in a corridor: no room to pass, however long they wait
        assert joint_min_makespan(corridor, (((0, 0), (2, 0)), ((2, 0), (0, 0)))) is None
        assert joint_min_makespan(GridMap(2, 1), (((0, 0), (1, 0)), ((1, 0), (0, 0)))) is None
        square = GridMap(2, 2)
        # opposite corners pass each other on the two sides of the square
        assert joint_min_makespan(square, (((0, 0), (1, 1)), ((1, 1), (0, 0)))) == 2
        # three agents turn the square one step: each follows another
        turn = (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)))
        assert joint_min_makespan(square, turn) == 1
        # agent 0 follows agent 1 along the corridor
        assert joint_min_makespan(corridor, (((0, 0), (1, 0)), ((1, 0), (2, 0)))) == 1
        # agent 1 steps off its goal to let agent 0 pass, and is back at t=2
        assert joint_min_makespan(GridMap(3, 2), (((0, 0), (2, 0)), ((1, 0), (1, 0)))) == 2

    def test_planners_sound_on_tiny_instances(self):
        # the planners may fail a solvable instance (they are incomplete),
        # but whatever they return is valid, packs as the ledger says, is no
        # shorter than the optimum, and exists only where a solution does
        for inst in tiny_instances(1, 600):
            optimum = joint_min_makespan(inst.grid, inst.agents)
            for plan in (
                lambda: (solve_hca(inst, list(range(inst.n_agents)), 10.0), None),
                lambda: solve_variant(inst, 10.0),
            ):
                try:
                    solution, trace = plan()
                except SolveFailure:
                    continue
                assert optimum is not None, inst
                assert validate_solution(solution.paths, inst.grid, inst.agents) == []
                assert solution.makespan >= optimum
                if trace is not None:
                    assert check_wire(solution, trace, inst) == []
