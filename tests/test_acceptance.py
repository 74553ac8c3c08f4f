"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Budgets and tolerances are asserted inline; the heavy desk-scale suite
(50x50 maps, 16 agents, 100 instances) is generated once and shared.
"""

import math
import time

import numpy as np
import pytest

from mapfkit import (
    BenchConfig,
    GridMap,
    Partitioning,
    ReservationTable,
    ReverseResumableAStar,
    TimedPath,
    balanced_factorization,
    build_intersection_graph,
    ceil_log2,
    comm_time,
    decode_segment,
    emit_csv,
    encode_segment,
    generate_instance,
    generate_random_map,
    IntersectionGraph,
    mis_exact,
    parse_encoded,
    path_bits,
    run_benchmark,
    solve_hca,
    solve_variant,
    space_time_astar,
    validate_solution,
)
from mapfkit.bench import WALL_TIME_COLUMNS

from oracles import (
    brute_conflict_pairs,
    brute_partition_pairs,
    max_independent_set_size,
    random_timed_path,
    time_expanded_shortest,
)


def report(criterion, name, elapsed, budget, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status} [{elapsed:.2f}s / {budget:.0f}s] {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.2f}s >= {budget}s"


@pytest.fixture(scope="module")
def suite100():
    """100 solvable instances: fresh random 0.1-obstacle 50x50 map each,
    16 agents."""
    instances = []
    for child in np.random.SeedSequence(20260809).spawn(100):
        map_ss, inst_ss = child.spawn(2)
        grid = generate_random_map(50, 50, 0.1, map_ss)
        instances.append(generate_instance(grid, 16, inst_ss))
    return instances


def test_criterion_01_space_time_search_matches_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    agreements = 0
    while checked < 200:
        w = int(rng.integers(3, 9))
        h = int(rng.integers(3, 9))
        grid = generate_random_map(w, h, float(rng.uniform(0, 0.3)), int(rng.integers(1 << 30)))
        free = grid.free_cells()
        if len(free) < 4:
            continue
        rt = ReservationTable(grid)
        fixed = []
        for agent in range(int(rng.integers(4))):  # up to 3 reserved paths
            p = random_timed_path(rng, grid, 100 + agent, max_len=10)
            if rt.path_conflict(p) is None:
                rt.insert_path(p)
                fixed.append(p)
        start = free[int(rng.integers(len(free)))]
        goal = free[int(rng.integers(len(free)))]
        if not rt.is_vertex_free(start, 0):
            continue
        horizon = rt.last_time + w * h
        expected = time_expanded_shortest(grid, start, goal, fixed, 0, horizon)
        path = space_time_astar(ReverseResumableAStar(grid, goal), start, rt)
        got = None if path is None else path.arrival_time
        assert got == expected, (
            f"cost mismatch on {w}x{h} map, {len(fixed)} reserved paths: "
            f"search={got} oracle={expected}"
        )
        if path is not None:
            assert rt.path_conflict(path) is None
        checked += 1
        agreements += 1
    report(1, "search vs time-expanded oracle", time.perf_counter() - t0, 30,
           agreements == 200, f"{agreements}/200 instances agree")


def test_criterion_02_partitioned_conflicts_match_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    agree = 0
    for trial in range(200):
        grid = generate_random_map(10, 10, float(rng.uniform(0, 0.2)), int(rng.integers(1 << 30)))
        n_agents = int(rng.integers(2, 11))
        paths = [random_timed_path(rng, grid, a, max_len=15) for a in range(n_agents)]
        part = Partitioning.for_map(grid, n_agents)
        ig = build_intersection_graph(paths, part)
        expected = brute_conflict_pairs(paths)
        assert set(ig.edges) == expected, f"trial {trial}: {set(ig.edges)} != {expected}"
        agree += 1
    report(2, "partition-local vs all-pairs conflicts", time.perf_counter() - t0, 30,
           agree == 200, f"{agree}/200 path sets agree")


def test_criterion_03_exact_independent_set_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    agree = 0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        nodes = tuple(range(n))
        p = float(rng.uniform(0.05, 0.8))
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        adj = IntersectionGraph(nodes, frozenset(edges)).adjacency()
        result = mis_exact(nodes, adj)
        assert not any(a in result and b in result for a, b in edges)
        assert len(result) == max_independent_set_size(nodes, edges)
        agree += 1
    report(3, "exact independent set vs enumeration", time.perf_counter() - t0, 10,
           agree == 500, f"{agree}/500 graphs agree")


def test_criterion_04_codec_fidelity():
    t0 = time.perf_counter()
    # the worked example: exact symbol stream and round-trip
    states = (
        (0, 0, 2), (1, 0, 3), (1, 1, 4), (1, 1, 5), (2, 1, 6), (2, 0, 7),
        (3, 0, 8), (3, 1, 9), (3, 2, 10), (3, 3, 11), (2, 3, 12),
    )
    path = TimedPath(5, states)
    enc = encode_segment(path)
    assert enc.symbols() == "n n r u w r d r u u u l e".split()
    assert decode_segment(enc) == path
    assert decode_segment(parse_encoded(enc.text())) == path

    # 1000 random paths round-trip
    rng = np.random.default_rng(4004)
    for _ in range(1000):
        x, y = int(rng.integers(20, 60)), int(rng.integers(20, 60))
        t = int(rng.integers(0, 8))
        sts = [(x, y, t)]
        for _ in range(int(rng.integers(0, 15))):
            dx, dy = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)][int(rng.integers(5))]
            x, y, t = x + dx, y + dy, t + 1
            sts.append((x, y, t))
        path = TimedPath(int(rng.integers(64)), tuple(sts))
        assert decode_segment(encode_segment(path)) == path

    # whole t=0 paths cost exactly 3L + delta
    for n_agents, map_side in ((64, 100), (16, 50), (1, 12), (100, 1000)):
        delta = 3 + ceil_log2(n_agents) + 2 * ceil_log2(map_side)
        for length in (0, 1, 7, 31):
            path = TimedPath(0, tuple((i, 0, i) for i in range(length + 1)))
            assert path_bits([path], n_agents, map_side) == 3 * length + delta
    report(4, "codec fidelity", time.perf_counter() - t0, 30, True,
           "worked example + 1000 round-trips + 3L+delta")


def test_criterion_05_generated_instances_always_solvable(suite100):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5005)
    successes = 0
    for inst in suite100:
        for _ in range(5):
            order = [int(a) for a in rng.permutation(16)]
            solution = solve_hca(inst, order)  # raises on failure
            assert solution.sum_of_costs > 0
            successes += 1
    report(5, "instance generator guarantee", time.perf_counter() - t0, 300,
           successes == 500, f"{successes}/500 prioritized solves succeeded")


def test_criterion_06_variant_soundness_and_progress(suite100):
    t0 = time.perf_counter()
    solved = 0
    for inst in suite100:
        solution, trace = solve_variant(inst)
        violations = validate_solution(solution.paths, inst.grid, inst.agents)
        assert violations == [], violations
        assert trace.n_iterations <= 16
        solved += 1
    report(6, "variant soundness and progress", time.perf_counter() - t0, 300,
           solved == 100, f"{solved}/100 solved and validated")


def test_criterion_07_desk_scale_cost_ratios():
    t0 = time.perf_counter()
    cfg = BenchConfig(n_agents=16, n_instances=100, seed=707, width=50, height=50,
                      p_obstacle=0.1)
    records, summary = run_benchmark(cfg)
    assert summary.failures == 0, f"{summary.failures} failed pairs"
    soc = summary.columns["sum_of_costs_ratio"]
    mk = summary.columns["makespan_ratio"]
    ok = 0.97 <= soc.avg <= 1.01 and 0.97 <= soc.median <= 1.01 and 0.95 <= mk.avg <= 1.05
    report(7, "desk-scale cost-ratio analogue", time.perf_counter() - t0, 600, ok,
           f"soc avg={soc.avg:.4f} median={soc.median:.4f} makespan avg={mk.avg:.4f}")


def test_criterion_08_communication_ledger_exact():
    grid = generate_random_map(50, 50, 0.1, 88)
    inst = generate_instance(grid, 16, 89)
    _, trace = solve_variant(inst)
    t0 = time.perf_counter()

    # hand-rolled recomputation of the ledger from the trace
    def clog2(n):
        return 0 if n == 1 else math.ceil(math.log2(n))

    n, side = 16, 50
    part = Partitioning.for_map(grid, n)
    total = 0
    for rec in trace.iterations:
        total += 2 * len(rec.ig.nodes) * clog2(side)  # source/goal broadcast
        for agent in rec.ig.nodes:  # candidate paths, segment by segment
            sts = rec.candidate_paths[agent].states
            ids = [part.locate((x, y)) for x, y, _ in sts]
            k = 0
            while k < len(sts):
                j = k
                while j + 1 < len(sts) and ids[j + 1] == ids[k]:
                    j += 1
                start_time = sts[k][2]
                length = j - k
                total += clog2(n) + 2 * clog2(side) + 3 * start_time + 3 * (length + 1)
                k = j + 1
        # pair reports, recounted by partition from the definitions
        latest = max(p.arrival_time for p in rec.candidate_paths.values())
        filed = brute_partition_pairs(rec.candidate_paths.values(), part.locate, latest)
        total += 2 * clog2(n) * sum(len(pairs) for pairs in filed.values())
    for agent in range(n):  # final reservation-table broadcast
        length = None
        for rec in trace.iterations:
            if agent in rec.independent:
                length = rec.candidate_paths[agent].cost
        total += clog2(n) + 2 * clog2(side) + 3 * (length + 1)

    expected_seconds = total / 8e7
    got_seconds = comm_time(trace.ledger)
    elapsed = time.perf_counter() - t0
    report(8, "communication ledger exactness", elapsed, 1,
           total == trace.ledger.total_bits() and got_seconds == expected_seconds,
           f"{total} bits, {got_seconds:.6g}s at 8e7 bits/s")


def test_criterion_09_same_seed_determinism():
    t0 = time.perf_counter()
    base = dict(n_agents=8, n_instances=6, seed=909, width=20, height=20, p_obstacle=0.1)
    # the planner runs serially; a same-seed repeat must match byte for byte
    csv1 = emit_csv(run_benchmark(BenchConfig(**base))[0])
    csv2 = emit_csv(run_benchmark(BenchConfig(**base))[0])

    def strip_wall_time(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name not in WALL_TIME_COLUMNS]
        return "\n".join(",".join(row[i] for i in keep) for row in rows)

    a, b = strip_wall_time(csv1), strip_wall_time(csv2)
    report(9, "same-seed determinism", time.perf_counter() - t0, 120, a == b,
           f"{len(a.splitlines()) - 1} records byte-identical outside wall-time columns")


def test_criterion_10_partitioning_correct():
    t0 = time.perf_counter()
    assert balanced_factorization(64) == (8, 8)
    for w, h in ((100, 100), (57, 91), (91, 57)):
        grid = GridMap(w, h)
        for n in range(1, 101):
            part = Partitioning.for_map(grid, n)
            rects = [part.block_rect(pid) for pid in range(n)]
            counts = [0] * n
            for y in range(h):
                for x in range(w):
                    pid = part.locate((x, y))
                    assert 0 <= pid < n
                    x_lo, x_hi, y_lo, y_hi = rects[pid]
                    assert x_lo <= x <= x_hi and y_lo <= y <= y_hi
                    counts[pid] += 1
            assert sum(counts) == w * h
    report(10, "partition lookup vs rectangle enumeration", time.perf_counter() - t0, 10,
           True, "N in 1..100 on 100x100, 57x91, 91x57")
