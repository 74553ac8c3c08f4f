"""Workload definitions and instance set-up for the benchmark.

All inputs derive from the workload seed the way ``mapfkit.run_benchmark``
derives them: one child seed sequence per instance, spawned again into map,
endpoint and HCA-priority seeds. The maps follow the random-map convention
and ``crowd`` the dense random-scenario convention of Stern et al., SoCS
2019, so nothing has to be downloaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import mapfkit

P_OBSTACLE = 0.1
# Redraws allowed for one crowd instance before the benchmark gives up; a
# 24x24 map at 10% obstacles needs a handful at most.
MAX_CROWD_DRAWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    side: int  # maps are side x side
    n_agents: int
    n_instances: int
    generated: bool  # endpoints from generate_instance, else drawn here


# Instance counts set how steady the medians are across seeds; see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", 50, 16, 120, True),
        Workload("crowd", 24, 64, 100, False),
        Workload("table", 100, 64, 12, True),
    )
}


@dataclass
class Case:
    """One instance of a workload, ready to solve."""

    index: int
    instance: mapfkit.ProblemInstance | None  # None when generation failed
    order: list[int]
    setup_s: float
    placed: int  # agents placed by the generator (all of them on success)


def draw_crowd(grid: mapfkit.GridMap, n_agents: int, seed) -> mapfkit.ProblemInstance:
    """Distinct free sources and goals, redrawn until the instance validates
    (every goal reachable from its source)."""
    rng = np.random.default_rng(seed)
    free = grid.free_cells()
    for _ in range(MAX_CROWD_DRAWS):
        picks = rng.choice(len(free), size=2 * n_agents, replace=False)
        cells = [free[int(i)] for i in picks]
        instance = mapfkit.ProblemInstance(grid, tuple(zip(cells[:n_agents], cells[n_agents:])))
        try:
            instance.validate()
        except mapfkit.InvalidInstanceError:
            continue
        return instance
    raise RuntimeError(f"no valid crowd instance in {MAX_CROWD_DRAWS} draws")


def build_case(w: Workload, index: int, seq: np.random.SeedSequence, tracer, clock) -> Case:
    """Build one map and instance; ``setup_s`` is the time of that, in the
    calibrated seconds of ``clock``."""
    map_ss, inst_ss, order_ss = seq.spawn(3)
    tracer.instance = index
    before = clock.last
    t0 = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("grid.generate_random_map"):
            grid = mapfkit.generate_random_map(w.side, w.side, P_OBSTACLE, map_ss)
        instance = None
        placed = 0
        try:
            if w.generated:
                with tracer.span("instances.generate_instance"):
                    instance = mapfkit.generate_instance(grid, w.n_agents, inst_ss)
            else:
                instance = draw_crowd(grid, w.n_agents, inst_ss)
            placed = w.n_agents
            # The map builds its neighbour table lazily on first use; build it
            # here so that set-up, not the first solve, pays for it.
            grid.neighbors4(instance.agents[0][0])
        except mapfkit.GenerationError as exc:
            placed = exc.n_generated
    setup_s = time.perf_counter() - t0
    setup_s *= clock.scale(before)
    order = [int(a) for a in np.random.default_rng(order_ss).permutation(w.n_agents)]
    return Case(index, instance, order, setup_s, placed)


def iter_cases(w: Workload, seed: int, count: int, tracer, clock):
    """The first ``count`` instances of the workload, built one at a time so
    that the caller can solve each before the next is built."""
    children = np.random.SeedSequence(seed).spawn(w.n_instances)
    for i, child in enumerate(children[:count]):
        yield build_case(w, i, child, tracer, clock)


def lower_bound(instance: mapfkit.ProblemInstance) -> int:
    """Sum of the agents' static shortest distances."""
    return sum(
        mapfkit.ReverseResumableAStar(instance.grid, goal).distance(start)
        for start, goal in instance.agents
    )
