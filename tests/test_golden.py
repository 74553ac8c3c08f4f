"""Golden digests of planner and generator output for fixed seeds.

Each planner case hashes every agent's ``(agent, states)`` from ``solve_hca`` and
``solve_variant``, the failing agent when a planner fails, and the variant's
per-round ledger bits. A search change that keeps paths byte-identical
leaves every digest unchanged; a change to tie-breaking has to replace them
on purpose.

Each scenario case hashes the ``.scen`` text and the metadata sidecar of a
generated instance, or the GenerationError and its ``n_generated``, so a
generator change must keep the same seeds producing the same files.
"""

import hashlib

import numpy as np
import pytest

from mapfkit import (
    GenerationError,
    InvalidInstanceError,
    ProblemInstance,
    SolveFailure,
    generate_instance,
    generate_random_map,
    solve_hca,
    solve_variant,
    write_instance_metadata,
    write_scenario,
)


def desk_case(seed: int):
    """50x50 map, 16 agents from the solvable-instance generator."""
    rng = np.random.default_rng(seed)
    grid = generate_random_map(50, 50, 0.1, rng)
    instance = generate_instance(grid, 16, rng)
    return instance, [int(a) for a in rng.permutation(16)]


def crowd_case(seed: int):
    """24x24 map, 64 agents on random distinct endpoints, redrawn until
    every goal is reachable; no solvability guarantee beyond that."""
    rng = np.random.default_rng(seed)
    grid = generate_random_map(24, 24, 0.1, rng)
    free = grid.free_cells()
    while True:
        picks = rng.choice(len(free), size=128, replace=False)
        cells = [free[int(i)] for i in picks]
        instance = ProblemInstance(grid, tuple(zip(cells[:64], cells[64:])))
        try:
            instance.validate()
        except InvalidInstanceError:
            continue
        return instance, [int(a) for a in rng.permutation(64)]


def outcome(instance, order):
    """Everything the planners decide, as one nested tuple of ints."""
    try:
        sol = solve_hca(instance, order)
        hca = tuple((a, p.states) for a, p in sorted(sol.paths.items()))
    except SolveFailure as exc:
        hca = ("failed", exc.agent)
    try:
        sol, trace = solve_variant(instance)
        rounds = tuple(
            (c.source_goal_bits, c.path_bits, c.ig_bits) for c in trace.ledger.iterations
        )
        variant = (
            tuple((a, p.states) for a, p in sorted(sol.paths.items())),
            rounds,
            trace.ledger.rt_bits,
        )
    except SolveFailure as exc:
        variant = ("failed", exc.agent)
    return hca, variant


GOLDEN = {
    ("desk", 1): "3585e0d7c74a725d",
    ("desk", 2): "1aa10da7e4f34232",
    ("desk", 3): "f0794ebf22bb2d2a",
    ("crowd", 0): "5f6de138101e48b3",
    ("crowd", 2): "32d787cf19bfe506",
    # both planners fail on agent 47 in their first attempt and solve after
    # one restart; the variant's rounds include the failed attempt's
    ("crowd", 34): "605e2bb659fe38d3",
}


@pytest.mark.parametrize("kind,seed", sorted(GOLDEN))
def test_planner_output_matches_golden_digest(kind, seed):
    instance, order = (desk_case if kind == "desk" else crowd_case)(seed)
    digest = hashlib.sha256(repr(outcome(instance, order)).encode()).hexdigest()[:16]
    assert digest == GOLDEN[(kind, seed)]


SCENARIO_GOLDEN = {
    (50, 16, 1): "31ba560146999e2b",
    (50, 16, 2): "55f6afcc8ff7607e",
    (50, 16, 3): "6928890191396efd",
    (24, 40, 1): "ed871e6cb73f0a35",
    (16, 60, 1): "ffd3e5029fa8df01",  # GenerationError after placing 36 agents
}


@pytest.mark.parametrize("side,n_agents,seed", sorted(SCENARIO_GOLDEN))
def test_generated_scenario_matches_golden_digest(side, n_agents, seed):
    grid = generate_random_map(side, side, 0.1, seed)
    try:
        instance = generate_instance(grid, n_agents, seed)
        text = write_scenario(instance) + write_instance_metadata(instance)
    except GenerationError as exc:
        text = f"GenerationError: {exc} ({exc.n_generated} placed)"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == SCENARIO_GOLDEN[(side, n_agents, seed)]
