"""Guaranteed-solvable instance generation and MovingAI-style scenario I/O.

Instances are built agent by agent on one work map: an endpoint pair is
redrawn until a static path connects it on the work map, the committed pair
is then blocked on the work map, and the committed path's cells leave the
sampling pool. Endpoints chosen later therefore never sit on an earlier
agent's path or endpoints, which is what makes prioritized planning succeed
on these instances under every priority order. Each work map is derived
from the previous one with ``GridMap.with_obstacles``, which patches the
neighbour table around the two new obstacles instead of rebuilding it.
"""

from __future__ import annotations

import numpy as np

from .grid import Coord, GridMap
from .search import astar_static
from .solver import ProblemInstance


class GenerationError(RuntimeError):
    """Instance generation ran out of candidate endpoint pairs."""

    def __init__(self, reason: str, n_generated: int):
        super().__init__(reason)
        self.n_generated = n_generated


class ScenarioFormatError(ValueError):
    """A scenario text does not follow the expected column layout."""


def generate_instance(grid: GridMap, n_agents: int, seed=None) -> ProblemInstance:
    """Draw a solvable ``n_agents`` instance on ``grid``; deterministic for a
    fixed seed.

    Endpoint pairs are tested on a work map that starts as ``grid`` and,
    through ``with_obstacles``, gains each committed agent's source and goal
    as obstacles; ``grid`` itself is never changed.

    Each agent gets at most 10x the current pool size in redraws; running
    out raises GenerationError carrying how many agents were placed.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be positive")
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(n_agents)]
    pool = grid.free_cells()
    work_grid = grid
    sources: dict[int, Coord] = {}
    goals: dict[int, Coord] = {}
    for agent in order:
        if len(pool) < 2:
            raise GenerationError("free space exhausted", len(sources))
        found = None
        for _ in range(10 * len(pool)):
            i = int(rng.integers(len(pool)))
            j = int(rng.integers(len(pool)))
            if i == j:
                continue
            s, g = pool[i], pool[j]
            path = astar_static(work_grid, s, g)
            if path is not None:
                found = (s, g, path)
                break
        if found is None:
            raise GenerationError(
                f"no connected endpoint pair found for agent {agent}", len(sources)
            )
        s, g, path = found
        sources[agent] = s
        goals[agent] = g
        work_grid = work_grid.with_obstacles((s, g))
        removed = set(path)
        pool = [c for c in pool if c not in removed]
    agents = tuple((sources[i], goals[i]) for i in range(n_agents))
    metadata = {
        "seed": seed if isinstance(seed, int) else None,
        "generation_order": tuple(order),
    }
    return ProblemInstance(grid, agents, metadata=metadata)


def write_scenario(instance: ProblemInstance, map_name: str = "map") -> str:
    """Render an instance in MovingAI ``.scen`` column layout: bucket, map,
    map width, map height, start x, start y, goal x, goal y, optimal-length
    placeholder. A map name ``read_scenario`` cannot split out raises ValueError."""
    if not map_name or any(ch.isspace() for ch in map_name):
        raise ValueError(f"map name {map_name!r} must be nonempty and hold no whitespace")
    lines = ["version 1"]
    w, h = instance.grid.width, instance.grid.height
    for (sx, sy), (gx, gy) in instance.agents:
        lines.append(f"0\t{map_name}\t{w}\t{h}\t{sx}\t{sy}\t{gx}\t{gy}\t0")
    return "\n".join(lines) + "\n"


def read_scenario(text: str, grid: GridMap) -> ProblemInstance:
    """Parse ``.scen`` text against its map; malformed rows and size
    mismatches raise ScenarioFormatError. The rows then build a
    ``ProblemInstance``, which raises InvalidInstanceError for an endpoint
    blocked or off the map and for repeated sources or goals."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].lstrip().startswith("version"):
        lines = lines[1:]
    agents: list[tuple[Coord, Coord]] = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 9:
            raise ScenarioFormatError(f"expected 9 columns, got {len(parts)}: {ln!r}")
        try:
            w, h, sx, sy, gx, gy = (int(parts[k]) for k in (2, 3, 4, 5, 6, 7))
            float(parts[8])
        except ValueError as exc:
            raise ScenarioFormatError(f"non-numeric scenario fields: {ln!r}") from exc
        if (w, h) != (grid.width, grid.height):
            raise ScenarioFormatError(
                f"scenario declares {w}x{h}, map is {grid.width}x{grid.height}"
            )
        agents.append(((sx, sy), (gx, gy)))
    return ProblemInstance(grid, tuple(agents))


def write_instance_metadata(instance: ProblemInstance) -> str:
    """Reproducibility sidecar as ``key: value`` lines (seed and the agent
    order used during generation)."""
    lines = []
    seed = instance.metadata.get("seed")
    if seed is not None:
        lines.append(f"seed: {seed}")
    order = instance.metadata.get("generation_order")
    if order is not None:
        lines.append("generation_order: " + ",".join(str(a) for a in order))
    return "\n".join(lines) + ("\n" if lines else "")


def read_instance_metadata(text: str) -> dict:
    """Parse the ``key: value`` sidecar back into a metadata dict."""
    meta: dict = {}
    for ln in text.splitlines():
        if not ln.strip():
            continue
        key, _, value = ln.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            meta["seed"] = int(value)
        elif key == "generation_order":
            meta["generation_order"] = tuple(int(v) for v in value.split(","))
        else:
            meta[key] = value
    return meta
