"""Guaranteed-solvable instance generation and MovingAI-style scenario I/O.

Instances are built agent by agent: an endpoint pair is drawn from a
sampling pool and redrawn until a static path connects it on a work map,
the committed pair is then blocked on the work map, and the committed
path's cells leave the pool. Endpoints chosen later therefore never sit on
an earlier agent's path or endpoints, which is what makes prioritized
planning succeed on these instances under every priority order. The pool is
a boolean mask over flat ids, and the work map is one map per instance,
private to the generator, whose neighbour table is patched in place.
"""

from __future__ import annotations

import numpy as np

from .grid import Coord, GridMap, _block
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

    The pool is a row-major mask over flat ids, seeded with ``grid``'s free
    cells; its k-th set id is the k-th cell of the row-major list of free
    cells off every committed path, the cell a draw of k picks. Pairs are
    tested on a work map private to this call, whose neighbour table is a
    copy of ``grid``'s with every committed source and goal blocked in
    place. Its obstacle set may stay ``grid``'s: the searches ask
    ``is_free`` only of the pair they are given, which comes from the pool,
    and the pool never holds a committed path's cell. ``grid`` itself is
    never changed.

    Each agent gets at most 10x the current pool size in redraws; running
    out raises GenerationError carrying how many agents were placed.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be positive")
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(n_agents)]
    w = grid.width
    pool = np.ones(w * grid.height, dtype=bool)
    pool[[y * w + x for x, y in grid.obstacles]] = False
    # reading grid's table builds it once, for the solves as well
    work_grid = GridMap(w, grid.height, grid.obstacles)
    work_grid.__dict__["neighbor_table"] = list(grid.neighbor_table)
    placed: dict[int, tuple[Coord, Coord]] = {}
    for agent in order:
        ids = np.flatnonzero(pool)
        n = len(ids)
        if n < 2:
            raise GenerationError("free space exhausted", len(placed))
        for _ in range(10 * n):
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            if i == j:
                continue
            a, b = int(ids[i]), int(ids[j])
            s, g = (a % w, a // w), (b % w, b // w)
            path = astar_static(work_grid, s, g)
            if path is not None:
                break
        else:
            raise GenerationError(
                f"no connected endpoint pair found for agent {agent}", len(placed)
            )
        placed[agent] = (s, g)
        _block(work_grid.neighbor_table, {a, b})
        pool[[y * w + x for x, y in path]] = False
    agents = tuple(placed[i] for i in range(n_agents))
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
