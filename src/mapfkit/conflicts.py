"""Conflict primitives: per-partition subpath splitting, partition-local
collision reports, the intersection-graph type, connected components and
whole-solution validation. ``solver`` runs the pipeline and merges reports.

A path's final cell stays occupied after arrival (agents park at their
goals), so detection extends final states forward in time up to the
iteration horizon. Timed edges are checked in the partitions of both of
their endpoints and deduplicated when reports merge, which is what makes
partition-local detection equivalent to the all-pairs check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .grid import Coord, GridMap, Partitioning
from .search import TimedPath, TimedState


@dataclass(frozen=True)
class SubpathSegment:
    """Maximal run of consecutive path states inside one partition.

    ``prev_state`` / ``next_state`` are the path states immediately outside
    the run (None at the path's ends); they carry the boundary-crossing moves
    that belong to no segment's own state list. ``length`` counts moves, so a
    single-state visit has length 0.
    """

    agent: int
    partition: int
    states: tuple[TimedState, ...]
    prev_state: TimedState | None = None
    next_state: TimedState | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("a segment needs at least one state")

    @property
    def start_time(self) -> int:
        return self.states[0][2]

    @property
    def length(self) -> int:
        return len(self.states) - 1


def split_path(path: TimedPath, part: Partitioning, grid: GridMap) -> list[SubpathSegment]:
    """Cut a path into per-partition segments in O(path length).

    Every state lands in exactly one segment; a new segment opens whenever
    the partition id changes, so re-entering a partition yields separate,
    time-disjoint segments.
    """
    if (part.width, part.height) != (grid.width, grid.height):
        raise ValueError("partitioning was built for a different map size")
    locate = part.locate
    states = path.states
    runs: list[tuple[int, list[TimedState]]] = []
    run = [states[0]]
    run_part = locate(states[0][:2])
    for st in states[1:]:
        pid = locate(st[:2])
        if pid == run_part:
            run.append(st)
        else:
            runs.append((run_part, run))
            run = [st]
            run_part = pid
    runs.append((run_part, run))
    segments = []
    for i, (pid, sts) in enumerate(runs):
        prev_state = runs[i - 1][1][-1] if i > 0 else None
        next_state = runs[i + 1][1][0] if i + 1 < len(runs) else None
        segments.append(SubpathSegment(path.agent, pid, tuple(sts), prev_state, next_state))
    return segments


@dataclass(frozen=True)
class ConflictReport:
    """Deduplicated colliding agent pairs observed within one partition;
    callers file reports under the partition id they checked."""

    pairs: frozenset[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.pairs)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def detect_conflicts_in_partition(
    segments: Sequence[SubpathSegment], horizon: int
) -> ConflictReport:
    """Vertex, goal-stay and swap conflicts among one partition's segments.

    A path's last segment parks on its final cell up to ``horizon`` (the
    latest arrival over the round's paths), as ``validate_solution`` has it,
    so the vertex pass finds goal-stay conflicts too. Boundary moves (entry/exit
    of a segment) join swap detection here and in the neighboring partition
    alike; set semantics dedupe the double sighting downstream.
    """
    pairs: set[tuple[int, int]] = set()
    occupancy: dict[TimedState, list[int]] = {}
    moves: dict[tuple[int, int, int, int, int], list[int]] = {}

    for seg in segments:
        a = seg.agent
        sts = seg.states
        for st in sts:
            occupancy.setdefault(st, []).append(a)
        for (x0, y0, t0), (x1, y1, _) in zip(sts, sts[1:]):
            if (x0, y0) != (x1, y1):
                moves.setdefault((x0, y0, x1, y1, t0), []).append(a)
        if seg.prev_state is not None:
            px, py, pt = seg.prev_state
            x0, y0, _ = sts[0]
            moves.setdefault((px, py, x0, y0, pt), []).append(a)
        x1, y1, t1 = sts[-1]
        if seg.next_state is not None:
            nx, ny, _ = seg.next_state
            moves.setdefault((x1, y1, nx, ny, t1), []).append(a)
        else:
            for t in range(t1 + 1, horizon + 1):
                occupancy.setdefault((x1, y1, t), []).append(a)

    for agents in occupancy.values():
        if len(agents) > 1:
            for a, b in itertools.combinations(agents, 2):
                if a != b:
                    pairs.add(_pair(a, b))
    for (x0, y0, x1, y1, t), agents in moves.items():
        rev = moves.get((x1, y1, x0, y0, t))
        if rev:
            for a in agents:
                for b in rev:
                    if a != b:
                        pairs.add(_pair(a, b))
    return ConflictReport(frozenset(pairs))


@dataclass(frozen=True)
class IntersectionGraph:
    """Agents as nodes; an edge joins two agents whose candidate paths
    collide anywhere under full-path semantics."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def connected_components(g: IntersectionGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted node tuples, singletons included,
    ordered by smallest member."""
    adj = g.adjacency()
    seen: set[int] = set()
    components = []
    for node in sorted(g.nodes):
        if node in seen:
            continue
        comp = []
        stack = [node]
        seen.add(node)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        components.append(tuple(sorted(comp)))
    return components


def validate_solution(
    paths: Mapping[int, TimedPath] | Iterable[TimedPath],
    grid: GridMap,
    endpoints: Mapping[int, tuple[Coord, Coord]] | Sequence[tuple[Coord, Coord]] | None = None,
) -> list[str]:
    """Check each path and every pair under full collision semantics,
    including indefinite goal stays up to the global makespan. Every path
    must start at t=0, a mapping must key each path by its own agent, a
    sequence must list each agent once, and with ``endpoints`` every listed
    agent must have a path and every path must belong to a listed agent.
    Returns the violations found; an empty list means the solution is
    valid.
    """
    if isinstance(paths, Mapping):
        items = list(paths.values())
        violations = [
            f"agent {k}: path belongs to agent {p.agent}" for k, p in paths.items() if k != p.agent
        ]
    else:
        items = list(paths)
        counts = Counter(p.agent for p in items)
        violations = [f"agent {a}: listed twice" for a, n in counts.items() if n > 1]
    if endpoints is not None:
        have = {path.agent for path in items}
        listed = endpoints.keys() if isinstance(endpoints, Mapping) else range(len(endpoints))
        violations += [f"agent {a}: no path" for a in listed if a not in have]
    for path in items:
        a = path.agent
        if path.start_time != 0:
            violations.append(f"agent {a}: starts at t={path.start_time}, expected t=0")
        for x, y, t in path.states:
            if not grid.is_free((x, y)):
                violations.append(f"agent {a}: state ({x}, {y}, {t}) blocked or out of bounds")
        if endpoints is not None:
            if a not in listed:
                violations.append(f"agent {a}: not in the instance")
                continue
            src, dst = endpoints[a]
            if path.start != tuple(src):
                violations.append(f"agent {a}: starts at {path.start}, expected {tuple(src)}")
            if path.goal != tuple(dst):
                violations.append(f"agent {a}: ends at {path.goal}, expected {tuple(dst)}")
    if not items:
        return violations

    makespan = max(p.arrival_time for p in items)
    occupants: dict[TimedState, int] = {}
    for path in items:
        a = path.agent
        gx, gy, gt = path.states[-1]
        stay = ((gx, gy, t) for t in range(gt + 1, makespan + 1))
        for x, y, t in itertools.chain(path.states, stay):
            other = occupants.get((x, y, t))
            if other is None:
                occupants[(x, y, t)] = a
            elif other != a:
                violations.append(
                    f"agents {_pair(other, a)[0]} and {_pair(other, a)[1]} share ({x}, {y}) at t={t}"
                )
    edge_use: dict[tuple[int, int, int, int, int], int] = {}
    for path in items:
        for move in path.iter_moves():
            edge_use[move] = path.agent
    for (x0, y0, x1, y1, t0), a in edge_use.items():
        if (x0, y0) > (x1, y1):
            continue  # report each undirected edge once
        b = edge_use.get((x1, y1, x0, y0, t0))
        if b is not None and b != a:
            violations.append(
                f"agents {_pair(a, b)[0]} and {_pair(a, b)[1]} swap ({x0}, {y0})<->({x1}, {y1}) at t={t0}"
            )
    return violations
