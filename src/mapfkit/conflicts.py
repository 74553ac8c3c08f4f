"""Conflict primitives: per-partition subpath splitting, partition-local
collision reports, the intersection-graph type, connected components and
whole-solution validation. ``solver`` runs the pipeline and merges reports.

A path's final cell stays occupied after arrival (agents park at their
goals), so detection extends final states forward in time up to the latest
state time in the partition being checked. That bound is exact: a stay
collides only with a state on its own cell, and that state lies in the same
partition. Timed edges are checked in the partitions of both of their
endpoints and deduplicated when reports merge, which is what makes
partition-local detection equivalent to the all-pairs check.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from operator import ne

from .grid import Coord, GridMap, Partitioning
from .search import TimedPath, TimedState


@dataclass(slots=True)
class SubpathSegment:
    """Maximal run of consecutive path states inside one partition, as
    ``split_path`` cuts it; a whole path is priced and encoded as itself.

    ``prev_state`` / ``next_state`` are the path states immediately outside
    the run (None at the path's ends); they carry the boundary-crossing moves
    that belong to no segment's own state list. ``length`` counts moves, so a
    single-state visit has length 0.

    Every round builds one segment per partition visit of every candidate
    path, so the class is slotted and not frozen: a frozen dataclass sets
    each field through ``object.__setattr__``, which made a segment cost
    about three times as much to build.
    """

    agent: int
    partition: int
    states: tuple[TimedState, ...]
    prev_state: TimedState | None = None
    next_state: TimedState | None = None

    def __post_init__(self):
        self.states = tuple(self.states)
        if not self.states:
            raise ValueError("a segment needs at least one state")

    @property
    def start_time(self) -> int:
        return self.states[0][2]

    @property
    def length(self) -> int:
        return len(self.states) - 1


def split_path(path: TimedPath, part: Partitioning) -> list[SubpathSegment]:
    """Cut a path into per-partition segments in O(path length).

    Every state lands in exactly one segment; a new segment opens whenever
    the partition id changes, so re-entering a partition yields separate,
    time-disjoint segments. Partition ids come from ``part.cell_parts``, and
    each segment's states are a slice of ``path.states``. A state off the
    ``part.width x part.height`` map raises ValueError naming the agent and
    the state.
    """
    parts, w, h = part.cell_parts, part.width, part.height
    states = path.states
    n = len(states)
    pids = [parts[y * w + x] if 0 <= x < w and 0 <= y < h else -1 for x, y, _ in states]
    if -1 in pids:
        x, y, t = states[pids.index(-1)]
        raise ValueError(f"agent {path.agent} path leaves the {w}x{h} map at ({x}, {y}, {t})")
    # a segment opens at state 0 and at every state whose partition differs
    # from the one before it
    starts = [0, *itertools.compress(itertools.count(1), map(ne, pids, pids[1:]))]
    ends = starts[1:] + [n]
    agent = path.agent
    return [
        SubpathSegment(
            agent, pids[i], states[i:j], states[i - 1] if i else None, states[j] if j < n else None
        )
        for i, j in zip(starts, ends)
    ]


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


def _also_on(key, first: int, agent: int, crowded: dict, pairs: set) -> None:
    """``agent`` reaches ``key``, which ``first`` reached before it: pair it
    with every agent on the key so far, and list it there."""
    agents = crowded.setdefault(key, [first])
    pairs.update([_pair(agent, b) for b in agents if b != agent])
    agents.append(agent)


def detect_conflicts_in_partition(segments: Sequence[SubpathSegment]) -> ConflictReport:
    """Vertex, goal-stay and swap conflicts among one partition's segments.

    A path's last segment parks on its final cell, as ``validate_solution``
    has it, so the vertex pass finds goal-stay conflicts too. The stay ends
    at the segments' latest state time: a stay collides only with a state on
    its own cell, which lies in this partition, so no later stay time can
    collide.

    Boundary moves (entry/exit of a segment) join swap detection here and in
    the neighboring partition alike; set semantics dedupe the double sighting
    downstream. A step from ``(x0, y0, t)`` to ``(x1, y1, t + 1)`` is keyed by
    its midpoint ``(x0 + x1, y0 + y1, t)``, which both directions of an edge
    share, so a swap is two agents on one key and is found when the second
    one arrives. Two agents on one key in the same direction, or waiting on
    one cell, also share a state in this partition, so the key adds no pair
    that the vertex pass misses. A key keeps its first agent, and a key that
    more agents reach lists them all, so every pair on a key is reported.
    """
    if len(segments) < 2:
        return ConflictReport(frozenset())  # one agent has nobody to meet
    end = max([seg.states[-1][2] for seg in segments])
    at: dict[TimedState, int] = {}  # state -> first agent there
    on: dict[tuple[int, int, int], int] = {}  # step midpoint -> first agent on it
    crowded_at: dict[TimedState, list[int]] = {}
    crowded_on: dict[tuple[int, int, int], list[int]] = {}
    pairs: set[tuple[int, int]] = set()
    hold, cross = at.setdefault, on.setdefault
    for seg in segments:
        a = seg.agent
        sts = seg.states
        for st in sts:
            b = hold(st, a)
            if b != a:
                _also_on(st, b, a, crowded_at, pairs)
        nxt = seg.next_state
        if nxt is None:
            x, y, t = sts[-1]
            for st in zip(itertools.repeat(x), itertools.repeat(y), range(t + 1, end + 1)):
                b = hold(st, a)
                if b != a:
                    _also_on(st, b, a, crowded_at, pairs)
        else:
            sts += (nxt,)
        if seg.prev_state is not None:
            sts = (seg.prev_state,) + sts
        for (x0, y0, t0), (x1, y1, _) in zip(sts, sts[1:]):
            key = (x0 + x1, y0 + y1, t0)
            b = cross(key, a)
            if b != a:
                _also_on(key, b, a, crowded_on, pairs)
    return ConflictReport(frozenset(pairs))


@dataclass(frozen=True)
class IntersectionGraph:
    """Agents as nodes; an edge joins two agents whose candidate paths
    collide anywhere under full-path semantics. An edge may list its ends in
    either order; a self-loop, or an end not in ``nodes``, raises
    ValueError."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        nodes = set(self.nodes)
        for a, b in self.edges:
            if a == b or a not in nodes or b not in nodes:
                raise ValueError(f"edge ({a}, {b}) is a self-loop or names an absent node")

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
    return _components(g.nodes, g.adjacency())


def _components(nodes: Iterable[int], adj: Mapping[int, Set[int]]) -> list[tuple[int, ...]]:
    """``connected_components`` of the graph with adjacency ``adj``."""
    seen: set[int] = set()
    components = []
    for node in sorted(nodes):
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
    paths: Mapping[int, TimedPath],
    grid: GridMap,
    endpoints: Sequence[tuple[Coord, Coord]],
) -> list[str]:
    """Check each path and every pair under full collision semantics,
    including indefinite goal stays up to the global makespan. ``paths``
    must key each path by its own agent, and every path must start at t=0.
    ``endpoints`` lists each agent's (source, goal) by agent id: every
    listed agent must have a path between them, and every path must belong
    to a listed agent. Returns the violations found; an empty list means
    the solution is valid.
    """
    items = list(paths.values())
    violations = [
        f"agent {k}: path belongs to agent {p.agent}" for k, p in paths.items() if k != p.agent
    ]
    have = {path.agent for path in items}
    listed = range(len(endpoints))
    violations += [f"agent {a}: no path" for a in listed if a not in have]
    for path in items:
        a = path.agent
        if path.start_time != 0:
            violations.append(f"agent {a}: starts at t={path.start_time}, expected t=0")
        for x, y, t in path.states:
            if not grid.is_free((x, y)):
                violations.append(f"agent {a}: state ({x}, {y}, {t}) blocked or out of bounds")
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
