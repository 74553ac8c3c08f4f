"""Path-search core: a resumable backward search providing exact static
distances, space-time A* against a reservation table, and plain static A*.

Time is discrete; every action (move to a 4-neighbor or wait in place) takes
one step. A path's cost is its arrival time minus its start time, so waiting
is paid for. Two agents collide when they occupy the same cell at the same
step or traverse the same edge in opposite directions across the same step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .grid import Coord, GridMap

TimedState = tuple[int, int, int]  # (x, y, t)


def manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class TimedPath:
    """One agent's timed trajectory: unit steps, waits allowed."""

    agent: int
    states: tuple[TimedState, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("a timed path needs at least one state")
        for (x0, y0, t0), (x1, y1, t1) in zip(self.states, self.states[1:]):
            if t1 != t0 + 1:
                raise ValueError("path times must advance by exactly 1")
            if abs(x1 - x0) + abs(y1 - y0) > 1:
                raise ValueError("path steps must wait or move to a 4-neighbor")

    @property
    def start(self) -> Coord:
        return self.states[0][:2]

    @property
    def goal(self) -> Coord:
        return self.states[-1][:2]

    @property
    def start_time(self) -> int:
        return self.states[0][2]

    @property
    def arrival_time(self) -> int:
        return self.states[-1][2]

    @property
    def cost(self) -> int:
        return self.arrival_time - self.start_time

    def cells(self) -> list[Coord]:
        return [(x, y) for x, y, _ in self.states]

    def iter_moves(self):
        """Proper moves as ``(x0, y0, x1, y1, t0)``, waits skipped; the edge
        is traversed during ``[t0, t0 + 1]``."""
        for (x0, y0, t0), (x1, y1, _) in zip(self.states, self.states[1:]):
            if (x0, y0) != (x1, y1):
                yield (x0, y0, x1, y1, t0)


class PathConflictError(ValueError):
    """A path being inserted collides with existing reservations."""


class ReservationTable:
    """Space-time occupancy of already-fixed paths.

    Tracks vertex occupancy ``(x, y, t)``, edge traversals during
    ``[t, t + 1]`` (stored in both directions so a swap conflict is a single
    lookup), and indefinite goal stays (the final cell of a fixed path is
    occupied for every ``t >=`` its arrival time).
    """

    def __init__(self):
        self.vertices: set[TimedState] = set()
        self.edges: set[tuple[int, int, int, int, int]] = set()
        self.goal_stays: dict[Coord, int] = {}
        self._last_vertex: dict[Coord, int] = {}
        self._last_entry: dict[Coord, int] = {}
        self.last_time = 0  # latest finite reservation time

    def is_vertex_free(self, cell: Coord, t: int) -> bool:
        if (cell[0], cell[1], t) in self.vertices:
            return False
        stay = self.goal_stays.get(cell)
        return stay is None or t < stay

    def is_move_free(self, src: Coord, dst: Coord, t: int) -> bool:
        """True if traversing ``src -> dst`` during ``[t, t + 1]`` crosses no
        reserved edge."""
        return (src[0], src[1], dst[0], dst[1], t) not in self.edges

    def goal_clear_from(self, cell: Coord, t: int) -> bool:
        """True if an agent may park on ``cell`` for every time ``>= t``: no
        reserved stay there, and no vertex reservation or reserved edge
        entering the cell at or after ``t``."""
        if cell in self.goal_stays:
            return False
        return self._last_vertex.get(cell, -1) < t and self._last_entry.get(cell, -1) < t

    def path_conflict(self, path: TimedPath) -> str | None:
        """Describe the first conflict between ``path`` and the table, or
        None if the path (including its final stay) fits."""
        for x, y, t in path.states:
            if not self.is_vertex_free((x, y), t):
                return f"vertex ({x}, {y}) at t={t}"
        for x0, y0, x1, y1, t0 in path.iter_moves():
            if not self.is_move_free((x0, y0), (x1, y1), t0):
                return f"edge ({x0}, {y0})->({x1}, {y1}) at t={t0}"
        gx, gy, gt = path.states[-1]
        if not self.goal_clear_from((gx, gy), gt):
            return f"goal stay at ({gx}, {gy}) from t={gt}"
        return None

    def insert_path(self, path: TimedPath) -> None:
        """Reserve every state, both directions of every traversed edge, and
        an indefinite stay on the final cell. Conflicting paths are rejected;
        feasibility is the planner's job."""
        conflict = self.path_conflict(path)
        if conflict is not None:
            raise PathConflictError(
                f"agent {path.agent} path conflicts with reservations: {conflict}"
            )
        for x, y, t in path.states:
            self.vertices.add((x, y, t))
            if self._last_vertex.get((x, y), -1) < t:
                self._last_vertex[(x, y)] = t
        for x0, y0, x1, y1, t0 in path.iter_moves():
            self.edges.add((x0, y0, x1, y1, t0))
            self.edges.add((x1, y1, x0, y0, t0))
            if self._last_entry.get((x1, y1), -1) < t0:
                self._last_entry[(x1, y1)] = t0
        gx, gy, gt = path.states[-1]
        self.goal_stays[(gx, gy)] = gt
        self.last_time = max(self.last_time, gt)


class ReverseResumableAStar:
    """Exact distance-to-goal on the static map, computed lazily (RRA*,
    Silver, "Cooperative Pathfinding", AIIDE 2005).

    One backward A* runs from the goal toward the first cell it is asked
    about; every caller asks about the searching agent's start first. Its
    heap and best-g map persist across queries: a query for a settled cell
    is a dictionary lookup, and a miss resumes the same heap until the
    queried cell settles or the reachable region is exhausted. Manhattan
    distance to the fixed target is consistent, so each cell settles at most
    once and with its exact distance; that makes this an admissible and
    consistent space-time heuristic.
    """

    def __init__(self, grid: GridMap, goal: Coord):
        if not grid.is_free(goal):
            raise ValueError(f"goal {goal} is not a free cell")
        self.grid = grid
        self.goal = goal
        self.settled: dict[Coord, int] = {}
        self._open: dict[Coord, int] = {goal: 0}  # best g of unsettled generated cells
        self._heap: list[tuple[int, int, int, int]] = []  # (f, g, y, x), keyed to _target
        self._target: Coord | None = None

    @property
    def expanded(self) -> int:
        """Total settles, across all queries."""
        return len(self.settled)

    def distance(self, cell: Coord) -> int | None:
        """Shortest static distance from ``cell`` to the goal, or None when
        unreachable. Never recomputes settled cells."""
        hit = self.settled.get(cell)
        if hit is not None:
            return hit
        heap = self._heap
        if self._target is None:
            self._target = cell
            gx, gy = self.goal
            heap.append((manhattan(self.goal, cell), 0, gy, gx))
        tx, ty = self._target
        neighbors = self.grid.neighbors4
        settled = self.settled
        open_g = self._open
        while heap:
            _, g, y, x = heapq.heappop(heap)
            node = (x, y)
            if open_g.get(node) != g:
                continue  # stale entry
            del open_g[node]
            settled[node] = g
            # relax neighbors before a possible return: the open cells must
            # always border the settled set or later resumes would miss cells
            ng = g + 1
            for nb in neighbors(node):
                if nb in settled:
                    continue
                old = open_g.get(nb)
                if old is None or ng < old:
                    open_g[nb] = ng
                    nx, ny = nb
                    heapq.heappush(heap, (ng + abs(nx - tx) + abs(ny - ty), ng, ny, nx))
            if node == cell:
                return g
        return None


def space_time_astar(
    grid: GridMap,
    start: Coord,
    goal: Coord,
    rt: ReservationTable | None = None,
    start_t: int = 0,
    horizon: int | None = None,
    heuristic: ReverseResumableAStar | None = None,
    agent: int = 0,
) -> TimedPath | None:
    """Minimum-arrival-time path from ``(start, start_t)`` to ``goal``
    honoring the reservation table, or None if no such path exists within
    ``horizon``.

    Arrival at the goal is accepted only when parking there forever is safe:
    no reservation touches the goal cell at or after the arrival time. Ties
    are broken on (f, larger g, t, y, x), and a state's parent is fixed when
    the state is first generated, so results are reproducible.

    The default horizon, last reservation time plus the map area, is enough
    for any optimal path: waiting out all reserved activity and then making
    a simple detour never needs more steps than there are cells.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    if not grid.is_free(goal):
        raise ValueError(f"goal {goal} is not a free cell")
    if rt is None:
        rt = ReservationTable()
    elif not rt.is_vertex_free(start, start_t):
        raise ValueError(f"start {start} is reserved at t={start_t}")
    if heuristic is not None and heuristic.goal != goal:
        raise ValueError(f"heuristic was built for goal {heuristic.goal}, not {goal}")

    h = heuristic if heuristic is not None else ReverseResumableAStar(grid, goal)
    h_start = h.distance(start)
    if h_start is None:
        return None
    if horizon is None:
        horizon = max(start_t, rt.last_time) + grid.width * grid.height

    # The table is read directly: these are is_vertex_free and is_move_free
    # inlined. No state is generated past the horizon, so a cell without a
    # goal stay may read its stay as ``never``.
    vertices = rt.vertices
    edges = rt.edges
    stays = rt.goal_stays
    never = horizon + 1
    neighbors = grid.neighbors4
    settled = h.settled
    distance = h.distance
    gx, gy = goal
    sx, sy = start
    parent: dict[TimedState, TimedState | None] = {(sx, sy, start_t): None}
    heap: list[tuple[int, int, int, int, int]] = [(h_start, 0, start_t, sy, sx)]
    while heap:
        f, _, t, y, x = heapq.heappop(heap)
        if x == gx and y == gy and rt.goal_clear_from(goal, t):
            states = []
            cur: TimedState | None = (x, y, t)
            while cur is not None:
                states.append(cur)
                cur = parent[cur]
            states.reverse()
            return TimedPath(agent, tuple(states))
        if t >= horizon:
            continue
        nt = t + 1
        here = (x, y)
        state = (x, y, t)
        neg_g = start_t - nt
        ws = (x, y, nt)
        if ws not in parent and ws not in vertices and stays.get(here, never) > nt:
            parent[ws] = state
            heapq.heappush(heap, (f + 1, neg_g, nt, y, x))
        for nb in neighbors(here):
            nx, ny = nb
            ns = (nx, ny, nt)
            if (
                ns in parent
                or ns in vertices
                or stays.get(nb, never) <= nt
                or (x, y, nx, ny, t) in edges
            ):
                continue
            hd = settled.get(nb)
            if hd is None:
                hd = distance(nb)
                if hd is None:
                    continue
            parent[ns] = state
            heapq.heappush(heap, (nt - start_t + hd, neg_g, nt, ny, nx))
    return None


def astar_static(grid: GridMap, start: Coord, goal: Coord) -> list[Coord] | None:
    """Shortest 4-connected path on the static map as a cell sequence, or
    None when disconnected.

    Runs the space-time search with no reservations, so single-agent plans
    and first-round candidate paths of the iterated solver are identical.
    """
    path = space_time_astar(grid, start, goal)
    return path.cells() if path is not None else None
