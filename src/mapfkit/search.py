"""Path-search core: a resumable backward search providing exact static
distances on one map to one goal, and space-time A* against a reservation
table, which takes the backward search as its heuristic, map and goal. A
search whose goal clears by the static arrival, and whose smallest-id
shortest path no reservation touches, reads that path off those distances
instead, as ``astar_static`` does.

Time is discrete; every action (move to a 4-neighbor or wait in place) takes
one step. A path's cost is its arrival time minus its start time, so waiting
is paid for. Two agents collide when they occupy the same cell at the same
step or traverse the same edge in opposite directions across the same step.

Inside the core a cell is its flat id ``y * width + x`` (see ``GridMap``),
a state is the int ``t * area + c``, and the reservation table keys
vertices and edges by such ints. ``(x, y)`` cells and ``(x, y, t)`` states
appear only at the boundary: in arguments, in ``TimedPath`` and in the
table's public queries.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from .grid import OPEN_TABLE_CACHE_SIZE, Coord, GridMap, _integers

TimedState = tuple[int, int, int]  # (x, y, t)


def manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class TimedPath:
    """One agent's timed trajectory from t >= 0: unit steps, waits allowed."""

    agent: int
    states: tuple[TimedState, ...]

    def __post_init__(self):
        # plain ints are tested first: every path a search returns comes here
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValueError("a timed path needs at least one state")
        x, y, t = states[0]
        if not (type(x) is type(y) is type(t) is int) and not _integers(x, y, t):
            raise ValueError(f"agent {self.agent} state {states[0]} is not three integers")
        if t < 0:
            raise ValueError(f"agent {self.agent} path starts at t={t}, before t=0")
        for (x0, y0, t0), (x1, y1, t1) in zip(states, states[1:]):
            if not (type(x1) is type(y1) is type(t1) is int) and not _integers(x1, y1, t1):
                raise ValueError(f"agent {self.agent} state {(x1, y1, t1)} is not three integers")
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


NO_STAY = sys.maxsize  # ``goal_stays`` entry of a cell nobody parks on
DEADLINE_CHECK_POPS = 1024  # heap pops between reads of a search's deadline


class ReservationTable:
    """Space-time occupancy of already-fixed paths on one map.

    Cells are flat ids ``c = y * width + x`` and times are packed in with
    them, so every reservation is one int:

    - ``vertices`` holds each occupied state ``(c, t)`` as ``t * area + c``;
    - ``edges`` holds, for each fixed move ``src -> dst`` during
      ``[t, t + 1]``, the key of the opposite move,
      ``(t * area + dst) * area + src``: a move that would swap with a fixed
      one finds its own key there. A move along a fixed one enters a
      reserved vertex, so it needs no key;
    - ``goal_stays`` is indexed by cell id and gives the time from which the
      final cell of a fixed path is occupied forever, or ``NO_STAY``.

    The public queries take ``(x, y)`` cells of two integers and reject others.
    """

    def __init__(self, grid: GridMap):
        self.width = grid.width
        self.height = grid.height
        self.area = grid.width * grid.height
        self.vertices: set[int] = set()
        self.edges: set[int] = set()
        self.goal_stays: list[int] = [NO_STAY] * self.area
        self._last_vertex: dict[int, int] = {}
        self.last_time = 0  # latest finite reservation time
        self._paths: list[TimedPath] = []  # the accepted paths, in order

    def _cell_id(self, cell: Coord) -> int:
        x, y = cell
        if (type(x) is not int or type(y) is not int) and not _integers(x, y):
            raise ValueError(f"cell {cell} is not two integers")
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell {cell} is off the {self.width}x{self.height} map")
        return y * self.width + x

    def is_vertex_free(self, cell: Coord, t: int) -> bool:
        c = self._cell_id(cell)
        return t * self.area + c not in self.vertices and t < self.goal_stays[c]

    def is_move_free(self, src: Coord, dst: Coord, t: int) -> bool:
        """True if traversing ``src -> dst`` during ``[t, t + 1]`` neither
        swaps with a fixed move nor follows one along the same edge."""
        a = self.area
        s, d = self._cell_id(src), self._cell_id(dst)
        return self.edges.isdisjoint(((t * a + s) * a + d, (t * a + d) * a + s))

    def goal_clear_time(self, cell: Coord) -> int | None:
        """Earliest time from which an agent may park on ``cell`` for good,
        or None when a fixed path already parks there.

        That is one past the last vertex reservation on the cell. A reserved
        edge entering the cell during ``[t, t + 1]`` needs no test of its
        own: it comes with the vertex reservation at ``t + 1``.
        """
        c = self._cell_id(cell)
        if self.goal_stays[c] != NO_STAY:
            return None
        return self._last_vertex.get(c, -1) + 1

    def path_conflict(self, path: TimedPath) -> str | None:
        """Describe the first conflict between ``path`` and the table, or
        None if the path (including its final stay) fits. A path that
        leaves the map raises ValueError."""
        w, h, a = self.width, self.height, self.area
        ids = []
        for x, y, _ in path.states:
            if not (0 <= x < w and 0 <= y < h):
                raise ValueError(f"agent {path.agent} path leaves the {w}x{h} map at ({x}, {y})")
            ids.append(y * w + x)
        vertices, stays = self.vertices, self.goal_stays
        for (x, y, t), c in zip(path.states, ids):
            if t * a + c in vertices or stays[c] <= t:
                return f"vertex ({x}, {y}) at t={t}"
        edges = self.edges
        for (x0, y0, t0), (x1, y1, _), src, dst in zip(
            path.states, path.states[1:], ids, ids[1:]
        ):
            if src != dst and (t0 * a + src) * a + dst in edges:
                return f"edge ({x0}, {y0})->({x1}, {y1}) at t={t0}"
        gx, gy, gt = path.states[-1]
        clear = self.goal_clear_time((gx, gy))
        if clear is None or clear > gt:
            return f"goal stay at ({gx}, {gy}) from t={gt}"
        return None

    def insert_path(self, path: TimedPath) -> None:
        """Reserve every state, the swap key of every move (see ``edges``),
        and an indefinite stay on the final cell. Conflicting paths, and
        paths that leave the map, are rejected; feasibility is the planner's
        job.

        One pass checks and reserves. The goal-clear test reads only the old
        table, so it runs first. Then each state is checked to lie on the
        map, its vertex key is tested against ``vertices`` and
        ``goal_stays``, and the move into it against ``edges``, before they
        are added. On the first clash the table is rebuilt from the accepted
        paths, and the error is the one a check of the whole path on it
        gives (see ``_reject``): a rejected path leaves the table as it was.
        """
        states = path.states
        w, h, a = self.width, self.height, self.area
        last_vertex, stays = self._last_vertex, self.goal_stays
        gx, gy, gt = states[-1]
        if 0 <= gx < w and 0 <= gy < h:
            clear = self.goal_clear_time((gx, gy))
            if clear is None or clear > gt:
                self._reject(path)  # the goal is not clear from gt on
        vertices, edges = self.vertices, self.edges
        x, y, _ = states[0]
        prev = y * w + x
        prev_key = 0  # the vertex key of the state before, read after a move
        for x, y, t in states:
            if not (0 <= x < w and 0 <= y < h):
                self._reject(path)
            c = y * w + x
            key = t * a + c
            if key in vertices or stays[c] <= t:
                self._reject(path)
            if c != prev:
                # a fixed move swaps with prev -> c if its key is held; this
                # one holds the key of c -> prev during [t - 1, t]
                if prev_key * a + c in edges:
                    self._reject(path)
                edges.add((prev_key - prev + c) * a + prev)
            vertices.add(key)
            if last_vertex.get(c, -1) < t:
                last_vertex[c] = t
            prev = c
            prev_key = key
        stays[prev] = gt
        self.last_time = max(self.last_time, gt)
        self._paths.append(path)

    def _reject(self, path: TimedPath) -> None:
        """Restore the table to the accepted paths and raise the error a
        check of the whole of ``path`` gives: ValueError for a state off the
        map, else PathConflictError with the message of ``path_conflict``.

        The table is emptied in place and the accepted paths are inserted
        again, in order, so they fit as they did. Only a rejected path pays
        for that.
        """
        self.vertices.clear()
        self.edges.clear()
        self.goal_stays[:] = [NO_STAY] * self.area
        self._last_vertex.clear()
        self.last_time = 0
        accepted, self._paths = self._paths, []
        for fixed in accepted:
            self.insert_path(fixed)
        conflict = self.path_conflict(path)
        raise PathConflictError(f"agent {path.agent} path conflicts with reservations: {conflict}")


class ReverseResumableAStar:
    """Exact distance-to-goal on the static map, computed lazily (RRA*,
    Silver, "Cooperative Pathfinding", AIIDE 2005).

    One backward A* runs from the goal toward the first cell it is asked
    about; every caller asks about the searching agent's start first. Its
    open lists and best-g list persist across queries: a query for a
    settled cell is a list lookup, and a miss resumes the same search until
    the queried cell settles or the reachable region is exhausted.

    The open cells sit in two lists, ``now`` at the current f and ``next``
    at f + 2 (Dial, CACM 1969): on a 4-grid each step changes the Manhattan
    distance to the fixed target by exactly 1, so a neighbour's f equals
    its parent's or exceeds it by 2, and no other level is ever needed.
    That heuristic is consistent, so a cell popped at the lowest open level
    holds its exact distance whatever the order among cells of that level;
    the tie order decides only which extra cells settle before the queried
    one. Each cell settles at most once, and the distances make an
    admissible and consistent space-time heuristic.

    ``dist`` is indexed by flat cell id ``y * width + x`` and holds the
    distance of every settled cell, -1 for the rest.

    A read-off (``_descend``) may resume the search only through a stop
    level, to learn whether a cell is at one given distance: with a
    consistent heuristic, every cell whose f is at most a used-up level has
    settled. Such a resume stops where a level ends, with the open lists
    intact, so a later query resumes from there.
    """

    def __init__(self, grid: GridMap, goal: Coord):
        if not grid.is_free(goal):
            raise ValueError(f"goal {goal} is not a free cell")
        self.grid = grid
        self.goal = goal
        area = grid.width * grid.height
        self._goal_id = grid.cell_id(goal)
        self.dist: list[int] = [-1] * area
        # Best g of each generated cell; ``area`` exceeds every distance. A
        # settled cell's best g is exact, so no later relaxation beats it.
        self._best = [area] * area
        self._best[self._goal_id] = 0
        # open cells at f and at f + 2, f keyed to the target, the cell the
        # first query aims the search at
        self._now: list[int] = []
        self._next: list[int] = []
        self._f = 0
        # x and y of each flat id, and the target's distance along x by
        # column and along y by row; both empty until the search is aimed
        self._xs, self._ys = _coordinates(grid.width, grid.height)
        self._dx: list[int] = []
        self._dy: list[int] = []

    @property
    def expanded(self) -> int:
        """Total settles, across all queries."""
        return len(self.dist) - self.dist.count(-1)

    def distance(self, cell: Coord) -> int | None:
        """Shortest static distance from ``cell`` to the goal, or None when
        unreachable, blocked or off the map. Never recomputes settled cells;
        a blocked cell settles nothing and does not aim the search."""
        if not self.grid.is_free(cell):
            return None
        return self._distance(self.grid.cell_id(cell))

    def _distance(self, cell: int, stop: int = sys.maxsize) -> int | None:
        """``distance`` of the free cell with flat id ``cell``. The search
        resumes no further than the end of level ``stop``: None also means
        that ``cell`` did not settle by then, so its f exceeds ``stop``."""
        dist = self.dist
        hit = dist[cell]
        if hit >= 0:
            return hit
        xs, ys = self._xs, self._ys
        if not self._dx:
            grid, tx, ty = self.grid, xs[cell], ys[cell]
            self._dx = [abs(x - tx) for x in range(grid.width)]
            self._dy = [abs(y - ty) for y in range(grid.height)]
            self._f = self._dx[xs[self._goal_id]] + self._dy[ys[self._goal_id]]
            self._now.append(self._goal_id)
        dx, dy = self._dx, self._dy
        table = self.grid.neighbor_table
        best = self._best
        now, later, f = self._now, self._next, self._f
        found = None
        while True:
            if not now:
                if not later or f >= stop:
                    break  # the goal's region or level stop is used up
                now, later = later, now
                f += 2
            node = now.pop()
            if dist[node] >= 0:
                continue  # stale entry: the cell settled at a lower f
            g = best[node]
            dist[node] = g
            # relax neighbors before a possible return: the open cells must
            # always border the settled set or later resumes would miss cells
            ng = g + 1
            h = f - g  # the node's distance to the target; a neighbour's is h ± 1
            for nb in table[node]:
                if ng < best[nb]:
                    best[nb] = ng
                    if dx[xs[nb]] + dy[ys[nb]] < h:
                        now.append(nb)
                    else:
                        later.append(nb)
            if node == cell:
                found = g
                break
        self._now, self._next, self._f = now, later, f
        return found


@lru_cache(maxsize=OPEN_TABLE_CACHE_SIZE)
def _coordinates(width: int, height: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """x and y of every flat id of a ``width x height`` map, shared by every
    search on a map of that size (see ``grid._open_table``)."""
    return tuple(range(width)) * height, tuple(y for y in range(height) for _ in range(width))


def _descend(h: ReverseResumableAStar, cell: int, rt: ReservationTable | None) -> list[int] | None:
    """Shortest static path on ``h``'s map from the free cell with flat id
    ``cell``, leaving at t=0, to ``h``'s goal, as flat ids. Each step goes
    to the smallest-id neighbour whose distance is one less. None when the
    goal is unreachable, or when ``rt`` reserves a step of that path: its
    vertex key, a goal stay on its cell, or the swap key of its move (see
    ``ReservationTable``). ``astar_static`` passes no table, and then no
    step is reserved.

    A grid is bipartite, so a neighbour of a cell at distance d + 1 is at d
    or d + 2. It is at d when it is settled at d, or when its best g is d,
    since no path to it is shorter. It is at d + 2 when its Manhattan
    distance to the goal exceeds d, or when its f at d, which is d plus its
    Manhattan distance to the search's target, lies below ``h._f``: an
    unsettled cell's f is at least ``h._f``. When no such test decides it,
    the search resumes only through that f level, and the neighbour is at d
    if it settles by then, else at d + 2; the search's level is not raised
    past it.
    """
    d = h._distance(cell)
    if d is None:
        return None
    grid = h.grid
    table = grid.neighbor_table
    dist, best, settle = h.dist, h._best, h._distance
    xs, ys, dx, dy = h._xs, h._ys, h._dx, h._dy
    area = grid.width * grid.height
    gx, gy = xs[h._goal_id], ys[h._goal_id]
    # a table with no vertex holds no edge or stay either: it reserves no step
    vertices = None if rt is None else rt.vertices
    if vertices:
        edges, stays = rt.edges, rt.goal_stays
    path = [cell]
    while d:
        d -= 1
        for nb in sorted(table[cell]):
            known = dist[nb]
            if known >= 0:
                if known == d:
                    break
                continue
            if best[nb] == d:
                break
            x, y = xs[nb], ys[nb]
            if abs(x - gx) + abs(y - gy) > d:
                continue
            f = d + dx[x] + dy[y]  # nb's f if it is at d
            if f < h._f:
                continue
            if settle(nb, f) == d:
                break
        if vertices:
            t = len(path)
            if (
                t * area + nb in vertices
                or stays[nb] <= t
                or ((t - 1) * area + cell) * area + nb in edges
            ):
                return None
        cell = nb
        path.append(cell)
    return path


def space_time_astar(
    h: ReverseResumableAStar,
    start: Coord,
    rt: ReservationTable,
    *,
    agent: int = 0,
    deadline: float | None = None,
) -> TimedPath | None:
    """Minimum-arrival-time path from ``(start, 0)`` to ``h.goal`` on
    ``h.grid`` honoring the reservation table, or None if no such path
    exists. The heuristic names the search's map and goal, so neither is
    passed again; ``rt`` must be built for that map.

    Arrival at the goal is accepted only when parking there forever is safe:
    no reservation touches the goal cell at or after the arrival time, so a
    goal under a reserved stay fails at once. Ties are broken on (f, larger
    t, y, x), and a state's parent is fixed when the state is first
    generated, so results are reproducible.

    Heuristic: ``h(c, t) = max(d(c), clear - t)``, where ``d`` is the exact
    static distance to the goal, read from ``h``, and ``clear`` is
    ``rt.goal_clear_time(h.goal)``. It is admissible, since the path needs
    ``d(c)`` more steps and no arrival before ``clear`` is accepted, and
    consistent, since each step or wait lowers either term by at most 1. So
    ``f = max(t + d(c), clear)``, and a goal that is busy until late costs
    no search over every state that could wait for it.

    Static tail: after ``rt.last_time`` no vertex or edge reservation is
    left, only goal stays, and those last forever. There a cell reached at
    time t beats the same cell reached later, and a wait never helps: the
    goal is clear by ``rt.last_time + 1`` at the latest. So no wait into the
    tail is pushed, and a tail state is generated only if its cell was not
    generated in the tail at the same or an earlier time. A pruned state
    lies on no optimal path, and neither does any state it leads to, so the
    returned path is the one the full search returns. An unreachable goal
    then costs each cell at most once in the tail, and the search ends with
    no horizon: a chain of parent links in the tail never visits a cell
    twice, so every state has ``t <= rt.last_time + area``.

    Free descent: when ``d(start) >= clear``, every state on a static
    shortest path has the least f, ``max(t + d, clear) = d(start)``. Among
    those the heap pops the deepest first, smallest id first, so while each
    step of the smallest-id descent is free, the search walks exactly that
    descent and accepts it at the goal. So the descent is read off the
    distances first (``_descend``), each step tested against the table as it
    is taken. For a neighbour that no cheap bound decides, the heuristic's
    search resumes only through the level that decides it. At the first
    reserved step the read-off stops and the heap search runs from the
    start. It pops that same prefix first and settles every free neighbour
    of each state it pops, so the stopped read-off settled little that the
    search would not. An empty table reserves nothing, and there the
    read-off always succeeds.

    ``deadline`` is an absolute ``time.perf_counter()`` reading. The clock
    is read every ``DEADLINE_CHECK_POPS`` pops, and ``TimeoutError`` is
    raised once it has passed; a search that pops fewer states never reads
    it, and a free descent pops none.
    """
    grid = h.grid
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    if (rt.width, rt.height) != (grid.width, grid.height):
        raise ValueError(f"reservation table was built for a {rt.width}x{rt.height} map")
    if not rt.is_vertex_free(start, 0):
        raise ValueError(f"start {start} is reserved at t=0")
    clear = rt.goal_clear_time(h.goal)
    if clear is None:
        return None
    w = grid.width
    start_id = grid.cell_id(start)
    h_start = h._distance(start_id)
    if h_start is None:
        return None
    if h_start >= clear:
        cells = _descend(h, start_id, rt)
        if cells is not None:
            return TimedPath(agent, tuple((c % w, c // w, t) for t, c in enumerate(cells)))

    area = w * grid.height
    goal_id = h._goal_id

    # A state is packed as ``t * area + c``, the table's vertex key, and a
    # move as the key the table holds for a fixed move it would swap with.
    # Every search starts at t=0, so g is t.
    # A heap entry is the int ``(f * span - t) * area + c``; t is below
    # ``span`` (see the docstring), so it orders as (f, -t, y, x). A
    # state's parent is stored as its cell; its time is one less.
    last = rt.last_time
    span = last + area + 1
    h_step = span * area  # key change per unit of f
    vertices = rt.vertices
    edges = rt.edges
    stays = rt.goal_stays
    table = grid.neighbor_table
    dist = h.dist
    settle = h._distance
    heappush, heappop = heapq.heappush, heapq.heappop
    parent: dict[int, int] = {start_id: -1}
    heap = [max(h_start, clear) * h_step + start_id]
    # First time each cell was generated in the static tail, built on the
    # first expansion into the tail: most searches against a busy table
    # never get there.
    tail_first: list[int] | None = None
    countdown = DEADLINE_CHECK_POPS
    while heap:
        countdown -= 1
        if not countdown:
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(f"search for agent {agent} passed its deadline")
            countdown = DEADLINE_CHECK_POPS
        key = heappop(heap)
        c = key % area
        t = -(key // area) % span
        if c == goal_id and t >= clear:
            states = []
            while c >= 0:
                y, x = divmod(c, w)
                states.append((x, y, t))
                c = parent[t * area + c]
                t -= 1
            states.reverse()
            return TimedPath(agent, tuple(states))
        nt = t + 1
        base = nt * area
        if nt <= last:
            # below ``clear`` a wait need not raise f, so its key is
            # computed afresh, as a move's is
            ws = base + c
            if ws not in parent and ws not in vertices and stays[c] > nt:
                parent[ws] = c
                f = dist[c] + nt
                heappush(heap, (f if f > clear else clear) * h_step - base + c)
            edge_base = (base - area + c) * area
            for nb in table[c]:
                ns = base + nb
                if ns in parent or ns in vertices or stays[nb] <= nt or edge_base + nb in edges:
                    continue
                hd = dist[nb]
                if hd < 0:
                    hd = settle(nb)  # never None: c reaches the goal, and so does nb
                parent[ns] = c
                f = hd + nt
                heappush(heap, (f if f > clear else clear) * h_step - base + nb)
        else:
            # Static tail: no waits, no vertex or edge reservations, and a
            # cell is generated only earlier than it ever was before.
            if tail_first is None:
                tail_first = [span] * area
            for nb in table[c]:
                if tail_first[nb] <= nt or stays[nb] <= nt:
                    continue
                hd = dist[nb]
                if hd < 0:
                    hd = settle(nb)  # never None: c reaches the goal, and so does nb
                tail_first[nb] = nt
                parent[base + nb] = c
                heappush(heap, (hd + nt) * h_step - base + nb)
    return None


def astar_static(grid: GridMap, start: Coord, goal: Coord) -> list[Coord] | None:
    """Shortest 4-connected path on the static map as a cell sequence, or
    None when disconnected: the cells of ``_descend``, the path that
    ``space_time_astar`` returns against an empty table. So single-agent
    plans and first-round candidate paths of the iterated solver are
    identical.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    cells = _descend(ReverseResumableAStar(grid, goal), grid.cell_id(start), None)
    if cells is None:
        return None
    w = grid.width
    return [(c % w, c // w) for c in cells]
