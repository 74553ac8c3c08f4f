"""Independent reference implementations used to cross-check the library.

Everything here is written from the problem definitions directly (breadth
first search, exhaustive enumeration, all-pairs comparison) and deliberately
avoids the library's search, conflict-detection and independent-set code
paths.
"""

from __future__ import annotations

import heapq
from collections import deque


def bfs_distances(grid, source):
    """Plain BFS distance from `source` to every cell of its component."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        x, y = frontier.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in dist and grid.is_free(nb):
                dist[nb] = dist[(x, y)] + 1
                frontier.append(nb)
    return dist


def well_formed(instance):
    """Whether an instance is well-formed (Čáp et al., IEEE T-ASE 2015): all
    its sources and goals are pairwise distinct endpoints, and each agent
    reaches its goal by BFS without entering another agent's endpoint."""
    endpoints = [cell for pair in instance.agents for cell in pair]
    if len(set(endpoints)) != len(endpoints):
        return False
    for source, goal in instance.agents:
        others = set(endpoints) - {source, goal}
        seen = {source}
        frontier = deque([source])
        while frontier and goal not in seen:
            x, y = frontier.popleft()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb not in seen and nb not in others and instance.grid.is_free(nb):
                    seen.add(nb)
                    frontier.append(nb)
        if goal not in seen:
            return False
    return True


def bfs_distance(grid, start, goal):
    """Plain BFS shortest distance on the static 4-connected map."""
    return bfs_distances(grid, goal).get(start)


def bfs_descent(grid, start, goal):
    """Shortest static path from `start` to `goal` as a cell list, or None
    when disconnected: BFS distances from the goal over its whole
    component, then from `start` each step to the neighbour one closer that
    comes first in row-major order (the smallest `y * width + x`)."""
    dist = bfs_distances(grid, goal)
    if start not in dist:
        return None
    path = [start]
    while path[-1] != goal:
        x, y = path[-1]
        closer = [
            nb
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if dist.get(nb) == dist[(x, y)] - 1
        ]
        path.append(min(closer, key=lambda c: (c[1], c[0])))
    return path


def occupies(path, cell, t):
    """Whether a fixed path's agent sits on `cell` at time `t`, counting the
    indefinite stay on its final cell."""
    first_t = path.states[0][2]
    last_x, last_y, last_t = path.states[-1]
    if t < first_t:
        return False
    if t >= last_t:
        return (last_x, last_y) == cell
    x, y, _ = path.states[t - first_t]
    return (x, y) == cell


def moves_of(path):
    return {
        (x0, y0, x1, y1, t0)
        for (x0, y0, t0), (x1, y1, _) in zip(path.states, path.states[1:])
        if (x0, y0) != (x1, y1)
    }


def time_expanded_shortest(grid, start, goal, fixed_paths, start_t=0, horizon=64):
    """Exhaustive layered search over (cell, time) states against fixed
    paths: returns the minimum arrival time T such that a collision-free
    trajectory reaches the goal at T and no fixed agent ever touches the
    goal at or after T, or None if no such T <= horizon exists."""
    fixed_moves = set()
    for p in fixed_paths:
        fixed_moves |= moves_of(p)

    def vertex_blocked(cell, t):
        return any(occupies(p, cell, t) for p in fixed_paths)

    def move_blocked(u, v, t):
        return (v[0], v[1], u[0], u[1], t) in fixed_moves

    def goal_clear_from(t):
        for p in fixed_paths:
            lx, ly, lt = p.states[-1]
            if (lx, ly) == goal:
                return False
            if any(s[:2] == goal and s[2] >= t for s in p.states):
                return False
        return True

    if vertex_blocked(start, start_t):
        return None
    layer = {start}
    t = start_t
    while t <= horizon:
        if goal in layer and goal_clear_from(t):
            return t
        nxt = set()
        for x, y in layer:
            for nb in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if not grid.is_free(nb) or vertex_blocked(nb, t + 1):
                    continue
                if nb != (x, y) and move_blocked((x, y), nb, t):
                    continue
                nxt.add(nb)
        layer = nxt
        t += 1
    return None


def tie_broken_space_time_path(grid, start, goal, fixed_paths, horizon):
    """The states ``space_time_astar`` returns against ``fixed_paths``, from
    a plain A* over ``(cell, t)`` states up to ``horizon``, or None.

    ``d`` is the BFS distance to the goal and ``clear`` the earliest time
    from which no fixed agent is on the goal (None when one parks there).
    A state's f is ``max(t + d, clear)``; the open state of least
    ``(f, -t, y, x)`` is popped, and a state's parent is fixed when it is
    first generated. An arrival counts once ``t >= clear``. Waits are tried
    at every step, with no pruning of the time after the last reservation
    and no read-off of the distances."""
    dist = bfs_distances(grid, goal)
    clear = 0
    for p in fixed_paths:
        if p.states[-1][:2] == goal:
            return None
        clear = max([clear] + [t + 1 for x, y, t in p.states if (x, y) == goal])
    if start not in dist:
        return None
    fixed_moves = set().union(*map(moves_of, fixed_paths))
    parent = {(start, 0): None}
    heap = [(max(dist[start], clear), 0, start[1], start[0])]
    while heap:
        _, neg_t, y, x = heapq.heappop(heap)
        t = -neg_t
        if (x, y) == goal and t >= clear:
            states, state = [], ((x, y), t)
            while state is not None:
                states.append((*state[0], state[1]))
                state = parent[state]
            return tuple(reversed(states))
        if t == horizon:
            continue
        for nb in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (nb, t + 1) in parent or nb not in dist:
                continue
            if any(occupies(p, nb, t + 1) for p in fixed_paths):
                continue
            if (*nb, x, y, t) in fixed_moves:
                continue
            parent[(nb, t + 1)] = ((x, y), t)
            f = max(t + 1 + dist[nb], clear)
            heapq.heappush(heap, (f, -(t + 1), nb[1], nb[0]))
    return None


def paths_conflict(p, q, horizon):
    """All-pairs semantics for two candidate paths: same cell at the same
    step (final cells extended to `horizon`), or an edge swap."""
    def stamped(path):
        cells = {(x, y, t) for x, y, t in path.states}
        gx, gy, gt = path.states[-1]
        cells |= {(gx, gy, t) for t in range(gt + 1, horizon + 1)}
        return cells

    if stamped(p) & stamped(q):
        return True
    q_moves = moves_of(q)
    for x0, y0, x1, y1, t in moves_of(p):
        if (x1, y1, x0, y0, t) in q_moves:
            return True
    return False


def brute_conflict_pairs(paths, horizon=None):
    """Edge set of the collision graph by direct pairwise comparison."""
    paths = list(paths)
    if horizon is None:
        horizon = max(p.states[-1][2] for p in paths) if paths else 0
    pairs = set()
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if paths_conflict(paths[i], paths[j], horizon):
                a, b = paths[i].agent, paths[j].agent
                pairs.add((min(a, b), max(a, b)))
    return pairs


def brute_partition_pairs(paths, locate, horizon):
    """Colliding pairs filed by partition, from the definitions: a vertex or
    stay collision goes under its cell's partition, and a swap under the
    partitions of both of its endpoints. A path holds its explicit states
    at every time they cover, and its final cell after arrival up to
    ``horizon``. Returns {partition: pairs} for the partitions with a pair."""
    paths = list(paths)

    def cell_at(path, t):
        first_t = path.states[0][2]
        last_x, last_y, last_t = path.states[-1]
        if first_t <= t <= last_t:
            x, y, _ = path.states[t - first_t]
            return (x, y)
        if last_t < t <= horizon:
            return (last_x, last_y)
        return None

    t_max = max(max(p.states[-1][2] for p in paths), horizon)
    filed = {}
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            p, q = paths[i], paths[j]
            if p.agent == q.agent:
                continue
            pair = (min(p.agent, q.agent), max(p.agent, q.agent))
            for t in range(t_max + 1):
                here = cell_at(p, t)
                if here is not None and here == cell_at(q, t):
                    filed.setdefault(locate(here), set()).add(pair)
            q_moves = moves_of(q)
            for x0, y0, x1, y1, t in moves_of(p):
                if (x1, y1, x0, y0, t) in q_moves:
                    filed.setdefault(locate((x0, y0)), set()).add(pair)
                    filed.setdefault(locate((x1, y1)), set()).add(pair)
    return filed


def joint_min_makespan(grid, agents):
    """Breadth-first search over joint configurations: the smallest makespan
    at which every agent stands on its goal, or None when no joint plan
    exists. ``agents`` lists ``(source, goal)`` pairs.

    In one step every agent waits or moves to a free 4-neighbour, and no two
    agents share a cell or swap across an edge (one may follow another). An
    agent may pass its goal and leave it again before the makespan, as a
    planner's path may; goals are distinct, so parked agents never clash
    afterwards. Cutting each agent's plan at its last arrival gives paths
    with parked goals, so this makespan is the least of any valid solution.
    Exhaustive over at most ``free_cells ** len(agents)`` configurations.
    """
    steps = {}
    for x, y in grid.free_cells():
        nbs = ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
        steps[(x, y)] = [(x, y)] + [c for c in nbs if grid.is_free(c)]
    start = tuple(s for s, _ in agents)
    goal = tuple(g for _, g in agents)
    seen = {start}
    layer = [start]
    makespan = 0
    while layer:
        if goal in seen:
            return makespan
        following = []
        for conf in layer:
            for nxt in _joint_steps(conf, steps):
                if nxt not in seen:
                    seen.add(nxt)
                    following.append(nxt)
        layer = following
        makespan += 1
    return None


def _joint_steps(conf, steps):
    """Every configuration one step from ``conf``, built agent by agent and
    pruned at the first vertex or swap clash."""
    partial = [()]
    for cell in conf:
        longer = []
        for head in partial:
            # the earlier agent moving into ``cell``, if any, came from here
            back = conf[head.index(cell)] if cell in head else None
            for nxt in steps[cell]:
                if nxt not in head and nxt != back:
                    longer.append(head + (nxt,))
        partial = longer
    return partial


def max_independent_set_size(nodes, edges):
    """Exhaustive subset enumeration (fine for <= ~20 nodes)."""
    nodes = sorted(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    masks = [0] * len(nodes)
    for a, b in edges:
        masks[index[a]] |= 1 << index[b]
        masks[index[b]] |= 1 << index[a]
    best = 0
    for subset in range(1 << len(nodes)):
        ok = True
        size = 0
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            if masks[i] & subset:
                ok = False
                break
            size += 1
            rest &= rest - 1
        if ok and size > best:
            best = size
    return best


def min_degree_greedy(nodes, adj):
    """Minimum-degree greedy by a full scan per pick: take the remaining
    node with the fewest remaining neighbours, the smallest id on ties,
    and drop it and its neighbours. The reference for ``mis_greedy``."""
    remaining = set(nodes)
    chosen = set()
    while remaining:
        v = min(remaining, key=lambda n: (len(adj[n] & remaining), n))
        chosen.add(v)
        remaining -= adj[v] | {v}
    return chosen


def round_choice(nodes, edges, first, exact_limit):
    """The agents a round fixes, chosen as the solver chose them while the
    promoted agents were taken outside the independent-set code: the nodes
    of ``first`` in order, each unless a node taken so far shares an edge
    with it, found by scanning every edge; then, on the graph of the nodes
    neither taken nor adjacent to one taken, per connected component, the
    lexicographically smallest maximum independent set by enumeration up to
    ``exact_limit`` nodes, and ``min_degree_greedy`` above that."""
    chosen, blocked = set(), set()
    for v in first:
        if v in nodes and v not in blocked:
            chosen.add(v)
            blocked.add(v)
            for e in edges:
                if v in e:
                    blocked.update(e)
    rest = [n for n in nodes if n not in blocked]
    rest_edges = [e for e in edges if blocked.isdisjoint(e)]
    adj = {n: set() for n in rest}
    for a, b in rest_edges:
        adj[a].add(b)
        adj[b].add(a)
    for comp in union_find_components(rest, rest_edges):
        if len(comp) > exact_limit:
            chosen |= min_degree_greedy(comp, adj)
            continue
        best = ()
        for mask in range(1 << len(comp)):
            subset = tuple(n for i, n in enumerate(comp) if mask >> i & 1)
            if all(adj[n].isdisjoint(subset) for n in subset):
                if len(subset) > len(best) or (len(subset) == len(best) and subset < best):
                    best = subset
        chosen |= set(best)
    return chosen


def union_find_components(nodes, edges):
    """Connected components via union-find, as sorted tuples."""
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    return sorted(tuple(sorted(g)) for g in groups.values())


def random_timed_path(rng, grid, agent, max_len=20, start_t=0):
    """Random valid timed path (moves and waits) for conflict-oracle tests."""
    free = grid.free_cells()
    x, y = free[int(rng.integers(len(free)))]
    t = start_t
    states = [(x, y, t)]
    for _ in range(int(rng.integers(max_len + 1))):
        options = [(x, y)] + [c for c in grid.neighbors4((x, y)) if grid.is_free(c)]
        x, y = options[int(rng.integers(len(options)))]
        t += 1
        states.append((x, y, t))
    from mapfkit import TimedPath

    return TimedPath(agent, tuple(states))


def reference_generate_instance(grid, n_agents, seed=None):
    """Instance generation written plainly, as a parity reference for
    ``generate_instance``: the same draws from the same generator over a
    list pool of the free cells not yet on a committed path, filtered after
    each agent, tested on a fresh map per agent that blocks every committed
    source and goal, with paths from ``bfs_descent``. Returns ``(agents,
    metadata)``, or raises the library's ``GenerationError`` with the
    message and placed-agent count the generator gives."""
    import numpy as np

    from mapfkit import GenerationError, GridMap

    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(n_agents)]
    w, h = grid.width, grid.height
    pool = [(x, y) for y in range(h) for x in range(w) if (x, y) not in grid.obstacles]
    endpoints = set()
    sources, goals = {}, {}
    for agent in order:
        if len(pool) < 2:
            raise GenerationError("free space exhausted", len(sources))
        work = GridMap(w, h, grid.obstacles | endpoints)
        path = None
        for _ in range(10 * len(pool)):
            i = int(rng.integers(len(pool)))
            j = int(rng.integers(len(pool)))
            if i != j:
                path = bfs_descent(work, pool[i], pool[j])
                if path is not None:
                    break
        if path is None:
            raise GenerationError(f"no connected endpoint pair found for agent {agent}", len(sources))
        sources[agent], goals[agent] = path[0], path[-1]
        endpoints |= {path[0], path[-1]}
        on_path = set(path)
        pool = [c for c in pool if c not in on_path]
    agents = tuple((sources[a], goals[a]) for a in range(n_agents))
    return agents, {"seed": seed, "generation_order": tuple(order)}
