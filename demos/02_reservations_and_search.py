"""Space-time search against reservations: waits, detours, goal stays, the
resumable backward heuristic, and the read-off of a free shortest path.

Run from the repository root:  python3 demos/02_reservations_and_search.py
"""

from mapfkit import (
    GridMap,
    ReservationTable,
    ReverseResumableAStar,
    TimedPath,
    astar_static,
    space_time_astar,
)

# (1) With nothing reserved, the space-time search is plain A*. Its
#     heuristic is built on one map for one goal, so it names both: the
#     search takes the heuristic, the start and a reservation table.
grid = GridMap(7, 3)
path = space_time_astar(ReverseResumableAStar(grid, (6, 1)), (0, 1), ReservationTable(grid))
print("empty table:", path.cells(), f"cost={path.cost}")

# (2) Reserve another agent's path straight down the middle row. The search
#     now threads around it; waiting costs one step per wait.
rt = ReservationTable(grid)
blocker = TimedPath(9, tuple((x, 1, x) for x in range(7)))  # left-to-right, parks at (6, 1)
rt.insert_path(blocker)
path = space_time_astar(ReverseResumableAStar(grid, (0, 1)), (6, 1), rt)
print("against oncoming traffic:", path.cells(), f"cost={path.cost}")

# (3) Goal stays matter: the blocker parks on (6, 1) forever, so planning
#     into that cell is infeasible, and arrivals are only accepted when no
#     reservation touches the goal afterwards.
blocked = space_time_astar(ReverseResumableAStar(grid, (6, 1)), (0, 0), rt)
print("into a parked agent's cell:", blocked)

# (4) The heuristic is an exact static distance, computed lazily by one
#     backward A* from the goal, aimed at the first cell asked about (the
#     agent's start). Its open lists persist: a later miss resumes that
#     same search until the asked cell settles, and settled cells are
#     lookups.
h = ReverseResumableAStar(grid, (6, 1))
d1 = h.distance((0, 1))
settled_after_first = h.expanded
d2 = h.distance((0, 0))
print(f"distances to (6,1): from (0,1) = {d1}, from (0,0) = {d2}")
print(f"settled cells after first query: {settled_after_first}, after second: {h.expanded}")
assert d1 == len(astar_static(grid, (0, 1), (6, 1))) - 1

# (5) When no reservation touches the static shortest path, the search
#     costs no heap: the top row never meets the blocker, so the path is
#     read off the distances, step by step against the table, and only
#     the cells the read-off cannot decide by a cheap bound settle.
h = ReverseResumableAStar(grid, (6, 0))
path = space_time_astar(h, (0, 0), rt)
print("beside the blocker:", path.cells(), f"cost={path.cost}, settled cells: {h.expanded}")
