"""From candidate paths to an intersection graph: per-partition splitting,
partition-local conflict detection, components, and the independent set.

Run from the repository root:  python3 demos/03_conflict_graph.py
"""

from mapfkit import (
    GridMap,
    Partitioning,
    TimedPath,
    build_intersection_graph,
    connected_components,
    independent_set,
    partition_conflict_reports,
    split_path,
)

# Four agents on an empty 12x12 board. Their shortest paths are straight
# lines, so agents 0/1 meet at (5, 5) and agents 2/3 at (9, 4).
grid = GridMap(12, 12)
paths = [
    TimedPath(0, tuple((5, y, i) for i, y in enumerate(range(2, 9)))),
    TimedPath(1, tuple((x, 5, i) for i, x in enumerate(range(2, 9)))),
    TimedPath(2, tuple((9, y, i) for i, y in enumerate(range(1, 8)))),
    TimedPath(3, tuple((x, 4, i) for i, x in enumerate(range(6, 12)))),
]

# (1) One partition per agent: a 2x2 block grid over the board.
part = Partitioning.for_map(grid, 4)
for path in paths:
    segs = split_path(path, part)
    spans = ", ".join(f"partition {s.partition}: t={s.start_time}..{s.start_time + s.length}" for s in segs)
    print(f"agent {path.agent} splits into {len(segs)} segment(s): {spans}")

# (2) The one conflict pipeline, the step every solve_variant round runs:
#     split every path, group the segments by partition, and let each
#     partition report the colliding pairs it can see locally.
_, reports, _, _ = partition_conflict_reports(paths, part)
for pid, report in reports.items():
    print(f"partition {pid} reports: {sorted(report.pairs) or 'nothing'}")

# (3) build_intersection_graph runs that same pipeline and merges the
#     reports into the intersection graph; an independent set of it is a set
#     of mutually compatible paths that can be fixed at once.
ig = build_intersection_graph(paths, part)
print(f"\nintersection graph: nodes={ig.nodes} edges={sorted(ig.edges)}")
print(f"connected components: {connected_components(ig)}")
chosen = independent_set(ig, ())  # nobody is promoted to go first
print(f"independent set fixed this round: {sorted(chosen)}")
print(f"agents that must replan: {sorted(set(ig.nodes) - chosen)}")
