"""Maps and partitions: load/generate grids, shrink them, and carve them
into per-agent rectangles with a constant-time lookup.

Run from the repository root:  python3 demos/01_maps_and_partitions.py
"""

import numpy as np

from mapfkit import (
    GridMap,
    Partitioning,
    balanced_factorization,
    downsample_map,
    generate_random_map,
    parse_movingai_map,
    serialize_movingai_map,
)


def render(grid: GridMap, cell=lambda c: "."):
    for y in range(grid.height):
        print("".join("#" if (x, y) in grid.obstacles else cell((x, y)) for x in range(grid.width)))


# (1) A random map: every cell is an obstacle with probability 0.15.
grid = generate_random_map(24, 10, 0.15, seed=7)
print(f"random 24x10 map, {len(grid.obstacles)} obstacles, {grid.n_free} free cells:")
render(grid)

# (2) Maps round-trip through the standard text format.
text = serialize_movingai_map(grid)
assert parse_movingai_map(text) == grid
print("\nfirst lines of the .map serialization:")
print("\n".join(text.splitlines()[:6]))

# (3) Downsampling aggregates preimage blocks: a cell is blocked when at
#     least half of its block is, which keeps the obstacle density.
small = downsample_map(grid, 12, 5)
print(f"\ndownsampled to 12x5 (majority): {len(small.obstacles)} obstacles")
render(small)

# (4) Partition counts factor into near-square block grids; primes fall back
#     to strips.
for n in (4, 12, 7, 64):
    print(f"\nbalanced_factorization({n}) = {balanced_factorization(n)}")

# (5) Each cell knows its partition in O(1); rendering the ids shows the
#     rectangles. Boundary cells belong to exactly one block (floor rule).
board = GridMap(24, 10)
part = Partitioning.for_map(board, 6)
print(f"\n6 partitions on an empty 24x10 map (rows={part.rows}, cols={part.cols}):")
render(board, cell=lambda c: str(part.locate(c)))

counts = np.zeros(part.n_parts, dtype=int)
for y in range(board.height):
    for x in range(board.width):
        counts[part.locate((x, y))] += 1
print(f"cells per partition: {counts.tolist()} (total {counts.sum()})")
