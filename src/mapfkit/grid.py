"""Grid-world model: occupancy grids, MovingAI map I/O, downsampling, random
maps, and rectangular map partitioning with O(1) point-to-partition lookup.

Coordinates are ``(x, y)`` pairs with ``x`` the column and ``y`` the row; the
origin is the top-left corner. Agents move on the 4-connected grid. Inside
the search core a cell is its flat id ``y * width + x``: the map's neighbour
table is a list indexed by flat id, patched from an open-grid table that all
maps of one size share, and ``(x, y)`` pairs appear only at the public
boundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

Coord = tuple[int, int]

FREE_CHARS = frozenset(".G")
OBSTACLE_CHARS = frozenset("@OT")
# per-shape tables kept alive: open-grid neighbour tables, one per (width,
# height), and partition tables, one per partitioning; every workload uses
# one or two map sizes
OPEN_TABLE_CACHE_SIZE = 4


class MapFormatError(ValueError):
    """A map text does not follow the expected MovingAI format."""


def _integers(*values) -> bool:
    """True when every value is an integer, NumPy's included: a cell is two
    of them, and ``(0.5, 0)``, ``(1.0, 0)`` or ``(True, 0)`` is none. A bool
    is refused although ``operator.index`` takes it, because it prints as
    ``True``, which no reader parses back as a number."""
    try:
        list(map(operator.index, values))
    except TypeError:
        return False
    return bool not in map(type, values)


@dataclass(frozen=True)
class GridMap:
    """Rectangular occupancy grid with a static obstacle set."""

    width: int
    height: int
    obstacles: frozenset[Coord] = frozenset()

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("map dimensions must be positive")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        for x, y in self.obstacles:
            if (type(x) is not int or type(y) is not int) and not _integers(x, y):
                raise ValueError(f"obstacle {(x, y)} is not two integers")
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"obstacle {(x, y)} out of bounds")

    @property
    def n_free(self) -> int:
        return self.width * self.height - len(self.obstacles)

    def is_free(self, cell: Coord) -> bool:
        """True for an in-bounds cell off the obstacle set; a pair that is no
        cell (see ``_integers``) is not free."""
        x, y = cell
        if (type(x) is not int or type(y) is not int) and not _integers(x, y):
            return False
        return 0 <= x < self.width and 0 <= y < self.height and cell not in self.obstacles

    def free_cells(self) -> list[Coord]:
        """All free cells in row-major order."""
        return [
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x, y) not in self.obstacles
        ]

    def cell_id(self, cell: Coord) -> int:
        """Flat id ``y * width + x`` of an in-bounds cell."""
        return cell[1] * self.width + cell[0]

    @cached_property
    def neighbor_table(self) -> list[tuple[int, ...] | None]:
        """Free 4-neighbours of every cell as flat ids, in the order (+x, -x,
        +y, -y), indexed by flat id; None for an obstacle. Built on first use.

        The table is a copy of the shared open-grid table of this map's size,
        patched for the obstacles: a free cell with no blocked neighbour
        keeps the shared tuple, and every id is the shared int object.
        """
        ids = {self.cell_id(cell) for cell in self.obstacles}
        return _block(list(_open_table(self.width, self.height)), ids)

    def neighbors4(self, cell: Coord) -> tuple[Coord, ...]:
        """Free 4-neighbors of a free in-bounds cell (waits are the searcher's
        business, not the map's); raises ValueError for any other cell."""
        if not self.is_free(cell):
            raise ValueError(f"{cell} is not a free cell")
        w = self.width
        return tuple((n % w, n // w) for n in self.neighbor_table[self.cell_id(cell)])


@lru_cache(maxsize=OPEN_TABLE_CACHE_SIZE)
def _open_table(width: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples of the obstacle-free ``width x height`` map, in the
    order (+x, -x, +y, -y), which decides no path: the searches break ties
    on ids, so it picks only the extra cells RRA* settles. Each id is one
    int object, shared by every tuple that names it.

    The cache keeps alive the tables of the ``OPEN_TABLE_CACHE_SIZE`` most
    recently used sizes, one tuple and one int per cell each (about 260 KB
    at 50x50). A map's table also keeps alive every shared tuple it did not
    patch, whether or not its size is still cached.
    """
    ids = list(range(width * height))
    table = []
    for c in ids:
        y, x = divmod(c, width)
        steps = ((1, x + 1 < width), (-1, x > 0), (width, y + 1 < height), (-width, y > 0))
        table.append(tuple(ids[c + d] for d, inside in steps if inside))
    return tuple(table)


def _block(table: list, ids: set[int]) -> list:
    """Patch ``table`` in place so that the cells ``ids`` become obstacles,
    in one pass: every id's entry becomes None first, then each neighbour
    they touched rebuilds its tuple once, keeping the entries that are not
    None, in their order. An id already None is left so; a cell that no id
    touches keeps its tuple, shared or not. Returns ``table``."""
    touched = set()
    for c in ids:
        touched.update(table[c] or ())
        table[c] = None
    for nb in touched.difference(ids):
        table[nb] = tuple([n for n in table[nb] if table[n] is not None])
    return table


def parse_movingai_map(text: str) -> GridMap:
    """Parse MovingAI ``.map`` text.

    Expected layout: a ``type`` line, ``height H`` and ``width W`` lines (in
    either order), a ``map`` line, then H rows of W characters and nothing
    after them but blank lines. ``.`` and ``G`` are passable; ``@``, ``O``
    and ``T`` are obstacles.
    """
    lines = text.splitlines()
    idx = 0

    def next_line() -> str:
        nonlocal idx
        if idx >= len(lines):
            raise MapFormatError("unexpected end of map header")
        line = lines[idx]
        idx += 1
        return line

    first = next_line().split()
    if not first or first[0] != "type":
        raise MapFormatError("missing `type` header line")
    height = width = None
    for _ in range(2):
        parts = next_line().split()
        if len(parts) != 2 or parts[0] not in ("height", "width"):
            raise MapFormatError("expected `height H` and `width W` header lines")
        try:
            value = int(parts[1])
        except ValueError as exc:
            raise MapFormatError(f"non-integer map dimension: {parts[1]!r}") from exc
        if parts[0] == "height":
            height = value
        else:
            width = value
    if height is None or width is None:
        raise MapFormatError("header must declare both height and width")
    if height < 1 or width < 1:
        raise MapFormatError("map dimensions must be positive")
    if next_line().strip() != "map":
        raise MapFormatError("missing `map` header line")

    rows = lines[idx : idx + height]
    if len(rows) < height:
        raise MapFormatError(f"expected {height} map rows, found {len(rows)}")
    if any(line.strip() for line in lines[idx + height :]):
        raise MapFormatError(f"non-blank line after the {height} declared map rows")
    obstacles = set()
    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(f"row {y} has {len(row)} cells, expected {width}")
        for x, ch in enumerate(row):
            if ch in OBSTACLE_CHARS:
                obstacles.add((x, y))
            elif ch not in FREE_CHARS:
                raise MapFormatError(f"unknown cell character {ch!r} at {(x, y)}")
    return GridMap(width, height, frozenset(obstacles))


def serialize_movingai_map(grid: GridMap) -> str:
    """Render a grid back to MovingAI ``.map`` text (``.`` free, ``@`` blocked)."""
    rows = [
        "".join("@" if (x, y) in grid.obstacles else "." for x in range(grid.width))
        for y in range(grid.height)
    ]
    header = ["type octile", f"height {grid.height}", f"width {grid.width}", "map"]
    return "\n".join(header + rows) + "\n"


def generate_random_map(width: int, height: int, p_obstacle: float, seed=None) -> GridMap:
    """Map whose cells are independently obstacles with probability
    ``p_obstacle``; deterministic for a fixed seed."""
    if not 0.0 <= p_obstacle < 1.0:
        raise ValueError("p_obstacle must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < p_obstacle
    ys, xs = np.nonzero(mask)
    return GridMap(width, height, frozenset(zip(xs.tolist(), ys.tolist())))


def _block_starts(size: int, n_blocks: int) -> list[int]:
    # first source index mapped to each block under x -> x * n_blocks // size
    return [(k * size + n_blocks - 1) // n_blocks for k in range(n_blocks)]


def downsample_map(grid: GridMap, target_w: int, target_h: int) -> GridMap:
    """Shrink a map by aggregating preimage blocks of the integer-cut scheme:
    a target cell is blocked when at least half of its preimage cells are
    obstacles (the majority rule).
    """
    if target_w < 1 or target_h < 1:
        raise ValueError("target dimensions must be positive")
    if target_w > grid.width or target_h > grid.height:
        raise ValueError("target dimensions must not exceed the source map")

    occ = np.zeros((grid.height, grid.width), dtype=np.int64)
    for x, y in grid.obstacles:
        occ[y, x] = 1
    xs = _block_starts(grid.width, target_w)
    ys = _block_starts(grid.height, target_h)
    sums = np.add.reduceat(np.add.reduceat(occ, ys, axis=0), xs, axis=1)
    x_sizes = np.diff(xs + [grid.width])
    y_sizes = np.diff(ys + [grid.height])
    yy, xx = np.nonzero(2 * sums >= np.outer(y_sizes, x_sizes))
    return GridMap(target_w, target_h, frozenset((int(x), int(y)) for x, y in zip(xx, yy)))


def balanced_factorization(n: int) -> tuple[int, int]:
    """Split ``n`` into ``p * q`` with ``p <= q`` minimizing
    ``(p - sqrt(n))**2 + (q - sqrt(n))**2``: ``p`` is the largest divisor
    with ``p * p <= n``. With ``s = p + q`` the objective is
    ``s * (s - 2 * sqrt(n))``, which grows with ``s`` over every divisor
    pair (each has ``s >= 2 * sqrt(n)``), and ``p + n // p`` falls as ``p``
    rises towards ``sqrt(n)``.

    Primes (and 1) come out as ``(1, n)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return p, n // p


@dataclass(frozen=True)
class Partitioning:
    """Decomposition of a map into ``n_parts`` axis-aligned rectangles, one
    per agent, with a constant-time point-to-partition lookup.

    Composite counts use the balanced ``p x q`` block grid (``q`` columns of
    blocks along x, ``p`` rows along y). A prime count degenerates to strips,
    cut along the taller axis when the map is taller than wide. Block
    rectangles printed as closed intervals overlap at block boundaries, so
    the floor-based ``locate`` is the operative assignment and the
    rectangles are descriptive.
    """

    rows: int
    cols: int
    width: int
    height: int

    @property
    def n_parts(self) -> int:
        return self.rows * self.cols

    @classmethod
    def for_map(cls, grid: GridMap, n_parts: int) -> "Partitioning":
        if n_parts < 1:
            raise ValueError("n_parts must be positive")
        p, q = balanced_factorization(n_parts)
        if p == 1 and grid.height > grid.width:
            rows, cols = n_parts, 1  # strips along the taller side
        else:
            rows, cols = p, q
        return cls(rows, cols, grid.width, grid.height)

    def locate(self, cell: Coord) -> int:
        """Partition id of an in-bounds cell, row-major over blocks; O(1)."""
        x, y = cell
        return (y * self.rows // self.height) * self.cols + (x * self.cols // self.width)

    @cached_property
    def cell_parts(self) -> tuple[int, ...]:
        """``locate`` of every cell, indexed by flat id ``y * width + x``.
        Equal partitionings share one table (see ``_cell_parts``)."""
        return _cell_parts(self)

    def block_rect(self, part_id: int) -> tuple[int, int, int, int]:
        """Descriptive closed bounds ``(x_lo, x_hi, y_lo, y_hi)`` of a block;
        adjacent blocks share their printed boundary."""
        if not 0 <= part_id < self.n_parts:
            raise ValueError(f"partition id {part_id} out of range")
        row, col = divmod(part_id, self.cols)
        w, h, c, r = self.width, self.height, self.cols, self.rows
        return (col * w // c, (col + 1) * w // c, row * h // r, (row + 1) * h // r)


@lru_cache(maxsize=OPEN_TABLE_CACHE_SIZE)
def _cell_parts(part: Partitioning) -> tuple[int, ...]:
    """The table behind ``Partitioning.cell_parts``. Solves on maps of one
    size with one agent count partition alike, so they share one table
    instead of building one each."""
    return tuple(part.locate((x, y)) for y in range(part.height) for x in range(part.width))
