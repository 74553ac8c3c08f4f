import math
import tracemalloc

import numpy as np
import pytest

from mapfkit import (
    GridMap,
    MapFormatError,
    Partitioning,
    balanced_factorization,
    downsample_map,
    generate_random_map,
    parse_movingai_map,
    serialize_movingai_map,
)
from mapfkit.grid import _block, _open_table


def make_map_text(rows, kind="octile"):
    h, w = len(rows), len(rows[0])
    return "\n".join([f"type {kind}", f"height {h}", f"width {w}", "map", *rows]) + "\n"


class TestParseMovingai:
    def test_obstacle_characters(self):
        grid = parse_movingai_map(make_map_text([".@", ".."]))
        assert grid.width == 2 and grid.height == 2
        assert grid.obstacles == {(1, 0)}

    def test_all_free(self):
        grid = parse_movingai_map(make_map_text(["...", "...", "..."]))
        assert grid.obstacles == frozenset()
        assert grid.n_free == 9

    def test_all_charset(self):
        grid = parse_movingai_map(make_map_text([".G@", "OT."]))
        assert grid.obstacles == {(2, 0), (0, 1), (1, 1)}

    def test_short_row_rejected(self):
        with pytest.raises(MapFormatError):
            parse_movingai_map("type octile\nheight 2\nwidth 3\nmap\n..\n...\n")

    def test_unknown_character_rejected(self):
        with pytest.raises(MapFormatError):
            parse_movingai_map(make_map_text([".x"]))

    def test_missing_header_rejected(self):
        with pytest.raises(MapFormatError):
            parse_movingai_map("height 2\nwidth 2\nmap\n..\n..\n")
        with pytest.raises(MapFormatError):
            parse_movingai_map("type octile\nheight 2\nmap\n..\n..\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("type octile\nheight 2\n", "unexpected end of map header"),
            ("type octile\nheight two\nwidth 2\nmap\n..\n..\n", "non-integer map dimension"),
            ("type octile\nheight 2\nheight 2\nmap\n..\n..\n", "both height and width"),
            ("type octile\nheight 0\nwidth 2\nmap\n", "dimensions must be positive"),
            ("type octile\nheight 2\nwidth 2\n..\n..\n", "missing `map` header line"),
        ],
    )
    def test_bad_header_rejected(self, text, message):
        with pytest.raises(MapFormatError, match=message):
            parse_movingai_map(text)

    def test_missing_rows_rejected(self):
        with pytest.raises(MapFormatError):
            parse_movingai_map("type octile\nheight 3\nwidth 2\nmap\n..\n..\n")

    def test_rows_past_the_declared_height_rejected(self):
        # a third row under `height 2` is not silently dropped
        with pytest.raises(MapFormatError, match="after the 2 declared map rows"):
            parse_movingai_map("type octile\nheight 2\nwidth 2\nmap\n..\n..\n@@\n")
        # trailing blank lines are no rows
        grid = parse_movingai_map("type octile\nheight 2\nwidth 2\nmap\n..\n..\n\n  \n")
        assert (grid.width, grid.height, grid.obstacles) == (2, 2, frozenset())

    def test_width_height_either_order(self):
        grid = parse_movingai_map("type octile\nwidth 3\nheight 1\nmap\n.@.\n")
        assert (grid.width, grid.height) == (3, 1)

    def test_roundtrip(self):
        grid = generate_random_map(17, 9, 0.3, seed=5)
        again = parse_movingai_map(serialize_movingai_map(grid))
        assert again == grid


class TestRandomMap:
    def test_zero_probability(self):
        assert generate_random_map(10, 10, 0.0, seed=1).obstacles == frozenset()

    def test_obstacle_count_within_binomial_bound(self):
        grid = generate_random_map(100, 100, 0.2, seed=42)
        sigma = math.sqrt(10000 * 0.2 * 0.8)
        assert abs(len(grid.obstacles) - 2000) <= 4 * sigma

    def test_deterministic(self):
        a = generate_random_map(30, 20, 0.25, seed=7)
        b = generate_random_map(30, 20, 0.25, seed=7)
        assert a == b

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            generate_random_map(5, 5, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_random_map(5, 5, -0.1, seed=0)


def city_map(side=256, block=12, street=8):
    """Deterministic block-structured map (building squares on a street
    grid), a stand-in for downsampling tests on city-like maps."""
    period = block + street
    obstacles = set()
    for by in range(0, side, period):
        for bx in range(0, side, period):
            for y in range(by, min(by + block, side)):
                for x in range(bx, min(bx + block, side)):
                    obstacles.add((x, y))
    return GridMap(side, side, frozenset(obstacles))


class TestDownsample:
    def test_all_free(self):
        assert downsample_map(GridMap(4, 4), 2, 2) == GridMap(2, 2)

    def test_rule_definitions(self):
        grid = GridMap(2, 2, frozenset({(0, 0)}))
        assert downsample_map(grid, 1, 1).obstacles == frozenset()
        half = GridMap(2, 2, frozenset({(0, 0), (1, 1)}))
        assert downsample_map(half, 1, 1).obstacles == {(0, 0)}

    def test_preimage_blocks_match_integer_cuts(self):
        # block boundaries must follow x -> x * target // source: columns
        # 5-6 and rows 3-4 form the 2x2 preimage of target cell (2, 1), and
        # two obstacles there are half of it
        grid = GridMap(7, 5, frozenset({(5, 3), (6, 4)}))
        small = downsample_map(grid, 3, 2)
        assert small.obstacles == {(5 * 3 // 7, 3 * 2 // 5)} == {(6 * 3 // 7, 4 * 2 // 5)}

    def test_city_map_free_fraction_preserved(self):
        grid = city_map()
        small = downsample_map(grid, 100, 100)
        src_frac = grid.n_free / (grid.width * grid.height)
        dst_frac = small.n_free / (small.width * small.height)
        assert abs(src_frac - dst_frac) <= 0.05

    def test_errors(self):
        grid = GridMap(4, 4)
        with pytest.raises(ValueError):
            downsample_map(grid, 0, 2)
        with pytest.raises(ValueError):
            downsample_map(grid, 5, 4)


class TestBalancedFactorization:
    def test_square(self):
        assert balanced_factorization(64) == (8, 8)

    def test_prime(self):
        assert balanced_factorization(7) == (1, 7)

    def test_rectangular(self):
        # divisor pairs of 12: (1,12), (2,6), (3,4); (3,4) minimizes the objective
        assert balanced_factorization(12) == (3, 4)

    def test_brute_force_agreement(self):
        for n in range(1, 201):
            p, q = balanced_factorization(n)
            assert p * q == n and p <= q
            root = math.sqrt(n)
            best = min(
                (d - root) ** 2 + (n // d - root) ** 2
                for d in range(1, n + 1)
                if n % d == 0 and d * d <= n
            )
            assert (p - root) ** 2 + (q - root) ** 2 == pytest.approx(best)


def rectangles_containing(part, cell):
    """Oracle: which descriptive closed rectangles contain the cell."""
    x, y = cell
    out = []
    for pid in range(part.n_parts):
        x_lo, x_hi, y_lo, y_hi = part.block_rect(pid)
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            out.append(pid)
    return out


class TestPartitioning:
    def test_origin_always_partition_zero(self):
        for n in (1, 2, 5, 9, 64):
            part = Partitioning.for_map(GridMap(12, 12), n)
            assert part.locate((0, 0)) == 0

    def test_composite_block_example(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)
        assert (part.rows, part.cols) == (2, 2)
        # (7, 3): block column 7*2//12 = 1, block row 3*2//12 = 0
        assert part.locate((7, 3)) == 0 * 2 + 1
        assert part.block_rect(1) == (6, 12, 0, 6)

    def test_prime_strip_example(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 7)
        assert (part.rows, part.cols) == (1, 7)
        assert part.locate((11, 5)) == 11 * 7 // 12  # strip 6

    def test_prime_strips_follow_taller_axis(self):
        tall = GridMap(4, 9)
        part = Partitioning.for_map(tall, 3)
        assert (part.rows, part.cols) == (3, 1)
        assert part.locate((3, 0)) == 0
        assert part.locate((0, 8)) == 2

    @pytest.mark.parametrize("w,h", [(12, 12), (10, 7), (7, 10), (1, 1), (31, 31)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 12, 13, 16])
    def test_total_unique_and_consistent(self, w, h, n):
        grid = GridMap(w, h)
        part = Partitioning.for_map(grid, n)
        counts = [0] * n
        for y in range(h):
            for x in range(w):
                pid = part.locate((x, y))
                assert 0 <= pid < n
                counts[pid] += 1
                assert pid in rectangles_containing(part, (x, y))
        assert sum(counts) == w * h

    @pytest.mark.parametrize("w,h", [(12, 12), (17, 5), (5, 17)])
    @pytest.mark.parametrize("n", [1, 4, 6, 7, 13])
    def test_cell_table_matches_locate(self, w, h, n):
        # split_path reads each state's partition from this table, by flat id
        grid = GridMap(w, h)
        part = Partitioning.for_map(grid, n)
        table = part.cell_parts
        assert len(table) == w * h
        for y in range(h):
            for x in range(w):
                assert table[grid.cell_id((x, y))] == part.locate((x, y))
        # equal partitionings share one table
        assert Partitioning.for_map(GridMap(w, h), n).cell_parts is table

    def test_composite_blocks_are_rectangles(self):
        grid = GridMap(20, 14)
        part = Partitioning.for_map(grid, 6)
        cells_by_pid = {}
        for y in range(14):
            for x in range(20):
                cells_by_pid.setdefault(part.locate((x, y)), []).append((x, y))
        for pid, cells in cells_by_pid.items():
            xs = [x for x, _ in cells]
            ys = [y for _, y in cells]
            assert len(cells) == (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: GridMap(0, 1), "map dimensions must be positive"),
            (lambda: balanced_factorization(0), "n must be positive"),
            (lambda: Partitioning.for_map(GridMap(4, 4), 0), "n_parts must be positive"),
            (
                lambda: Partitioning.for_map(GridMap(4, 4), 4).block_rect(4),
                "partition id 4 out of range",
            ),
        ],
        ids=["GridMap(0, 1)", "factorization(0)", "for_map(grid, 0)", "block_rect(n_parts)"],
    )
    def test_nonpositive_size_or_id_out_of_range_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestNeighbors:
    def test_interior(self):
        grid = GridMap(5, 5)
        assert set(grid.neighbors4((2, 2))) == {(3, 2), (1, 2), (2, 3), (2, 1)}

    def test_corner(self):
        grid = GridMap(5, 5)
        assert set(grid.neighbors4((0, 0))) == {(1, 0), (0, 1)}

    def test_walled_in(self):
        grid = GridMap(3, 3, frozenset({(1, 0), (0, 1), (2, 1), (1, 2)}))
        assert grid.neighbors4((1, 1)) == ()

    def test_a_cell_is_two_integers(self):
        grid = GridMap(4, 4)
        for cell in ((0.5, 0), (1.0, 0), (0, 2.0), ("1", 0), (None, 0), (True, 0), (0, False)):
            assert not grid.is_free(cell)
        assert grid.is_free((np.int64(1), np.int32(2)))

    def test_obstacle_of_two_integers_or_refused_where_built(self):
        # a pair that is no cell is refused with the map, before n_free or
        # the neighbour table, which indexes by it, can read it
        for cell in ((0.5, 0), (1.0, 0), (0, "1"), (True, 0)):
            with pytest.raises(ValueError, match="is not two integers"):
                GridMap(3, 3, frozenset({cell}))
        grid = GridMap(3, 3, frozenset({(np.int64(1), np.int32(0))}))
        assert grid.n_free == 8 and not grid.is_free((1, 0))
        assert len(grid.neighbor_table) == 9

    @pytest.mark.parametrize("cell", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_obstacle_off_the_map_refused(self, cell):
        with pytest.raises(ValueError, match=r"obstacle .* out of bounds"):
            GridMap(3, 3, frozenset({cell}))

    def test_rejects_blocked_and_off_map_cells(self):
        grid = GridMap(3, 3, frozenset({(1, 0)}))
        for cell in ((1, 0), (3, 0), (-1, 1), (0, 3)):
            with pytest.raises(ValueError):
                grid.neighbors4(cell)


def table_cell_by_cell(grid):
    """Reference neighbour table: each free cell's free 4-neighbours,
    tested one by one in the order (+x, -x, +y, -y); None for an obstacle."""
    w, h, blocked = grid.width, grid.height, grid.obstacles
    table = []
    for y in range(h):
        for x in range(w):
            if (x, y) in blocked:
                table.append(None)
                continue
            c = y * w + x
            nbrs = []
            if x + 1 < w and (x + 1, y) not in blocked:
                nbrs.append(c + 1)
            if x > 0 and (x - 1, y) not in blocked:
                nbrs.append(c - 1)
            if y + 1 < h and (x, y + 1) not in blocked:
                nbrs.append(c + w)
            if y > 0 and (x, y - 1) not in blocked:
                nbrs.append(c - w)
            table.append(tuple(nbrs))
    return table


class TestBlockInPlace:
    def test_chains_match_fresh_build(self):
        # what the generator does to its work table: block a few cells at a
        # time in place on a copy of a built table
        rng = np.random.default_rng(5)
        for _ in range(12):
            w, h = (int(v) for v in rng.integers(2, 14, size=2))
            grid = generate_random_map(w, h, 0.2, int(rng.integers(1 << 30)))
            table = list(grid.neighbor_table)
            shared = _open_table(w, h)
            blocked = set(grid.obstacles)
            while len(blocked) < w * h:
                # any in-bounds cells, so some are blocked already
                k = int(rng.integers(1, 4))
                cells = {(int(rng.integers(w)), int(rng.integers(h))) for _ in range(k)}
                _block(table, {y * w + x for x, y in cells})
                blocked |= cells
                # list equality compares each tuple, so order counts too
                assert table == table_cell_by_cell(GridMap(w, h, frozenset(blocked)))
                for y in range(h):
                    for x in range(w):
                        near = {(x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)}
                        if not near & blocked:
                            assert table[y * w + x] is shared[y * w + x]
            assert grid.neighbor_table == table_cell_by_cell(grid)  # the copy only


class TestNeighborTable:
    def test_matches_cell_by_cell_build(self):
        rng = np.random.default_rng(14)
        for w in range(1, 14):
            for h in range(1, 14):
                for p in (0.0, 0.2, 0.5, 1.0):
                    if p == 1.0:
                        grid = GridMap(w, h, frozenset((x, y) for x in range(w) for y in range(h)))
                    else:
                        grid = generate_random_map(w, h, p, int(rng.integers(1 << 30)))
                    # list equality compares each tuple, so order counts too
                    assert grid.neighbor_table == table_cell_by_cell(grid), (w, h, p)

    def test_open_cells_share_tuples_and_ids(self):
        a = generate_random_map(30, 30, 0.1, 1)
        b = generate_random_map(30, 30, 0.1, 2)
        blocked = a.obstacles | b.obstacles
        cells = [
            (x, y)
            for x in range(1, 29)
            for y in range(1, 29)
            if not {(x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)} & blocked
        ]
        assert len(cells) > 100
        for cell in cells:
            c = a.cell_id(cell)
            assert a.neighbor_table[c] is b.neighbor_table[c]
        # a patched tuple names the same int objects as the shared ones
        for ta, tb in zip(a.neighbor_table, b.neighbor_table):
            if ta and tb:
                for n in set(ta) & set(tb):
                    assert ta[ta.index(n)] is tb[tb.index(n)]

    def test_other_maps_leave_a_table_unchanged(self):
        first = generate_random_map(16, 11, 0.3, 4)
        table = list(first.neighbor_table)
        assert table == table_cell_by_cell(first)
        second = generate_random_map(16, 11, 0.3, 5)
        assert second.neighbor_table == table_cell_by_cell(second)
        assert first.neighbor_table == table
        open_grid = GridMap(16, 11)
        assert open_grid.neighbor_table == table_cell_by_cell(open_grid)

    def test_table_memory_per_map(self):
        # a table copied from the shared open-grid one holds one list slot
        # per cell plus the tuples patched around obstacles: about 80 KB at
        # 50x50 and p=0.1, where a table built cell by cell held about 390 KB
        maps = [generate_random_map(50, 50, 0.1, seed) for seed in range(20)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for grid in maps:
                grid.neighbor_table  # each map keeps its table
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / 20 < 150 * 1024


def test_random_map_downsample_statistics():
    # sanity check across seeds: deterministic generation, frozen sets shareable
    rng = np.random.default_rng(0)
    for _ in range(3):
        seed = int(rng.integers(1 << 30))
        g1 = generate_random_map(40, 40, 0.15, seed)
        g2 = generate_random_map(40, 40, 0.15, seed)
        assert g1.obstacles == g2.obstacles
