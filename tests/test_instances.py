import numpy as np
import pytest

from mapfkit import (
    GenerationError,
    GridMap,
    InvalidInstanceError,
    ScenarioFormatError,
    generate_instance,
    generate_random_map,
    read_instance_metadata,
    read_scenario,
    serialize_movingai_map,
    solve_hca,
    write_instance_metadata,
    write_scenario,
)
from oracles import reference_generate_instance
from test_grid import table_cell_by_cell


class TestGenerateInstance:
    def test_single_agent(self):
        grid = GridMap(6, 6)
        inst = generate_instance(grid, 1, seed=0)
        (s, g), = inst.agents
        assert s != g
        assert grid.is_free(s) and grid.is_free(g)

    def test_later_endpoints_avoid_earlier_paths(self):
        # the second agent's endpoints never sit on the first agent's
        # committed shortest path or endpoints
        for seed in range(20):
            grid = GridMap(10, 10)
            inst = generate_instance(grid, 2, seed=seed)
            order = inst.metadata["generation_order"]
            first, second = order[0], order[1]
            s1, g1 = inst.agents[first]
            s2, g2 = inst.agents[second]
            from mapfkit import astar_static

            # recompute the first committed path: obstacles were empty then
            path1 = set(astar_static(grid, s1, g1))
            assert s2 not in path1 and g2 not in path1

    def test_endpoints_pairwise_distinct(self):
        grid = generate_random_map(20, 20, 0.1, seed=9)
        inst = generate_instance(grid, 10, seed=4)
        endpoints = [c for pair in inst.agents for c in pair]
        assert len(set(endpoints)) == len(endpoints)
        for s, g in inst.agents:
            assert grid.is_free(s) and grid.is_free(g)

    def test_deterministic(self):
        grid = generate_random_map(15, 15, 0.15, seed=1)
        a = generate_instance(grid, 5, seed=123)
        b = generate_instance(grid, 5, seed=123)
        assert a.agents == b.agents
        assert a.metadata["generation_order"] == b.metadata["generation_order"]

    def test_generated_instances_solvable_by_every_sampled_order(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            grid = generate_random_map(15, 15, 0.1, seed=50 + seed)
            inst = generate_instance(grid, 5, seed=seed)
            for _ in range(3):
                order = [int(a) for a in rng.permutation(5)]
                solve_hca(inst, order)  # raises on failure

    def test_exhaustion_raises(self):
        grid = GridMap(2, 2, frozenset({(0, 0), (1, 1)}))
        # only two free cells, disconnected: no path between them
        with pytest.raises(GenerationError):
            generate_instance(grid, 1, seed=0)

    def test_too_little_free_space(self):
        grid = GridMap(2, 1, frozenset({(1, 0)}))
        with pytest.raises(GenerationError) as info:
            generate_instance(grid, 1, seed=0)
        assert info.value.n_generated == 0

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="n_agents must be positive"):
            generate_instance(GridMap(4, 4), 0, seed=0)

    def test_matches_plain_reference(self):
        # the pool mask and the work table blocked in place draw the same
        # instances, and fail the same way, as a list pool and a fresh map
        # per agent
        rng = np.random.default_rng(31)
        outcomes = {"placed": 0, "free space exhausted": 0, "no connected": 0}
        for case in range(240):
            # every third map is small, so that some draws exhaust the pool
            w, h = (int(v) for v in rng.integers(2, 8 if case % 3 == 0 else 31, size=2))
            grid = generate_random_map(w, h, float(rng.uniform(0, 0.4)), int(rng.integers(1 << 30)))
            n_agents = int(rng.integers(1, max(1, min(grid.n_free, 20)) + 1))
            seed = int(rng.integers(1 << 30))
            try:
                expected = reference_generate_instance(grid, n_agents, seed)
            except GenerationError as want:
                with pytest.raises(GenerationError) as got:
                    generate_instance(grid, n_agents, seed)
                assert str(got.value) == str(want)
                assert got.value.n_generated == want.n_generated
                outcomes["no connected" if "no connected" in str(want) else str(want)] += 1
                continue
            inst = generate_instance(grid, n_agents, seed)
            assert (inst.agents, inst.metadata) == expected
            outcomes["placed"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_input_map_left_alone(self):
        # the work table is a copy: blocking it in place must not reach the
        # map's own table, which every later solve on the map reads
        for built in (False, True):
            grid = generate_random_map(14, 11, 0.2, seed=6)
            if built:
                grid.neighbor_table
            obstacles = grid.obstacles
            first = generate_instance(grid, 8, seed=2)
            assert grid.obstacles == obstacles
            assert "neighbor_table" in grid.__dict__
            assert grid.neighbor_table == table_cell_by_cell(grid)
            assert generate_instance(grid, 8, seed=2).agents == first.agents


class TestScenarioIO:
    def test_roundtrip(self):
        grid = generate_random_map(12, 12, 0.1, seed=2)
        inst = generate_instance(grid, 4, seed=3)
        text = write_scenario(inst, "example.map")
        again = read_scenario(text, grid)
        assert again.agents == inst.agents

    @pytest.mark.parametrize("name", ["my map.map", "tab\tmap.map", ""])
    def test_map_name_read_scenario_cannot_split_rejected(self, name):
        inst = generate_instance(GridMap(6, 6), 1, seed=1)
        with pytest.raises(ValueError, match="map name"):
            write_scenario(inst, name)

    def test_column_layout(self):
        grid = GridMap(9, 7)
        inst = generate_instance(grid, 1, seed=1)
        line = write_scenario(inst, "m.map").splitlines()[1]
        parts = line.split("\t")
        assert parts[0] == "0" and parts[1] == "m.map"
        assert parts[2] == "9" and parts[3] == "7"
        (s, g), = inst.agents
        assert (int(parts[4]), int(parts[5])) == s
        assert (int(parts[6]), int(parts[7])) == g

    def test_endpoint_on_obstacle_rejected(self):
        # the instance owns the endpoint rule, and its message names the agent
        grid = GridMap(4, 4, frozenset({(1, 1)}))
        text = "version 1\n0\tm\t4\t4\t0\t0\t2\t2\t0\n0\tm\t4\t4\t1\t1\t3\t3\t0\n"
        with pytest.raises(InvalidInstanceError, match=r"agent 1 source \(1, 1\) blocked"):
            read_scenario(text, grid)

    def test_out_of_bounds_rejected(self):
        grid = GridMap(4, 4)
        with pytest.raises(InvalidInstanceError, match=r"agent 0 goal \(4, 0\) blocked or out of"):
            read_scenario("0\tm\t4\t4\t0\t0\t4\t0\t0\n", grid)

    def test_size_mismatch_rejected(self):
        grid = GridMap(4, 4)
        with pytest.raises(ScenarioFormatError):
            read_scenario("0\tm\t5\t4\t0\t0\t1\t0\t0\n", grid)

    def test_malformed_row_rejected(self):
        grid = GridMap(4, 4)
        with pytest.raises(ScenarioFormatError):
            read_scenario("0\tm\t4\t4\t0\t0\t1\n", grid)
        with pytest.raises(ScenarioFormatError):
            read_scenario("0\tm\t4\t4\ta\tb\t1\t0\t0\n", grid)

    def test_benchmark_style_row(self):
        # a row shaped like the public benchmark suites parses cleanly
        grid = GridMap(512, 512)
        row = "0\tBerlin_1_512.map\t512\t512\t437\t4\t458\t7\t25.21320343"
        inst = read_scenario("version 1\n" + row, grid)
        assert inst.agents == (((437, 4), (458, 7)),)

    def test_map_scenario_pair_files(self, tmp_path):
        grid = generate_random_map(10, 10, 0.1, seed=8)
        inst = generate_instance(grid, 3, seed=9)
        (tmp_path / "m.map").write_text(serialize_movingai_map(grid))
        (tmp_path / "m.scen").write_text(write_scenario(inst, "m.map"))
        from mapfkit import parse_movingai_map

        grid2 = parse_movingai_map((tmp_path / "m.map").read_text())
        inst2 = read_scenario((tmp_path / "m.scen").read_text(), grid2)
        assert inst2.agents == inst.agents


class TestMetadataSidecar:
    def test_roundtrip(self):
        grid = GridMap(8, 8)
        inst = generate_instance(grid, 3, seed=77)
        meta = read_instance_metadata(write_instance_metadata(inst))
        assert meta["seed"] == 77
        assert meta["generation_order"] == inst.metadata["generation_order"]

    def test_non_integer_seed_omitted(self):
        grid = GridMap(8, 8)
        inst = generate_instance(grid, 2, seed=np.random.SeedSequence(5))
        text = write_instance_metadata(inst)
        assert "seed" not in text
        assert "generation_order" in text

    def test_blank_lines_skipped_and_unknown_keys_kept(self):
        text = "\nseed: 3\n\n  \nmap: demo.map\ngeneration_order: 1,0\n\n"
        assert read_instance_metadata(text) == {
            "seed": 3,
            "map": "demo.map",
            "generation_order": (1, 0),
        }
