import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import mapfkit.bench
import mapfkit.cli
from mapfkit import (
    BenchConfig,
    GridMap,
    ProblemInstance,
    TimedPath,
    compare,
    emit_csv,
    emit_plot_data,
    generate_instance,
    generate_random_map,
    parse_csv,
    parse_movingai_map,
    read_scenario,
    run_benchmark,
    serialize_movingai_map,
    summarize,
    write_scenario,
)
from mapfkit.bench import CSV_COLUMNS, WALL_TIME_COLUMNS
from mapfkit.cli import main, read_paths, write_paths


ROOT = Path(__file__).resolve().parents[1]


def run_from_checkout(*args):
    """Run a fresh interpreter with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def drop_wall_time(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in WALL_TIME_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


# First 16 hex digits of the sha256 of a fixed-seed benchmark CSV outside the
# wall-time columns. tests/test_golden.py pins the paths; these pin the rest
# of each record: statuses, costs, rounds and communication bits.
PINNED_CSV_DIGESTS = [
    (dict(n_agents=8, n_instances=6, seed=909, width=20, height=20), "89974071604d2a72"),
    (dict(n_agents=4, n_instances=3, seed=11, width=12, height=12), "61e23f33c6328f1d"),
]


def variant_fails_instance():
    """A 2x3 open map on which HCA, under the order ``[0, 1, 2]``, plans all
    three agents and the variant fails on agent 2."""
    return ProblemInstance(GridMap(2, 3), (((1, 1), (0, 1)), ((0, 0), (1, 2)), ((1, 2), (1, 0))))


class TestCompare:
    def test_single_agent_all_ratios_one(self):
        grid = GridMap(9, 9)
        inst = ProblemInstance(grid, (((0, 0), (6, 6)),))
        record = compare(inst, [0])
        assert record.ok
        assert record.sum_of_costs_ratio == 1.0
        assert record.makespan_ratio == 1.0
        assert record.iterations == 1

    def test_identical_outputs_ratio_one(self):
        grid = generate_random_map(12, 12, 0.1, seed=3)
        inst = generate_instance(grid, 3, seed=5)
        record = compare(inst, [0, 1, 2])
        assert record.ok
        assert record.hca_sum_of_costs > 0
        assert record.comm_bits > 0 and record.comm_seconds > 0

    def test_zero_cost_baseline(self):
        # every agent starts on its goal: both plans cost 0
        inst = ProblemInstance(GridMap(4, 4), (((1, 1), (1, 1)),))
        record = compare(inst, [0])
        assert record.ok
        assert record.hca_sum_of_costs == record.variant_sum_of_costs == 0
        assert record.sum_of_costs_ratio == 1.0 and record.makespan_ratio == 1.0
        assert record.speedup is not None and record.speedup > 0

    def test_no_agents(self):
        # no variant round runs, so the ideal time, and with it the
        # speedup's denominator, is 0
        record = compare(ProblemInstance(GridMap(4, 4), ()), [])
        assert record.ok
        assert record.sum_of_costs_ratio == 1.0 and record.makespan_ratio == 1.0
        assert record.variant_ideal_seconds == 0.0
        assert record.speedup is None
        assert parse_csv(emit_csv([record])) == [record]

    def test_failure_status(self):
        grid = GridMap(5, 1)
        inst = ProblemInstance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))
        record = compare(inst, [0, 1])
        assert record.status == "both_failed"
        assert record.sum_of_costs_ratio is None
        assert record.hca_seconds > 0 and record.variant_wall_seconds > 0

    def test_variant_failed_status(self):
        # HCA plans all three; the variant fails on agent 2
        record = compare(variant_fails_instance(), [0, 1, 2])
        assert record.status == "variant_failed"
        assert record.hca_sum_of_costs == 10
        assert record.variant_sum_of_costs is None and record.comm_bits is None
        assert record.sum_of_costs_ratio is None and record.speedup is None
        # both planners ran, so both wall times are set; the ideal time needs a success
        assert record.hca_seconds > 0 and record.variant_wall_seconds > 0
        assert record.variant_ideal_seconds is None
        assert parse_csv(emit_csv([record])) == [record]

    def test_hca_failed_status(self):
        # under the order [0, 1, 2], HCA fails on agent 1; the variant plans all three
        inst = ProblemInstance(
            GridMap(2, 3, {(0, 0)}), (((1, 1), (1, 1)), ((0, 2), (1, 0)), ((0, 1), (0, 1)))
        )
        record = compare(inst, [0, 1, 2])
        assert record.status == "hca_failed"
        assert record.hca_sum_of_costs is None
        assert record.variant_sum_of_costs == 11 and record.comm_bits > 0
        assert record.sum_of_costs_ratio is None and record.speedup is None
        assert parse_csv(emit_csv([record])) == [record]

    def test_bad_data_rate_rejected_before_either_planner(self, monkeypatch):
        solved = []
        monkeypatch.setattr(mapfkit.bench, "solve_hca", lambda *a: solved.append("hca"))
        monkeypatch.setattr(mapfkit.bench, "solve_variant", lambda *a: solved.append("variant"))
        with pytest.raises(ValueError, match="data rate must be positive and finite"):
            compare(variant_fails_instance(), [0, 1, 2], data_rate=-1.0)
        assert solved == []


class TestRunBenchmark:
    def test_tiny_run(self):
        cfg = BenchConfig(n_agents=3, n_instances=4, seed=1, width=12, height=12)
        records, summary = run_benchmark(cfg)
        assert len(records) == 4
        assert summary.successes == 4 and summary.failures == 0
        assert "sum_of_costs_ratio" in summary.columns

    @pytest.mark.parametrize("timeout", [float("nan"), 0.0, -1.0])
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a positive number"):
            BenchConfig(n_agents=1, n_instances=1, timeout=timeout)

    def test_generation_failed_records(self):
        # 60 agents do not fit on these 16x16 maps
        cfg = BenchConfig(n_agents=60, n_instances=2, width=16, height=16, seed=0)
        records, summary = run_benchmark(cfg)
        assert [r.status for r in records] == ["generation_failed"] * 2
        assert [r.n_agents for r in records] == [60, 60]
        assert summary.failures == 2 and summary.successes == 0 and summary.columns == {}
        assert parse_csv(emit_csv(records)) == records

    def test_single_agent_ratios_exactly_one(self):
        cfg = BenchConfig(n_agents=1, n_instances=1, seed=0, width=10, height=10)
        records, summary = run_benchmark(cfg)
        assert records[0].sum_of_costs_ratio == 1.0
        assert summary.columns["sum_of_costs_ratio"].avg == 1.0

    def test_fixed_map_file(self, tmp_path):
        grid = generate_random_map(12, 12, 0.1, seed=7)
        path = tmp_path / "m.map"
        path.write_text(serialize_movingai_map(grid))
        cfg = BenchConfig(n_agents=2, n_instances=2, seed=3, map_file=str(path))
        records, summary = run_benchmark(cfg)
        assert summary.successes == 2

    def test_summary_matches_recomputation_from_csv(self):
        cfg = BenchConfig(n_agents=3, n_instances=5, seed=9, width=12, height=12)
        records, summary = run_benchmark(cfg)
        parsed = parse_csv(emit_csv(records))
        values = [r.sum_of_costs_ratio for r in parsed if r.status == "ok"]
        stats = summary.columns["sum_of_costs_ratio"]
        assert stats.avg == statistics.fmean(values)
        assert stats.min == min(values)
        assert stats.max == max(values)
        assert stats.median == statistics.median(values)

    def test_deterministic_for_a_fixed_seed(self):
        # the planner runs serially; a same-seed repeat must match byte for byte
        cfg = BenchConfig(n_agents=4, n_instances=3, seed=11, width=12, height=12)
        first = emit_csv(run_benchmark(cfg)[0])
        again = emit_csv(run_benchmark(cfg)[0])
        assert drop_wall_time(first) == drop_wall_time(again)

    @pytest.mark.parametrize("kwargs,expected", PINNED_CSV_DIGESTS)
    def test_pinned_csv_digest(self, kwargs, expected):
        text = drop_wall_time(emit_csv(run_benchmark(BenchConfig(**kwargs))[0]))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected


class TestCsv:
    def test_empty_records_header_only(self):
        assert emit_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_roundtrip_identity(self):
        cfg = BenchConfig(n_agents=2, n_instances=3, seed=4, width=10, height=10)
        records, _ = run_benchmark(cfg)
        assert parse_csv(emit_csv(records)) == records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("nope,nope\n1,2\n")

    def test_row_of_wrong_width_rejected(self):
        cfg = BenchConfig(n_agents=2, n_instances=2, seed=4, width=10, height=10)
        header, first, second = emit_csv(run_benchmark(cfg)[0]).splitlines()
        with pytest.raises(ValueError, match="line 3: 3 fields"):
            parse_csv("\n".join([header, first, "0,ok,16"]))
        with pytest.raises(ValueError, match=f"line 2: {len(CSV_COLUMNS) + 1} fields"):
            parse_csv("\n".join([header, first + ",7", second]))


class TestPlotData:
    def test_series_layout(self):
        cfg = BenchConfig(n_agents=2, n_instances=3, seed=6, width=10, height=10)
        records, _ = run_benchmark(cfg)
        text = emit_plot_data(records)
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            lines = block.strip().splitlines()
            assert lines[0].startswith("# series: ")
            assert len(lines) - 1 == 3  # one row per successful instance


class TestPathsDump:
    def test_roundtrip(self):
        from mapfkit import solve_hca, solve_variant

        for seed in (12, 3):
            inst = generate_instance(generate_random_map(12, 12, 0.15, seed), 6, seed + 1)
            for solution in (solve_hca(inst, range(6)), solve_variant(inst)[0]):
                text = write_paths(solution.paths)
                assert read_paths(text) == solution.paths
                # blank lines, anywhere, are skipped
                assert read_paths("\n" + text.replace("\n", "\n  \n") + "\n") == solution.paths

    def test_one_codec_line_per_agent(self):
        paths = {
            1: TimedPath(1, ((2, 2, 0), (2, 3, 1), (2, 3, 2))),
            0: TimedPath(0, ((0, 0, 0), (1, 0, 1))),
        }
        assert write_paths(paths) == "0 0 0 r e\n1 2 2 u w e\n"
        assert write_paths({}) == ""


@pytest.fixture
def instance_files(tmp_path):
    grid = generate_random_map(12, 12, 0.1, seed=21)
    inst = generate_instance(grid, 3, seed=22)
    map_path = tmp_path / "demo.map"
    scen_path = tmp_path / "demo.scen"
    map_path.write_text(serialize_movingai_map(grid))
    scen_path.write_text(write_scenario(inst, "demo.map"))
    return map_path, scen_path


class TestCli:
    def test_gen_instance_roundtrip(self, tmp_path):
        out = tmp_path / "g.scen"
        map_out = tmp_path / "g.map"
        meta = tmp_path / "g.meta"
        code = main(
            [
                "gen-instance", "--agents", "4", "--seed", "5",
                "--width", "12", "--height", "12", "--p-obstacle", "0.1",
                "--out", str(out), "--map-out", str(map_out), "--meta-out", str(meta),
            ]
        )
        assert code == 0
        assert out.exists() and map_out.exists()
        assert "seed: 5" in meta.read_text()

    def test_gen_instance_on_a_map_file(self, tmp_path, instance_files, capsys):
        map_path, _ = instance_files
        out = tmp_path / "f.scen"
        code = main(
            ["gen-instance", "--map", str(map_path), "--agents", "3", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == f"wrote 3 agents to {out}\n"
        text = out.read_text()
        rows = text.splitlines()[1:]
        assert len(rows) == 3 and all(row.split("\t")[1] == "demo.map" for row in rows)
        grid = parse_movingai_map(map_path.read_text())
        assert read_scenario(text, grid).agents == generate_instance(grid, 3, 2).agents

    def test_gen_instance_generation_failure(self, tmp_path, capsys):
        # 16x16 at seed 1 holds only 36 of the 60 agents
        out = tmp_path / "full.scen"
        code = main(
            ["gen-instance", "--agents", "60", "--width", "16", "--height", "16", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("generation failed:")
        assert not out.exists()

    def test_gen_instance_rejects_map_name_with_space(self, tmp_path, capsys):
        out = tmp_path / "d.scen"
        map_out = tmp_path / "my map.map"
        code = main(
            [
                "gen-instance", "--agents", "4", "--seed", "1", "--width", "10", "--height", "10",
                "--out", str(out), "--map-out", str(map_out),
            ]
        )
        assert code == 1
        assert "error: map name 'my map.map'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_solve_hca_and_validate(self, tmp_path, instance_files, capsys):
        map_path, scen_path = instance_files
        paths_out = tmp_path / "paths.txt"
        code = main(
            [
                "solve-hca", "--map", str(map_path), "--scen", str(scen_path),
                "--order-seed", "1", "--paths-out", str(paths_out),
            ]
        )
        assert code == 0
        assert "sum_of_costs=" in capsys.readouterr().out
        code = main(
            [
                "validate", "--map", str(map_path), "--scen", str(scen_path),
                "--paths", str(paths_out),
            ]
        )
        assert code == 0

    def test_solve_variant(self, instance_files, capsys):
        map_path, scen_path = instance_files
        code = main(["solve-variant", "--map", str(map_path), "--scen", str(scen_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "iterations=" in out and "comm_bits=" in out

    def test_solve_variant_paths_out_validates(self, tmp_path, instance_files, capsys):
        map_path, scen_path = instance_files
        files = ["--map", str(map_path), "--scen", str(scen_path)]
        paths_out = tmp_path / "variant.paths"
        assert main(["solve-variant", *files, "--paths-out", str(paths_out)]) == 0
        capsys.readouterr()
        assert main(["validate", *files, "--paths", str(paths_out)]) == 0
        assert capsys.readouterr().out == "solution valid (3 agents)\n"

    def test_validate_without_paths(self, instance_files, capsys):
        map_path, scen_path = instance_files
        assert main(["validate", "--map", str(map_path), "--scen", str(scen_path)]) == 0
        assert capsys.readouterr().out == "instance valid (3 agents)\n"

    def test_worker_flag_rejected(self, instance_files, capsys):
        map_path, scen_path = instance_files
        assert main(
            ["solve-variant", "--map", str(map_path), "--scen", str(scen_path), "--workers", "2"]
        ) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert main(["bench", "--agents", "2", "--instances", "1", "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert main(
            ["solve-variant", "--map", str(map_path), "--scen", str(scen_path),
             "--exact-threshold", "3"]
        ) == 1
        assert "unrecognized arguments: --exact-threshold 3" in capsys.readouterr().err
        assert main(["bench", "--agents", "2", "--instances", "1", "--exact-threshold", "3"]) == 1
        assert "unrecognized arguments: --exact-threshold 3" in capsys.readouterr().err
        assert main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path), "--no-reachability"]
        ) == 1
        assert "unrecognized arguments: --no-reachability" in capsys.readouterr().err

    def test_validate_rejects_corrupted_paths(self, tmp_path, instance_files):
        map_path, scen_path = instance_files
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 0 w e\n")
        code = main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path), "--paths", str(bad)]
        )
        assert code == 2

    def test_validate_reports_unknown_agent(self, tmp_path):
        # a paths line for an agent the scenario does not list is a
        # violation (exit 2), not a crash
        grid = GridMap(8, 8)
        inst = ProblemInstance(grid, (((0, 0), (4, 4)),))
        map_path = tmp_path / "one.map"
        scen_path = tmp_path / "one.scen"
        paths_path = tmp_path / "paths.txt"
        map_path.write_text(serialize_movingai_map(grid))
        scen_path.write_text(write_scenario(inst, "one.map"))
        paths_path.write_text("7 4 4 e\n")
        result = run_from_checkout(
            "-m", "mapfkit", "validate", "--map", str(map_path), "--scen", str(scen_path),
            "--paths", str(paths_path),
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "agent 7: not in the instance" in result.stderr.splitlines()

    def test_validate_rejects_duplicate_agent(self, tmp_path, instance_files, capsys):
        # a repeated agent id must not let its last line hide the first
        map_path, scen_path = instance_files
        paths_out = tmp_path / "paths.txt"
        assert main(
            [
                "solve-hca", "--map", str(map_path), "--scen", str(scen_path),
                "--paths-out", str(paths_out),
            ]
        ) == 0
        paths_out.write_text("0 7 7 e\n" + paths_out.read_text())
        capsys.readouterr()
        code = main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path), "--paths", str(paths_out)]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and "agent 0: listed twice" in err

    def test_validate_shared_goal_is_invalid_instance(self, tmp_path, capsys):
        # every structural fault of the scenario reads the same from
        # validate, whether the loader or the reachability check finds it;
        # no instance can hold a shared goal or a blocked endpoint, so the
        # text is written directly
        grid = GridMap(6, 6, frozenset({(2, 2)}))
        map_path = tmp_path / "s.map"
        scen_path = tmp_path / "s.scen"
        map_path.write_text(serialize_movingai_map(grid))
        cases = [
            ((3, 3), (3, 3), "goals must be pairwise distinct"),
            ((2, 2), (4, 4), "agent 1 source (2, 2) blocked or out of bounds"),
        ]
        for source, goal, message in cases:
            scen_path.write_text(
                "version 1\n0\ts.map\t6\t6\t0\t0\t3\t3\t0\n"
                f"0\ts.map\t6\t6\t{source[0]}\t{source[1]}\t{goal[0]}\t{goal[1]}\t0\n"
            )
            for command, code, prefix in (
                ("validate", 2, "invalid instance"),
                ("solve-hca", 1, "error"),
                ("solve-variant", 1, "error"),
            ):
                assert main([command, "--map", str(map_path), "--scen", str(scen_path)]) == code
                assert f"{prefix}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1", "malformed header: ['0', '1']"),
            ("0 1 2 r q e", "unknown symbol 'q'"),
            ("0 1 2 r u", "missing terminator `e`"),
            ("0 1 2 r e u", "trailing symbols after `e`"),
        ],
        ids=["short-header", "unknown-symbol", "missing-e", "after-e"],
    )
    def test_validate_rejects_malformed_line(self, tmp_path, instance_files, capsys, line, message):
        # a line the codec cannot read is a malformed file, not a violation
        # of the solution, and the error is the codec's
        map_path, scen_path = instance_files
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        code = main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path), "--paths", str(bad)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_validate_reports_late_start(self, tmp_path, instance_files, capsys):
        # an ``n`` marker delays the path, which the validator reports
        map_path, scen_path = instance_files
        files = ["--map", str(map_path), "--scen", str(scen_path)]
        paths_out = tmp_path / "paths.txt"
        assert main(["solve-hca", *files, "--paths-out", str(paths_out)]) == 0
        lines = paths_out.read_text().splitlines()
        head = lines[0].split()
        lines[0] = " ".join(head[:3] + ["n"] + head[3:])
        paths_out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", *files, "--paths", str(paths_out)]) == 2
        assert "agent 0: starts at t=1, expected t=0" in capsys.readouterr().err.splitlines()

    def test_bad_data_rate_rejected_before_solving(self, instance_files, capsys):
        map_path, scen_path = instance_files
        assert main(
            ["solve-variant", "--map", str(map_path), "--scen", str(scen_path), "--data-rate", "0"]
        ) == 1
        out, err = capsys.readouterr()
        assert out == "" and "data rate must be positive" in err
        assert main(["bench", "--agents", "2", "--instances", "1", "--data-rate", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "data rate must be positive" in err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_data_rate_rejected(self, instance_files, capsys, rate):
        map_path, scen_path = instance_files
        assert main(
            ["solve-variant", "--map", str(map_path), "--scen", str(scen_path), "--data-rate", rate]
        ) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: data rate must be positive and finite" in err
        assert main(["bench", "--agents", "2", "--instances", "1", "--data-rate", rate]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: data rate must be positive and finite" in err

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
    def test_bad_timeout_rejected_before_solving(self, instance_files, capsys, timeout):
        # a NaN budget never runs out, and one at or below 0 is spent before
        # the first search: each is a configuration error, not a failed solve
        map_path, scen_path = instance_files
        files = ["--map", str(map_path), "--scen", str(scen_path)]
        for argv in (
            ["solve-hca", *files, "--timeout", timeout],
            ["solve-variant", *files, "--timeout", timeout],
            ["bench", "--agents", "2", "--instances", "1", "--timeout", timeout],
        ):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "error: timeout must be a positive number of seconds" in err

    def test_negative_instance_count_rejected(self, capsys):
        assert main(["bench", "--agents", "2", "--instances", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: instance count must be nonnegative" in err

    def test_bench_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        plot_path = tmp_path / "r.dat"
        code = main(
            [
                "bench", "--agents", "2", "--instances", "2", "--seed", "3",
                "--width", "10", "--height", "10",
                "--csv", str(csv_path), "--plot-data", str(plot_path),
            ]
        )
        assert code == 0
        assert parse_csv(csv_path.read_text())
        assert "# series:" in plot_path.read_text()
        assert "ok=2" in capsys.readouterr().out

    def test_bench_on_a_map_file(self, tmp_path, instance_files, capsys):
        map_path, _ = instance_files
        csv_path = tmp_path / "m.csv"
        flags = ["--agents", "2", "--instances", "2", "--seed", "3", "--csv", str(csv_path)]
        assert main(["bench", "--map", str(map_path), *flags]) == 0
        assert "ok=2" in capsys.readouterr().out
        got = drop_wall_time(csv_path.read_text())
        cfg = BenchConfig(n_agents=2, n_instances=2, seed=3, map_file=str(map_path))
        assert got == drop_wall_time(emit_csv(run_benchmark(cfg)[0]))
        random_maps = BenchConfig(n_agents=2, n_instances=2, seed=3, width=12, height=12)
        assert got != drop_wall_time(emit_csv(run_benchmark(random_maps)[0]))

    def test_bench_without_flags_runs_the_default_config(self, monkeypatch, capsys):
        seen = []

        def record(cfg):
            seen.append(cfg)
            return [], summarize([])

        monkeypatch.setattr(mapfkit.cli, "run_benchmark", record)
        assert main(["bench"]) == 2  # no records, so no successful pairs
        assert seen == [BenchConfig()]
        assert capsys.readouterr().err == "no successful pairs\n"

    def test_config_error_exit_code(self, tmp_path):
        assert main(["solve-hca", "--map", "/nonexistent.map", "--scen", "x"]) == 1
        assert main(["bench", "--agents"]) == 1  # missing value

    def test_solver_failure_exit_code(self, tmp_path):
        grid = GridMap(5, 1)
        inst = ProblemInstance(grid, (((0, 0), (4, 0)), ((4, 0), (0, 0))))
        map_path = tmp_path / "c.map"
        scen_path = tmp_path / "c.scen"
        map_path.write_text(serialize_movingai_map(grid))
        scen_path.write_text(write_scenario(inst, "c.map"))
        code = main(
            ["solve-hca", "--map", str(map_path), "--scen", str(scen_path), "--order", "0,1"]
        )
        assert code == 2

    def test_entry_point_installed(self):
        # Runs the declared console-script target the way pip's generated
        # wrapper does, against this checkout's sources, so the check needs
        # no installed script on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["mapfkit"]
        module, function = target.split(":")
        wrapper = (
            "import sys\n"
            "sys.argv[0] = 'mapfkit'\n"
            f"from {module} import {function}\n"
            f"sys.exit({function}())\n"
        )
        result = run_from_checkout("-c", wrapper, "--help")
        assert result.returncode == 0, result.stderr
        assert "usage: mapfkit" in result.stdout
        assert "gen-instance" in result.stdout

    def test_python_m_mapfkit(self):
        result = run_from_checkout("-m", "mapfkit", "--help")
        assert result.returncode == 0, result.stderr
        assert "usage: mapfkit" in result.stdout
