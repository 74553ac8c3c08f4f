"""Command-line harness.

Subcommands: ``gen-instance``, ``solve-hca``, ``solve-variant``, ``bench``,
``validate``. Exit codes: 0 success, 1 configuration error, 2 solver failure
(or, for ``bench``, zero successful pairs; for ``validate``, an invalid
instance or violations).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bench import BenchConfig, emit_csv, emit_plot_data, run_benchmark
from .codec import decode_segment, encode_segment, parse_encoded
from .comm import check_data_rate, comm_time
from .conflicts import validate_solution
from .grid import GridMap, generate_random_map, parse_movingai_map, serialize_movingai_map
from .instances import (
    GenerationError,
    generate_instance,
    read_scenario,
    write_instance_metadata,
    write_scenario,
)
from .search import TimedPath
from .solver import (
    InvalidInstanceError,
    ProblemInstance,
    SolveFailure,
    solve_hca,
    solve_variant,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_map(path: str) -> GridMap:
    return parse_movingai_map(Path(path).read_text())


def _load_instance(map_path: str, scen_path: str) -> ProblemInstance:
    grid = _load_map(map_path)
    return read_scenario(Path(scen_path).read_text(), grid)


def write_paths(paths: dict[int, TimedPath]) -> str:
    """One codec text line per agent, in agent order: ``EncodedSegment.text``."""
    return "".join(encode_segment(paths[agent]).text() + "\n" for agent in sorted(paths))


def read_paths(text: str) -> dict[int, TimedPath]:
    """Inverse of ``write_paths``: the codec reads each non-blank line, and
    raises CodecError for one it cannot write; an agent listed twice is an error."""
    paths: dict[int, TimedPath] = {}
    for ln in text.splitlines():
        if ln.strip():
            path = decode_segment(parse_encoded(ln))
            if path.agent in paths:
                raise ValueError(f"agent {path.agent}: listed twice")
            paths[path.agent] = path
    return paths


def _print_solution(label: str, solution) -> None:
    print(f"{label}: sum_of_costs={solution.sum_of_costs} makespan={solution.makespan}")


def _cmd_gen_instance(args) -> int:
    if args.map:
        grid = _load_map(args.map)
        map_name = Path(args.map).name
    else:
        grid = generate_random_map(args.width, args.height, args.p_obstacle, args.seed)
        map_name = Path(args.map_out).name if args.map_out else "random.map"
    instance = generate_instance(grid, args.agents, args.seed)
    scenario = write_scenario(instance, map_name)  # rejects a bad name before writing
    if args.map_out:
        Path(args.map_out).write_text(serialize_movingai_map(grid))
    Path(args.out).write_text(scenario)
    if args.meta_out:
        Path(args.meta_out).write_text(write_instance_metadata(instance))
    print(f"wrote {args.agents} agents to {args.out}")
    return EXIT_OK


def _cmd_solve_hca(args) -> int:
    instance = _load_instance(args.map, args.scen)
    if args.order:
        order = [int(v) for v in args.order.split(",")]
    else:
        order = np.random.default_rng(args.order_seed).permutation(instance.n_agents)
    solution = solve_hca(instance, order, args.timeout)
    _print_solution("hca", solution)
    if args.paths_out:
        Path(args.paths_out).write_text(write_paths(solution.paths))
    return EXIT_OK


def _cmd_solve_variant(args) -> int:
    instance = _load_instance(args.map, args.scen)
    check_data_rate(args.data_rate)  # the rate is used only after the solve
    solution, trace = solve_variant(instance, args.timeout)
    _print_solution("variant", solution)
    print(
        f"iterations={trace.n_iterations} comm_bits={trace.ledger.total_bits()} "
        f"comm_seconds={comm_time(trace.ledger, args.data_rate):.6g}"
    )
    if args.paths_out:
        Path(args.paths_out).write_text(write_paths(solution.paths))
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = BenchConfig(**{f.name: getattr(args, f.name) for f in fields(BenchConfig)})
    records, summary = run_benchmark(cfg)
    if args.csv:
        Path(args.csv).write_text(emit_csv(records))
    if args.plot_data:
        Path(args.plot_data).write_text(emit_plot_data(records))
    print(f"instances={len(records)} ok={summary.successes} failed={summary.failures}")
    for name, stats in summary.columns.items():
        print(
            f"{name}: avg={stats.avg:.4f} min={stats.min:.4f} "
            f"max={stats.max:.4f} median={stats.median:.4f}"
        )
    if summary.successes == 0:
        print("no successful pairs", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        instance = _load_instance(args.map, args.scen)
        instance.validate()
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if args.paths:
        paths = read_paths(Path(args.paths).read_text())
        violations = validate_solution(paths, instance.grid, instance.agents)
        if violations:
            for v in violations:
                print(v, file=sys.stderr)
            return EXIT_SOLVER
        print(f"solution valid ({len(paths)} agents)")
    else:
        print(f"instance valid ({instance.n_agents} agents)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mapfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    desk = BenchConfig()  # every default below is one of its field defaults
    files, random_map, data_rate, timeout, paths_out = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    files.add_argument("--map", required=True)
    files.add_argument("--scen", required=True)
    random_map.add_argument("--width", type=int, default=desk.width)
    random_map.add_argument("--height", type=int, default=desk.height)
    random_map.add_argument("--p-obstacle", type=float, default=desk.p_obstacle)
    random_map.add_argument("--seed", type=int, default=desk.seed)
    data_rate.add_argument("--data-rate", type=float, default=desk.data_rate)
    timeout.add_argument("--timeout", type=float, default=desk.timeout)
    paths_out.add_argument("--paths-out", help="dump the solution paths here")

    p = sub.add_parser("gen-instance", parents=[random_map], help="generate a solvable instance")
    p.add_argument("--map", help="MovingAI .map file (omit to generate a random map)")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--out", required=True, help="scenario output path")
    p.add_argument("--map-out", help="write the (generated) map here")
    p.add_argument("--meta-out", help="write the reproducibility sidecar here")
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("solve-hca", parents=[files, timeout, paths_out],
                       help="prioritized planning baseline")
    p.add_argument("--order", help="comma-separated agent ids (default: random order)")
    p.add_argument("--order-seed", type=int, default=desk.seed)
    p.set_defaults(func=_cmd_solve_hca)

    p = sub.add_parser("solve-variant", parents=[files, data_rate, timeout, paths_out],
                       help="iterated independent-set planner")
    p.set_defaults(func=_cmd_solve_variant)

    # dest names are BenchConfig's field names, so _cmd_bench builds it by name
    p = sub.add_parser("bench", parents=[random_map, data_rate, timeout],
                       help="paired benchmark over generated instances")
    p.add_argument("--map", dest="map_file", metavar="MAP",
                   help="fixed map file (default: fresh random map per instance)")
    p.add_argument("--agents", dest="n_agents", metavar="AGENTS", type=int, default=desk.n_agents)
    p.add_argument("--instances", dest="n_instances", metavar="INSTANCES", type=int,
                   default=desk.n_instances)
    p.add_argument("--csv", help="write per-instance records here")
    p.add_argument("--plot-data", help="write plot series here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", parents=[files],
                       help="check a scenario (and optionally a solution)")
    p.add_argument("--paths", help="solution paths file from --paths-out")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every format and instance error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolveFailure as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
