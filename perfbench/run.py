#!/usr/bin/env python3
"""mapfkit benchmark: closed-loop solves of procedurally generated instances.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

A run builds the workload's instances from ``--seed`` and solves them in a
single thread, one at a time, each with ``solve_hca`` and then
``solve_variant`` (default ``VariantConfig``); the next instance is built
only after the previous one is solved. Further passes over the instance set
repeat while ``--seconds`` allows, and every pass must reproduce the first
one exactly. Every returned solution is checked. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. The traced run also writes its spans to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TAIL_BEYOND = 10  # instances a tail percentile must leave beyond it


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def timeouts(results) -> int:
    return sum((r.hca_status == "timeout") + (r.variant_status == "timeout") for r in results)


def end_to_end(cases, passes, lbs) -> dict[str, tuple[float, str]]:
    first = passes[0]
    solved = [i for i, c in enumerate(cases) if c.instance is not None]
    hca_s = [median(p[i].hca_s for p in passes) for i in solved]
    variant_s = [median(p[i].variant_s for p in passes) for i in solved]
    ok_variant = [i for i in solved if first[i].variant_status == "ok"]
    ok_hca = [i for i in solved if first[i].hca_status == "ok"]
    attempted = sum(r.attempts for r in first)
    failed = sum(r.failures for r in first)
    return {
        "setup_s": (median(c.setup_s for c in cases), "s"),
        "hca_s.p50": (median(hca_s), "s"),
        "variant_s.p50": (median(variant_s), "s"),
        "variant_ideal_s.p50": (
            median(median(p[i].ideal_s for p in passes) for i in ok_variant), "s"
        ),
        "comm_bits.mean": (mean(sum(first[i].bits) for i in ok_variant), "bit"),
        "hca_cost_over_lb.mean": (mean(first[i].hca_cost / lbs[i] for i in ok_hca), "ratio"),
        "variant_cost_over_lb.mean": (
            mean(first[i].variant_cost / lbs[i] for i in ok_variant), "ratio"
        ),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_only(cases, passes) -> dict[str, tuple[float, str]]:
    """Figures printed beside the end-to-end metrics but too seed-dependent
    to bound: the tails sit where successful solves give way to failure
    floods on ``crowd``, and the throughput counts every flood."""
    solved = [i for i, c in enumerate(cases) if c.instance is not None]
    total = sum(p[i].hca_s + p[i].variant_s for p in passes for i in solved)
    out = {"solve_inst_per_s": (len(solved) * len(passes) / total if total else 0.0, "1/s")}
    if len(solved) > TAIL_BEYOND:
        # The highest percentile that leaves TAIL_BEYOND instances beyond it.
        k = len(solved) - TAIL_BEYOND - 1
        for name in ("hca_s", "variant_s"):
            values = sorted(median(getattr(p[i], name) for p in passes) for i in solved)
            out[f"{name}.p{100.0 * (k + 1) / len(values):.1f}"] = (values[k], "s")
    return out


def per_layer(tracer, traced, untraced, cases, overhead_s) -> dict[str, tuple[float, str]]:
    counts = tracer.counts
    selfs = tracer.self_times()
    roots = tracer.roots()
    spans = tracer.spans

    def self_s(name, root=None):
        return sum(
            st for row, st, r in zip(spans, selfs, roots)
            if row[0] == name and (root is None or r == root)
        )

    searches = [(row, r) for row, r in zip(spans, roots)
                if row[0] == "search.space_time_astar" and r.startswith("solver.")]
    variant_searches = sum(r == "solver.solve_variant" for _, r in searches)
    variant_agents = sum(c.instance.n_agents for c in cases if c.instance is not None)
    ok = [r for r in traced if r.variant_status == "ok"]
    both = [r for r in untraced if r.hca_status == "ok" and r.variant_status == "ok"]
    draws = counts["instances.draws"]
    placed = sum(c.placed for c in cases)
    pending = counts["indset.pending"]
    return {
        "grid.random_map_s": (self_s("grid.generate_random_map"), "s"),
        "grid.maps_built": (counts["grid.maps_built"], "count"),
        "instances.generate_s": (self_s("instances.generate_instance"), "s"),
        "instances.draw_s": (self_s("instances.astar_static"), "s"),
        "instances.draws": (draws, "count"),
        "instances.accept_ratio": (placed / draws if draws else 0.0, "ratio"),
        "search.hca_s": (self_s("search.space_time_astar", "solver.solve_hca"), "s"),
        "search.variant_s": (self_s("search.space_time_astar", "solver.solve_variant"), "s"),
        "search.max_call_s": (max((row[2] - row[1] for row, _ in searches), default=0.0), "s"),
        "search.calls": (counts["search.calls"], "count"),
        "search.failed_calls": (counts["search.failed_calls"], "count"),
        "search.heuristic_settles": (counts["search.heuristic_settles"], "count"),
        "search.rt_insert_s": (self_s("search.insert_path"), "s"),
        "conflicts.split_s": (self_s("conflicts.split_path"), "s"),
        "conflicts.segments": (counts["conflicts.segments"], "count"),
        "conflicts.detect_s": (self_s("conflicts.detect_conflicts_in_partition"), "s"),
        "conflicts.partitions_checked": (counts["conflicts.partitions_checked"], "count"),
        "conflicts.pairs": (counts["conflicts.pairs"], "count"),
        "indset.s": (self_s("indset.independent_set"), "s"),
        "indset.exact_components": (counts["indset.exact_components"], "count"),
        "indset.greedy_components": (counts["indset.greedy_components"], "count"),
        "indset.fixed_ratio": (counts["indset.fixed"] / pending if pending else 0.0, "ratio"),
        "solver.rounds.mean": (mean(r.rounds for r in ok), "count"),
        "solver.rounds.max": (max((r.rounds for r in ok), default=0), "count"),
        "solver.replan_ratio": (variant_searches / variant_agents if variant_agents else 0.0, "ratio"),
        "solver.server_s": (sum(r.server_s for r in ok), "s"),
        "solver.speedup.p50": (median(r.hca_s / (r.ideal_s + r.comm_s) for r in both), "ratio"),
        "solver.hca_failures": (sum(r.hca_status in ("failed", "timeout") for r in traced), "count"),
        "solver.variant_failures": (
            sum(r.variant_status in ("failed", "timeout") for r in traced), "count"
        ),
        "solver.timeouts": (timeouts(traced), "count"),
        "codec.path_bits_s": (self_s("codec.iteration_path_bits"), "s"),
        "comm.sg_bits": (sum(r.bits[0] for r in ok), "bit"),
        "comm.path_bits": (sum(r.bits[1] for r in ok), "bit"),
        "comm.ig_bits": (sum(r.bits[2] for r in ok), "bit"),
        "comm.rt_bits": (sum(r.bits[3] for r in ok), "bit"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="passes over the instances repeat while this budget allows (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mapfkit" / "__init__.py").is_file():
        print(f"error: mapfkit sources not found at {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # keep the workload process single-threaded
    sys.path.insert(0, str(SRC))
    from calibrate import REF_KERNEL_S, Calibrator, NoCalibrator
    from solving import compare_passes, digest, solve_case, solve_pass
    from tracing import NoTracer, Tracer, instrument
    from workloads import WORKLOADS, iter_cases, lower_bound

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    problems: list[str] = []
    untraced = NoTracer()
    # The traced run covers the first half of the instances, untraced and
    # then traced, so that it takes about as long as an untraced run.
    count = w.n_instances // 2 if args.trace else w.n_instances

    # Traced times stay in wall seconds, so that the traced and untraced
    # passes differ only by the tracing.
    clock = NoCalibrator() if args.trace else Calibrator()

    def first_pass(tracer):
        """Build and solve one instance after the other."""
        cases, results = [], []
        for case in iter_cases(w, args.seed, count, tracer, clock):
            cases.append(case)
            results.append(solve_case(case, tracer, clock, problems))
        return cases, results

    t0 = time.perf_counter()
    cases, first = first_pass(untraced)
    passes = [first]
    untraced_wall = time.perf_counter() - t0
    if args.trace:
        tracer = Tracer()
        traced0 = time.perf_counter()
        with instrument(tracer):
            traced_cases, traced = first_pass(tracer)
        overhead_s = time.perf_counter() - traced0 - untraced_wall
        compare_passes(first, traced, problems, "traced pass")
        metrics = per_layer(tracer, traced, first, traced_cases, overhead_s)
        span_file = HERE / "out" / f"spans-{w.name}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"{len(tracer.spans)} spans written to {span_file.relative_to(HERE.parent)}")
    else:
        setup_total = sum(c.setup_s for c in cases)
        # Another pass only if it is expected to end within the budget.
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed + (elapsed - setup_total) / len(passes) > args.seconds:
                break
            passes.append(solve_pass(cases, untraced, clock, problems))
            compare_passes(first, passes[-1], problems, f"pass {len(passes)}")
        measured = time.perf_counter() - t0
        lbs = [lower_bound(c.instance) if c.instance is not None else 0 for c in cases]
        metrics = end_to_end(cases, passes, lbs)
        print(f"{len(passes)} passes in {measured:.2f} s, set-up {setup_total:.2f} s of it")
        for name, (value, unit) in report_only(cases, passes).items():
            print(f"{name} {value} {unit} (not bounded)")
        q = statistics.quantiles(clock.readings, n=4)
        print(f"calibration kernel {len(clock.readings)} readings, quartiles "
              f"{q[0] * 1e3:.3f} {q[1] * 1e3:.3f} {q[2] * 1e3:.3f} ms; "
              f"reference {REF_KERNEL_S * 1e3:.3f} ms")

    attempted = sum(r.attempts for r in first)
    failed = sum(r.failures for r in first)
    print(f"workload {w.name}  seed {args.seed}  instances {len(cases)}  digest {digest(first)}")
    print(f"attempted {attempted}  failed {failed}  timeouts {timeouts(first)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
