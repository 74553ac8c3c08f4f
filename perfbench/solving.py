"""Solving one instance with both planners, checking what comes back, and
reducing it to a ``Result``.

Each planner call is timed from outside. A ``SolveFailure`` (including a
``SolveTimeout``) is a counted failure; any other exception propagates and
fails the run. Every returned solution is checked, and a wrong one makes the
run incorrect; it is never counted as a failure.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import mapfkit

# Well above the slowest solve on any workload (about 3 s), so the wall
# clock never decides a status.
TIMEOUT_S = 30.0


@dataclass
class Result:
    """One instance through both planners, reduced to what the metrics and
    the digest need."""

    index: int
    attempts: int
    failures: int
    hca_status: str  # ok | failed | timeout | skipped
    variant_status: str
    hca_s: float = 0.0
    variant_s: float = 0.0
    hca_cost: int = 0
    variant_cost: int = 0
    rounds: int = 0
    ideal_s: float = 0.0
    comm_s: float = 0.0
    server_s: float = 0.0
    bits: tuple[int, int, int, int] = (0, 0, 0, 0)  # source/goal, path, graph, table
    fingerprint: str = ""


def attempt(solve):
    """Run a planner call: (result, status, failing agent). Any exception
    other than the planner's own failure propagates and fails the run."""
    try:
        return solve(), "ok", None
    except mapfkit.SolveTimeout as exc:
        return None, "timeout", exc.agent
    except mapfkit.SolveFailure as exc:
        return None, "failed", exc.agent


def check_solution(solution, instance) -> list[str]:
    """Complete, starts at t=0, and valid under the package's validator."""
    problems = [f"agent {a} has no path" for a in range(instance.n_agents) if a not in solution.paths]
    for a, path in sorted(solution.paths.items()):
        if path.agent != a:
            problems.append(f"path under agent {a} belongs to agent {path.agent}")
        if path.start_time != 0:
            problems.append(f"agent {a} path starts at t={path.start_time}")
    problems += mapfkit.validate_solution(solution.paths, instance.grid, instance.agents)
    return problems


def check_wire(solution, trace, instance) -> list[str]:
    """Pack every final path as one whole-path segment and compare what the
    codec gives back, and its bit count, with the ledger's table broadcast."""
    n = instance.n_agents
    side = max(instance.grid.width, instance.grid.height)
    problems = []
    total = 0
    for a, path in sorted(solution.paths.items()):
        seg = mapfkit.SubpathSegment(a, 0, path.states)
        data = mapfkit.pack_segment(mapfkit.encode_segment(seg), n, side)
        back = mapfkit.decode_segment(mapfkit.unpack_segment(data, n, side))
        if back.states != path.states:
            problems.append(f"agent {a}: packed path does not decode to the same states")
        bits = mapfkit.path_bits([seg], n, side)  # segment_bits of the one segment
        if len(data) != -(-bits // 8):
            problems.append(f"agent {a}: {len(data)} bytes packed for {bits} bits")
        total += bits
    if total != trace.ledger.rt_bits:
        problems.append(f"ledger rt_bits {trace.ledger.rt_bits} != packed {total}")
    return problems


def _paths_key(solution):
    return tuple((a, p.states) for a, p in sorted(solution.paths.items()))


def solve_case(case, tracer, clock, problems: list[str]) -> Result:
    """Solve with both planners. The times are in the calibrated seconds of
    ``clock``, whose readings bracket each planner call."""
    instance = case.instance
    if instance is None:
        res = Result(case.index, 1, 1, "skipped", "skipped")
        res.fingerprint = repr((case.index, "generation_failed", case.placed))
        return res
    tracer.instance = case.index
    before = clock.last
    t0 = time.perf_counter()
    with tracer.span("solver.solve_hca"):
        hca, hca_status, hca_agent = attempt(
            lambda: mapfkit.solve_hca(instance, case.order, TIMEOUT_S)
        )
    hca_s = time.perf_counter() - t0
    hca_s *= clock.scale(before)
    before = clock.last
    t0 = time.perf_counter()
    with tracer.span("solver.solve_variant"):
        out, variant_status, variant_agent = attempt(
            lambda: mapfkit.solve_variant(instance, timeout=TIMEOUT_S)
        )
    variant_s = time.perf_counter() - t0
    variant_scale = clock.scale(before)

    res = Result(case.index, 3, 0, hca_status, variant_status, hca_s, variant_s * variant_scale)
    res.failures = (hca is None) + (out is None)
    found = []
    key = [case.index, hca_status, hca_agent, variant_status, variant_agent]
    if hca is not None:
        found += check_solution(hca, instance)
        res.hca_cost = hca.sum_of_costs
        key += [_paths_key(hca), hca.sum_of_costs, hca.makespan]
    if out is not None:
        solution, trace = out
        found += check_solution(solution, instance) + check_wire(solution, trace, instance)
        ledger = trace.ledger
        res.variant_cost = solution.sum_of_costs
        res.rounds = trace.n_iterations
        res.ideal_s = trace.ideal_parallel_seconds * variant_scale
        res.comm_s = mapfkit.comm_time(ledger)
        res.server_s = sum(r.server_seconds for r in trace.iterations)
        res.bits = (
            sum(it.source_goal_bits for it in ledger.iterations),
            sum(it.path_bits for it in ledger.iterations),
            sum(it.ig_bits for it in ledger.iterations),
            ledger.rt_bits,
        )
        key += [
            _paths_key(solution), solution.sum_of_costs, solution.makespan, trace.n_iterations,
            tuple((it.source_goal_bits, it.path_bits, it.ig_bits) for it in ledger.iterations),
            ledger.rt_bits,
        ]
    problems += [f"instance {case.index}: {p}" for p in found]
    res.fingerprint = hashlib.sha256(repr(key).encode()).hexdigest()
    return res


def solve_pass(cases, tracer, clock, problems) -> list[Result]:
    return [solve_case(c, tracer, clock, problems) for c in cases]


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.fingerprint.encode())
    return h.hexdigest()[:16]


def compare_passes(first, other, problems, label):
    for a, b in zip(first, other):
        if a.fingerprint != b.fingerprint:
            problems.append(f"instance {a.index}: {label} differs from the first pass")
