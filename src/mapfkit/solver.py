"""Two planners over the same search core, and the one conflict pipeline.

``solve_hca`` is classic prioritized planning: agents plan one at a time in a
user-supplied priority order, each against the reservations of its
predecessors. ``solve_variant`` needs no priority order: every unfixed agent
plans simultaneously against the current reservations, the candidate paths
go through the one conflict pipeline, ``partition_conflict_reports``, an
independent set of the merged collision graph is fixed, and the rest
replan. Both planners share the reservation semantics (including indefinite
goal stays), so their costs are directly comparable.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from .codec import path_bits
from .comm import (
    CommLedger,
    IterationComm,
    intersection_graph_bits,
    iteration_path_bits,
    source_goal_bits,
)
from .conflicts import (
    ConflictReport,
    IntersectionGraph,
    SubpathSegment,
    detect_conflicts_in_partition,
    split_path,
)
from .grid import Coord, GridMap, Partitioning
from .indset import independent_set
from .search import (
    ReservationTable,
    ReverseResumableAStar,
    TimedPath,
    space_time_astar,
)

# Restarts after a SolveFailure, each with the failed agent promoted.
MAX_RESTARTS = 3
# Seconds one solve may take, over all its attempts, unless told otherwise.
DEFAULT_TIMEOUT = 60.0


class InvalidInstanceError(ValueError):
    """A problem instance violates its structural invariants."""


class SolveFailure(RuntimeError):
    """A planner could not complete; ``agent`` names the blocked agent."""

    def __init__(self, message: str, agent: int):
        super().__init__(message)
        self.agent = agent


class SolveTimeout(SolveFailure):
    pass


class _Unreachable(SolveFailure):
    """A search failed against an empty reservation table, so no restart
    can change its outcome."""


@dataclass(frozen=True)
class ProblemInstance:
    """A map plus per-agent (source, goal) pairs, indexed by agent id."""

    grid: GridMap
    agents: tuple[tuple[Coord, Coord], ...]
    metadata: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        """Every instance is valid once built: its endpoints are free cells
        and its sources, like its goals, are pairwise distinct. Anything
        else raises InvalidInstanceError. Reachability is ``validate``'s."""
        agents = tuple((tuple(s), tuple(g)) for s, g in self.agents)
        object.__setattr__(self, "agents", agents)
        for i, (s, g) in enumerate(agents):
            if not self.grid.is_free(s):
                raise InvalidInstanceError(f"agent {i} source {s} blocked or out of bounds")
            if not self.grid.is_free(g):
                raise InvalidInstanceError(f"agent {i} goal {g} blocked or out of bounds")
        if len({s for s, _ in agents}) != len(agents):
            raise InvalidInstanceError("sources must be pairwise distinct")
        if len({g for _, g in agents}) != len(agents):
            raise InvalidInstanceError("goals must be pairwise distinct")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def validate(self) -> None:
        """Raise InvalidInstanceError unless every goal is reachable from
        its source.

        The 4-connected component of each source is labelled with one flood
        over flat cell ids, the first time a source in it comes up. The
        labels are not kept on the map: callers hold many maps alive at
        once."""
        grid = self.grid
        table = grid.neighbor_table
        label = [-1] * len(table)
        for i, (s, g) in enumerate(self.agents):
            src = grid.cell_id(s)
            if label[src] < 0:
                label[src] = i
                frontier = [src]
                while frontier:
                    for nb in table[frontier.pop()]:
                        if label[nb] < 0:
                            label[nb] = i
                            frontier.append(nb)
            if label[grid.cell_id(g)] != label[src]:
                raise InvalidInstanceError(f"agent {i} goal {g} unreachable from {s}")


@dataclass(frozen=True)
class Solution:
    """Per-agent paths; the two standard cost totals are read off them."""

    paths: dict[int, TimedPath]

    @property
    def sum_of_costs(self) -> int:
        return sum(p.cost for p in self.paths.values())

    @property
    def makespan(self) -> int:
        return max((p.cost for p in self.paths.values()), default=0)


@dataclass
class IterationRecord:
    """Everything one solve round produced, enough to re-derive the
    idealized parallel time; the round's bits are the matching entry of
    ``SolveTrace.ledger.iterations``. The round's pending agents are
    ``ig.nodes``. Its per-partition pair counts are not kept: they were
    sent as the entry's ``ig_bits``, and ``partition_conflict_reports`` of
    ``candidate_paths`` reproduces them."""

    candidate_paths: dict[int, TimedPath]
    ig: IntersectionGraph
    independent: tuple[int, ...]
    search_seconds: dict[int, float]
    split_seconds: dict[int, float]
    detect_seconds: dict[int, float]
    server_seconds: float

    @property
    def parallel_seconds(self) -> float:
        """Round latency under ideal parallelism: the slowest agent's search
        plus the split of its own path, then the slowest partition check,
        then the serial server work."""
        slowest_agent = max(
            (s + self.split_seconds[a] for a, s in self.search_seconds.items()), default=0.0
        )
        slowest_detect = max(self.detect_seconds.values(), default=0.0)
        return slowest_agent + slowest_detect + self.server_seconds


@dataclass
class SolveTrace:
    """The variant's rounds and bits; callers time ``solve_variant`` themselves.

    A restarted solve keeps the completed rounds of every failed attempt:
    their searches ran and their bits were sent, so the ideal time and the
    ledger count them. The round in which a search fails is not recorded:
    its searches, the failed one included, show only in the caller's wall
    time, and neither the ideal time nor the ledger counts them. A
    restart's round one reuses the first attempt's candidates and graph, so
    it runs no search, no split and no partition check, and sends nothing
    that the server does not hold already. Its record has no search, split
    or detect seconds, only its own server step, and its ledger entry is
    ``IterationComm(0, 0, 0)``.
    """

    iterations: list[IterationRecord] = field(default_factory=list)
    ledger: CommLedger = field(default_factory=CommLedger)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def ideal_parallel_seconds(self) -> float:
        return sum(r.parallel_seconds for r in self.iterations)


def partition_conflict_reports(
    paths: Iterable[TimedPath], part: Partitioning
) -> tuple[
    dict[int, list[SubpathSegment]], dict[int, ConflictReport], dict[int, float], dict[int, float]
]:
    """A round's conflict step: split every path over ``part``, group the
    segments by partition, and check each partition that holds one. Returns
    the segments by partition (every path's segments, each once, in path
    order within a partition), the reports by increasing partition id, the
    seconds of each agent's split, and each check's own seconds. The
    ``conflicts`` primitives are called through this module's names."""
    by_partition: dict[int, list[SubpathSegment]] = {}
    split_seconds: dict[int, float] = {}
    for path in paths:
        t0 = time.perf_counter()
        segments = split_path(path, part)
        split_seconds[path.agent] = time.perf_counter() - t0
        for seg in segments:
            by_partition.setdefault(seg.partition, []).append(seg)
    reports: dict[int, ConflictReport] = {}
    detect_seconds: dict[int, float] = {}
    for pid in sorted(by_partition):
        t0 = time.perf_counter()
        reports[pid] = detect_conflicts_in_partition(by_partition[pid])
        detect_seconds[pid] = time.perf_counter() - t0
    return by_partition, reports, split_seconds, detect_seconds


def _merge(nodes: Iterable[int], reports: dict[int, ConflictReport]) -> IntersectionGraph:
    return IntersectionGraph(tuple(nodes), frozenset().union(*(r.pairs for r in reports.values())))


def build_intersection_graph(paths: Iterable[TimedPath], part: Partitioning) -> IntersectionGraph:
    """Assemble the collision graph from the partition-local reports; the
    edge set equals what an all-pairs whole-path comparison would find."""
    paths = list(paths)
    return _merge(sorted(p.agent for p in paths), partition_conflict_reports(paths, part)[1])


def _planner(instance: ProblemInstance, timeout: float):
    """One solve's ``plan(agent, rt)``: the one step both planners take per
    agent, its path against ``rt``. The budget starts now, and each agent's
    distance heuristic is built once, here, for every attempt. SolveTimeout
    or SolveFailure names ``agent`` when the deadline passes, before the
    search or inside it, or when the search comes back empty; an empty
    search against an empty table is final (see ``_with_restarts``)."""
    deadline = time.perf_counter() + timeout
    heuristics = [ReverseResumableAStar(instance.grid, goal) for _, goal in instance.agents]

    def plan(agent: int, rt: ReservationTable) -> TimedPath:
        if time.perf_counter() > deadline:
            raise SolveTimeout(f"timed out after {timeout} s", agent=agent)
        src = instance.agents[agent][0]
        try:
            path = space_time_astar(heuristics[agent], src, rt, agent=agent, deadline=deadline)
        except TimeoutError:
            raise SolveTimeout(f"timed out after {timeout} s", agent=agent) from None
        if path is None:
            failure = _Unreachable if not rt.vertices else SolveFailure
            raise failure(f"no feasible path for agent {agent}", agent=agent)
        return path

    return plan


def check_timeout(timeout: float) -> None:
    """ValueError unless a budget in seconds is positive: one at or below 0
    is spent before it starts, and every deadline comparison would pass a
    NaN one."""
    if not timeout > 0:
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout}")


def _with_restarts(attempt):
    """Call ``attempt(promoted)`` until it returns, at most
    ``MAX_RESTARTS + 1`` times. ``promoted`` lists the agents that failed so
    far, newest first, each once; the first call gets none. SolveTimeout is
    never retried, and neither is a search that failed against an empty
    table: every attempt would repeat it. When the attempts end in failure,
    the first attempt's failure is raised."""
    promoted: list[int] = []
    first = None
    for _ in range(MAX_RESTARTS + 1):
        try:
            return attempt(promoted)
        except SolveTimeout:
            raise
        except SolveFailure as exc:
            # without its traceback, the failure does not keep the failed
            # attempt's frames, and their reservation table, alive
            first = first or exc.with_traceback(None)
            if isinstance(exc, _Unreachable):
                break
            promoted = [exc.agent] + [a for a in promoted if a != exc.agent]
    raise first


def solve_hca(instance: ProblemInstance, order, timeout: float = DEFAULT_TIMEOUT) -> Solution:
    """Prioritized planning: plan agents one at a time in ``order``, each
    against the reservations of its predecessors.

    Incomplete by nature. ``order`` is the first attempt's order. When an
    agent's search comes back empty, the solve restarts from an empty table
    with that agent moved to the front (Andreychuk & Yakovlev, AAMAS 2018),
    at most ``MAX_RESTARTS`` times, and each agent's distance heuristic is
    built once and kept across attempts. No restart follows a search that
    failed against the empty table, since it would fail again. If the
    attempts fail, SolveFailure names the first agent that failed under
    ``order``. One budget covers every attempt, and it is checked before
    each search and inside it: once ``timeout`` seconds have passed,
    SolveTimeout names the agent about to be searched, or the one whose
    search was cut. A ``timeout`` that is not positive, NaN included, raises
    ValueError before anything is searched (``check_timeout``).

    Order ids must be integers, NumPy's included; any other id, such as
    the float 0.7, raises TypeError instead of being truncated.
    """
    check_timeout(timeout)
    order = [operator.index(a) for a in order]
    if sorted(order) != list(range(instance.n_agents)):
        raise ValueError("order must be a permutation of agent ids")
    plan = _planner(instance, timeout)

    def attempt(promoted: list[int]) -> Solution:
        rt = ReservationTable(instance.grid)
        paths: dict[int, TimedPath] = {}
        for agent in promoted + [a for a in order if a not in promoted]:
            path = plan(agent, rt)
            rt.insert_path(path)
            paths[agent] = path
        return Solution(paths)

    return _with_restarts(attempt)


def solve_variant(
    instance: ProblemInstance, timeout: float = DEFAULT_TIMEOUT
) -> tuple[Solution, SolveTrace]:
    """Iterated independent-set planning (no priority order needed).

    Each round: every pending agent plans against the current reservations
    (round one degenerates to plain shortest paths),
    ``partition_conflict_reports`` splits the paths over one map partition per
    agent and checks each partition, an independent set of the merged collision
    graph is fixed into the reservation table, and the remaining agents replan.
    At least one agent is fixed per round, so at most ``n_agents`` rounds run.

    A failed search ends the attempt, and the solve restarts from an empty
    table, at most ``MAX_RESTARTS`` times, with the failed agents promoted:
    each round fixes its pending promoted agents first, newest first, while
    they stay independent (see ``independent_set``). A failed search
    against the empty table ends the solve at once, as in ``solve_hca``. A
    restart reuses the first attempt's round one, which started from an
    empty table too (see ``SolveTrace``). If the attempts fail,
    SolveFailure names the agent that failed first. One budget covers every
    attempt, checked as in ``solve_hca``: SolveTimeout names the agent about
    to be searched, or the one whose search was cut. A ``timeout`` that is
    not positive raises ValueError before anything is searched, as there.

    The searches, the splits of each agent's own path and the partition
    checks of a round are independent, so the round's ideal parallel
    latency is built from their times (see
    ``IterationRecord.parallel_seconds``). They run one after another, each
    timed on its own with nothing contending.
    """
    check_timeout(timeout)
    grid = instance.grid
    trace = SolveTrace()
    if instance.n_agents == 0:
        return Solution({}), trace

    part = Partitioning.for_map(grid, instance.n_agents)
    grid.neighbor_table  # build it now, outside the first agent's timed search
    plan = _planner(instance, timeout)
    solution = _with_restarts(
        lambda promoted: _variant_attempt(instance, part, plan, promoted, trace)
    )
    return solution, trace


def _variant_attempt(
    instance: ProblemInstance, part: Partitioning, plan, promoted: list[int], trace: SolveTrace
) -> Solution:
    """One attempt of ``solve_variant`` with its ``_planner``, from an empty
    table; its rounds are appended to ``trace``, whose first round, if any,
    is reused."""
    grid = instance.grid
    n = instance.n_agents
    map_side = max(grid.width, grid.height)
    rt = ReservationTable(grid)
    pending = list(range(n))
    fixed: dict[int, TimedPath] = {}
    while pending:
        search_seconds: dict[int, float] = {}
        if trace.iterations and not fixed:
            # a restart's round one: the first attempt's candidates and graph
            first = trace.iterations[0]
            candidates, ig = first.candidate_paths, first.ig
            split_seconds: dict[int, float] = {}
            detect_seconds: dict[int, float] = {}
            comm_entry = IterationComm(0, 0, 0)
            server0 = time.perf_counter()
        else:
            candidates = {}
            for agent in pending:
                t0 = time.perf_counter()
                candidates[agent] = plan(agent, rt)
                search_seconds[agent] = time.perf_counter() - t0

            segments, reports, split_seconds, detect_seconds = partition_conflict_reports(
                candidates.values(), part
            )

            server0 = time.perf_counter()
            ig = _merge(pending, reports)
            comm_entry = IterationComm(
                source_goal_bits=source_goal_bits(len(pending), map_side),
                path_bits=iteration_path_bits(segments.values(), n, map_side),
                ig_bits=intersection_graph_bits([r.count for r in reports.values()], n),
            )
        chosen = tuple(sorted(independent_set(ig, promoted)))
        for a in chosen:
            rt.insert_path(candidates[a])
            fixed[a] = candidates[a]
        server_seconds = time.perf_counter() - server0

        trace.iterations.append(
            IterationRecord(
                candidate_paths=candidates,
                ig=ig,
                independent=chosen,
                search_seconds=search_seconds,
                split_seconds=split_seconds,
                detect_seconds=detect_seconds,
                server_seconds=server_seconds,
            )
        )
        trace.ledger.iterations.append(comm_entry)
        chosen_set = set(chosen)
        pending = [a for a in pending if a not in chosen_set]

    # the final table goes out as one whole-path segment per agent
    trace.ledger.rt_bits = path_bits(
        [SubpathSegment(a, -1, p.states) for a, p in fixed.items()], n, map_side
    )
    return Solution(fixed)
