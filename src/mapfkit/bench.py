"""Benchmark harness: paired solves over generated instances, ratio
statistics, and CSV / plot-data emission.

Each instance is solved by both planners; ratios are variant over baseline.
All randomness derives from one master seed, so a fixed configuration
reproduces identical records except for the wall-clock columns. Failed pairs
stay in the record list with a failure status and are excluded from the
ratio statistics.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .comm import DEFAULT_DATA_RATE, check_data_rate, comm_time, speedup
from .grid import generate_random_map, parse_movingai_map
from .instances import GenerationError, generate_instance
from .solver import (
    DEFAULT_TIMEOUT, ProblemInstance, SolveFailure, check_timeout, solve_hca, solve_variant,
)


@dataclass
class BenchmarkRecord:
    """One paired solve. Both wall times are set whenever the planners ran;
    ratio fields need both planners to succeed, and ``variant_ideal_seconds``
    and the ``comm_*`` fields need the variant to succeed (else None).

    A cost ratio of two zero-cost plans (every agent starts on its goal, or
    there are no agents) reads 1.0. A time ratio or ``speedup`` whose
    denominator is zero reads None; a 0-agent instance runs no variant
    round, so its ideal variant time is 0 and its ``speedup`` is None."""

    instance_id: int
    status: str  # ok | hca_failed | variant_failed | both_failed | generation_failed
    n_agents: int
    iterations: int | None = None
    hca_sum_of_costs: int | None = None
    hca_makespan: int | None = None
    variant_sum_of_costs: int | None = None
    variant_makespan: int | None = None
    comm_bits: int | None = None
    comm_seconds: float | None = None
    sum_of_costs_ratio: float | None = None
    makespan_ratio: float | None = None
    hca_seconds: float | None = None
    variant_wall_seconds: float | None = None
    variant_ideal_seconds: float | None = None
    time_ratio_measured: float | None = None
    time_ratio_ideal: float | None = None
    speedup: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRecord))
_INT_COLUMNS = frozenset(
    name for name, f in zip(CSV_COLUMNS, fields(BenchmarkRecord)) if "int" in str(f.type)
)
# Columns derived from wall-clock measurement; everything else is
# deterministic for a fixed seed.
WALL_TIME_COLUMNS = frozenset(
    {
        "hca_seconds",
        "variant_wall_seconds",
        "variant_ideal_seconds",
        "time_ratio_measured",
        "time_ratio_ideal",
        "speedup",
    }
)

RATIO_COLUMNS = (
    "sum_of_costs_ratio",
    "makespan_ratio",
    "time_ratio_measured",
    "time_ratio_ideal",
    "speedup",
)

PLOT_SERIES = ("sum_of_costs_ratio", "makespan_ratio", "time_ratio_measured")


def compare(
    instance: ProblemInstance,
    order,
    timeout: float = DEFAULT_TIMEOUT,
    instance_id: int = 0,
    data_rate: float = DEFAULT_DATA_RATE,
) -> BenchmarkRecord:
    """Run both planners on one instance and compute variant/baseline
    ratios; a failing planner yields a failure status instead of ratios.
    Both planners are timed from outside; bits are priced at ``data_rate``.

    A ``data_rate`` that is not positive and finite, or a ``timeout`` that is
    not positive, raises ValueError before either planner searches: a bad
    setting is an error, never a failure status."""
    check_data_rate(data_rate)
    record = BenchmarkRecord(instance_id=instance_id, status="ok", n_agents=instance.n_agents)

    t0 = time.perf_counter()
    try:
        hca = solve_hca(instance, order, timeout)
    except SolveFailure:
        hca = None
    record.hca_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        variant, trace = solve_variant(instance, timeout)
    except SolveFailure:
        variant, trace = None, None
    record.variant_wall_seconds = time.perf_counter() - t0

    if hca is not None:
        record.hca_sum_of_costs = hca.sum_of_costs
        record.hca_makespan = hca.makespan
    if variant is not None:
        record.variant_sum_of_costs = variant.sum_of_costs
        record.variant_makespan = variant.makespan
        record.iterations = trace.n_iterations
        record.comm_bits = trace.ledger.total_bits()
        record.comm_seconds = comm_time(trace.ledger, data_rate)
        record.variant_ideal_seconds = trace.ideal_parallel_seconds
    if hca is None and variant is None:
        record.status = "both_failed"
    elif hca is None:
        record.status = "hca_failed"
    elif variant is None:
        record.status = "variant_failed"
    else:
        # A zero baseline cost means every agent starts on its goal, and so
        # the variant's cost is 0 too: 0/0 reads 1.0.
        soc, span = hca.sum_of_costs, hca.makespan
        record.sum_of_costs_ratio = variant.sum_of_costs / soc if soc else 1.0
        record.makespan_ratio = variant.makespan / span if span else 1.0
        if record.hca_seconds > 0:
            record.time_ratio_measured = record.variant_wall_seconds / record.hca_seconds
            record.time_ratio_ideal = record.variant_ideal_seconds / record.hca_seconds
            if record.variant_ideal_seconds > 0:
                record.speedup = speedup(
                    record.hca_seconds, record.variant_ideal_seconds, record.comm_seconds
                )
    return record


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run. With ``map_file`` unset, a fresh random map is
    generated per instance; otherwise the named map is reused throughout.
    The field defaults are the desk scale, and the command line's too."""

    n_agents: int = 16
    n_instances: int = 30
    seed: int = 0
    width: int = 50
    height: int = 50
    p_obstacle: float = 0.1
    map_file: str | None = None
    data_rate: float = DEFAULT_DATA_RATE
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.n_instances < 0:
            raise ValueError(f"instance count must be nonnegative, got {self.n_instances}")
        check_data_rate(self.data_rate)
        check_timeout(self.timeout)


@dataclass(frozen=True)
class ColumnStats:
    avg: float
    min: float
    max: float
    median: float


@dataclass(frozen=True)
class SummaryStats:
    """Per-ratio-column statistics over the successful pairs only."""

    columns: dict[str, ColumnStats] = field(default_factory=dict)
    successes: int = 0
    failures: int = 0


def summarize(records) -> SummaryStats:
    ok = [r for r in records if r.ok]
    columns = {}
    for name in RATIO_COLUMNS:
        values = [getattr(r, name) for r in ok if getattr(r, name) is not None]
        if values:
            columns[name] = ColumnStats(
                statistics.fmean(values), min(values), max(values), statistics.median(values)
            )
    return SummaryStats(columns, len(ok), len(records) - len(ok))


def run_benchmark(cfg: BenchConfig) -> tuple[list[BenchmarkRecord], SummaryStats]:
    """Generate, solve and score ``cfg.n_instances`` paired instances.

    The baseline gets a fresh random priority order per instance. Map,
    instance and order seeds are all spawned from ``cfg.seed``.
    """
    master = np.random.SeedSequence(cfg.seed)
    children = master.spawn(cfg.n_instances)
    base_grid = (
        parse_movingai_map(Path(cfg.map_file).read_text()) if cfg.map_file else None
    )
    records: list[BenchmarkRecord] = []
    for i, child in enumerate(children):
        map_ss, inst_ss, order_ss = child.spawn(3)
        grid = (
            base_grid
            if base_grid is not None
            else generate_random_map(cfg.width, cfg.height, cfg.p_obstacle, map_ss)
        )
        try:
            instance = generate_instance(grid, cfg.n_agents, inst_ss)
        except GenerationError:
            records.append(
                BenchmarkRecord(instance_id=i, status="generation_failed", n_agents=cfg.n_agents)
            )
            continue
        order = [int(a) for a in np.random.default_rng(order_ss).permutation(cfg.n_agents)]
        records.append(compare(instance, order, cfg.timeout, i, cfg.data_rate))
    return records, summarize(records)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def emit_csv(records) -> str:
    """Stable-column CSV, one row per record; floats round-trip exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_format_field(getattr(r, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def parse_csv(text: str) -> list[BenchmarkRecord]:
    """Inverse of ``emit_csv``."""
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != CSV_COLUMNS:
        raise ValueError("unrecognized benchmark CSV header")
    records = []
    for row in reader:
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(
                f"line {reader.line_num}: {len(row)} fields, expected {len(CSV_COLUMNS)}"
            )
        kwargs = {}
        for name, cell in zip(CSV_COLUMNS, row):
            if cell == "":
                kwargs[name] = None
            elif name == "status":
                kwargs[name] = cell
            elif name in _INT_COLUMNS:
                kwargs[name] = int(cell)
            else:
                kwargs[name] = float(cell)
        records.append(BenchmarkRecord(**kwargs))
    return records


def emit_plot_data(records) -> str:
    """Plot-ready series, one block per ratio metric: ``instance_id value``
    rows under a ``# series:`` header, blocks separated by blank lines."""
    ok = [r for r in records if r.ok]
    out = []
    for name in PLOT_SERIES:
        out.append(f"# series: {name}")
        for r in ok:
            out.append(f"{r.instance_id} {repr(getattr(r, name))}")
        out.append("")
    return "\n".join(out)
