"""Analytical communication accounting for the distributed solve.

Nothing is transmitted; these are exact bit counts over a solve trace: the
per-round source/goal broadcast, candidate-path uploads (segment encoding),
collision-pair reports, and the final reservation-table broadcast, converted
to seconds at a given data rate. The default rate reads "10 MBps" as
10 megabytes per second, i.e. 8e7 bits per second.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .codec import ceil_log2, path_bits

DEFAULT_DATA_RATE = 8e7  # bits per second


def check_data_rate(rate: float) -> float:
    """``rate`` in bits per second; ValueError unless it is positive and finite."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"data rate must be positive and finite, got {rate}")
    return rate


@dataclass(frozen=True)
class IterationComm:
    """Bits communicated during one solve round."""

    source_goal_bits: int
    path_bits: int
    ig_bits: int

    @property
    def total_bits(self) -> int:
        return self.source_goal_bits + self.path_bits + self.ig_bits


@dataclass
class CommLedger:
    """Per-round bit entries plus the final reservation-table broadcast."""

    iterations: list[IterationComm] = field(default_factory=list)
    rt_bits: int = 0

    def total_bits(self) -> int:
        return self.rt_bits + sum(it.total_bits for it in self.iterations)


def source_goal_bits(n_agents: int, map_side: int) -> int:
    """Bits to broadcast source and goal coordinates for ``n_agents``."""
    if n_agents < 0:
        raise ValueError("agent count must be nonnegative")
    if n_agents == 0:
        return 0
    return 2 * n_agents * ceil_log2(map_side)


def iteration_path_bits(segment_lists: Iterable, n_agents: int, map_side: int) -> int:
    """Bits for every pending agent to upload its candidate path, one encoded
    segment per per-partition subpath: ``path_bits`` of all the lists'
    segments in one call."""
    return path_bits(itertools.chain.from_iterable(segment_lists), n_agents, map_side)


def intersection_graph_bits(pair_counts: Iterable[int], n_agents: int) -> int:
    """Bits to report collision pairs: two agent ids per observed
    intersection, summed over reporters."""
    return 2 * ceil_log2(n_agents) * sum(pair_counts)


def comm_time(ledger: CommLedger, data_rate: float = DEFAULT_DATA_RATE) -> float:
    """Seconds to move the ledger's bits at ``data_rate`` bits per second."""
    return ledger.total_bits() / check_data_rate(data_rate)


def speedup(baseline_seconds: float, variant_seconds: float, comm_seconds: float) -> float:
    """Baseline compute time over variant compute-plus-communication time;
    values below 1.0 mean the parallel variant loses at this data rate."""
    if baseline_seconds <= 0 or variant_seconds <= 0 or comm_seconds < 0:
        raise ValueError("times must be positive (communication may be zero)")
    return baseline_seconds / (variant_seconds + comm_seconds)
