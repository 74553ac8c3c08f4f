"""Span tracing from outside the package.

``instrument`` swaps the public per-call functions and classes for traced
versions at the module names where their callers look them up, and puts the
originals back on exit. Per-cell queries such as
``ReverseResumableAStar.distance`` are deliberately left alone: they run
once per generated search node, so a wrapper would add its cost to every
node. Their work is read from the ``expanded`` counter instead.

Spans are kept in memory as ``[name, start, end, parent, instance]`` rows and
written out once at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import mapfkit.indset
import mapfkit.instances
import mapfkit.search
import mapfkit.solver

FIELDS = ("name", "start", "end", "parent", "instance")


class NoTracer:
    """Stand-in for untraced runs."""

    instance = -1

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._heuristics: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.instance]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                # Fold the settle counts of the heuristics built under this
                # root span into ``counts`` and release them.
                self.counts["search.heuristic_settles"] += sum(
                    h.expanded for h in self._heuristics
                )
                self._heuristics.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover. Tracing is
        single-threaded, so sibling spans never overlap."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def roots(self) -> list[str]:
        """Name of each span's outermost ancestor (parents precede children)."""
        roots: list[str] = []
        for name, _, _, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        return roots

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _traced(tracer: Tracer, fn, name: str, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Trace the package's per-call layer boundaries for the duration."""
    counts = tracer.counts

    def on_search(args, path):
        counts["search.calls"] += 1
        counts["search.failed_calls"] += path is None

    def on_split(args, segments):
        counts["conflicts.segments"] += len(segments)

    def on_detect(args, report):
        counts["conflicts.partitions_checked"] += 1
        counts["conflicts.pairs"] += report.count

    def on_indset(args, chosen):
        counts["indset.pending"] += len(args[0].nodes)
        counts["indset.fixed"] += len(chosen)

    def on_draw(args, path):
        counts["instances.draws"] += 1

    def traced_table(base):
        class TracedTable(base):
            def insert_path(self, path):
                with tracer.span("search.insert_path"):
                    return super().insert_path(path)

        return TracedTable

    def counted_heuristic(base):
        class CountedHeuristic(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._heuristics.append(self)

        return CountedHeuristic

    def counted_map(base):
        class CountedMap(base):
            def __post_init__(self):
                super().__post_init__()
                counts["grid.maps_built"] += 1

        return CountedMap

    patches = [
        (mapfkit.solver, "space_time_astar",
         lambda f: _traced(tracer, f, "search.space_time_astar", on_search)),
        (mapfkit.solver, "split_path",
         lambda f: _traced(tracer, f, "conflicts.split_path", on_split)),
        (mapfkit.solver, "detect_conflicts_in_partition",
         lambda f: _traced(tracer, f, "conflicts.detect_conflicts_in_partition", on_detect)),
        (mapfkit.solver, "independent_set",
         lambda f: _traced(tracer, f, "indset.independent_set", on_indset)),
        (mapfkit.solver, "iteration_path_bits",
         lambda f: _traced(tracer, f, "codec.iteration_path_bits")),
        (mapfkit.indset, "mis_exact", lambda f: _counted(tracer, f, "indset.exact_components")),
        (mapfkit.indset, "mis_greedy", lambda f: _counted(tracer, f, "indset.greedy_components")),
        (mapfkit.instances, "astar_static",
         lambda f: _traced(tracer, f, "instances.astar_static", on_draw)),
        (mapfkit.solver, "ReservationTable", traced_table),
        (mapfkit.solver, "ReverseResumableAStar", counted_heuristic),
        (mapfkit.search, "ReverseResumableAStar", counted_heuristic),
        (mapfkit.instances, "GridMap", counted_map),
    ]
    saved = []
    try:
        for module, attr, make in patches:
            # A name a later refactor removed is skipped; its counters read 0.
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, make(getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
