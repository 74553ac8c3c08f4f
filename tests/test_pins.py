"""``.github/pins.py``'s ``check`` on synthetic run outputs, so that no
benchmark runs here."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mapfkit.bench import CSV_COLUMNS, WALL_TIME_COLUMNS

path = Path(__file__).resolve().parents[1] / ".github" / "pins.py"
spec = importlib.util.spec_from_file_location("pins", path)
pins = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pins)

PIN = pins.Pin(
    "desk", 1, 1, "0123456789abcdef", 2,
    counters={"search.calls": 10, "indset.fixed_ratio": 0.5},
    nonzero=("indset.s",),
    ceilings={"peak_rss_mb": 70},
)
METRICS = {"search.calls": 10, "indset.fixed_ratio": 0.5, "indset.s": 0.01, "peak_rss_mb": 69.5}


def run_output(digest=PIN.digest, failed=PIN.failed, correct=True, **changed):
    """What ``perfbench/run.py`` prints: a digest line, a count line and a
    final JSON line, with ``changed`` metrics over ``METRICS``; a metric
    given as None is left out."""
    metrics = {n: v for n, v in {**METRICS, **changed}.items() if v is not None}
    return "\n".join([
        f"workload desk  seed 1  instances 60  digest {digest}",
        f"attempted 180  failed {failed}  timeouts 0",
        json.dumps({
            "correct": correct,
            "attempted": 180,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": "count"} for n, v in metrics.items()},
        }),
    ])


def test_unchanged_output_passes():
    assert pins.check(PIN, run_output()) == []


@pytest.mark.parametrize("output, message", [
    (run_output(digest="fedcba9876543210"), "digest fedcba9876543210, pinned 0123456789abcdef"),
    (run_output(failed=3), "failed 3, pinned 2"),
    (run_output(**{"search.calls": 11}), "search.calls 11, pinned 10"),
    (run_output(**{"indset.fixed_ratio": 0.5000001}), "indset.fixed_ratio 0.5000001, pinned 0.5"),
    (run_output(**{"indset.s": 0}), "indset.s 0, must be nonzero"),
    (run_output(**{"peak_rss_mb": 70.5}), "peak_rss_mb 70.5, at most 70"),
    (run_output(correct=False), "the run's own checks did not pass"),
])
def test_each_changed_value_gives_one_message(output, message):
    assert pins.check(PIN, output) == [message]


@pytest.mark.parametrize("name, message", [
    ("search.calls", "search.calls missing, pinned 10"),
    ("indset.s", "indset.s missing, must be nonzero"),
    ("peak_rss_mb", "peak_rss_mb missing, at most 70"),
])
def test_missing_metric_fails_its_pin(name, message):
    assert pins.check(PIN, run_output(**{name: None})) == [message]


def test_ceiling_is_inclusive():
    assert pins.check(PIN, run_output(**{"peak_rss_mb": 70})) == []


def test_every_mismatch_reported():
    output = run_output(digest="fedcba9876543210", failed=0, **{"search.calls": 9, "indset.s": 0})
    assert len(pins.check(PIN, output)) == 4


def test_output_without_result_fails_every_pin():
    # a run that crashed before its last line prints no digest and no JSON
    problems = pins.check(PIN, "Traceback (most recent call last):")
    assert problems[:3] == [
        "digest None, pinned 0123456789abcdef",
        "the run's own checks did not pass",
        "failed None, pinned 2",
    ]
    assert len(problems) == 3 + len(PIN.counters) + len(PIN.nonzero) + len(PIN.ceilings)


def bench_csv(statuses, seconds="0.5"):
    """A ``mapfkit bench`` CSV with one record per status; every wall-time
    column reads ``seconds`` and every other column its own name."""
    rows = [
        [status if name == "status" else seconds if name in WALL_TIME_COLUMNS else name
         for name in CSV_COLUMNS]
        for status in statuses
    ]
    return "".join(",".join(row) + "\n" for row in [CSV_COLUMNS, *rows])


class TestBenchCsv:
    def test_digest_skips_wall_time_and_counts_failures(self):
        digest, _ = pins.csv_result(bench_csv(["ok", "failed"]))
        pin = pins.Pin("bench", 7, 0, digest, 1)
        assert pins.check(pin, bench_csv(["ok", "failed"], seconds="2.25")) == []
        assert pins.check(pin, bench_csv(["ok", "timeout"])) == [
            f"digest {pins.csv_result(bench_csv(['ok', 'timeout']))[0]}, pinned {digest}"
        ]
        assert pins.check(pin, bench_csv(["ok", "ok"]))[1] == "failed 0, pinned 1"

    def test_missing_csv_fails(self):
        pin = pins.Pin("bench", 7, 0, pins.csv_result(bench_csv(["ok"]))[0], 0)
        assert len(pins.check(pin, "")) == 1

