"""Run every pinned benchmark run of this checkout and check what it reads.

    python3 .github/pins.py    (no arguments)

Each row of ``PINS`` is one ``perfbench/run.py --seconds 1`` run, which
validates every solution, or (workload ``bench``) the README walk-through's
``mapfkit bench``. A row pins the run's digest of its instances and paths,
its exact ``failed`` count, and any exact counters, nonzero span times and
ceilings: ``perfbench/tracing.py`` skips a patch point that no longer exists,
so a refactor that moves one zeroes its figures and fails nothing else. Every
mismatch is printed, and the exit status is 1 if any run missed a pin. A
change that moves paths on purpose re-pins this table and tests/test_golden.py.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from mapfkit.bench import WALL_TIME_COLUMNS  # noqa: E402


@dataclass(frozen=True)
class Pin:
    workload: str
    seed: int
    trace: int
    digest: str
    failed: int
    counters: dict = field(default_factory=dict)  # exact values
    nonzero: tuple = ()  # span times that no counter guards
    ceilings: dict = field(default_factory=dict)  # upper bounds

    def __str__(self):
        return f"{self.workload} seed {self.seed}" + (" traced" if self.trace else "")


PINS = (
    # desk holds 120 50x50 maps; with neighbour tables patched from one
    # shared open-grid table it peaks near 50 MB, near 90 MB when every map
    # builds its own table
    Pin("desk", 1, 0, "c9f41ed3ee4896d8", 0, ceilings={"peak_rss_mb": 70}),
    # a second draw of generated instances, so a change that moves a path
    # only off seed 1 fails too
    Pin("desk", 104729, 0, "3466631985819bfc", 0),
    # crowd draws endpoints with no solvability guarantee, so this covers
    # the planners' restarts; without them 9 instances of seed 1 failed
    Pin("crowd", 1, 0, "45ff01ad9f75d2bc", 0),
    # holds the one instance whose variant solve cycles through all four
    # attempts, so every restart round passes promoted agents to
    # independent_set; that one failure is pinned
    Pin("crowd", 104729, 0, "5dc8718dcca1d2f0", 1),
    # 100x100 maps with 64 generated agents, where the distance heuristic
    # dominates the searches; every instance must solve
    Pin("table", 1, 0, "890947b68e28fd2c", 0),
    # the traced pass covers the first 50 instances, so a change to
    # splitting, detection, the choice of the fixed agents or the ledger
    # fails here even when no path moves. fixed_ratio counts every agent a
    # round fixes, promoted ones included, per agent pending. crowd builds
    # no generated instance, so grid.maps_built reads 0 and only desk pins it.
    # The settles fell from 636110 when a read-off's neighbour test came to
    # resume the heuristic only through the level that decides it
    Pin("crowd", 1, 1, "b21b162fbb877af9", 0, counters={
        "search.calls": 8815, "search.heuristic_settles": 620367,
        "conflicts.segments": 38825, "conflicts.partitions_checked": 9848,
        "conflicts.pairs": 8067, "indset.exact_components": 1166,
        "indset.greedy_components": 106, "indset.fixed_ratio": 0.5800102686975869,
        "comm.sg_bits": 55870, "comm.ig_bits": 96804, "comm.path_bits": 2092700,
        "comm.rt_bits": 230756,
    }, nonzero=("conflicts.split_s", "conflicts.detect_s", "indset.s",
                "codec.path_bits_s", "search.rt_insert_s")),
    # only desk reaches the instances.astar_static patch point; over the
    # first 60 instances a change that adds or drops a search or a draw, or
    # settles more cells, fails here. grid.maps_built reads one work map per
    # generated instance, so a return to one map per agent fails too. The
    # settles fell from 779422 when a read-off's neighbour test came to
    # resume the heuristic only through the level that decides it
    Pin("desk", 1, 1, "06b055ba807a902a", 0, counters={
        "search.calls": 2028, "search.heuristic_settles": 701435,
        "instances.draws": 962, "grid.maps_built": 60, "conflicts.segments": 3830,
        "conflicts.partitions_checked": 1313, "conflicts.pairs": 143,
        "indset.exact_components": 931, "indset.greedy_components": 0,
        "indset.fixed_ratio": 0.898876404494382, "comm.sg_bits": 12816,
        "comm.ig_bits": 1144, "comm.path_bits": 356579, "comm.rt_bits": 115431,
    }, nonzero=("instances.draw_s",)),
    # the end-to-end run: its CSV outside the wall-time columns holds every
    # record's status, costs, rounds and bits
    Pin("bench", 7, 0, "4b0ca3c599d44017", 0),
)


def csv_result(csv_text):
    """A ``mapfkit bench`` CSV's digest, the first 16 hex digits of the
    SHA-256 of its rows outside ``WALL_TIME_COLUMNS``, and a result that
    counts the records whose status is not ok as failed."""
    rows = [line.split(",") for line in csv_text.splitlines()] or [[]]
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_TIME_COLUMNS]
    kept = "\n".join(",".join(row[i] for i in keep) for row in rows)
    failed = sum(dict(zip(rows[0], row)).get("status") != "ok" for row in rows[1:])
    return hashlib.sha256(kept.encode()).hexdigest()[:16], {"correct": True, "failed": failed}


def check(pin, out):
    """Every way in which ``out`` misses ``pin``, one message each. ``out``
    is a perfbench run's stdout, or the CSV that ``mapfkit bench`` wrote."""
    if pin.workload == "bench":
        digest, result = csv_result(out)
    else:
        digest = (re.findall(r" digest (\w+)$", out, re.M) or [None])[0]
        try:
            result = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    problems = []
    if digest != pin.digest:
        problems.append(f"digest {digest}, pinned {pin.digest}")
    if result.get("correct") is not True:
        problems.append("the run's own checks did not pass")
    if result.get("failed") != pin.failed:
        problems.append(f"failed {result.get('failed')}, pinned {pin.failed}")
    for name, value in pin.counters.items():
        if metrics.get(name) != value:
            problems.append(f"{name} {metrics.get(name, 'missing')}, pinned {value}")
    for name in pin.nonzero:
        if not metrics.get(name):
            problems.append(f"{name} {metrics.get(name, 'missing')}, must be nonzero")
    for name, ceiling in pin.ceilings.items():
        if name not in metrics or metrics[name] > ceiling:
            problems.append(f"{name} {metrics.get(name, 'missing')}, at most {ceiling}")
    return problems


def run(pin, csv):
    """Run ``pin``'s command: its exit status, the text ``check`` reads and
    its stderr. ``mapfkit bench`` writes its CSV to the path ``csv``."""
    if pin.workload == "bench":
        args = ["-m", "mapfkit", "bench", "--agents", "16", "--instances", "2",
                "--seed", str(pin.seed), "--csv", str(csv)]
    else:
        args = [str(ROOT / "perfbench" / "run.py"), "--workload", pin.workload,
                "--seed", str(pin.seed), "--seconds", "1", "--trace", str(pin.trace)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    if pin.workload == "bench":
        return done.returncode, csv.read_text() if csv.exists() else "", done.stderr
    return done.returncode, done.stdout, done.stderr


def main():
    missed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for pin in PINS:
            code, out, err = run(pin, Path(scratch) / "bench.csv")
            problems = check(pin, out)
            if code:
                last = err.strip().rpartition("\n")[2]
                problems.append(f"exit status {code}: {last}")
            print(f"{pin}: {'MISSED' if problems else 'as pinned'}", flush=True)
            for problem in problems:
                print(f"    {problem}")
            missed += bool(problems)
    print(f"{len(PINS) - missed} of {len(PINS)} runs as pinned")
    return 1 if missed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("pins.py takes no arguments")
    sys.exit(main())
