"""Shared machinery of the benchmark: checkout layout, timing, rounds, results.

A workload is a module with ``setup(seed)``, ``run_round(state, index)`` and
``summarize(samples)`` (see ``run.py``). Rounds repeat until the run's time is
spent; each round attempts the same operations, so the share of failed
operations does not depend on how long a run lasts.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3

#: BLAS/OpenMP threads per process. One thread keeps a run's timing
#: independent of what else the machine's other cores are doing.
THREADS = 1


def limit_threads() -> None:
    """Pin native thread pools before numpy is imported (children inherit)."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = str(THREADS)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def peak_rss_mb() -> float:
    """This process's own maximum resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def rate(items_per_op: float, seconds: list[float]) -> float:
    """Items per second of the median operation, each doing ``items_per_op``;
    the median keeps a stall of the machine in one operation out of it."""
    return items_per_op / median(seconds)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


@dataclass
class Round:
    """What one round did: operations attempted and failed, timing samples by
    name, and output checks, which run after the round so that neither its
    timing nor its trace includes them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    checks: list[Callable[[], list[str]]] = field(default_factory=list)

    def check(self, fn: Callable[..., list[str]], *args) -> None:
        """Defer ``fn(*args)``; it returns the problems it finds."""
        self.checks.append(lambda: fn(*args))

    def run_checks(self) -> None:
        for check in self.checks:
            try:
                self.problems.extend(check())
            except Exception:
                self.problems.append("a check raised:\n" + traceback.format_exc())
        self.checks.clear()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def operation_failed(self, what: str) -> None:
        """Count one failed operation and keep its traceback on stderr."""
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def merge(self, other: "Round") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.checks.extend(other.checks)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)


def timed_setup(workload, seed: int) -> tuple[object, float]:
    """Set the workload up several times; return the last state and the median.

    Each state is torn down and released before the next is built, so the
    peak RSS holds one copy of the workload's inputs.
    """
    durations = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        durations.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            workload.teardown(state)
            del state
    return state, median(durations)


def run_rounds(workload, state, seconds: float) -> Round:
    """Run whole rounds until ``seconds`` of wall time have passed (at least one)."""
    total = Round()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        done = workload.run_round(state, index)
        done.run_checks()
        total.merge(done)
        index += 1
        if time.perf_counter() >= deadline:
            return total


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
