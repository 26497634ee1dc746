"""The benchmark's own arithmetic: percentiles, self time, failure share.

Pure functions over plain numbers, so ``test_perfbench.py`` can pin each one
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, one slow sample would decide the value.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below.

    Nearest rank returns a value that was actually measured, so the samples
    beyond it are exactly those ranked after it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank after the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def samples_needed(pct: float, beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which ``beyond`` samples lie past ``pct``."""
    n = 1
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def tail(samples: Sequence[float], pct: float, beyond: int = MIN_BEYOND) -> float | None:
    """The ``pct`` percentile, or None when fewer than ``beyond`` samples exceed it."""
    if samples_beyond(len(samples), pct) < beyond:
        return None
    return percentile(samples, pct)


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent, so a child that started before the
    parent (or outlived it) only covers the part that overlaps.  Children
    from two threads may overlap each other; the union counts shared time
    once, so self time never goes negative.
    """
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - union_length(clipped)


@dataclass
class Outcomes:
    """Attempted and failed operations of one run.

    Failed covers every operation the workload counts as not delivered: a
    simulation whose outputs differ from the reference, a job that did not
    end ``done``, an HTTP error, and a 429 refusal.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, good: bool, reason: str) -> bool:
        if good:
            self.ok()
        else:
            self.fail(reason)
        return good

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class SimClock:
    """Simulated time advanced by every ``Simulator.run`` call."""

    sim_us: float = 0.0
    runs: int = 0

    def advance(self, before_us: float, after_us: float) -> None:
        if after_us < before_us:
            raise ValueError(f"simulated clock ran backwards: {before_us} -> {after_us}")
        self.sim_us += after_us - before_us
        self.runs += 1


def sim_speed(sim_s: float, host_s: float) -> float:
    """Simulated seconds per host second.

    The host time is the caller's wall time around the work, so builds and
    result handling inside it count against the speed too.
    """
    if host_s <= 0:
        raise ValueError(f"host time must be positive, got {host_s}")
    return sim_s / host_s


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of a set of runs' values.

    Quartiles as :func:`statistics.quantiles` gives them (``n=4``, the
    exclusive method), which is how run-to-run spread is judged against a
    metric's bound.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else math.inf)
