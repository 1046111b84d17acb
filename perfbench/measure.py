"""Sample statistics used by the benchmark: medians, the tail percentile
rule, a fixed-size latency reservoir, and the reference probe that puts
op times on a fixed machine speed."""

from __future__ import annotations

import gc
import math
import random
import time
from array import array

# Conventional percentiles, lowest first.  The reported tail is the highest
# one that still has at least TAIL_BEYOND samples above it: p50 from 20
# samples, p90 from 100, p95 from 200, p99 from 1000.  Each workload's
# sample count sits well inside one band, so its rung does not change with
# a round more or less.  p95 is census-sweep's rung (300-500 samples): it
# falls on the top cubic windows, where p90 fell among ops of mixed kinds.
# The ladder stops at p99: p99.9 of microsecond calls is set by rare
# interpreter pauses and moved by half from run to run, where p99 held
# within a tenth.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10


def nearest_rank(count: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among count samples."""
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it,
    or None when even the median has fewer."""
    best = None
    for pct in PERCENTILE_LADDER:
        if count - nearest_rank(count, pct) >= TAIL_BEYOND:
            best = pct
    return best


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[nearest_rank(len(sorted_values), pct) - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class Reservoir:
    """Uniform sample of at most `capacity` values from a stream.

    Keeps the benchmark's own memory flat when a run times millions of
    microsecond operations, so peak RSS does not grow with throughput.
    """

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self.seen = 0
        self.values = array("d")
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.values[slot] = value


# ---------------------------------------------------------------------------
# reference probe
# ---------------------------------------------------------------------------

# Nominal time of reference_work(): about its time on the 2-core Xeon host
# (Python 3.11) the baseline was measured on, so op times on that host read
# close to their wall times.
REFERENCE_SECONDS = 1.25e-4
# A probe is taken before an op once this long has passed since the last.
PROBE_INTERVAL = 5e-3
# A probe is the shortest of this many back-to-back runs of the reference
# work: interrupts and cold caches only ever add time.
PROBE_REPEATS = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _mix(point, k):
    return (point.x * k + point.y) % 97


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares no code with cwlattice:
    object construction, attribute loads, calls, dict updates, a keyed sort
    and string joining, the mix the interpreter runs for the package."""
    points = [_Point(i, i * 3 % 11) for i in range(60)]
    seen: dict[int, int] = {}
    acc = 0
    for k in range(1, 5):
        for point in points:
            value = _mix(point, k)
            seen[value] = seen.get(value, 0) + 1
            acc += value
    keys = sorted(seen, key=lambda v: (seen[v], v))
    return acc + sum(keys[:5]) + len(",".join(map(str, keys)))


def probe(clock=time.perf_counter) -> float:
    """Seconds one reference_work() takes now (the best of PROBE_REPEATS),
    with the cyclic collector held off so that a collection of the caller's
    objects is not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(PROBE_REPEATS):
            start = clock()
            reference_work()
            best = min(best, clock() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Puts measured times on the reference machine speed.

    On a shared host a core's speed can drop by a third within a second
    and stay low for minutes (other tenants share the physical cores), so
    wall times of the same work spread more between runs than any bound
    can allow.  The reference work slows down with it.  Times taken between two probes are
    multiplied by REFERENCE_SECONDS over the mean of those two probes: each
    time is then what it would be at the speed where the reference work
    takes REFERENCE_SECONDS.
    """

    def __init__(self, clock=time.perf_counter, probe=probe):
        self._clock = clock
        self._probe = probe
        self._pending: list[float] = []
        self.probes: list[float] = []
        self._last = probe()
        self._last_at = clock()

    def due(self) -> bool:
        return self._clock() - self._last_at >= PROBE_INTERVAL

    def add(self, seconds: float) -> None:
        """Hold a measured time until the next probe brackets it."""
        self._pending.append(seconds)

    def flush(self) -> list[float]:
        """Probe now and return the held times, scaled."""
        now = self._probe()
        self._last_at = self._clock()
        self.probes.append(now)
        factor = 2 * REFERENCE_SECONDS / (self._last + now)
        self._last = now
        scaled = [t * factor for t in self._pending]
        self._pending.clear()
        return scaled
