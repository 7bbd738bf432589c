"""Host-speed probe, so that timings from a shared host can be compared.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
1.5-1.8x for seconds at a time (other tenants): the same fit takes 0.55 s
or 0.95 s depending on the moment, and process CPU time moves with wall
time, so it does not help.  A run's median then depends on how much of
the run the host spent slow, and ten runs of the same code spread their
medians by 15-40%.

``timed`` therefore runs a fixed probe (pure Python work of the same kinds
opttree does: dicts keyed by ints, big-int bit sets, a Fraction-keyed
heap, string splitting) right before and right after each timed
operation, and every ``SAMPLE_INTERVAL_S`` while it runs (from a SIGALRM
handler, whose time is taken out of the operation's).  It scales the
operation's wall time by ``PROBE_REF_S`` over the mean probe time: the
time the operation would have taken on a host where the probe takes
``PROBE_REF_S``.  A change to the program moves the operation's time and
not the probe's, so it moves the scaled time by the same share.  The
raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The probe's time on an unloaded 2-vCPU x86-64 host with CPython 3.11:
# scaled times read in seconds on that host.
PROBE_REF_S = 0.002
PROBE_REPEATS = 3  # the fastest of these is the probe's time
# operations longer than this are also probed while they run
SAMPLE_INTERVAL_S = 0.1


def _probe_work() -> int:
    rng = random.Random(12345)
    counts: dict[int, int] = {}
    heap: list = []
    bits = 0
    total = Fraction(0)
    for i in range(200):
        k = rng.getrandbits(16)
        counts[k] = counts.get(k, 0) + 1
        bits |= 1 << (k & 4095)
        heapq.heappush(heap, (Fraction(k, 97), i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    cells = ",".join(str(k & 7) for k in counts).split(",")
    return bits.bit_count() + len(cells) + total.denominator


def _run_probe(repeats: int) -> float:
    """Fastest of `repeats` probe runs, in seconds, with the collector
    off: its passes grow with the caller's live objects, and the probe
    should see only the host."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            _probe_work()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def probe() -> float:
    """Seconds the probe takes on the host right now."""
    return _run_probe(PROBE_REPEATS)


class _Sampler:
    """SIGALRM handler that probes the host while a long operation runs
    and keeps the time it took, to be taken out of the operation's."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = perf_counter()
        # the operation has just evicted the probe's data: the second of
        # two runs is the warm one, as at the edges
        self.probes.append(_run_probe(2))
        self.spent += perf_counter() - t0


def timed(fn, *args, sample: bool = True):
    """(fn(*args), wall seconds, seconds scaled to the reference host).

    The host is probed before and after the operation and, while it runs,
    every SAMPLE_INTERVAL_S of wall time unless `sample` is false; the
    scale is PROBE_REF_S over the mean probe time, and the probes' own
    time is not counted."""
    before = probe()
    sampler = _Sampler()
    previous = signal.signal(signal.SIGALRM, sampler)
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sampler.spent
    probes = [before, *sampler.probes, probe()]
    return result, wall, wall * PROBE_REF_S / statistics.fmean(probes)
