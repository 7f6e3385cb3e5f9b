"""The clock, the summary statistics, and the host-speed probe.

The reference host (a 2-vCPU VM on shared hardware) speeds up and slows
down by 5-60 % for seconds to minutes at a time, and not all code slows
alike: when a neighbour takes execution resources, cache-resident
interpreter and small-array work slows most; when it takes memory
bandwidth, cache-missing work does. A wall-clock timing therefore says as
much about the neighbours as about the program. :class:`HostProbe` times
two fixed pieces of work — one cache-resident, one that misses — right
before, right after and about every 0.1 s inside each piece of measured
work (where its clock is paused anyway); dividing a timing by
how slow the matching probe ran turns it into a timing *at the reference
host's speed*, which is what the gated metrics report (the raw timings
are reported beside them).

Evidence (one 170 s recording per gated workload in an hour in which the
host moved between two speeds 1.6x apart; medians of 25-segment blocks,
coefficient of variation raw -> scaled): segment time on ``mix`` bulk
9.0 % -> 2.7 %, trickle 9.3 % -> 2.3 %, MI 14.4 % -> 1.6 %; refresh on
``cpu`` 14.7 % -> 2.7 %, 13.4 % -> 2.7 %, 16.7 % -> 2.5 %; handler reads
on ``cpu`` 12.3 % -> 2.9 %, 9.0 % -> 3.2 %, 15.8 % -> 2.5 %. ``mem``
alone leaves trickle and MI segment time at 4 %; an integer loop plus
numpy on 1 MB blocks, tried first as ``cpu``, left refresh at 8-9 %.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List

import numpy as np

now = time.perf_counter


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Seconds each probe takes at the reference speed. These define the unit
#: the gated timings are in, the way a reference machine does for SPEC
#: ratios; they are this host's probe times in its faster state, so scaled
#: and raw timings agree here when the host is quiet. They must be the
#: same for every run whose numbers are compared: a nominal measured at
#: the start of each run would cancel only the drift inside that run,
#: and it is the drift between runs that breaks an A/A comparison.
NOMINAL_S = {"cpu": 0.0060, "mem": 0.0260}

#: Which slowdown scales which timing. The refresh and the read handler
#: are short Python loops and arithmetic on small arrays (``cpu``). A
#: set-up walks dicts of tuples and payload objects spread over the heap
#: as well, so it takes the geometric mean of the two probes (``mix``).
#: ``throughput_ups`` and ``update_latency_p50_us`` are not listed: the
#: writer path differs by workload, which names its probe itself
#: (``Workload.writer_probe``).
PROBE_OF = {
    "setup_s": "mix",
    "refresh_p50_ms": "cpu",
    "read_latency_p50_us": "cpu",
}


def resident_mb() -> float:
    """This process's current resident set."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class HostProbe:
    """Two fixed pieces of work whose duration says how slow the host is.

    Both start with the same interpreter loop over a tuple-keyed dict.
    ``cpu`` adds a gradient-descent loop on a 12-dimensional problem —
    numpy calls on arrays too small to leave the cache, as a model refresh
    makes them. ``mem`` adds a random gather over a 32 MB array and random
    lookups in a 200 k-entry dict — larger than any cache share, so they
    wait on memory as the engine's views do. ``footprint_mb`` is the
    resident memory those arrays cost (about 90 MB); it is taken off
    ``peak_rss_mb`` for this process and for every process forked from it.
    """

    def __init__(self):
        before = resident_mb()
        rng = np.random.default_rng(0)
        matrix = rng.random((12, 12))
        self._gram = matrix @ matrix.T / 12
        self._target = rng.random(12)
        self._big = rng.random(4_000_000)
        self._picks = rng.integers(0, len(self._big), 200_000)
        self._table = {(i, i % 97): (i, float(i)) for i in range(200_000)}
        self._keys = [(int(i), int(i) % 97) for i in rng.integers(0, 200_000, 20_000)]
        self.footprint_mb = resident_mb() - before

    def sample(self) -> Dict[str, float]:
        """Seconds each probe took, just now.

        The collector is off meanwhile: the loop below allocates 20 k
        tuples, and a collection they trigger would cost whatever the
        measured program's heap and recent garbage make it cost — the
        probe would then move with the program, not only with the host.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = now()
            counts: Dict = {}
            for i in range(20_000):
                counts[(i, i & 7)] = counts.get((i & 1023, i & 7), 0) + 1
            shared = now()
            gram, target, theta = self._gram, self._target, np.zeros(12)
            for _ in range(600):
                theta = theta - 0.05 * (gram @ theta - target)
            small = now()
            for _ in range(5):
                self._big[self._picks].sum()
            lookup, total = self._table.get, 0.0
            for key in self._keys:
                total += lookup(key)[1]
            end = now()
        finally:
            if collecting:
                gc.enable()
        return {"cpu": small - start, "mem": (shared - start) + (end - small)}


def slowdown(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """How slow the host was over ``samples``, per probe and for their
    geometric mean ``mix``: above 1 when the probe took longer than nominal."""
    slow = {
        kind: statistics.fmean(sample[kind] for sample in samples) / nominal
        for kind, nominal in NOMINAL_S.items()
    }
    slow["mix"] = (slow["cpu"] * slow["mem"]) ** 0.5
    return slow
