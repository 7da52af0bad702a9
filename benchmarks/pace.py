"""Wall time in reference seconds: each timed step is scaled by the host's speed.

The host is shared, and its speed changes by up to 2x from one second to the
next as other tenants come and go.  A fixed calibration kernel, which uses no
cardl code, runs between timed steps (a "probe").  A step's wall time is
multiplied by REFERENCE_PROBE_S over the mean of the probes just before and
just after it, which gives the time the step would take at the speed at which
the probe takes REFERENCE_PROBE_S.  The kernel mixes what the program does:
an interpreted loop of small `np.dot` calls and a sort, single-threaded GEMMs,
and a JSON round trip.  A change to the program moves its steps and not the
probes, so it moves the scaled time by the same share as the wall time.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About the probe's time on the shared 2-vCPU host when the host is calm, so
# that reference seconds read close to wall seconds there.
REFERENCE_PROBE_S = 0.004
PROBE_RUNS = 3  # kernel runs per probe; the probe is their median

_rng = np.random.default_rng(20220331)
_ROWS = _rng.standard_normal((1000, 64))
_QUERY = _rng.standard_normal(64)
_LEFT = _rng.standard_normal((256, 128))
_RIGHT = _rng.standard_normal((128, 256))


def kernel() -> None:
    scored = [(float(np.dot(_ROWS[i], _QUERY)), i) for i in range(len(_ROWS))]
    scored.sort()
    for _ in range(6):
        _LEFT @ _RIGHT
    json.loads(json.dumps([score for score, _ in scored]))


def probe() -> float:
    """Median wall time of PROBE_RUNS kernel runs."""
    times = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class PacedClock:
    """Times calls in reference seconds, with one probe between timed groups."""

    def __init__(self):
        self.probes = [probe()]

    def each(self, fn, items) -> list[tuple[object, float]]:
        """(fn(item), reference seconds) for each item, in order.

        The items are timed one by one; they share the probes around the
        group, so a group should last a fraction of a second or more.
        """
        timed = []
        for item in items:
            start = time.perf_counter()
            result = fn(item)
            timed.append((result, time.perf_counter() - start))
        before = self.probes[-1]
        self.probes.append(probe())
        factor = REFERENCE_PROBE_S / ((before + self.probes[-1]) / 2.0)
        return [(result, wall * factor) for result, wall in timed]

    def call(self, fn, *args, **kwargs) -> tuple[object, float]:
        """(fn(*args, **kwargs), reference seconds) of one call."""
        [(result, seconds)] = self.each(lambda _: fn(*args, **kwargs), [None])
        return result, seconds

    def speed(self) -> dict:
        """How fast the host ran, as probe times over the reference."""
        ratios = sorted(p / REFERENCE_PROBE_S for p in self.probes)
        return {"probes": len(ratios), "slowdown_median": statistics.median(ratios),
                "slowdown_min": ratios[0], "slowdown_max": ratios[-1]}
