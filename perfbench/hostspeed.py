"""Host speed next to each request, so that timings follow the program and
not the shared host it runs on.

The host this benchmark was written on runs the same code at two speeds,
switching every few seconds, with CPU time equal to wall time: the process
is not waiting but running slower.  The slow state doubles the time of code
in the interpreter (0.55 ms against 1.09 ms for the probe below) but slows
a sweep over a 2 MB array by only a sixth (0.33 ms against 0.39 ms).  Over
30 s windows of one solve run, completed requests per second read 9.6 to
16.3.

A probe, a short fixed computation that never calls csofix, runs before
each request and once after the last.  The mean of the two probes around a
request gives the host's speed during it, and the request's wall time is
scaled by PROBE_REF_S over that mean: its wall time on a host where the
probe takes PROBE_REF_S.  The probe times interpreter work and small numpy
calls; for a workload whose requests sweep large numpy arrays it is the
geometric mean of that and an array sweep.  Quartile spreads of throughput
over runs with different seeds, one after another:

  solve, 5 runs:   0.13 as measured, 0.05 scaled
  oracle, 6 runs:  0.13 as measured, 0.06 scaled with the interpreter
                   probe, 0.04 with the geometric mean
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the probe's time on the measuring host at full speed (0.52-0.57 ms on a
# 2-core Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4); any constant would
# do, and this one keeps scaled times near wall times there
PROBE_REF_S = 0.55e-3
# the array sweep's time at full speed there, 0.34 ms, over PROBE_REF_S
ARRAY_SHARE = 0.34e-3 / PROBE_REF_S
_V = np.linspace(0.0, 1.0, 48) + 0j
_BIG = np.linspace(0.0, 1.0, 1 << 18)


def _interpreter() -> None:
    s = 0j
    for i in range(1200):
        s += complex(i, 1) * 0.5 ** (i % 7)
    y = _V
    for _ in range(40):
        y = np.convolve(y, _V[:4])[:48] * 0.3


def _arrays() -> None:
    float((_BIG * 1.0001).sum())


def _timed(work) -> float:
    """The second of two runs: the first one after a request that swept
    large arrays runs up to 9% slower on a cold cache, which would make the
    scale follow the program."""
    work()
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def probe(arrays: bool = False) -> float:
    """Seconds taken by a fixed computation: a complex-arithmetic loop in
    the interpreter and small numpy calls, the mix most csofix calls make.
    With `arrays`, the geometric mean of that and of a sweep over a 2 MB
    array, the sweep's time divided by ARRAY_SHARE so that both read
    PROBE_REF_S at full speed."""
    t = _timed(_interpreter)
    return math.sqrt(t * _timed(_arrays) / ARRAY_SHARE) if arrays else t


def scale(latencies: list[float], probes: list[float]) -> list[float]:
    """Latency i scaled by PROBE_REF_S over the mean of probes i and i + 1,
    the probes taken just before and just after request i."""
    if len(probes) != len(latencies) + 1:
        raise ValueError("need one probe before each request and one after the last")
    return [lat * 2.0 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, lat in enumerate(latencies)]


def speed_at_setup(count: int = 15) -> float:
    """PROBE_REF_S over the median of `count` probes, the first dropped as a
    warm-up: the factor that scales a set-up time just measured."""
    times = [probe() for _ in range(count + 1)][1:]
    return PROBE_REF_S / statistics.median(times)
