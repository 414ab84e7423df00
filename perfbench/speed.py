"""Speed sampling, so that times from a machine whose speed drifts can be
compared.

The machine this benchmark was tuned on (a shared VM, 2 vCPUs) changes speed
by up to a factor of two, in bursts of seconds and in stretches that last
minutes.  Over two minutes, a fixed oracle call varied with a quartile
spread of 66% of its median.  A probe timed between passes does not follow
the speed a 7 s call ran at.  So while work is measured, a profiling timer
interrupts it every ``INTERVAL_S`` of CPU time and times a small fixed loop;
the median of those samples is the speed the work ran at.

A sample is kept apart from the library's state.  The loop is integer
arithmetic: it allocates no object the garbage collector tracks, so it sets
off no collection that would walk the library's heap.  It runs once untimed
before the timed run, because the first run after an interrupt finds the
caches full of the library's data: a cold sample took 10% to 30% longer, by
an amount that differed by workload.  perfbench/README.md gives the figures,
and the check that a known slowdown shows at its true size.

Times are reported scaled by ``REFERENCE_S / median sample``: seconds at the
speed at which the loop takes ``REFERENCE_S``, about the machine's fast
state.  The samples run inside the measured work and add about 1% to it, the
same for every version of the library.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.000225


def _loop() -> int:
    # Between the machine's fast and slow states this loop slowed by the same
    # factor as the three workloads, to within 3%; a loop building tuples and
    # a dict slowed by 20% more than they did.
    x = 0
    for i in range(2500):
        x = (x * 31 + i) % 1000003
    return x


def sample() -> float:
    """Seconds of one warmed run of the loop."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Sampler:
    """Samples the machine's speed while the ``with`` block runs.

    The samples come from a SIGPROF handler, in this one process and thread.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return scale(self.samples)


def scale(samples: list[float]) -> float:
    """Factor from seconds measured while ``samples`` were taken to reference
    seconds; with no samples, from one taken now."""
    return REFERENCE_S / statistics.median(samples or [sample()])
