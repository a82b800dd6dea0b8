"""Host-speed probe: report times as seconds on a host of fixed speed.

The benchmark runs on cores shared with other tenants.  On a 2-vCPU
microVM the same pure-Python Fraction loop ran 1.6-1.9 times slower for
stretches of several seconds, and up to 1.7 times slower for tens of
milliseconds at a time, on each vCPU separately; neither longer runs nor
the fastest of a few repetitions made wall times of the same code agree
from one run to the next.

So the measured process times a fixed reference kernel (an exact harmonic
sum: Fraction arithmetic whose denominators grow to ~1150 bits, the kind
of work fockosc does) every INTERVAL_S seconds from a SIGALRM handler, in
the measured process itself, and a time measured over [start, end] is
scaled by the host's speed around it:

    normalized = raw * mean(REFERENCE_S / k  for each kernel time k in
                            [start - MARGIN_S, end + MARGIN_S])

that is, the seconds the same work takes on a host where the kernel takes
REFERENCE_S (its fastest time on that microVM).  The kernel's own time is
left out of the raw time.  A program change does not move the kernel, so
it moves normalized times as it moves raw ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0021
INTERVAL_S = 0.04
MARGIN_S = 0.1


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(1, i)
    return total


class Probe:
    """Times the kernel every INTERVAL_S seconds while started.

    samples holds (perf_counter at the kernel's start, its seconds);
    spent is the kernel's total time, for callers to subtract.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))
        self.spent += seconds

    def start(self) -> None:
        """Take a first sample now, then one every INTERVAL_S seconds."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """REFERENCE_S over the kernel's time around [start, end], averaged as speeds.

    Uses the samples within MARGIN_S of the interval, or the two nearest
    to its middle when none is that close.
    """
    near = [k for t, k in samples if start - MARGIN_S <= t <= end + MARGIN_S]
    if not near:
        middle = (start + end) / 2
        near = [k for t, k in sorted(samples, key=lambda s: abs(s[0] - middle))[:2]]
    if not near:
        raise ValueError("no speed samples")
    return sum(REFERENCE_S / k for k in near) / len(near)
