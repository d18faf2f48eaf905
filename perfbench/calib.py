"""Machine-speed calibration.

The machine the benchmark was tuned on (2 shared vCPUs) changes speed by up
to 2x within seconds to minutes, as other tenants load the host: fixed work
then takes up to twice as long, mostly in CPU time as well as in wall time,
at times in wall time alone (the process waits descheduled).  So
every timed interpreter samples its own speed while it works: a timer signal
interrupts it every SAMPLE_EVERY_S seconds to time a short fixed loop.  Times
are reported at the reference speed, at which the loop takes SAMPLE_REF_S,
and the time spent in the loop is taken out of them.  The loop is pure
Python with big-integer Fraction arithmetic, like flipiet's exact kernels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

SAMPLE_REF_S = 0.0025   # a round figure near the loop's time on a quiet machine
SAMPLE_EVERY_S = 0.2
MIN_SAMPLES = 20        # topped up after the timed work when it was short


def _loop():
    x = Fraction(1, 3)
    for i in range(1, 160):
        x = (x * 7 + Fraction(1, i)) / 5
    s = 0
    for i in range(6_000):
        s += (i * i) % 7
    return s


class SpeedSampler:
    """Samples the loop's time on a timer; clock() and cpu() exclude the
    time spent sampling."""

    def __init__(self):
        self.samples = []               # wall seconds per loop
        self.cpu_samples = []           # CPU seconds per loop
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._old_handler = None

    def sample(self, *_signal_args):
        c0 = time.process_time()
        t0 = time.perf_counter()
        _loop()
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        self.samples.append(dt)
        self.cpu_samples.append(dc)
        self.stolen_wall += dt
        self.stolen_cpu += dc

    def start(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        while len(self.samples) < MIN_SAMPLES:
            self.sample()

    def clock(self):
        return time.perf_counter() - self.stolen_wall

    def cpu(self):
        return time.process_time() - self.stolen_cpu

    def speed(self):
        """Multiplier taking wall times measured here to reference speed."""
        return SAMPLE_REF_S / statistics.mean(self.samples)

    def cpu_speed(self):
        """The same for CPU times, which time the process spends descheduled
        slows down only through the wall clock."""
        return SAMPLE_REF_S / statistics.mean(self.cpu_samples)
