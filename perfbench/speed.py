"""Timing at a reference speed: CPU time scaled by the host's current speed.

On a shared virtual machine the same single-threaded code runs at speeds
that move by tens of percent from one stretch of seconds to the next, in
CPU time as well as in wall time (other guests share the caches, memory
and clock of the physical cores). Ten runs of one workload, whose rounds
repeat the same work, spread 0.10 to 0.23 (q3 - q1 over the median) in
`run_s` measured in CPU or in wall seconds, and 0.03 to 0.05 scaled as
below.

So every timed block runs with a speed meter: a fixed piece of
pure-Python work (`sample`, about 1.2 ms) is timed BRACKET times before and
after the block and, through SIGPROF, once every SAMPLE_EVERY_S CPU
seconds inside it. The block's time is its own thread CPU seconds (the
samples taken inside it subtracted) x REF_S / the mean sample time. On the
`spectrum` workload's 7 s K_16,16 op, twelve repeats spread 0.167 in CPU
seconds, 0.109 scaled by samples taken only before and after, and 0.022
scaled by samples taken inside it too.

The sample shares nothing with bergelab and does the same work every
time: it looks up 12,000 tuple keys in a small dict (hashing, memory
loads) and runs 6,000 steps of integer arithmetic (interpreter dispatch).
It allocates nothing and runs with the garbage collector off, so the
state of bergelab's heap does not change its time. An earlier sample
that built a dict of fresh tuples did not hold: inside the `turan` op
(8, 3, 4) it ran 1.2 to 2.0 times slower than outside, by more than the
op, and three repeats of that op scaled to values 1.8 times apart; with
this sample, six repeats of it lay within 5 % of each other, and six of
(7, 3, 5) within 9 %.

Thread CPU time, not process CPU time: while a process-wide CPU timer is
armed, Linux reads the process clock from a total updated once per
scheduler tick, so a sample of a millisecond or two read 0.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, thread_time

# The mean sample time on the reference host: a shared 2-vCPU virtual
# machine (Intel Xeon, 2.1 GHz), Python 3.11, in its usual state. A scaled
# time is the CPU seconds the block would take on that host at that speed.
REF_S = 0.0012
SAMPLE_EVERY_S = 0.05
BRACKET = 3


# A fixed table of tuple keys; a sample looks every key up. Values and sums
# stay below 256, so a sample allocates nothing: CPython keeps those ints.
_KEYS = [(i * 7919 % 3001, i * 104729 % 2999) for i in range(1000)]
_TABLE = {k: i % 200 for i, k in enumerate(_KEYS)}


def sample() -> float:
    """Thread CPU seconds of one sample."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        s = 0
        for _ in range(12):
            for k in _KEYS:
                s = (s + _TABLE[k]) & 255
        for _ in range(6000):
            s = (s * 5 + 3) & 255
        return thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Timing:
    """Filled in when the block ends."""

    scaled_s: float = 0.0  # cpu_s at the reference speed
    cpu_s: float = 0.0  # thread CPU seconds, samples taken inside excluded
    wall_s: float = 0.0  # wall seconds, samples taken inside included
    sample_s: float = 0.0  # mean sample time over the block
    samples: int = 0


class Meter:
    """Times blocks of single-threaded code (see the module docstring).

    Installs a SIGPROF handler for its lifetime; `close()` restores the
    previous one. Blocks do not nest.
    """

    def __init__(self):
        self.sampling_s = 0.0  # thread CPU seconds spent in samples inside blocks
        self._samples: list[float] = []
        self._active = False
        self._sampling = False
        self._prev = signal.signal(signal.SIGPROF, self._on_signal)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._prev)

    def net_cpu(self) -> float:
        """This thread's CPU seconds, less those spent in samples inside blocks."""
        return thread_time() - self.sampling_s

    def _on_signal(self, signum, frame) -> None:
        if not self._active or self._sampling:
            return
        self._sampling = True
        try:
            t0 = thread_time()
            self._samples.append(sample())
            self.sampling_s += thread_time() - t0
        finally:
            self._sampling = False

    @contextmanager
    def block(self):
        timing = Timing()
        self._samples = samples = [sample() for _ in range(BRACKET)]
        spent0 = self.sampling_s
        self._active = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        w0, t0 = perf_counter(), thread_time()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self._active = False
            t1, w1 = thread_time(), perf_counter()
            timing.cpu_s = t1 - t0 - (self.sampling_s - spent0)
            timing.wall_s = w1 - w0
            samples += [sample() for _ in range(BRACKET)]
            timing.samples = len(samples)
            timing.sample_s = statistics.fmean(samples)
            timing.scaled_s = timing.cpu_s * REF_S / timing.sample_s
