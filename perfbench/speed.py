"""Host-speed probes taken inside a check process.

On a shared host a check runs at anywhere between its undisturbed speed and
about half of it, and the slowdown changes within a fraction of a second.
Other tenants' load slows every instruction; little of it shows as steal
time, so CPU time is slowed as much as wall time. A probe is a fixed piece
of pure-Python work, dict lookups and integer arithmetic as in aggcheck's
inner loops, timed each time it runs. ``Probes`` runs one on a wall-clock
timer (SIGALRM) every ``PERIOD_S`` from the first line of the check process
on, so the probes sample the slowdown at the moments the process runs, on
its CPU, between steps of its own work.

``normalize`` turns a measured interval into seconds at the reference
machine's undisturbed speed. It subtracts the probe time that fell inside
the interval and divides by the process's slowdown: its mean probe duration,
less the fastest and slowest tenth, over ``NOMINAL_S``. The mean, not the
median, because the check's time adds up the slowdown of every moment.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
# About the probe's duration in a check process on the reference machine
# (see README.md) when the rest of the host is quiet.
NOMINAL_S = 1.0e-4


# The probe's data, built once. A probe reads it and does integer
# arithmetic; it allocates no object the cyclic garbage collector tracks,
# so it never triggers a collection of the check's own heap, which would
# move the check's collection time into the probe.
_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}
_ROUNDS = range(900)


class Probes:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, *_args) -> None:
        table, acc = _TABLE, 0
        start = time.perf_counter()
        for i in _ROUNDS:
            acc = table[(acc + i) & 1023] + (acc & 255)
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a process shorter than one period
            self._tick()


def slowdown(samples) -> float:
    """Trimmed mean probe duration over the nominal one."""
    durations = sorted(d for _, d in samples)
    cut = len(durations) // 10
    return statistics.mean(durations[cut:len(durations) - cut]) / NOMINAL_S


def normalize(start: float, end: float, samples) -> float:
    """Seconds from start to end, less the probes inside, at nominal speed."""
    inside = sum(d for t, d in samples if start <= t < end)
    return (end - start - inside) / slowdown(samples)
