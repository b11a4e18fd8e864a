"""Host-speed probe: reads wall intervals at a fixed reference speed.

On a small shared host the speed of this very thread drifts by up to
60% over tens of seconds, in CPU time as much as in wall time, so a raw
wall time mostly measures the host.  The probe samples that speed where
the program runs: a ``SIGALRM`` handler, fired ``SAMPLE_HZ`` times a
second, interrupts the program between bytecodes and times a short,
fixed, allocation-free loop in the same thread.  The loop mixes
interpreter work (dictionary, slot and call traffic) with a dependent
walk through an 8 MiB table, because the program's large heaps make it
wait on memory too, and the two parts react differently to a busy
host.

A timed interval is then read as its work time (the interval minus the
handler time inside it) times the host speed the probes saw around it,
relative to ``REFERENCE_S``.  That is the interval's length in seconds
on a host where the probe loop takes ``REFERENCE_S``.  Intervals are
only recorded while the run is in progress; they are scaled once it
has ended.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from statistics import fmean, median
from time import perf_counter

SAMPLE_HZ = 25
PROBE_ITERATIONS = 1000
#: Entries of the table the probe walks (4 bytes each, 8 MiB), larger
#: than the caches of one core, so part of every probe waits on memory
#: as the program's large heaps do.
WALK_ENTRIES = 1 << 21
#: A typical probe time on a 2-vCPU Firecracker guest (Python 3.11),
#: so that figures read close to that host's wall times.  It only sets
#: the scale of the figures.
REFERENCE_S = 0.00075
#: Each probe's speed is the median of this many neighbouring probes,
#: so one disturbed probe does not move its neighbourhood.
SMOOTHING = 9
#: An interval with fewer probes inside it borrows its nearest ones.
MIN_PROBES = 8


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def _walk_table() -> array:
    """A single cycle through every entry, in scattered order."""
    mask = WALK_ENTRIES - 1
    return array("i", ((5 * i + 12345) & mask for i in range(WALK_ENTRIES)))


def _probe_loop(table: dict, cells: list, walk: array, at: int) -> int:
    """Dictionary reads and writes, slot access, method calls, and a
    dependent walk through a table larger than the core's caches."""
    for i in range(PROBE_ITERATIONS):
        key = i & 63
        table[key] = table[key] + i
        cells[key & 15].bump(1)
        at = walk[at]
        at = walk[at]
    return at


class SpeedProbe:
    """Samples host speed while started; scales intervals afterwards."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.loop_s = array("d")
        self._table = {key: 0 for key in range(64)}
        self._cells = [_Cell() for _ in range(16)]
        self._walk = _walk_table()
        self._at = 0
        self._speeds = None

    def _on_alarm(self, _signum, _frame) -> None:
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        self._at = _probe_loop(self._table, self._cells, self._walk, self._at)
        took = perf_counter() - started
        if collecting:
            gc.enable()
        self.starts.append(entered)
        self.loop_s.append(took)
        self.ends.append(perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        period = 1.0 / SAMPLE_HZ
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # An alarm already raised still finds a handler, but no probe.
        signal.signal(signal.SIGALRM, lambda _signum, _frame: None)

    def _smoothed(self) -> list:
        if self._speeds is None:
            raw = [REFERENCE_S / took for took in self.loop_s]
            half = SMOOTHING // 2
            self._speeds = [
                median(raw[max(0, i - half) : i + half + 1])
                for i in range(len(raw))
            ]
        return self._speeds

    def seconds(self, start: float, end: float) -> float:
        """Work time in ``[start, end]`` at the reference speed."""
        speeds = self._smoothed()
        if len(speeds) < MIN_PROBES:
            raise RuntimeError(f"only {len(speeds)} speed probes were taken")
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        handlers = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        if hi - lo < MIN_PROBES:
            middle = (lo + hi) // 2
            lo = max(0, min(middle - MIN_PROBES // 2, len(speeds) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return (end - start - handlers) * fmean(speeds[lo:hi])

    @staticmethod
    def footprint_mb() -> float:
        """Resident size of the probe's walk table."""
        return WALK_ENTRIES * 4 / (1024.0 * 1024.0)

    def summary(self) -> dict:
        """Probe count, median host speed and the share of time probing."""
        if not self.starts:
            return {"probes": 0, "speed": 0.0, "probe_frac": 0.0}
        probing = sum(e - s for s, e in zip(self.starts, self.ends))
        span = self.ends[-1] - self.starts[0]
        return {
            "probes": len(self.starts),
            "speed": median(self._smoothed()),
            "probe_frac": probing / span if span > 0 else 0.0,
        }
