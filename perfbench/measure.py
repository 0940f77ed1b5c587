"""Measurement helpers shared by the benchmark's modules.

The machines this benchmark runs on are shared, and their speed drifts
by 10-30% over tens of seconds as other tenants come and go.  Wall-clock
numbers alone then spread more across runs than the regressions they
should catch.  :class:`SpeedGauge` measures that drift while the
workload runs, with a fixed mini event simulation whose operation mix
(a heap of events with ``__lt__``, bound-method dispatch, small dict
lookups) resembles the simulator's.  Host times are reported in
*reference seconds*: wall seconds scaled by the gauge's speed relative
to ``REFERENCE_EVENTS_PER_S``.  A change to the program moves reference
seconds; a busier machine barely does.
"""

from __future__ import annotations

import heapq
import time


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def ratio(numerator, denominator):
    """``numerator / denominator``, or 0.0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


class _Event:
    __slots__ = ("time", "seq", "handler", "value")

    def __init__(self, time_, seq, handler, value):
        self.time = time_
        self.seq = seq
        self.handler = handler
        self.value = value

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _Device:
    def __init__(self, index):
        self.index = index
        self.handled = 0
        self.table = {key: (key * 7) & 255 for key in range(64)}

    def handle(self, gauge, event):
        self.handled += 1
        hop = self.table.get(event.value & 63, 0)
        # Reschedule the same event object: the gauge allocates nothing,
        # so it never triggers the workload's garbage collections.
        event.time = gauge.now + 1e-3 * (hop + 1)
        event.handler = gauge.devices[(self.index + hop) % 8].handle
        event.value += 1
        gauge.push(event)


class SpeedGauge:
    """Fixed pure-Python work timed between the workload's own steps.

    Call :meth:`sample` between units of work; each sample runs
    ``EVENTS`` events of a mini simulation that keeps ``PENDING`` events
    queued.  :meth:`clock` excludes the time spent sampling, and
    :meth:`factor` gives reference seconds per wall second over the
    samples since a :meth:`mark`.
    """

    EVENTS = 300
    PENDING = 64
    #: gauge events per second that define one reference second
    REFERENCE_EVENTS_PER_S = 4.0e5
    #: fewest samples a speed estimate uses (older ones fill in)
    WINDOW = 8

    def __init__(self):
        self.spent = 0.0             # seconds spent sampling
        self.history = []            # cumulative ``spent`` after each sample
        self.now = 0.0
        self.devices = [_Device(index) for index in range(8)]
        self._heap = [
            _Event(1e-4 * index, index, self.devices[index % 8].handle, index)
            for index in range(self.PENDING)
        ]
        self._seq = self.PENDING

    def push(self, event):
        self._seq += 1
        event.seq = self._seq
        heapq.heappush(self._heap, event)

    def sample(self):
        started = time.perf_counter()
        heap = self._heap
        for _ in range(self.EVENTS):
            event = heapq.heappop(heap)
            self.now = event.time
            event.handler(self, event)
        self.spent += time.perf_counter() - started
        self.history.append(self.spent)

    def clock(self):
        """Wall seconds, minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def mark(self):
        return len(self.history)

    def factor(self, mark=0, window=WINDOW):
        """Reference seconds per wall second over the samples since
        ``mark`` (at least the last ``window``); 1.0 before any sample."""
        end = len(self.history)
        start = max(0, min(mark, end - window))
        if end == start:
            return 1.0
        before = self.history[start - 1] if start else 0.0
        speed = (end - start) * self.EVENTS / (self.history[end - 1] - before)
        return speed / self.REFERENCE_EVENTS_PER_S


class Interval:
    """One timed interval, with gauge samples at both ends."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.mark = gauge.mark()
        for _ in range(gauge.WINDOW // 2):
            gauge.sample()
        self.started = gauge.clock()

    def end(self):
        """Close the interval; returns (wall seconds, reference factor)."""
        wall = self.gauge.clock() - self.started
        for _ in range(self.gauge.WINDOW // 2):
            self.gauge.sample()
        return wall, self.gauge.factor(self.mark)

    def reference(self):
        wall, factor = self.end()
        return wall * factor
