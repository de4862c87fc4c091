"""Host speed: a fixed pure-Python kernel, timed in a background thread
while the benchmark works, that turns wall seconds into reference seconds.

The benchmark runs on a shared virtual machine whose speed moves by up to
two times over minutes as neighbours come and go, and the CPU time of a
fixed piece of work moves with it. So a thread of the benchmark process
runs ``kernel`` every ``PERIOD_S`` seconds and records the CPU time it took;
its samples follow the speed of the CPU they ran on at that moment. A timed
stretch of work is scaled by ``REFERENCE_S`` over the median sample taken
during it: the result is the time the work would have taken on the host
at the speed where the kernel takes ``REFERENCE_S``. The kernel is the
benchmark's own code, so a change to the kit cannot change its time, and a
faster kit reads faster at any host speed.

In-process work and set-up are pinned to one CPU, which they share with
the sampling thread; the CPU time the samples took in a stretch is taken
out of its wall time before scaling. Work that runs on every CPU (the
campaign's solver processes) is scaled by samples taken on each CPU in
turn."""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass

# Median CPU time of one ``kernel()`` on the reference host (2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11) while it was quiet.
REFERENCE_S = 0.010
PERIOD_S = 0.1
# a stretch with fewer samples inside it borrows the nearest ones
MIN_SAMPLES = 3


def kernel() -> int:
    """Integer arithmetic, dict, set and list traffic, sorting and small
    calls: the mix the kit's pure-Python engine and parser spend their time
    on. Always the same work."""
    values = list(range(600))
    counts: dict[int, int] = {}
    acc = 0
    for r in range(40):
        bucket = set()
        for v in values:
            k = (v * 2654435761 + r) & 1023
            counts[k] = counts.get(k, 0) + 1
            if k & 1:
                bucket.add(k)
            acc ^= k
        values.sort(key=lambda v, r=r: (v * 31 + r) & 511)
        acc += len(bucket) + sum(values[:50])
        text = " ".join(str(v) for v in values[:100])
        acc += len(text.split())
    return acc


@dataclass(frozen=True)
class Mark:
    """A point between timed stretches: the time, and the CPU seconds the
    samples had taken by then."""

    at: float
    busy: float


class HostSpeed:
    """The sampling thread (a context manager) and the scale its samples
    give to a stretch of work between two marks."""

    def __init__(self, rotate_over: list[int] | None = None):
        self.rotate_over = rotate_over or []
        self.samples: list[tuple[float, float]] = []  # (time, kernel CPU seconds)
        self.busy = 0.0
        self._lock = threading.Lock()  # held while a sample runs
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, name="hostspeed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample_until_stopped(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            if self.rotate_over:
                turn += 1
                os.sched_setaffinity(0, {self.rotate_over[turn % len(self.rotate_over)]})
            with self._lock:
                c0 = time.thread_time()
                kernel()
                seconds = time.thread_time() - c0
                self.samples.append((time.perf_counter(), seconds))
                self.busy += seconds

    def mark(self) -> Mark:
        """Mark the start or end of a stretch, between two samples."""
        with self._lock:
            return Mark(time.perf_counter(), self.busy)

    def speed_during(self, start: Mark, end: Mark) -> float:
        """The median kernel time over the samples taken between two marks,
        or the ones nearest to them when there are too few."""
        inside = [s for t, s in self.samples if start.at <= t <= end.at]
        if len(inside) < MIN_SAMPLES:
            middle = (start.at + end.at) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return statistics.median(inside) if inside else REFERENCE_S

    def scale(self, start: Mark, end: Mark, shares_cpu: bool = True) -> float:
        """Reference seconds per wall second of the stretch between two
        marks. ``shares_cpu``: the work ran on the sampling thread's CPU, so
        the samples' CPU time is taken out of it."""
        wall = end.at - start.at
        work = wall - (end.busy - start.busy) if shares_cpu else wall
        fraction = max(work, 0.0) / wall if wall > 0 else 1.0
        return fraction * REFERENCE_S / self.speed_during(start, end)

    def slowdown(self) -> float:
        """Median kernel time over the reference: 1 on the reference host
        when quiet, 2 when the host runs at half that speed."""
        return statistics.median(s for _, s in self.samples) / REFERENCE_S if self.samples else 0.0
