"""Host-speed normalisation: a fixed pure-Python reference kernel.

The planner is pure Python, and the speed of a shared host drifts by a
quarter between processes even when CPU time equals wall time. The
benchmark therefore times :func:`reference_kernel` next to every request
and rescales the request's wall time to the reference host::

    t_norm = t_wall * C_REF / c_measured

``c_measured`` comes from kernel samples taken before, during (every
``SAMPLE_INTERVAL`` seconds) and after the request (see
:class:`HostClock`), each sample being the median of a few back-to-back
kernel calls, so a single preemption does not move it. The result stays
in seconds: it is the time the request would have taken on a host where
one kernel call takes ``C_REF`` seconds.
"""

from __future__ import annotations

import signal
import time
from contextlib import nullcontext
from statistics import median
from typing import Callable, ContextManager, Dict, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Seconds one :func:`reference_kernel` call takes on the reference host
#: (a quiet 2-core x86-64 Xeon VM, where calls take 1.5-1.6 ms). Changing
#: the kernel or this constant rescales every gated timing, so both are fixed.
C_REF = 0.0016

#: Kernel calls per sample; their median is the sample.
CALLS = 3

#: Seconds between the samples an interval timer takes inside a timed
#: region (about 1% of the region's time goes to sampling).
SAMPLE_INTERVAL = 0.5

#: A sample younger than this (seconds) also serves as the next timed
#: region's "before" sample, so back-to-back requests share one sample.
FRESH_SECONDS = 1.0

#: Lookups per kernel call, and the value a call must return; another
#: value means the kernel no longer does the work ``C_REF`` was measured for.
KERNEL_KEYS = 20000
KERNEL_RESULT = 99991.0


def kernel_data(n: int = KERNEL_KEYS) -> Tuple[List[tuple], Dict[tuple, tuple]]:
    """The kernel's fixed inputs: tuple keys and the table they index."""
    keys = [(i % 2003, i % 5 == 0, (i * 7) % 13) for i in range(n)]
    table: Dict[tuple, tuple] = {}
    for i, key in enumerate(keys):
        table.setdefault(key, (float(i % 11) * 0.5, (i % 3) + 1.0))
    return keys, table


def reference_kernel(keys: List[tuple], table: Dict[tuple, tuple]) -> float:
    """Planner-shaped work without allocation: hash tuple keys, probe a
    dict of a few thousand entries, accumulate floats. It allocates no
    container, so the garbage collector and the heap's state do not move
    it; only the speed the host gives the interpreter does."""
    acc = 0.0
    for key in keys:
        value, weight = table[key]
        acc += value * weight
        if acc > 1e6:
            acc *= 0.5
    return acc


class HostClock:
    """Samples the reference kernel and converts wall times to reference time.

    :meth:`timed` samples before and after the region and, from an interval
    timer, every ``SAMPLE_INTERVAL`` seconds inside it (the SIGALRM handler
    runs in the main thread between bytecodes, so the program under test
    simply pauses for the sample). The samples cut the region into
    segments; each segment is rescaled by the mean of the two samples
    around it, so a region during which the host speed changes is weighted
    by how long it ran at each speed. ``spent`` is the wall time samples
    took; it is never part of a region's time. ``on_sample``, when set,
    returns a context manager wrapped around every sample (the traced run
    records samples as spans so they leave the layers' self times).
    """

    def __init__(self) -> None:
        #: (start, end, seconds per kernel call) of every sample.
        self.samples: List[Tuple[float, float, float]] = []
        self.spent = 0.0
        self.on_sample: Optional[Callable[[], ContextManager]] = None
        self._keys, self._table = kernel_data()

    def sample(self) -> float:
        with self.on_sample() if self.on_sample is not None else nullcontext():
            started = time.perf_counter()
            calls = []
            for _ in range(CALLS):
                t0 = time.perf_counter()
                result = reference_kernel(self._keys, self._table)
                calls.append(time.perf_counter() - t0)
                if result != KERNEL_RESULT:
                    raise RuntimeError(f"reference kernel returned {result!r}")
            ended = time.perf_counter()
        value = median(calls)
        self.spent += ended - started
        self.samples.append((started, ended, value))
        return value

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def timed(
        self, fn: Callable[[], T], sample_inside: bool = True
    ) -> Tuple[T, float, float]:
        """Run ``fn``; return its result, raw seconds and normalised seconds.

        Raw seconds exclude the kernel samples taken inside ``fn``. Pass
        ``sample_inside=False`` when ``fn`` keeps every core busy with
        worker processes, which inner samples would slow down.
        """
        if not self.samples or time.perf_counter() - self.samples[-1][1] > FRESH_SECONDS:
            self.sample()
        before = len(self.samples) - 1
        previous = None
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.sample()
        around = self.samples[before:]
        inner = around[1:-1]
        starts = [t0] + [end for _, end, _ in inner]
        ends = [start for start, _, _ in inner] + [t1]
        raw = norm = 0.0
        for k, (start, end) in enumerate(zip(starts, ends)):
            speed = (around[k][2] + around[k + 1][2]) / 2.0
            raw += end - start
            norm += (end - start) * C_REF / speed
        return result, raw, norm

    def kernel_seconds(self) -> List[float]:
        return [value for _, _, value in self.samples]
