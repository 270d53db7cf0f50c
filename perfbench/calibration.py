"""How fast the host is while the benchmark runs, sampled with a fixed slice.

The benchmark shares its host, which slows down in phases of seconds to
minutes: the same repetition takes 2.3 s in one minute and 4 s in the
next, in CPU time as in wall time.  A phase can cover a whole run, so no
statistic over one run's repetitions removes it.  :class:`HostSpeed` takes
it out: every ``PERIOD_S`` a timer signal interrupts the benchmark between
two bytecodes and times one fixed :class:`Calibration` slice.  A timed span
of the program is then converted to seconds on the reference host: the
slices inside it are taken out of its host time, and the rest is scaled by
``REFERENCE_S`` over the median slice time around the span.

The slice is pure Python and shaped like the simulator's inner loop: a
thousand routers of sixteen ports, each cycle picking the least contended
non-empty queue, moving a packet to a peer port and drawing a Bernoulli
arrival.  Its working set is of the simulator's order, so cache and memory
contention slow both alike.  It allocates no lasting container, so it
cannot start a garbage collection of the program's objects, and it uses
nothing from ``repro``, so a change to the program never changes the
reference it is measured against.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from array import array
from typing import List

__all__ = ["REFERENCE_S", "Calibration", "HostSpeed"]

#: Seconds one slice takes on the reference host, a 2-vCPU Xeon VM in a
#: fast phase.  Normalised times read as seconds on that host.
REFERENCE_S = 0.005
#: Host seconds between two slices; about 3% of the time goes to them.
PERIOD_S = 0.2
#: Slices this far before and after a span also count for its speed, so
#: that a set-up shorter than ``PERIOD_S`` still has some.
WINDOW_S = 1.0

ROUTERS = 1000
PORTS = 16
CREDITS = 8
#: Calibration cycles per slice.
SLICE_CYCLES = 2


class _Port:
    __slots__ = ("queue", "credits", "peer")

    def __init__(self):
        self.queue: List[int] = []
        self.credits = CREDITS
        self.peer = None


class _Router:
    __slots__ = ("rid", "ports", "counters")

    def __init__(self, rid: int):
        self.rid = rid
        self.ports = [_Port() for _ in range(PORTS)]
        self.counters = [0] * PORTS

    def step(self, rng: random.Random, cycle: int) -> None:
        ports, counters = self.ports, self.counters
        best, lowest = -1, 1 << 30
        for i in range(PORTS):
            port = ports[i]
            if port.queue:
                contention = counters[i] + CREDITS - port.credits
                if contention < lowest:
                    best, lowest = i, contention
        if best >= 0:
            port = ports[best]
            packet = port.queue.pop(0)
            counters[best] -= 1
            port.peer.queue.append(packet)
            port.peer.credits -= 1
            port.credits = min(CREDITS, port.credits + 1)
        if rng.random() < 0.6:
            i = (cycle * 7 + self.rid) % PORTS
            ports[i].queue.append(cycle)
            counters[i] += 1


class Calibration:
    """A fixed workload whose host time tracks the host's speed.

    Its state rolls on from slice to slice; queues are cut back to four
    packets every cycle, so each slice does about the same work.
    """

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        self.routers = [_Router(rid) for rid in range(ROUTERS)]
        ports = [port for router in self.routers for port in router.ports]
        for port in ports:
            port.peer = ports[rng.randrange(len(ports))]
        self.rng = random.Random(seed)
        self.cycle = 0

    def slice(self) -> None:
        rng, cycle = self.rng, self.cycle
        for _ in range(SLICE_CYCLES):
            for router in self.routers:
                router.step(rng, cycle)
            for router in self.routers:
                for port in router.ports:
                    while len(port.queue) > 4:
                        port.queue.pop(0)
            cycle += 1
        self.cycle = cycle


class HostSpeed:
    """Samples slice times on a timer while in its ``with`` block.

    Spans are given in ``time.perf_counter`` readings.  Only the main
    thread runs the slices, and the program under test runs there too.
    """

    def __init__(self):
        self.calibration = Calibration()
        self.calibration.slice()  # first touch of its memory
        self.starts = array("d")
        self.seconds = array("d")
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            # The timer fired again inside a slice that the host stalled
            # for longer than the period; that slice is sample enough.
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.calibration.slice()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(end - start)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _in(self, start: float, end: float) -> List[float]:
        return [s for t, s in zip(self.starts, self.seconds) if start <= t < end]

    def reference_s(self, start: float, end: float) -> float:
        """The span ``[start, end)`` in seconds on the reference host."""
        host_s = end - start - sum(self._in(start, end))
        around = self._in(start - WINDOW_S, end + WINDOW_S) or list(self.seconds)
        # The median, because a slice the host stalls for tens of
        # milliseconds would pull a mean far from the span's speed.
        return host_s * REFERENCE_S / statistics.median(around)
