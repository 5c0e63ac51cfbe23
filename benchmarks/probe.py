"""Host-speed probe: rescales a pass's wall times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half within seconds (most likely other tenants on the same physical
cores), so raw wall times of the same code differ by 25-50% between runs a
few minutes apart.  The probe measures that speed from inside the measuring process:
every PERIOD_S a SIGALRM handler runs a fixed piece of pure-Python work
(dict updates, int and string formatting, tuples, and 8 kbit integer
products, the mix gshift's layers spend their time in) and times it.  The
handler runs on the main thread between bytecodes, so the probe shares the
program's core, and no other thread or process is started.

Program time is cut into intervals at the probes.  Each interval's wall time
is scaled by REF_S / (mean duration of the two probes around it), so a
measured time reads in reference seconds: how long the work would take on a
host where one probe takes REF_S.  Probe time itself is excluded from every
measured time, and wall times without the rescaling stay available.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.1
REF_S = 0.003  # one probe's duration at the reference speed

_ROUNDS = 3000
_MASK = (1 << 8192) - 1
_FACTOR = 3 ** 5000


def _work() -> int:
    table: dict = {}
    acc = 0
    big = _FACTOR
    for i in range(_ROUNDS):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += len(str(i * 104729)) + len((i, key, acc & 7))
        if i % 200 == 0:
            big = big * _FACTOR & _MASK
    return acc + (big & 1)


class SpeedProbe:
    """Times work between probes; call begin()/end() around each timed piece."""

    def __init__(self):
        self.intervals: list[tuple[float, float, float]] = []  # (timed wall, probe before, probe after)
        self.timed = 0.0  # timed wall time since the last probe
        self.last = self._probe()[1]
        self.since = None  # start of the running timed piece (after any probe inside it)
        self.wall = 0.0  # wall time of the running timed piece, probes excluded
        self.busy = False

    def _probe(self) -> tuple[float, float]:
        t0 = perf_counter()
        _work()
        return t0, perf_counter() - t0

    def _cut(self, *_) -> None:
        if self.busy:
            return
        self.busy = True
        t0, took = self._probe()
        if self.since is not None:
            self.wall += t0 - self.since
            self.timed += t0 - self.since
            self.since = t0 + took
        self.intervals.append((self.timed, self.last, took))
        self.timed, self.last = 0.0, took
        self.busy = False

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._cut)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # busy keeps the handler out of the bookkeeping; an alarm that finds it
    # set is skipped, which only makes that interval longer
    def begin(self) -> None:
        self.busy = True
        self.wall = 0.0
        self.since = perf_counter()
        self.busy = False

    def end(self) -> float:
        """Wall time of the piece since begin(), probe time excluded."""
        self.busy = True
        now = perf_counter()
        self.wall += now - self.since
        self.timed += now - self.since
        self.since = None
        self.busy = False
        return self.wall

    def take(self) -> tuple[float, float]:
        """Close the open interval with a probe; return the (reference-scaled,
        wall) timed time of every interval since the last take()."""
        self._cut()
        scaled = sum(w * 2 * REF_S / (a + b) for w, a, b in self.intervals)
        wall = sum(w for w, _, _ in self.intervals)
        self.intervals = []
        return scaled, wall
