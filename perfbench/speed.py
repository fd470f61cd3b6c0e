"""The machine's current speed, sampled while the workload runs.

On a shared host the same pure-Python work runs up to a third faster or
slower from one second to the next, far more than any bound the benchmark
could hold.  `SpeedProbe` runs a fixed piece of benchmark-owned work (a
small expression evaluator over frozen dataclasses and copied dicts, the
kind of work meerkat does) every 50 ms from a SIGALRM handler in the
measured thread, and records how long it took.  Each probe gives a local
speed, PROBE_REF_NS over the median of the probes around it; a time
measured over an interval is scaled by the mean local speed during it, and
reads as the time the work would take on the reference machine at its
usual speed.  The probe never calls meerkat, so a change to
the program cannot move it, and the time spent in the handler is taken
out of every interval it falls in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

# median probe time on the reference machine (2 vCPUs, Python 3.11)
PROBE_REF_NS = 330_000
INTERVAL_S = 0.05
# a probe's local speed is the median of this many probes either side
SMOOTH = 5
# probes this far either side of an interval also judge its speed
PAD_NS = 250_000_000


@dataclass(frozen=True)
class _Lit:
    v: int


@dataclass(frozen=True)
class _Ref:
    name: str


@dataclass(frozen=True)
class _Add:
    lhs: object
    rhs: object
    scale: int = 1


@dataclass(frozen=True)
class _Cell:
    c: int
    e: object
    done: frozenset


_EXPRS = {f"d{i}": _Add(_Add(_Ref(f"v{i}"), _Ref(f"v{i}"), 1), _Lit(1)) for i in range(24)}


def _eval(cells: dict, e) -> int:
    if isinstance(e, _Lit):
        return e.v
    if isinstance(e, _Ref):
        return cells[e.name].c
    return (_eval(cells, e.lhs) + _eval(cells, e.rhs)) * e.scale


def probe() -> int:
    """The fixed work whose duration measures the machine's speed."""
    cells = {f"v{i}": _Cell(i, None, frozenset()) for i in range(24)}
    for t in range(4):
        new = dict(cells)
        for name, e in _EXPRS.items():
            new[name] = _Cell(_eval(new, e), e, frozenset(range(t * 4)))
        cells = new
    return sum(c.c for c in cells.values())


class SpeedProbe:
    """Samples `probe` every INTERVAL_S while started; start and stop it from
    the main thread."""

    def __init__(self):
        self.at = array("q")
        self.took = array("q")
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        probe()
        self.at.append(t0)
        self.took.append(perf_counter_ns() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def samples(self) -> dict:
        return {"at": self.at.tolist(), "took": self.took.tolist()}


class Speed:
    """Scales intervals by the probes sampled around them."""

    def __init__(self, samples: dict):
        self.at = list(samples["at"])
        took = list(samples["took"])
        if not took:
            raise RuntimeError("no speed samples")
        self.speed = [
            PROBE_REF_NS / statistics.median(took[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(took))
        ]
        self._paused = [0]
        for d in took:
            self._paused.append(self._paused[-1] + d)

    def paused_ns(self, lo: int, hi: int) -> int:
        """Time the probe itself took inside [lo, hi]."""
        i, j = bisect.bisect_left(self.at, lo), bisect.bisect_right(self.at, hi)
        return self._paused[j] - self._paused[i]

    def factor(self, lo: int, hi: int) -> float:
        """Mean local speed over [lo, hi]; probes are evenly spaced in time."""
        i = bisect.bisect_left(self.at, lo - PAD_NS)
        j = bisect.bisect_right(self.at, hi + PAD_NS)
        if i == j:  # no probe near: take the nearest one
            i = min(i, len(self.at) - 1)
            j = i + 1
        return statistics.fmean(self.speed[i:j])

    def scaled_ns(self, lo: int, hi: int) -> float:
        """The interval [lo, hi] without probe time, at reference speed."""
        return (hi - lo - self.paused_ns(lo, hi)) * self.factor(lo, hi)
