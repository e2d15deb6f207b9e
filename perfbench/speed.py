"""Host-speed sampler: rescale measured seconds to a reference host speed.

The benchmark's host is a share of a machine whose pure-Python speed moves
by tens of percent within seconds and drifts over minutes, and every
measured time follows it. A probe is a fixed piece of pure-Python work of
the kind the engine does: sparse polynomial products and a normal form in
dicts keyed by exponent tuples, coefficients reduced mod 243. A timer
signal runs one probe every ``PERIOD_S`` in the measured process, so the
probes sample the speed throughout a job, not only at its ends. A job's
time is rescaled as

    reference seconds = measured seconds * REF_S / probe time

where the probe time is the median over the probes from ``WINDOW_S``
before the job starts to ``WINDOW_S`` after it ends; a median, because a
probe is short enough that one preemption of the process multiplies its
time, which a job of many probe lengths absorbs. The probes' own time is
subtracted from the job's.

The rescaling is a plain ratio. In paired runs the engine slowed by a power
of the probe's slowdown between 0.6 and 1.0 depending on the workload and
on the hour, and no fixed power steadied every workload better than 1.
What the probe misses (the engine's share of a slowdown that the probe
does not see) stays in the spread. ``REF_S`` is the median probe time on a
2-vCPU Intel Xeon at 2.1 GHz with Python 3.11.7, so a reference second
reads close to a wall-clock second there. It is a fixed constant and the
probe does not touch the engine, so a change to the engine moves rescaled
times in proportion to wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.01
WINDOW_S = 0.1
REF_S = 0.00036

MOD = 243  # 3^5: coefficients of a ring Z/p^k, as in the engine


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def times(self, other):
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                k = tuple(x + y for x, y in zip(m1, m2))
                acc[k] = (acc.get(k, 0) + c1 * c2) % MOD
        return _Poly(acc)

    def minus_multiple(self, other, mono, c):
        acc = dict(self.terms)
        for m, cc in other.terms.items():
            k = tuple(x + y for x, y in zip(m, mono))
            v = (acc.get(k, 0) - cc * c) % MOD
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
        return _Poly(acc)


# lex order, x > y; each element leads with coefficient 1
_BASIS = (
    ((2, 0), _Poly({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 1})),
    ((0, 3), _Poly({(0, 3): 1, (0, 1): 2, (0, 0): 1})),
)
_LINEAR = _Poly({(1, 0): 1, (0, 1): 2, (0, 0): 1})


def _work():
    """(x+2y+1)^5 reduced by a fixed basis, as a normal form computes it."""
    f = _LINEAR
    for _ in range(4):
        f = f.times(_LINEAR)
    out = {}
    while f.terms:
        mono = max(f.terms)
        c = f.terms[mono]
        for lead, b in _BASIS:
            if all(x <= y for x, y in zip(lead, mono)):
                f = f.minus_multiple(b, tuple(y - x for x, y in zip(lead, mono)), c)
                break
        else:
            out[mono] = c
            rest = dict(f.terms)
            del rest[mono]
            f = _Poly(rest)
    return out


class Sampler:
    """Runs a probe every ``PERIOD_S`` (SIGALRM) between ``start`` and ``stop``.

    ``busy`` is the total time spent in probes, to subtract from any
    interval the probes ran inside.
    """

    def __init__(self):
        self.at = []
        self.took = []
        self.busy = 0.0
        self.running = False

    def probe(self, *_):
        if self.running:  # the timer fired during a probe
            return
        self.running = True
        # no collection inside a probe: it would do the interrupted job's work
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.busy += t1 - t0
        self.running = False

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def median_probe(self, start=float("-inf"), end=float("inf")):
        """Median probe time from ``WINDOW_S`` before ``start`` to after ``end``."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no probe that close: the nearest one
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return _median(self.took[lo:hi])


def _median(values):
    # not statistics.median: this module is imported before the timed import
    # of the engine, and statistics would pull in modules the engine may need
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def scale(seconds, median_probe):
    """Measured seconds rescaled to the reference host speed."""
    return seconds * REF_S / median_probe
