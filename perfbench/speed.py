"""Times rescaled to a reference CPU speed, for shared machines whose speed drifts.

On a shared host the CPU speed this process gets moves by 20% within
seconds and by up to 2x within minutes, so a wall time mixes the program's
work with the host's load. The sampler measures the speed on the same CPU,
at the same time as the program runs. A SIGALRM timer interrupts the
process every ``INTERVAL_S`` seconds and times one fixed kernel. The kernel
does not call stickygas, but it has the same kind of work: a Python loop
over numpy scalars like the formula layer's hull scan, and closed-form
updates of small objects like the oracle's cluster advances. A kernel of
plain Python float arithmetic tracked only about 60% of the host's
slowdowns on the benchmark's workloads; this one tracks them. A timed
region's reference time is its wall time, without the time spent in the
sampler, multiplied by the mean of ``REF_S / kernel_time`` over the samples
taken in it. That is the time the region would take on a machine where
the kernel takes ``REF_S``. Each region also takes ``EDGE_SAMPLES``
samples right before and after it, so a region shorter than the interval
still has some.
"""

from __future__ import annotations

import gc
import math
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
REF_S = 1e-3
EDGE_SAMPLES = 3

_RNG = np.random.default_rng(12345)
_P = np.cumsum(_RNG.uniform(0.5, 1.5, size=320))
_S = np.cumsum(_RNG.normal(size=320))


class _Atom:
    __slots__ = ("x", "v", "m")

    def __init__(self, x, v, m):
        self.x, self.v, self.m = x, v, m


def kernel() -> float:
    # lower hull of (P, S) with numpy scalars, as the formula layer does
    verts = []
    for k in range(_P.size):
        while len(verts) >= 2:
            a, b = verts[-2], verts[-1]
            if (_P[b] - _P[a]) * (_S[k] - _S[a]) - (_P[k] - _P[a]) * (_S[b] - _S[a]) <= 0.0:
                verts.pop()
            else:
                break
        verts.append(k)
    # closed-form advances of small objects, as the oracle does
    atoms = [_Atom(float(x), 0.1 * i, 1.0) for i, x in enumerate(_S[:120])]
    acc = 0.0
    for _ in range(4):
        atoms = [_Atom(a.x + a.v * math.exp(-a.m), a.v * 0.9, a.m) for a in atoms]
        acc += sum(a.x for a in atoms)
    return acc + len(verts) + float(np.argmin(_S - acc * 1e-9 * _P))


class Region:
    """Wall time, sampler time and kernel times of one timed region."""

    def __init__(self):
        self.wall_s = 0.0
        self.sampler_s = 0.0
        self.kernel_s = []

    @property
    def ref_s(self) -> float:
        """Wall time outside the sampler, rescaled to the reference speed."""
        speed = sum(REF_S / k for k in self.kernel_s) / len(self.kernel_s)
        return (self.wall_s - self.sampler_s) * speed


class SpeedSampler:
    def __init__(self):
        self._region = None
        self._previous = None

    def _sample(self, region: Region) -> None:
        # Without the collector, the program's heap does not slow the kernel.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        region.kernel_s.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        region = self._region
        if region is not None:
            t0 = perf_counter()
            self._sample(region)
            region.sampler_s += perf_counter() - t0

    @contextmanager
    def region(self):
        """Time the body; the Region's fields are filled when the body ends."""
        region = Region()
        for _ in range(EDGE_SAMPLES):
            self._sample(region)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._region = region
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield region
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            region.wall_s = perf_counter() - t0
            self._region = None
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample(region)
