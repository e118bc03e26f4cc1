"""Seeded random problem instances shared by the compare command and tests."""

from __future__ import annotations

import bisect

import numpy as np

from .errors import EventMarginExhausted
from .measure import InitialData

__all__ = ["random_instance", "sample_times_avoiding_events"]

TAU_CHOICES = (1.0, 0.5, 0.1)


def random_instance(rng: np.random.Generator, n_max: int = 50) -> InitialData:
    """One random atomic instance from the documented desk-scale ranges.

    N in 1..n_max, positions uniform on [-10, 10], masses on [0.01, 2],
    velocities on [-2, 2], tau drawn from {1, 0.5, 0.1}.
    """
    n = int(rng.integers(1, n_max + 1))
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n))
    masses = rng.uniform(0.01, 2.0, size=n)
    velocities = rng.uniform(-2.0, 2.0, size=n)
    tau = float(TAU_CHOICES[int(rng.integers(0, len(TAU_CHOICES)))])
    return InitialData.from_atoms(positions, masses, velocities, tau)


def sample_times_avoiding_events(
    rng: np.random.Generator, n: int, t_lo: float, t_hi: float, event_times
) -> list:
    """Draw sample times keeping a margin from collision instants.

    Pointwise layer comparison exactly at a merge instant is side-dependent,
    so times landing within 1e-3*(1+t) of an event are redrawn, up to 100
    draws per time; when none clears the margin, EventMarginExhausted is
    raised. The nearest event is one of the two around t, since e - t rounds
    monotonically in e.
    """
    events = sorted(map(float, event_times))
    out = []
    for _ in range(n):
        for _ in range(100):
            t = float(rng.uniform(t_lo, t_hi))
            i, margin = bisect.bisect(events, t), 1e-3 * (1.0 + t)
            if (i == 0 or t - events[i - 1] > margin) and (i == len(events) or events[i] - t > margin):
                break
        else:
            raise EventMarginExhausted(
                f"100 draws on [{t_lo}, {t_hi}] all fell within 1e-3*(1 + t) of one of {len(events)} events"
            )
        out.append(t)
    return out
