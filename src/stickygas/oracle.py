"""Event-driven sticky-particle reference simulator.

Independent brute-force layer used to validate every formula-layer output.
Clusters follow closed-form trajectories between collisions (damped motion
under the piecewise-constant self-attraction for the gas, straight lines
for the drift dynamics); collision times are bracketed and bisected on the
closed forms, and colliding clusters merge conserving mass and momentum.
Every state is a ClusterState of column arrays; queries read the columns.

This module deliberately shares nothing with the potential-minimization
layer except the input data model.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EventHorizonExceeded,
    IdentityViolation,
    NoClusterAt,
    NonPositiveTime,
    RootBracketFailure,
)
from .measure import AtomicMeasure, InitialData

__all__ = [
    "ClusterState",
    "MergeEvent",
    "Trajectory",
    "simulate_ep",
    "simulate_drift",
    "oracle_cdf",
    "oracle_velocity",
]

_ROOT_REL_TOL = 1e-13
_EXP_FLUSH = 700.0


def _exp_neg(z):
    return math.exp(-z) if z <= _EXP_FLUSH else 0.0


def _em1(z):
    """1 - e^{-z}, accurate near zero."""
    return -math.expm1(-z) if z <= _EXP_FLUSH else 1.0


@dataclass(frozen=True, slots=True, eq=False)
class ClusterState:
    """All clusters at one time as read-only columns, ordered by position.

    Cluster i holds atoms lo[i]..hi[i]-1 merged at positions[i] with mass
    masses[i] and common velocity velocities[i]. The columns are made
    read-only in place, not copied.
    """

    time: float
    positions: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for column in (self.positions, self.masses, self.velocities, self.lo, self.hi):
            column.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, ClusterState):
            return NotImplemented
        return self.time == other.time and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("positions", "masses", "velocities", "lo", "hi")
        )

    def momentum(self) -> float:
        return float(sum((self.masses * self.velocities).tolist()))


def _mtilde(m, total=None):
    """prefix + own/2 - total/2 per cluster, the prefix a sequential running sum.

    ``total`` defaults to the last running sum.
    """
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    if total is None:
        total = prefix[-1]
    return prefix[:-1] + 0.5 * m - 0.5 * total


@dataclass(frozen=True)
class MergeEvent:
    """One collision: the ranges merged and the resulting cluster range."""

    time: float
    merged: tuple  # ((lo, hi), ...) of the participating clusters
    result: tuple  # (lo, hi) of the merged cluster
    position: float


class _EpDynamics:
    """Damped motion under constant self-attraction between events."""

    kind = "euler_poisson"

    def __init__(self, tau: float):
        self.tau = tau

    def advance(self, x, v, mt, dt):
        """Closed form after dt; x, v and mt are floats or equal-length arrays."""
        tau = self.tau
        em1 = _em1(dt / tau)
        A = tau * em1
        B = tau * A - tau * dt
        return x + v * A + mt * B, v * _exp_neg(dt / tau) - mt * A

    def pair_root(self, gap0, dv, dmt):
        """First positive root of gap(d) = gap0 + dv*A(d) + dmt*B(d), dmt > 0.

        The gap derivative has at most one sign change (gap rises then
        falls when dv > 0, falls throughout otherwise) and the attraction
        drives the gap to -infinity, so the first root is unique and lies
        past the interior maximum.
        """
        tau = self.tau

        def gap(d):
            em1 = _em1(d / tau)
            A = tau * em1
            return gap0 + dv * A + dmt * (tau * A - tau * d)

        lo = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
        # asymptotic straight-line estimate of the root
        hi = max(lo, (gap0 + abs(dv) * tau + dmt * tau * tau) / (dmt * tau)) + 1.0
        for _ in range(200):
            if gap(hi) <= 0.0:
                break
            hi = 2.0 * hi + 1.0
        else:
            raise RootBracketFailure("collision root bracket expansion failed")
        while hi - lo > _ROOT_REL_TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def root_bounds(self, gap0, dv, dmt):
        """Arrays of lower bounds that `pair_root` never undercuts.

        0 <= A(d) <= d and 0 <= tau*(d - A(d)) <= d^2/2, so gap(d) >=
        gap0 - a*d - dmt*d^2/2 with a = max(-dv, 0), and the root is at least
        d_L = 2*gap0/(a + sqrt(a^2 + 2*dmt*gap0)). `pair_root` returns a
        bisection midpoint within 0.5e-13*max(1, d) of a point where the
        computed gap is <= 0, and the gap's rounding error near d_L is
        below 1e-15*(gap0 + |dv|*d + tau*dmt*d); the relative margin 1e-9
        and the absolute margin 1e-12*(1 + tau) cover both. A pair
        without a bound (gap0 <= 0) gets -inf.
        """
        a = np.maximum(-dv, 0.0)
        with np.errstate(all="ignore"):
            d_lo = 2.0 * gap0 / (a + np.sqrt(a * a + 2.0 * dmt * gap0))
        return np.fmax(d_lo * (1.0 - 1e-9) - 1e-12 * (1.0 + self.tau), -np.inf)


class _DriftDynamics:
    """Straight-line motion with velocity minus the centered cumulative mass."""

    kind = "drift"

    def advance(self, x, v, mt, dt):
        return x + v * dt, v

    def pair_root(self, gap0, dv, dmt):
        # dv = -dmt < 0 always: the gap closes linearly
        return gap0 / (-dv)

    # on arrays pair_root gives the roots themselves, bit for bit
    root_bounds = pair_root

    def reset_velocity(self, mt):
        return -mt


@dataclass(frozen=True)
class Trajectory:
    """Full event history of one simulation plus closed-form interpolation.

    ``states`` holds the ClusterState at the start, after each event and
    at t_end.
    """

    kind: str
    tau: float
    t_end: float
    events: tuple
    states: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_times", tuple(s.time for s in self.states))
        object.__setattr__(self, "_mtildes", [None] * len(self.states))

    @property
    def event_times(self):
        return [e.time for e in self.events]

    def _dynamics(self):
        return _EpDynamics(self.tau) if self.kind == "euler_poisson" else _DriftDynamics()

    def state_at(self, t: float) -> ClusterState:
        """Closed-form state at any t from the first state's time to t_end."""
        if not self._times[0] <= t <= self.t_end * (1.0 + 1e-12) + 1e-300:
            raise ValueError(
                f"time {t} outside simulated horizon [{self._times[0]}, {self.t_end}]"
            )
        idx = bisect_right(self._times, t) - 1
        base = self.states[idx]
        if base.time == t:
            return base
        mts = self._mtildes[idx]
        if mts is None:
            mts = self._mtildes[idx] = _mtilde(base.masses)
        x, v = self._dynamics().advance(base.positions, base.velocities, mts, t - base.time)
        return ClusterState(t, x, base.masses, v, base.lo, base.hi)

    def resume(self, state_index: int) -> "Trajectory":
        """Re-run the remaining trajectory from a recorded state."""
        s = self.states[state_index]
        columns = (s.positions, s.masses, s.velocities, s.lo, s.hi)
        return _simulate(*columns, s.time, self.t_end, self._dynamics())


def _next_event(dyn, t, gap0, dv, dmt):
    """Earliest pair root t_ev and the pairs due within tol_event of it.

    Pairs are solved in increasing order of their certified lower bounds.
    Once t + bound exceeds best + 1e-11*(1 + best), that pair's root and every
    later one lie past t_ev + tol_event (rounding is monotone and t_ev <=
    best), so t_ev and the due pairs are those of solving every pair.
    """
    bounds = t + dyn.root_bounds(gap0, dv, dmt)
    roots = {}
    best = math.inf
    for i in np.argsort(bounds):
        if bounds[i] > best + 1e-11 * (1.0 + best):
            break
        r = t + dyn.pair_root(float(gap0[i]), float(dv[i]), float(dmt[i]))
        roots[int(i)] = r
        best = min(best, r)
    tol_event = 1e-11 * (1.0 + best)
    return best, sorted(i for i, r in roots.items() if r <= best + tol_event)


def _merge_pair(x, m, v, lo, hi, i, t_ev, events):
    """Merge cluster i + 1 into slot i in place and record the event."""
    (ma, mb), (xa, xb), (va, vb) = (a[i : i + 2].tolist() for a in (m, x, v))
    (lo_a, lo_b), (hi_a, hi_b) = lo[i : i + 2].tolist(), hi[i : i + 2].tolist()
    w = ma + mb
    x[i] = position = (ma * xa + mb * xb) / w
    v[i] = (ma * va + mb * vb) / w
    m[i], hi[i] = w, hi_b
    events.append(MergeEvent(t_ev, ((lo_a, hi_a), (lo_b, hi_b)), (lo_a, hi_b), position))


def _simulate(x, m, v, lo, hi, t0, t_end, dyn) -> Trajectory:
    """Event loop on cluster arrays; every sum runs in the order of a Python loop."""
    n_atoms = int(hi[-1]) if hi.size else 0
    total_mass = sum(m.tolist())
    q0 = sum((m * v).tolist())
    states = [ClusterState(t0, x, m, v, lo, hi)]
    events = []
    t = t0
    while x.size > 1:
        mts = _mtilde(m, sum(m.tolist()))
        t_ev, due = _next_event(dyn, t, np.diff(x), np.diff(v), np.diff(mts))
        if t_ev > t_end:
            break
        # advance everything to the event time, then merge every pair due now
        x, v = dyn.advance(x, v, mts, t_ev - t)
        # the merges write in place; the stored states keep their arrays
        m, v, lo, hi = m.copy(), v.copy(), lo.copy(), hi.copy()
        keep = np.ones(x.size, dtype=bool)
        for i in reversed(due):
            _merge_pair(x, m, v, lo, hi, i, t_ev, events)
            keep[i + 1] = False
        x, m, v, lo, hi = x[keep], m[keep], v[keep], lo[keep], hi[keep]
        # chain merges: a multi-collision can leave the new cluster touching
        while x.size > 1:
            touching = np.flatnonzero(np.diff(x) <= 1e-12 * (1.0 + np.abs(x[:-1])))
            if not touching.size:
                break
            i = int(touching[0])
            _merge_pair(x, m, v, lo, hi, i, t_ev, events)
            x, m, v, lo, hi = (np.delete(a, i + 1) for a in (x, m, v, lo, hi))
        if dyn.kind == "drift":
            v = dyn.reset_velocity(_mtilde(m, sum(m.tolist())))
        t = t_ev
        states.append(ClusterState(t, x, m, v, lo, hi))
        if len(events) > max(n_atoms - 1, 0):
            raise EventHorizonExceeded("more merge events than atoms minus one")
        # conservation checks at every event
        mass_err = abs(sum(m.tolist()) - total_mass)
        if mass_err > 1e-12 * (1.0 + total_mass):
            raise IdentityViolation(f"mass conservation violated by {mass_err}")
        q_now = sum((m * v).tolist())
        if dyn.kind == "euler_poisson":
            q_ref = q0 * _exp_neg((t - t0) / dyn.tau)
        else:
            q_ref = 0.0
        if abs(q_now - q_ref) > 1e-11 * (1.0 + abs(q0) + total_mass):
            raise IdentityViolation(
                f"momentum decay law violated at t={t}: {q_now} vs {q_ref}"
            )
    # final state at the horizon
    x, v = dyn.advance(x, v, _mtilde(m, sum(m.tolist())), t_end - t)
    states.append(ClusterState(t_end, x, m, v, lo, hi))
    return Trajectory(
        kind=dyn.kind,
        tau=getattr(dyn, "tau", math.nan),
        t_end=t_end,
        events=tuple(events),
        states=tuple(states),
    )


def _simulate_atoms(measure: AtomicMeasure, velocities, t_end: float, dyn) -> Trajectory:
    if t_end <= 0.0:
        raise NonPositiveTime(f"t_end must be positive, got {t_end}")
    lo = np.arange(len(measure.positions))
    columns = (measure.positions, measure.masses, velocities)
    x, m, v = (np.array(a, dtype=float) for a in columns)
    return _simulate(x, m, v, lo, lo + 1, 0.0, t_end, dyn)


def simulate_ep(data: InitialData, t_end: float) -> Trajectory:
    """Exact sticky-particle evolution of the damped self-gravitating gas."""
    return _simulate_atoms(data.measure, data.velocities, t_end, _EpDynamics(data.tau))


def simulate_drift(measure: AtomicMeasure, t_end: float) -> Trajectory:
    """Exact evolution of the drift dynamics: clusters move at minus the centered CDF."""
    mts = (
        measure.prefix_mass[:-1] + 0.5 * measure.masses - 0.5 * measure.total_mass
    )
    return _simulate_atoms(measure, -mts, t_end, _DriftDynamics())


def oracle_cdf(state: ClusterState, x):
    """Cumulative mass strictly left of x, a scalar or a 1-d array.

    The positions are sorted, so the sequential prefix sum at the
    insertion point equals the running sum over the clusters left of x.
    """
    prefix = np.concatenate(([0.0], np.cumsum(state.masses)))
    cdf = prefix[np.searchsorted(state.positions, x, side="left")]
    return float(cdf) if np.ndim(x) == 0 else cdf


def oracle_velocity(state: ClusterState, x: float, atol: float = 1e-9) -> float:
    """Velocity of the cluster located at x, within an absolute tolerance."""
    gaps = np.abs(state.positions - x)
    i = int(np.argmin(gaps))
    if not gaps[i] <= atol:
        raise NoClusterAt(f"no cluster within {atol} of x={x}")
    return float(state.velocities[i])
