"""Event-driven sticky-particle reference simulator.

Independent brute-force layer used to validate every formula-layer output.
Clusters follow closed-form trajectories (damped motion under the
piecewise-constant self-attraction for the gas, straight lines for the
drift dynamics) and merge conserving mass and momentum when they collide:
clusters that touch at an event stick only if they approach. A cluster's
centred mass does not change when others merge, so each cluster keeps one
closed form from birth to death: a trajectory holds one record per cluster
that ever lived (at most 2N - 1), and collision times come from a lazy heap
of certified root bounds, bisected on the closed form only at the top.

This module deliberately shares nothing with the potential-minimization
layer except the input data model.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from .errors import (
    EventHorizonExceeded,
    IdentityViolation,
    NonPositiveTime,
    RootBracketFailure,
)
from .measure import AtomicMeasure, ClusterState, InitialData

__all__ = [
    "ClusterState",
    "MergeEvent",
    "Trajectory",
    "simulate_ep",
    "simulate_drift",
    "oracle_cdf",
]

_ROOT_REL_TOL = 1e-13
_EXP_FLUSH = 700.0
# cap on the (time x cluster) elements of one Trajectory.states_at block
BLOCK_ELEMENTS = 4096


def _exp_neg(z):
    return math.exp(-z) if z <= _EXP_FLUSH else 0.0


def _em1(z):
    """1 - e^{-z}, accurate near zero."""
    return -math.expm1(-z) if z <= _EXP_FLUSH else 1.0


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
        """Closed form after a float dt, with A = tau*(1 - e^{-dt/tau}) and
        B = tau*A - tau*dt; x, v and mt are floats or equal-length arrays."""
        tau = self.tau
        A = tau * _em1(dt / tau)
        return x + v * A + mt * (tau * A - tau * dt), v * _exp_neg(dt / tau) - mt * A

    def advance_rows(self, x, v, mt, dt):
        """`advance` on an array of dt, broadcast against the cluster columns."""
        tau = self.tau
        z = dt / tau
        kept = z <= _EXP_FLUSH
        A = tau * np.where(kept, -np.expm1(-z), 1.0)
        decay = np.where(kept, np.exp(-np.minimum(z, _EXP_FLUSH)), 0.0)
        return x + v * A + mt * (tau * A - tau * dt), v * decay - mt * A

    def pair_root(self, gap0, dv, dmt):
        """First positive root of gap(d) = gap0 + dv*A(d) + dmt*B(d), dmt > 0.

        The gap derivative has at most one sign change (gap rises then
        falls when dv > 0, falls throughout otherwise) and the attraction
        drives the gap to -infinity, so the first root is unique and lies
        past the interior maximum.
        """
        tau, expm1 = self.tau, math.expm1
        lo = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
        # asymptotic straight-line estimate of the root
        hi = max(lo, (gap0 + abs(dv) * tau + dmt * tau * tau) / (dmt * tau)) + 1.0
        # gap(d) inline, A(d) = tau * _em1(d / tau) with the same operations:
        # no call per step, the same bits
        for _ in range(200):
            z = hi / tau
            A = tau * (-expm1(-z) if z <= _EXP_FLUSH else 1.0)
            if gap0 + dv * A + dmt * (tau * A - tau * hi) <= 0.0:
                break
            hi = 2.0 * hi + 1.0
        else:
            raise RootBracketFailure("collision root bracket expansion failed")
        while hi - lo > _ROOT_REL_TOL * (hi if hi > 1.0 else 1.0):
            mid = 0.5 * (lo + hi)
            z = mid / tau
            A = tau * (-expm1(-z) if z <= _EXP_FLUSH else 1.0)
            if gap0 + dv * A + dmt * (tau * A - tau * mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def root_bound(self, gap0, dv, dmt):
        """A lower bound that `pair_root` never undercuts.

        0 <= A(d) <= d and 0 <= tau*(d - A(d)) <= d^2/2, so gap(d) >=
        gap0 - a*d - dmt*d^2/2 with a = max(-dv, 0), and the root is at least
        d_L = 2*gap0/(a + sqrt(a^2 + 2*dmt*gap0)). `pair_root` returns a
        bisection midpoint within 0.5e-13*max(1, d) of a point where the
        computed gap is <= 0, and the gap's rounding error near d_L is
        below 1e-15*(gap0 + |dv|*d + tau*dmt*d); the relative margin 1e-9
        and the absolute margin 1e-12*(1 + tau) cover both. A pair
        without a bound (gap0 <= 0) gets -inf.
        """
        if not gap0 > 0.0:
            return -math.inf
        a = -dv if dv < 0.0 else 0.0
        d_lo = 2.0 * gap0 / (a + math.sqrt(a * a + 2.0 * dmt * gap0))
        return d_lo * (1.0 - 1e-9) - 1e-12 * (1.0 + self.tau)


class _DriftDynamics:
    """Straight-line motion with velocity minus the centered cumulative mass."""

    kind = "drift"

    def advance(self, x, v, mt, dt):
        return x + v * dt, v

    # on an array of dt too: callers broadcast v
    advance_rows = advance

    def pair_root(self, gap0, dv, dmt):
        # dv = -dmt < 0 always: the gap closes linearly
        return gap0 / (-dv)

    # the drift root is its own certified bound
    root_bound = pair_root


# one row per cluster that ever lived: birth and death times, the state
# (x, v) at birth, the centred mass mt, the mass and the atom range lo..hi-1
_Records = namedtuple("_Records", "birth death x v mt mass lo hi")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event history of one simulation plus closed-form interpolation.

    ``records`` holds one row per cluster that ever lived, sorted by
    ``lo``; the clusters alive at t (birth <= t < death) are in position
    order. ``states`` (built on first read) holds the ClusterState at t0,
    at each distinct event time and at t_end.
    """

    kind: str
    tau: float
    t0: float
    t_end: float
    events: tuple
    records: _Records = field(repr=False)

    def __post_init__(self):
        times = (self.t0, *dict.fromkeys(e.time for e in self.events), self.t_end)
        object.__setattr__(self, "_state_times", times)

    @property
    def event_times(self):
        return [e.time for e in self.events]

    @cached_property
    def states(self):
        return tuple(self.state_at(t) for t in self._state_times)

    def _dynamics(self):
        return _EpDynamics(self.tau) if self.kind == "euler_poisson" else _DriftDynamics()

    def _check_horizon(self, t):
        if not self.t0 <= t <= self.t_end * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"time {t} outside simulated horizon [{self.t0}, {self.t_end}]")

    def _alive(self, t):
        r = self.records
        return np.flatnonzero((r.birth <= t) & (t < r.death))

    def _rows(self, ids, times):
        """(times x clusters) positions and velocities of the records ids.

        Each advances from its birth, and at its birth it is its birth state
        (signed zeros kept).
        """
        r = self.records
        x0, v0 = r.x[ids], r.v[ids]
        dt = times[:, None] - r.birth[ids]
        x, v = self._dynamics().advance_rows(x0, v0, r.mt[ids], dt)
        at_birth = dt == 0.0
        return np.where(at_birth, x0, x), np.where(at_birth, v0, v)

    def state_at(self, t: float) -> ClusterState:
        """Closed-form state at any t from t0 to t_end."""
        self._check_horizon(t)
        ids = self._alive(t)
        x, v = self._rows(ids, np.array([t]))
        r = self.records
        return ClusterState(t, x[0], r.mass[ids], v[0], r.lo[ids], r.hi[ids])

    def states_at(self, ts):
        """Closed-form states at the times ts, in blocks of one inter-event interval.

        Yields (times, positions, velocities, masses) for consecutive runs of
        ts: positions and velocities are (len(times) x clusters) arrays whose
        row j equals the columns of state_at(times[j]) bit for bit, masses is
        the interval's mass column. A block holds at most BLOCK_ELEMENTS
        positions (or one row), so memory stays bounded however many times
        fall in one interval.
        """
        ts = np.asarray(ts, dtype=float)
        if not ts.size:
            return
        self._check_horizon(ts.min())
        self._check_horizon(ts.max())
        idx = np.searchsorted(self._state_times[:-1], ts, side="right")
        bounds = [0, *(np.flatnonzero(np.diff(idx)) + 1).tolist(), ts.size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            ids = self._alive(ts[start])
            masses = self.records.mass[ids]
            step = max(1, BLOCK_ELEMENTS // ids.size)
            for first in range(start, stop, step):
                times = ts[first : min(first + step, stop)]
                yield (times, *self._rows(ids, times), masses)

    def resume(self, state_index: int) -> "Trajectory":
        """Re-run the rest from the records alive at ``states[state_index]``, bit for bit."""
        t = self._state_times[state_index]
        ids = self._alive(t)
        live = _Records(*(c[ids] for c in self.records))._replace(death=np.full(ids.size, math.inf))
        return _simulate(live, t, self.t_end, self._dynamics())


def _simulate(live: _Records, t0, t_end, dyn) -> Trajectory:
    """Event loop on per-cluster records, from the clusters alive at t0 in position order.

    Heap entries (key, is_root, t_key, a, b, pair) hold a certified bound on
    the root of neighbour records a, b computed at t_key, or the root itself,
    which is solved from pair = (time, gap, dv, dmt) at the pair's formation.
    """
    n = live.x.size
    n_atoms = int(live.hi[-1]) if n else 0
    # record n + k is born at merge k; its row is written then
    rec = _Records(*(np.resize(c, max(2 * n - 1, 1)) for c in live))
    alive = [True] * n + [False] * (rec.x.size - n)
    # the live record starting (ending) at each atom index, -1 where none
    at_lo, at_hi = np.full(n_atoms + 1, -1), np.full(n_atoms + 1, -1)
    at_lo[live.lo], at_hi[live.hi] = np.arange(n), np.arange(n)
    events, heap = [], []

    def state(i, t):
        return dyn.advance(rec.x.item(i), rec.v.item(i), rec.mt.item(i), t - rec.birth.item(i))

    def neighbour_pairs(c):
        left, right = at_hi.item(rec.lo.item(c)), at_lo.item(rec.hi.item(c))
        return [p for p in ((left, c), (c, right)) if min(p) >= 0]

    def push(t, a, b, pair, solve=False):
        """Push the pair's root, or its certified bound from time t."""
        tp, gap0, dv0, dmt = pair
        if solve:
            # the bound and the root come from different base times, so
            # rounding could put a root just before t; events never go back
            heappush(heap, (max(t, tp + dyn.pair_root(gap0, dv0, dmt)), True, t, a, b, pair))
        else:
            gap, dv = dyn.advance(gap0, dv0, dmt, t - tp)
            heappush(heap, (t + dyn.root_bound(gap, dv, dmt), False, t, a, b, pair))

    def form_pair(a, b):
        tp = max(rec.birth.item(a), rec.birth.item(b))
        (xa, va), (xb, vb) = state(a, tp), state(b, tp)
        push(tp, a, b, (tp, xb - xa, vb - va, rec.mt.item(b) - rec.mt.item(a)))

    def merge(a, b, t):
        """Kill the neighbour records a and b at t, record the event, return the new record."""
        (xa, va), (xb, vb) = state(a, t), state(b, t)
        (ma, mb), (lo_a, lo_b), (hi_a, hi_b) = (col[[a, b]].tolist() for col in rec[5:])
        w, mt = ma + mb, rec.mt.item(a) + 0.5 * mb
        x = (ma * xa + mb * xb) / w
        v = (ma * va + mb * vb) / w if dyn.kind == "euler_poisson" else -mt
        c = n + len(events)
        for column, value in zip(rec, (t, math.inf, x, v, mt, w, lo_a, hi_b)):
            column[c] = value
        rec.death[[a, b]] = t
        alive[a], alive[b], alive[c] = False, False, True
        at_lo[lo_a], at_lo[lo_b], at_hi[hi_a], at_hi[hi_b] = c, -1, -1, c
        events.append(MergeEvent(t, ((lo_a, hi_a), (lo_b, hi_b)), (lo_a, hi_b), x))
        return c

    def live_state(t):
        """Live record ids in position order, with their positions and velocities at t."""
        ids = at_lo[np.flatnonzero(at_lo >= 0)]
        return (ids, *dyn.advance_rows(rec.x[ids], rec.v[ids], rec.mt[ids], t - rec.birth[ids]))

    def sums(ids, v):
        """Mass and momentum, sequential sums over the clusters in position order."""
        m = rec.mass[ids]
        return float(np.cumsum(m)[-1]), float(np.cumsum(m * v)[-1])

    if n:
        ids, _, v = live_state(t0)
        total_mass, q0 = sums(ids, v)
    for a in range(n - 1):
        form_pair(a, a + 1)
    t = t0
    while True:
        # pop in key order, refining bounds: the first live root is the next
        # event time t_ev, and the roots up to t_ev + tol_event are due
        due, limit = [], math.inf
        while heap and heap[0][0] <= limit:
            key, is_root, t_key, a, b, pair = heappop(heap)
            if not (alive[a] and alive[b]):
                continue
            if not is_root:
                push(t, a, b, pair, solve=t_key == t)
                continue
            if not due:
                t_ev, limit = key, key + 1e-11 * (1.0 + key)
            due.append(a)
        if not due or t_ev > t_end:
            break
        # merge right to left: a pair's right cluster may itself be new
        due.sort(key=rec.lo.item, reverse=True)
        born = [merge(a, at_lo.item(rec.hi.item(a)), t_ev) for a in due]
        # chain merges, leftmost first: a multi-collision can leave a new
        # cluster touching a neighbour, and touching clusters stick only if
        # they approach; a merge changes only its own pairs
        chain = [p for c in born if alive[c] for p in neighbour_pairs(c)]
        while chain:
            chain.sort(key=lambda p: rec.lo.item(p[0]), reverse=True)
            a, b = chain.pop()
            if alive[a] and alive[b]:
                (xa, va), (xb, vb) = state(a, t_ev), state(b, t_ev)
                if xb - xa <= 1e-12 * (1.0 + abs(xa)) and vb <= va:
                    born.append(merge(a, b, t_ev))
                    chain += neighbour_pairs(born[-1])
        ids, _, v = live_state(t_ev)
        for a, b in sorted({p for c in born if alive[c] for p in neighbour_pairs(c)}):
            form_pair(a, b)
        t = t_ev
        if len(events) > max(n_atoms - 1, 0):
            raise EventHorizonExceeded("more merge events than atoms minus one")
        # conservation checks at every event
        mass_now, q_now = sums(ids, v)
        mass_err = abs(mass_now - total_mass)
        if mass_err > 1e-12 * (1.0 + total_mass):
            raise IdentityViolation(f"mass conservation violated by {mass_err}")
        q_ref = q0 * _exp_neg((t - t0) / dyn.tau) if dyn.kind == "euler_poisson" else 0.0
        if abs(q_now - q_ref) > 1e-11 * (1.0 + abs(q0) + total_mass):
            raise IdentityViolation(f"momentum decay law violated at t={t}: {q_now} vs {q_ref}")
    order = np.argsort(rec.lo[: n + len(events)], kind="stable")
    records = _Records(*(c[order] for c in rec))
    return Trajectory(dyn.kind, getattr(dyn, "tau", math.nan), t0, t_end, tuple(events), records)


def _simulate_atoms(measure: AtomicMeasure, velocities, t_end: float, dyn) -> Trajectory:
    if not 0.0 < t_end < math.inf:
        raise NonPositiveTime(f"t_end must be finite and > 0, got {t_end}")
    n = len(measure)
    lo = np.arange(n)
    columns = (measure.positions, velocities, measure.atom_mtilde(), measure.masses)
    return _simulate(_Records(np.zeros(n), np.full(n, math.inf), *columns, lo, lo + 1), 0.0, t_end, dyn)


def simulate_ep(data: InitialData, t_end: float) -> Trajectory:
    """Exact sticky-particle evolution of the damped self-gravitating gas."""
    return _simulate_atoms(data.measure, data.velocities, t_end, _EpDynamics(data.tau))


def simulate_drift(measure: AtomicMeasure, t_end: float) -> Trajectory:
    """Exact evolution of the drift dynamics: clusters move at minus the centered CDF."""
    return _simulate_atoms(measure, -measure.atom_mtilde(), t_end, _DriftDynamics())


def oracle_cdf(state: ClusterState, x):
    """Cumulative mass strictly left of x, a scalar or a 1-d array.

    The positions are sorted, so the sequential prefix sum at the
    insertion point equals the running sum over the clusters left of x.
    """
    prefix = np.concatenate(([0.0], np.cumsum(state.masses)))
    cdf = prefix[np.searchsorted(state.positions, x, side="left")]
    return float(cdf) if np.ndim(x) == 0 else cdf
