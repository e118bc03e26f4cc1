"""Event-driven sticky-particle reference simulator.

Independent brute-force layer used to validate every formula-layer output.
Clusters follow closed-form trajectories (damped motion under the
piecewise-constant self-attraction for the gas, straight lines for the drift
dynamics) and merge conserving mass and momentum when they collide. One rule:
each neighbour pair, touching ones too, merges at its own root, and the roots
within 1e-11*(1 + t) of the first, t, merge at t. A cluster's centred mass mt
does not change when others merge, so each cluster keeps one closed form from
birth to death: a trajectory holds one record per cluster that ever lived (at
most 2N - 1), and each neighbour pair's collision time is solved once, by
Newton's method, when the pair forms (N - 1 pairs at t0, at most two per
merge), then waits in a heap until it is due or one of its clusters dies.
The event loop runs on Python scalars; the record arrays are built once per
run. Each merge checks in O(1) the new cluster's mass against its atoms', its
momentum against the pair's and mt_r - mt_l = (m_l + m_r)/2 with both
neighbours; the O(C) audit of mass and momentum runs at t0, after event times
1, 2, 4, 8, ... and at t_end.

This module deliberately shares nothing with the potential-minimization
layer except the input data model.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import (
    EventHorizonExceeded,
    IdentityViolation,
    NonPositiveTime,
    RootBracketFailure,
)
from .measure import BLOCK_ELEMENTS, AtomicMeasure, ClusterState, InitialData, _finite_points

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
        if z.max(initial=0.0) <= _EXP_FLUSH:  # nothing to flush: the same bits
            A, decay = tau * -np.expm1(-z), np.exp(-z)
        else:
            kept = z <= _EXP_FLUSH
            A = tau * np.where(kept, -np.expm1(-z), 1.0)
            decay = np.where(kept, np.exp(-np.minimum(z, _EXP_FLUSH)), 0.0)
        return x + v * A + mt * (tau * A - tau * dt), v * decay - mt * A

    def pair_root(self, gap0, dv, dmt):
        """First positive root of gap(d) = gap0 + dv*A(d) + dmt*B(d), dmt > 0.

        gap'(d) = dv*e - dmt*A(d), e = e^{-d/tau}, changes sign at most once
        and the attraction drives the gap to -inf, so the first root is unique
        and lies past the interior maximum lo. gap'' = -e*(dv/tau + dmt) keeps
        one sign, so Newton's method from max(lo, root_bound) nears the root
        from one side: from the left if the gap is convex (tangents lie below
        it), from the right after one step if it is concave (tangents above).
        The points keep a bracket [a, b] with computed gap > 0 at a (or a = lo)
        and <= 0 at b (+inf at first). A step that is undefined (gap' >= 0) or
        leaves the bracket bisects it instead, or doubles d while b = inf. Once
        a step falls below the tolerance the next point sits 4e-16*max(1, d)
        from the iterate: short of it while the step is longer than twice that,
        then across it, closing the bracket. The loop stops on bisection's test
        and returns the midpoint, as `root_bound` assumes. NaN or inf data, or
        200 points without a closed bracket, raise RootBracketFailure.
        """
        if not abs(gap0) + abs(dv) + abs(dmt) < math.inf:
            raise RootBracketFailure(f"collision gap data not finite: {gap0}, {dv}, {dmt}")
        tau, exp, expm1 = self.tau, math.exp, math.expm1
        a = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
        b, d = math.inf, max(a, self.root_bound(gap0, dv, dmt))
        for _ in range(200):
            # gap(d) inline with `_em1`'s operations: no call per step, the same bits
            z = d / tau
            A, e = (tau * -expm1(-z), exp(-z)) if z <= _EXP_FLUSH else (tau, 0.0)
            gap = gap0 + dv * A + dmt * (tau * A - tau * d)
            a, b = (d, b) if gap > 0.0 else (a, d)
            if b < math.inf and b - a <= _ROOT_REL_TOL * (b if b > 1.0 else 1.0):
                return 0.5 * (a + b)
            slope = dv * e - dmt * A
            if slope < 0.0:
                step, scale = -gap / slope, d if d > 1.0 else 1.0
                if abs(step) <= _ROOT_REL_TOL * scale:
                    probe = 4e-16 * scale if gap > 0.0 else -4e-16 * scale
                    step += -probe if abs(step) > 2.0 * abs(probe) else probe
                d += step
                if a < d < b:
                    continue
            d = 0.5 * (a + b) if b < math.inf else 2.0 * a + 1.0
        raise RootBracketFailure("collision root bracket did not close in 200 points")

    def root_bound(self, gap0, dv, dmt):
        """Newton's certified start: a lower bound that `pair_root` never undercuts.

        0 <= A(d) <= d and 0 <= tau*(d - A(d)) <= d^2/2, so gap(d) >=
        gap0 - a*d - dmt*d^2/2 with a = max(-dv, 0), and the root is at least
        d_L = 2*gap0/(a + sqrt(a^2 + 2*dmt*gap0)). `pair_root` returns the
        midpoint of a certified bracket at most 1e-13*max(1, b) wide, within
        0.5e-13*max(1, d) of a point where the computed gap is <= 0, and the
        gap's rounding error near d_L is below 1e-15*(gap0 + |dv|*d +
        tau*dmt*d); the margins 1e-9 relative and 1e-12*(1 + tau) absolute
        cover both. A pair without a bound (gap0 <= 0) gets -inf, and
        Newton starts at the interior maximum instead.
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


# one row per cluster that ever lived: birth and death times, the state
# (x, v) at birth, the centred mass mt, the mass and the atom range lo..hi-1
_Records = namedtuple("_Records", "birth death x v mt mass lo hi")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event history of one simulation plus closed-form interpolation.

    ``records`` holds one row per cluster that ever lived, sorted by
    ``lo``; the clusters alive at t (birth <= t < death) are in position
    order. ``layer`` names the solution in validation reports.
    """

    layer = "oracle"
    kind: str
    tau: float
    t0: float
    t_end: float
    events: tuple
    records: _Records = field(repr=False)

    @property
    def event_times(self):
        return [e.time for e in self.events]

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
        idx = np.searchsorted(self.event_times, ts, side="right")
        bounds = [0, *(np.flatnonzero(np.diff(idx)) + 1).tolist(), ts.size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            ids = self._alive(ts[start])
            masses = self.records.mass[ids]
            step = max(1, BLOCK_ELEMENTS // ids.size)
            for first in range(start, stop, step):
                times = ts[first : min(first + step, stop)]
                yield (times, *self._rows(ids, times), masses)


def _simulate(live: _Records, t0, t_end, dyn) -> Trajectory:
    """Event loop on per-cluster records, from the clusters alive at t0 in position order.

    Heap entries (time, a, b) hold the collision time of neighbour records
    a, b, solved once when the pair forms and never before that time; a
    pair with a dead record is skipped when it reaches the top.
    """
    n = live.x.size
    n_atoms = int(live.hi[-1]) if n else 0
    # lists while the loop runs: record n + k is appended at merge k, live while its death is inf
    r_birth, r_death, r_x, r_v, r_mt, r_mass, r_lo, r_hi = rec = [c.tolist() for c in live]
    # the live record starting (ending) at each atom index, -1 where none, and
    # the running mass at the atom boundaries: atoms lo..hi-1 weigh prefix[hi] - prefix[lo]
    at_lo, at_hi, prefix = [-1] * (n_atoms + 1), [-1] * (n_atoms + 1), [0.0] * (n_atoms + 1)
    for i, (lo, hi, mass) in enumerate(zip(r_lo, r_hi, np.cumsum(live.mass).tolist())):
        at_lo[lo], at_hi[hi], prefix[hi] = i, i, mass
    events, heap, k = [], [], 0  # k counts event times

    def fail(check, t, where, detail):
        raise IdentityViolation(f"{check} failed at event {k}, t={t!r}, {where}: {detail}")

    def state(i, t):
        """Record i's state at t: at its birth the birth state itself (signed zeros kept)."""
        if t == r_birth[i]:
            return r_x[i], r_v[i]
        return dyn.advance(r_x[i], r_v[i], r_mt[i], t - r_birth[i])

    def neighbour_pairs(c):
        return [p for p in ((at_hi[r_lo[c]], c), (c, at_lo[r_hi[c]])) if min(p) >= 0]

    def form_pair(a, b):
        """Push the root of the neighbour records a, b, solved once from their formation time."""
        tp = max(r_birth[a], r_birth[b])
        (xa, va), (xb, vb) = state(a, tp), state(b, tp)
        # a pair that overlaps by rounding has a root before tp; events never go back
        heappush(heap, (max(tp, tp + dyn.pair_root(xb - xa, vb - va, r_mt[b] - r_mt[a])), a, b))

    def merge(a, b, t):
        """Kill the neighbour records a and b at t, record the event, return the new record."""
        (xa, va), (xb, vb) = state(a, t), state(b, t)
        ma, mb, lo_a, hi_a, lo_b, hi_b = r_mass[a], r_mass[b], r_lo[a], r_hi[a], r_lo[b], r_hi[b]
        w, mt = ma + mb, r_mt[a] + 0.5 * mb
        x = (ma * xa + mb * xb) / w
        v = (ma * va + mb * vb) / w if dyn.kind == "euler_poisson" else -mt
        c = len(r_x)
        for column, value in zip(rec, (t, math.inf, x, v, mt, w, lo_a, hi_b)):
            column.append(value)
        r_death[a] = r_death[b] = t
        at_lo[lo_a], at_lo[lo_b], at_hi[hi_a], at_hi[hi_b] = c, -1, -1, c
        events.append(MergeEvent(t, ((lo_a, hi_a), (lo_b, hi_b)), (lo_a, hi_b), x))
        # the O(1) local checks: the atoms' mass, the pair's momentum, and the
        # neighbour identity of the pair and of c with both of its neighbours
        if abs(w - (prefix[hi_b] - prefix[lo_a])) > tol_mass:
            fail("local mass check", t, f"merging [{lo_a}, {hi_a}) and [{lo_b}, {hi_b})", f"{w} vs its atoms' {prefix[hi_b] - prefix[lo_a]}")
        if abs(w * v - (ma * va + mb * vb)) > tol_q:
            fail("local momentum check", t, f"merging [{lo_a}, {hi_a}) and [{lo_b}, {hi_b})", f"{w * v} vs {ma * va + mb * vb}")
        for l, r in ((a, b), *neighbour_pairs(c)):
            excess = r_mt[r] - r_mt[l] - 0.5 * (r_mass[l] + r_mass[r])
            if abs(excess) > tol_mass:
                where = f"clusters [{r_lo[l]}, {r_hi[l]}) and [{r_lo[r]}, {r_hi[r]})"
                fail("local neighbour identity check", t, where, f"mt_r - mt_l - (m_l + m_r)/2 = {excess}")
        return c

    def sums(t):
        """Mass and momentum at t, sequential sums over the live records in position order."""
        ids = [i for i in at_lo if i >= 0]
        x, v, mt, birth, m = (np.array([c[i] for i in ids]) for c in (r_x, r_v, r_mt, r_birth, r_mass))
        _, v = dyn.advance_rows(x, v, mt, t - birth)
        return float(np.cumsum(m)[-1]), float(np.cumsum(m * v)[-1])

    def audit(t):
        """The global check: mass conserved and momentum on the decay law."""
        (mass, q), where = sums(t), f"all {n - len(events)} clusters, atoms [0, {n_atoms})"
        if abs(mass - total_mass) > tol_mass:
            fail("global mass audit", t, where, f"{mass} vs {total_mass}")
        q_ref = q0 * _exp_neg((t - t0) / dyn.tau) if dyn.kind == "euler_poisson" else 0.0
        if abs(q - q_ref) > tol_q:
            fail("global momentum audit", t, where, f"{q} vs the decay law's {q_ref}")

    if n:
        total_mass, q0 = sums(t0)
        tol_mass, tol_q = 1e-12 * (1.0 + total_mass), 1e-11 * (1.0 + abs(q0) + total_mass)
    for a in range(n - 1):
        form_pair(a, a + 1)
    while True:
        # pop in time order: the first live root is the next event time t_ev,
        # and the roots up to t_ev + tol_event are due
        due, limit = [], math.inf
        while heap and heap[0][0] <= limit:
            key, a, b = heappop(heap)
            if r_death[a] < math.inf or r_death[b] < math.inf:
                continue
            if not due:
                t_ev, limit = key, key + 1e-11 * (1.0 + key)
            due.append(a)
        if not due or t_ev > t_end:
            break
        k += 1
        # merge right to left: a pair's right cluster may itself be new
        due.sort(key=r_lo.__getitem__, reverse=True)
        born = [merge(a, at_lo[r_hi[a]], t_ev) for a in due]
        # a new cluster's pairs, touching ones too, merge at their own roots
        for a, b in sorted({p for c in born if r_death[c] == math.inf for p in neighbour_pairs(c)}):
            form_pair(a, b)
        if len(events) > max(n_atoms - 1, 0):
            raise EventHorizonExceeded("more merge events than atoms minus one")
        if not k & (k - 1):
            audit(t_ev)
    if n:
        audit(t_end)
    order = np.argsort(np.array(r_lo, dtype=live.lo.dtype), kind="stable")
    records = _Records(*(np.array(c, dtype=l.dtype)[order] for c, l in zip(rec, live)))
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
    A non-finite x raises ValueError, as in the formula layer.
    """
    prefix = np.concatenate(([0.0], np.cumsum(state.masses)))
    cdf = prefix[np.searchsorted(state.positions, _finite_points(x), side="left")]
    return float(cdf) if np.ndim(x) == 0 else cdf
