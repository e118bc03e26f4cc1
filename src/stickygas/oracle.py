"""Event-driven sticky-particle reference simulator.

Independent brute-force layer used to validate every formula-layer output.
Clusters follow closed-form trajectories (damped motion under the
piecewise-constant self-attraction for the gas, straight lines for the drift
dynamics) and merge conserving mass and momentum when they collide. One rule:
each neighbour pair, touching ones too, merges at its own root, and the roots
within 1e-11*(1 + t) of the first, t, merge at t. A cluster's centred mass mt
does not change when others merge, so each cluster keeps one closed form from
birth to death: a trajectory holds one record per cluster that ever lived (at
most 2N - 1). A neighbour pair (N - 1 at t0; a lone new cluster forms its at
most two directly, simultaneous merges through a sorted set) waits in a heap
under a certified bound on its collision time, taken when it forms, and is
solved by Newton's method from that bound only if it reaches the top while
both live. The loop runs on Python scalars with each state's closed form
inline; records become arrays and events columns once per run, `MergeEvent`s
only when read. Each merge checks in O(1) its mass against its atoms', its
momentum against the pair's and mt_r - mt_l = (m_l + m_r)/2 with both
neighbours; the O(C) audit of mass and momentum runs at t0, after event times
1, 2, 4, 8, ... and at t_end. Nothing is shared with the potential layer but
the input data model.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from .errors import EventHorizonExceeded, IdentityViolation, NonPositiveTime, RootBracketFailure
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

    def sums(self, t, live, birth, v, mt, mass):
        """Mass and momentum at t of the records ``live``, one sequential pass in their order, with
        `advance`'s velocity v*e^{-z} - mt*tau*(1 - e^{-z}), z = (t - birth)/tau, inline."""
        tau, exp, expm1 = self.tau, math.exp, math.expm1
        total = q = 0.0
        for i in live:
            m, z = mass[i], (t - birth[i]) / tau
            total += m
            q += m * (v[i] * exp(-z) + mt[i] * tau * expm1(-z)) if z <= _EXP_FLUSH else -m * mt[i] * tau
        return total, q

    def pair_root(self, gap0, dv, dmt, start=None):
        """First positive root of gap(d) = gap0 + dv*A(d) + dmt*B(d), dmt > 0.

        gap'(d) = dv*e - dmt*A(d), e = e^{-d/tau}, changes sign at most once
        and the attraction drives the gap to -inf, so the first root is unique
        and lies past the interior maximum lo. gap'' = -e*(dv/tau + dmt) keeps
        one sign, so Newton's method from max(lo, start), start = root_bound
        unless given, nears the root from one side: from the left if the gap is
        convex (tangents lie below it), from the right after one step if concave.
        The points keep a bracket [a, b] with computed gap > 0 at a (or a = lo)
        and <= 0 at b (+inf at first). A step that is undefined (gap' >= 0),
        leaves the bracket, or comes past the first 100 points bisects it instead,
        or doubles d while b = inf: Newton crawls where gap' overstates the
        computed gap's slope, its dv term varying below its rounding. Once
        a step falls below the tolerance the next point sits 4e-16*max(1, d)
        from the iterate: short of it while the step is longer than twice that,
        then across it, closing the bracket. The loop stops on bisection's test
        and returns the midpoint, as `root_bound` assumes. NaN or inf data, or
        200 points without a closed bracket, raise RootBracketFailure.
        """
        tau, exp, expm1 = self.tau, math.exp, math.expm1
        d = self.root_bound(gap0, dv, dmt) if start is None else start
        a = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
        b, d = math.inf, max(a, d)
        for i in range(200):
            # gap(d) inline with `_em1`'s operations: no call per step, the same bits
            z = d / tau
            A, e = (tau * -expm1(-z), exp(-z)) if z <= _EXP_FLUSH else (tau, 0.0)
            gap = gap0 + dv * A + dmt * (tau * A - tau * d)
            a, b = (d, b) if gap > 0.0 else (a, d)
            if b < math.inf and b - a <= _ROOT_REL_TOL * (b if b > 1.0 else 1.0):
                return 0.5 * (a + b)
            slope = dv * e - dmt * A
            if slope < 0.0 and i < 100:
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
        cover both. A pair without a bound (gap0 <= 0) gets -inf, and Newton
        starts at the interior maximum instead. NaN or inf data raise here.
        """
        if not abs(gap0) + abs(dv) + abs(dmt) < math.inf:
            raise RootBracketFailure(f"collision gap data not finite: {gap0}, {dv}, {dmt}")
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

    def sums(self, t, live, birth, v, mt, mass):
        """Mass and momentum of the records ``live``: one sequential pass in their order."""
        total = q = 0.0
        for i in live:
            total += mass[i]
            q += mass[i] * v[i]
        return total, q

    def pair_root(self, gap0, dv, dmt, start=None):
        # dv = -dmt < 0 always: the gap closes linearly
        return gap0 / (-dv)

    # the drift root is its own certified bound
    root_bound = pair_root


# one row per cluster that ever lived: birth and death times, the state
# (x, v) at birth, the centred mass mt, the mass and the atom range lo..hi-1
_Records = namedtuple("_Records", "birth death x v mt mass lo hi")
# one column per field of the merge events in time order: the time, the merged
# atom ranges [left_lo, left_hi) and [right_lo, right_hi), the new position
_Events = namedtuple("_Events", "time left_lo left_hi right_lo right_hi position")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event history of one simulation plus closed-form interpolation.

    ``records`` holds one row per cluster that ever lived, sorted by
    ``lo``; the clusters alive at t (birth <= t < death) are in position
    order. ``event_columns`` holds the merges, whose `MergeEvent`s ``events``
    builds on first read. ``layer`` names the solution in validation reports.
    """

    layer = "oracle"
    kind: str
    tau: float
    t0: float
    t_end: float
    event_columns: _Events = field(repr=False)
    records: _Records = field(repr=False)

    @cached_property
    def events(self):
        rows = zip(*self.event_columns)
        return tuple(MergeEvent(t, ((la, ha), (lb, hb)), (la, hb), x) for t, la, ha, lb, hb, x in rows)

    @property
    def event_times(self):
        return list(self.event_columns.time)

    def _dynamics(self):
        return _EpDynamics(self.tau) if self.kind == "euler_poisson" else _DriftDynamics()

    def _check_horizon(self, t):
        if not self.t0 <= t <= self.t_end * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"time {t} outside simulated horizon [{self.t0}, {self.t_end}]")

    def _alive(self, t):
        r = self.records
        return np.flatnonzero((r.birth <= t) & (t < r.death))

    def _rows(self, ids, times):
        """Positions and velocities of the records ids at times, a float or an array (one row
        per time): each advances from its birth, and is its birth state there (signed zeros kept)."""
        r = self.records
        x0, v0 = r.x[ids], r.v[ids]
        dt = np.subtract.outer(times, r.birth[ids])
        x, v = self._dynamics().advance_rows(x0, v0, r.mt[ids], dt)
        at_birth = dt == 0.0
        return np.where(at_birth, x0, x), np.where(at_birth, v0, v)

    def state_at(self, t: float) -> ClusterState:
        """Closed-form state at any t from t0 to t_end: ``_rows`` of the live records at t."""
        self._check_horizon(t)
        ids, r = self._alive(t), self.records
        x, v = self._rows(ids, t)
        return ClusterState(t, x, r.mass[ids], v, r.lo[ids], r.hi[ids])

    def states_at(self, ts):
        """Closed-form states at the times ts, in blocks of one inter-event interval.

        Yields (times, positions, velocities, masses) for consecutive runs of
        ts: positions and velocities are (len(times) x clusters) arrays whose
        row j equals the columns of state_at(times[j]) bit for bit, masses is
        the interval's mass column. A block holds at most BLOCK_ELEMENTS
        positions (or one row, or BLOCK_ELEMENTS rows of no cluster), so
        memory stays bounded however many times fall in one interval.
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
            step = max(1, BLOCK_ELEMENTS // max(ids.size, 1))
            for first in range(start, stop, step):
                times = ts[first : min(first + step, stop)]
                yield (times, *self._rows(ids, times), masses)


def _simulate(live: _Records, t0, t_end, dyn) -> Trajectory:
    """Event loop on per-cluster records, from the clusters alive at t0 in position order.

    Heap entries (key, a, b, tp, gap) hold neighbour records a, b formed at tp
    with a certified bound d on their collision time and in gap its data at tp
    and d, Newton's start; or, with gap None, the time itself. A pair with a
    dead record is skipped. A record born before t advances to t by `advance`'s
    closed form, inline (A = dt for the drift); at its birth it is its birth state
    (signed zeros kept).
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
    # events: one row (t, lo_a, hi_a, lo_b, hi_b, x) per merge; k counts event times
    events, heap, k, inf = [], [], 0, math.inf
    ep, tau, root_bound, pair_root = dyn.kind == "euler_poisson", getattr(dyn, "tau", math.nan), dyn.root_bound, dyn.pair_root

    def fail(check, t, where, detail):
        raise IdentityViolation(f"{check} failed at event {k}, t={t!r}, {where}: {detail}")

    def form_pair(a, b):
        """Push a certified bound on the root of the neighbour records a, b, with its data at formation."""
        ta, tb, xa, va, xb, vb = r_birth[a], r_birth[b], r_x[a], r_v[a], r_x[b], r_v[b]
        tp, i = (tb, a) if tb > ta else (ta, b)
        dt = tp - r_birth[i]
        if dt:  # the older record, i, advances to the younger's birth tp
            x, v, mt, A = r_x[i], r_v[i], r_mt[i], tau * _em1(dt / tau) if ep else dt
            x, v = (x + v * A + mt * (tau * A - tau * dt), v * _exp_neg(dt / tau) - mt * A) if ep else (x + v * A, v)
            xa, va, xb, vb = (x, v, xb, vb) if i == a else (xa, va, x, v)
        gap0, dv, dmt = xb - xa, vb - va, r_mt[b] - r_mt[a]
        d = root_bound(gap0, dv, dmt)
        heappush(heap, (max(tp, tp + d), a, b, tp, (gap0, dv, dmt, d)))

    def merge(a, b, t):
        """Kill the neighbour records a and b at t, record the event, return the new record."""
        xa, va, xb, vb, da, db = r_x[a], r_v[a], r_x[b], r_v[b], t - r_birth[a], t - r_birth[b]
        if da:
            A = tau * _em1(da / tau) if ep else da
            xa, va = (xa + va * A + r_mt[a] * (tau * A - tau * da), va * _exp_neg(da / tau) - r_mt[a] * A) if ep else (xa + va * A, va)
        if db:
            A = tau * _em1(db / tau) if ep else db
            xb, vb = (xb + vb * A + r_mt[b] * (tau * A - tau * db), vb * _exp_neg(db / tau) - r_mt[b] * A) if ep else (xb + vb * A, vb)
        ma, mb, lo_a, hi_a, lo_b, hi_b = r_mass[a], r_mass[b], r_lo[a], r_hi[a], r_lo[b], r_hi[b]
        w, mt = ma + mb, r_mt[a] + 0.5 * mb
        x = (ma * xa + mb * xb) / w
        v = (ma * va + mb * vb) / w if ep else -mt
        c = len(r_x)
        for column, value in zip(rec, (t, inf, x, v, mt, w, lo_a, hi_b)):
            column.append(value)
        r_death[a] = r_death[b] = t
        at_lo[lo_a], at_lo[lo_b], at_hi[hi_a], at_hi[hi_b] = c, -1, -1, c
        events.append((t, lo_a, hi_a, lo_b, hi_b, x))
        # the O(1) local checks: the atoms' mass, the pair's momentum, and the
        # neighbour identity of the pair and of c with both of its neighbours
        if abs(w - (prefix[hi_b] - prefix[lo_a])) > tol_mass:
            fail("local mass check", t, f"merging [{lo_a}, {hi_a}) and [{lo_b}, {hi_b})", f"{w} vs its atoms' {prefix[hi_b] - prefix[lo_a]}")
        if abs(w * v - (ma * va + mb * vb)) > tol_q:
            fail("local momentum check", t, f"merging [{lo_a}, {hi_a}) and [{lo_b}, {hi_b})", f"{w * v} vs {ma * va + mb * vb}")
        for l, r in ((a, b), (at_hi[lo_a], c), (c, at_lo[hi_b])):
            excess = r_mt[r] - r_mt[l] - 0.5 * (r_mass[l] + r_mass[r]) if l >= 0 <= r else 0.0
            if abs(excess) > tol_mass:
                where = f"clusters [{r_lo[l]}, {r_hi[l]}) and [{r_lo[r]}, {r_hi[r]})"
                fail("local neighbour identity check", t, where, f"mt_r - mt_l - (m_l + m_r)/2 = {excess}")
        return c

    def audit(t):
        """The global check: mass conserved and momentum on the decay law."""
        live = [i for i in at_lo if i >= 0]
        (mass, q), where = dyn.sums(t, live, r_birth, r_v, r_mt, r_mass), f"all {len(live)} clusters, atoms [0, {n_atoms})"
        if abs(mass - total_mass) > tol_mass:
            fail("global mass audit", t, where, f"{mass} vs {total_mass}")
        q_ref = q0 * _exp_neg((t - t0) / tau) if ep else 0.0
        if abs(q - q_ref) > tol_q:
            fail("global momentum audit", t, where, f"{q} vs the decay law's {q_ref}")

    if n:
        total_mass, q0 = dyn.sums(t0, range(n), r_birth, r_v, r_mt, r_mass)
        tol_mass, tol_q = 1e-12 * (1.0 + total_mass), 1e-11 * (1.0 + abs(q0) + total_mass)
    for a in range(n - 1):
        form_pair(a, a + 1)
    while True:
        # pop in key order up to t_end, solving a live bound when it reaches the top: no
        # root lies below its bound, so the first live root is the next event time t_ev
        due, limit = [], t_end
        while heap and heap[0][0] <= limit:
            key, a, b, tp, gap = heappop(heap)
            if r_death[a] < inf or r_death[b] < inf:
                continue
            if gap:
                # a pair that overlaps by rounding has a root before tp; events never go back
                heappush(heap, (max(tp, tp + pair_root(*gap)), a, b, tp, None))
                continue
            if not due:
                t_ev, limit = key, key + 1e-11 * (1.0 + key)
            due.append(a)
        if not due:
            break
        k += 1
        # the new clusters' pairs, touching ones too, merge at their own roots; they form
        # in sorted order, a lone birth c's (left, c) and (c, right) directly
        if len(due) == 1:
            c = merge(due[0], at_lo[r_hi[due[0]]], t_ev)
            pairs = ((at_hi[r_lo[c]], c), (c, at_lo[r_hi[c]]))
        else:  # merge right to left: a pair's right cluster may itself be new
            born = [merge(a, at_lo[r_hi[a]], t_ev) for a in sorted(due, key=r_lo.__getitem__, reverse=True)]
            pairs = sorted({p for c in born if r_death[c] == inf for p in ((at_hi[r_lo[c]], c), (c, at_lo[r_hi[c]]))})
        for a, b in pairs:
            if a >= 0 <= b:
                form_pair(a, b)
        if len(events) > max(n_atoms - 1, 0):
            raise EventHorizonExceeded("more merge events than atoms minus one")
        if not k & (k - 1):
            audit(t_ev)
    if n:
        audit(t_end)
    order = np.argsort(np.array(r_lo, dtype=live.lo.dtype), kind="stable")
    records = _Records(*(np.array(c, dtype=l.dtype)[order] for c, l in zip(rec, live)))
    columns = _Events(*(zip(*events) if events else [()] * 6))
    return Trajectory(dyn.kind, tau, t0, t_end, columns, records)


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
