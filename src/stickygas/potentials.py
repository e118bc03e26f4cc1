"""Generalized potentials and their exact prefix-sum minimization.

For atomic initial data every potential is a left-continuous step function
of the lower integration limit y, so minimizing over y reduces to an exact
argmin over the N+1 prefix sums T_k(x, t). The same machinery serves the
damped self-gravitating system (time weights A, B), its drift limit
(weights 0, -t), and the slow-time-scaled family used in the relaxation
study.

A ``FrameStack`` holds many (data, t) as rows of padded arrays: the one
place that builds prefix sums, turns hull vertices into clusters and
answers a hull lookup, its hull built on first use. A ``PrefixFrame`` is
row 0 of a one-row stack. The vertices come from one numpy kernel over a
stack of rows, ``_hull_vertices``, with the sequential monotone chain as
its fallback and reference; the one tie rule, ``_argmin``, scans one row.
A minimizer is the tie rule's triple (nu, k_min, k_max): the prefix argmin
range is all that the fields read of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, NonPositiveTime, PotentialOverflow
from .measure import AtomicMeasure, ClusterState, _finite_points

__all__ = ["DEFAULT_TIE_TOL", "DEFAULT_TIE_POS_TOL", "PotentialCoefficients", "minimize_Fbar"]

# Prefix sums T_j and the minimum nu tie when
#   T_j - nu <= DEFAULT_TIE_TOL * (1 + |nu|)
#              + DEFAULT_TIE_POS_TOL * (1 + |x|) * |P_j - P_argmin|.
# The second term measures the distance from x to the position where the
# two prefixes would tie exactly; the value-relative term alone misses
# ties at late-time clusters where nu is incidentally near zero.
DEFAULT_TIE_TOL = 1e-12
DEFAULT_TIE_POS_TOL = 1e-9
# a point x with s_max + |x| P[-1] < _REACH (s_max bounds |S|) keeps T_k - nu finite
_REACH = sys.float_info.max / 4

# passes of the hull kernel before a row's survivors go to the monotone chain
HULL_PASSES = 64
# a cross product (P_b - P_a)(S_c - S_a) - (P_c - P_a)(S_b - S_a) within this
# fraction of its two products' magnitudes, plus the smallest normal float,
# may differ in sign from the exact one (its rounding error is below 3.01
# units in the last place of the products, 2**-53 each)
_CROSS_ROUNDING = 2.0**-50
# a stack of at most this many points takes the chain: below about 170
# points one row, the chain costs less than the kernel's numpy passes
HULL_CHAIN_POINTS = 128

# a grid of fewer points, on a frame whose hull is not built yet, takes the
# dense scan point by point: a scan costs 4.6-4.8 us per point, a hull and
# a 5-point lookup 70-110 us, on frames of 5 to 100 atoms (2-CPU x86_64 host)
DENSE_GRID_POINTS = 6

# e^{-z} is flushed to exactly 0 beyond this exponent; avoids inf * 0.
_EXP_FLUSH = 700.0


def _exp_neg(z: float) -> float:
    return math.exp(-z) if z <= _EXP_FLUSH else 0.0


def _one_minus_exp_neg(z: float) -> float:
    return -math.expm1(-z) if z <= _EXP_FLUSH else 1.0


@dataclass(frozen=True)
class PotentialCoefficients:
    """Time weights multiplying the velocity and force terms of a potential.

    A = tau(1 - e^{-t/tau}) weights the initial velocity, B = tau^2
    - tau^2 e^{-t/tau} - tau*t (always <= 0 for t >= 0) weights the
    centered CDF. ``decay`` carries e^{-t/tau} for the velocity formulas;
    ``t`` is the evaluation time in the system's own clock.
    """

    A: float
    B: float
    decay: float
    tau: float
    t: float

    @classmethod
    def euler_poisson(cls, tau: float, t: float) -> "PotentialCoefficients":
        if not 0.0 < t < math.inf:
            raise NonPositiveTime(f"potential coefficients require finite t > 0, got {t}")
        z = t / tau
        em1 = _one_minus_exp_neg(z)
        A = tau * em1
        B = tau * tau * em1 - tau * t
        return cls(A=A, B=B, decay=_exp_neg(z), tau=tau, t=t)

    @classmethod
    def drift(cls, t: float) -> "PotentialCoefficients":
        if not 0.0 < t < math.inf:
            raise NonPositiveTime(f"potential coefficients require finite t > 0, got {t}")
        return cls(A=0.0, B=-t, decay=0.0, tau=math.inf, t=t)

    @classmethod
    def scaled(cls, tau: float, slow_t: float) -> "PotentialCoefficients":
        """Weights of the slow-time-scaled system evaluated at t/tau.

        Computed directly from slow_t so that B never forms the product
        tau * (slow_t / tau); exponentials beyond the flush threshold are
        exactly zero. A tau whose square leaves the normal range (below
        about 1.5e-154) divides twice instead, so that a square that
        underflows to 0 never divides.
        """
        if not 0.0 < slow_t < math.inf:
            raise NonPositiveTime(
                f"potential coefficients require finite t > 0, got {slow_t}"
            )
        sq = tau * tau
        z = slow_t / sq if sq >= sys.float_info.min else slow_t / tau / tau
        em1 = _one_minus_exp_neg(z)
        A = tau * em1
        B = sq * em1 - slow_t
        return cls(A=A, B=B, decay=_exp_neg(z), tau=tau, t=slow_t / tau)

    def force_speed_ratio(self) -> float:
        """B/A = tau - t/(1 - e^{-t/tau}), the force weight of c(y; x, t)."""
        return self.B / self.A

    def char_force_weight(self) -> float:
        """t e^{-t/tau}/(1 - e^{-t/tau}) - tau: force weight along characteristics."""
        if self.decay == 0.0:
            return -self.tau
        return self.t * self.decay * self.tau / self.A - self.tau


def _argmin(P, S, tie_tol, x: float):
    """(nu, k_min, k_max) of one row's prefix sums T_k = S[k] - x P[k]
    under the tie tolerance ``tie_tol``: the one tie rule, exact over all
    N + 1 prefixes; its callers keep T finite (``_REACH``). T_j ties nu =
    T[k0] when T_j - nu <= a + b |P_j - P_k0|, a = tie_tol (1 + |nu|), b =
    DEFAULT_TIE_POS_TOL (1 + |x|). P rises from 0, so the rounded
    |P_j - P_k0| is at most P[-1], and rounding is monotone: every window is
    at most a + b P[-1]. The prefixes under that one bound, k0 among them,
    hold every tie; the exact window, the same float operations on each,
    picks the ties out of them."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    T = S - x * P
    k0 = int(np.argmin(T))
    nu = float(T[k0])
    T -= nu
    a, b = tie_tol * (1.0 + abs(nu)), DEFAULT_TIE_POS_TOL * (1.0 + abs(x))
    c = (T <= a + b * P[-1]).nonzero()[0]
    if c.size == 1:
        return nu, k0, k0
    ties = c[T[c] <= a + b * np.abs(P[c] - P[k0])]
    return nu, int(ties[0]), int(ties[-1])


class PrefixFrame:
    """Prefix sums of one potential at fixed coefficients, queryable in x.

    T_k(x) = S[k] - x * P[k]; the argmin over k is the minimizer of the
    potential. Also carries the prefix momentum Q used by the solution
    formulas. It is row 0 of a one-row ``FrameStack``: P, S, Q, X and vel
    are views of that row, and the clusters and the hull lookup, built on
    first use, are the stack's.
    """

    __slots__ = ("measure", "coeffs", "P", "S", "Q", "X", "vel", "tie_tol", "s_max", "total", "_stack")

    def __init__(self, measure, velocities, coeffs):
        self.measure, self.coeffs = measure, coeffs
        self._stack = stack = FrameStack([(measure, velocities, coeffs)])
        self.P, self.S, self.Q, self.X, self.vel = stack.P[0], stack.S[0], stack.Q[0], stack.X[0], stack.vel[0]
        self.tie_tol, self.s_max, self.total = stack.tie_tol, float(stack.s_max[0]), float(self.P[-1])

    def argmin(self, x: float):
        """``_argmin``, the one tie rule, on the frame's prefixes under its
        tie tolerance. Called by ``argmin_grid`` on short grids before the
        hull is built, and by ``minimize_Fbar`` point by point."""
        if abs(x) * self.total + self.s_max >= _REACH and math.isfinite(x):
            raise PotentialOverflow(f"x = {x!r} is too far out: S - x P may overflow")
        return _argmin(self.P, self.S, self.tie_tol, x)

    def argmin_grid(self, xs):
        """``argmin`` at every point of a grid: (nu, k_min, k_max) arrays.

        The frame's stack answers it (``FrameStack.argmin_grid``), equal to
        ``argmin`` point by point. A grid of fewer than
        ``DENSE_GRID_POINTS`` points on a frame whose hull is not built
        takes ``argmin`` point by point, so a scalar call never builds the
        hull. Both paths return the results in the grid's shape, reject a
        non-finite point and raise ``PotentialOverflow`` past ``_REACH``.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        if self._stack._lookup is None and flat.size < DENSE_GRID_POINTS:
            out = np.empty(flat.size), np.empty(flat.size, np.intp), np.empty(flat.size, np.intp)
            for i, x in enumerate(flat.tolist()):
                out[0][i], out[1][i], out[2][i] = self.argmin(x)
        else:
            out = self._stack.argmin_grid([flat])
        return tuple(a.reshape(xs.shape) for a in out)

    def clusters(self):
        """Clusters as the edges of the lower convex hull of (P_k, S_k).

        Returns read-only arrays (lo, hi, position, velocity): cluster j
        holds atoms lo[j]..hi[j]-1, and its position and velocity are the
        slopes of its hull edge in S and in Q (``FrameStack``'s columns of
        the frame's one row).
        """
        return self._stack.lo, self._stack.hi, self._stack.positions, self._stack.velocities

    def cluster_state(self, time: float, velocities=None) -> ClusterState:
        """The clusters of ``clusters()`` as a ClusterState at ``time``,
        with their hull velocities or the given velocity column."""
        return self._stack.cluster_state(0, time, velocities)


def _settled(xs, nu, s_max, total, tie_tol, below, above, dP_below, dP_above):
    """The points of a hull lookup whose two adjacent slopes lie outside
    their tie window: the value term over the adjacent atom's mass, plus the
    position term, plus a rounding bound on T and on the hull (``s_max``
    bounds |S| and ``total`` is P's last entry).

    A zero dP (an atom whose mass vanishes in P) divides to inf or nan, and
    any window past the float range to inf: the point stays unsettled.
    """
    rnd = 1e-14 * (s_max + np.abs(xs) * total)
    reach = DEFAULT_TIE_POS_TOL * (1.0 + np.abs(xs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = tie_tol * (1.0 + np.abs(nu)) + rnd
        return (above - xs > reach + value / dP_above) & (xs - below > reach + value / dP_below)


class FrameStack:
    """The prefix frames of many (measure, velocities, coeffs) rows at once,
    padded into (R, L) arrays: the one place that builds prefix sums, turns
    hull vertices into clusters and answers a hull lookup.

    Row r holds its frame in its first n[r] = N + 1 prefixes and zero mass
    past them: X = eta + B*mtilde0 (+ A*u on a row with velocities and
    A != 0), vel = decay*u - A*mtilde0, and P, S and Q the prefix sums of
    w, w*X and w*vel. Every operation is elementwise or a row's cumsum, so
    a row equals its one-row stack, a ``PrefixFrame``, bit for bit.

    The hull's first reader (``argmin_grid``, ``cluster_state`` or a
    cluster column) builds it: one ``_hull_vertices`` run gives every row's
    clusters (flat, row after row, in read-only columns), and
    ``argmin_grid`` looks up every row's points at once. The tie tolerance
    is read at construction; a stack keeps no frame.
    """

    __slots__ = ("P", "S", "Q", "X", "vel", "n", "s_max", "tie_tol", "lo", "hi", "positions", "velocities", "masses", "bounds", "_lookup")

    def __init__(self, rows):
        sizes = [len(m) + 1 for m, _, _ in rows]
        R, L, n = len(sizes), max(sizes), np.array(sizes)
        columns = zip(*[(m.positions, m.masses, m.atom_mtilde(), np.zeros(len(m)) if v is None else v) for m, v, _ in rows])
        if sizes.count(L) == R:
            eta, w, mt, u = map(np.array, columns)
        else:
            # one scatter per column, row after row: the atoms, then zero mass
            eta, w, mt, u = (np.zeros((R, L - 1)) for _ in range(4))
            atoms = np.arange(L - 1) < n[:, None] - 1
            for column, parts in zip((eta, w, mt, u), columns):
                column[atoms] = np.concatenate(parts)
        moving = np.array([[v is not None and c.A != 0.0] for _, v, c in rows])
        A, B, decay = np.array([(c.A, c.B, c.decay) for _, _, c in rows]).T[:, :, None]
        # only a moving row adds A*u: adding 0.0 would turn an X of -0.0 into 0.0
        X = eta + B * mt
        np.add(X, A * u, out=X, where=moving)
        vel = decay * u - A * mt
        P, S, Q = (np.zeros((R, L)) for _ in range(3))
        for prefix, terms in ((P, w), (S, w * X), (Q, w * vel)):
            terms.cumsum(axis=1, out=prefix[:, 1:])
        self.P, self.S, self.Q, self.X, self.vel, self.n = P, S, Q, X, vel, n
        self.s_max = np.max(np.abs(S), axis=1)
        # read here, so that a CLI --tol-tie override reaches every frame built under it
        self.tie_tol = DEFAULT_TIE_TOL
        self._lookup = None

    def __getattr__(self, name):
        # an unset hull slot: the hull's first reader builds it
        if name not in ("lo", "hi", "positions", "velocities", "masses", "bounds"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_hull()
        return getattr(self, name)

    def _build_hull(self):
        P, S, Q, n = self.P, self.S, self.Q, self.n
        R, L = P.shape
        flat_P, flat_S, flat_Q = P.ravel(), S.ravel(), Q.ravel()
        idx = _hull_vertices(P, S, n)
        row = idx // L
        edge = row[:-1] == row[1:]
        a, b = idx[:-1][edge], idx[1:][edge]
        base = row[:-1][edge] * L
        dm = flat_P[b] - flat_P[a]
        self.lo, self.hi, self.masses = a - base, b - base, dm
        self.positions = (flat_S[b] - flat_S[a]) / dm
        self.velocities = (flat_Q[b] - flat_Q[a]) / dm
        for column in (self.lo, self.hi, self.masses, self.positions, self.velocities):
            column.setflags(write=False)
        # row r's clusters are bounds[r]:bounds[r + 1] and its vertices
        # idx[bounds[r] + r:bounds[r + 1] + r + 1]; the lookup gathers flat, at
        # vertex g of idx the slopes below and above it (-+inf past the row's
        # ends), at flat index i the step P[i] - P[i - 1] (+inf at a row's
        # start and past its end)
        self.bounds = np.searchsorted(row, np.arange(R + 1)) - np.arange(R + 1)
        below, above = np.full(idx.size, -np.inf), np.full(idx.size, np.inf)
        below[1:][edge] = above[:-1][edge] = self.positions
        steps = np.empty(R * L + 1)
        steps[1:-1] = np.diff(flat_P)
        starts = np.arange(R + 1) * L
        steps[starts] = steps[starts[:-1] + n] = np.inf
        self._lookup = (idx, flat_S, flat_P, below, above, steps)
        return self._lookup

    def cluster_state(self, r: int, time: float, velocities=None) -> ClusterState:
        """Row r's clusters as a ClusterState at ``time``: cluster j has
        mass P[hi[j]] - P[lo[j]] and its hull velocity, or velocities[j]
        when a velocity column is given."""
        a, b = self.bounds[r], self.bounds[r + 1]
        vel = self.velocities[a:b] if velocities is None else velocities
        return ClusterState(time, self.positions[a:b], self.masses[a:b], vel, self.lo[a:b], self.hi[a:b])

    def argmin_grid(self, grids):
        """``PrefixFrame.argmin`` at every point of the grids grids[r] of
        row r: flat (nu, k_min, k_max) arrays, row after row.

        One searchsorted per row over its cluster positions (the hull
        slopes) gives each point the hull vertex v that minimizes T_k(x). A
        point whose two adjacent slopes lie outside its tie window
        (``_settled``) has no tie and takes nu = S[v] - x P[v], the scan's
        own operation. Any other point (one near a cluster position, where
        prefixes may tie) takes the one tie rule, ``_argmin``, on its row's
        n[r] prefixes under the stack's tie tolerance, so the result equals
        ``argmin`` point by point, with O(N + G) memory per row.
        """
        sizes = [len(g) for g in grids]
        xs = _finite_points(np.concatenate([np.asarray(g, dtype=float) for g in grids]))
        r = np.repeat(np.arange(len(grids)), sizes)
        s_max, total = self.s_max[r], self.P[r, -1]
        with np.errstate(over="ignore"):
            far = np.flatnonzero(s_max + np.abs(xs) * total >= _REACH)
        if far.size:
            raise PotentialOverflow(f"x = {float(xs[far[0]])!r} is too far out: S - x P may overflow")
        idx, flat_S, flat_P, below, above, steps = self._lookup or self._build_hull()
        f, g = self.bounds.tolist(), list(itertools.accumulate(sizes, initial=0))
        j = np.concatenate(
            [np.searchsorted(self.positions[f[q] : f[q + 1]], xs[g[q] : g[q + 1]]) for q in range(len(grids))]
        )
        at = self.bounds[r] + r + j
        v = idx[at]
        nu = flat_S[v] - xs * flat_P[v]
        settled = _settled(xs, nu, s_max, total, self.tie_tol, below[at], above[at], steps[v], steps[v + 1])
        k_min = v - r * self.P.shape[1]
        k_max = k_min.copy()
        for i in np.flatnonzero(~settled).tolist():
            q, m = r[i], self.n[r[i]]
            nu[i], k_min[i], k_max[i] = _argmin(self.P[q, :m], self.S[q, :m], self.tie_tol, float(xs[i]))
        return nu, k_min, k_max


def _monotone_chain(P, S, ks):
    """Lower-hull vertices among the increasing prefix indices ks of one row.

    The sequential reference of ``_hull_vertices`` and its fallback. A point
    whose P equals the last point's is the same point in P, as the tie rule
    reads it: it leaves first, so no hull edge has zero mass. Then the
    chain pops its last vertex while the cross product of the last two
    vertices and the next point is <= 0 (collinear points are dropped).
    """
    P, S, ks = P.tolist(), S.tolist(), list(ks)
    # P is nondecreasing, so the points whose P equals the last one's end the row
    while len(ks) > 1 and P[ks[-2]] == P[ks[-1]]:
        del ks[-2]
    verts = []
    for k in ks:
        while len(verts) >= 2:
            a, b = verts[-2], verts[-1]
            cross = (P[b] - P[a]) * (S[k] - S[a]) - (P[k] - P[a]) * (S[b] - S[a])
            if cross <= 0.0:
                verts.pop()
            else:
                break
        verts.append(k)
    return verts


def _chain_rows(P, S, rows):
    """Flat indices r * L + k of ``_monotone_chain`` on the prefixes
    rows[r] of each row r of the (R, L) arrays, row after row."""
    L = P.shape[1]
    return np.concatenate([np.add(_monotone_chain(P[r], S[r], ks), r * L) for r, ks in rows.items()])


def _hull_vertices(P, S, n):
    """Lower-hull vertices of a stack of prefix rows, as flat indices.

    Row r of the (R, L) arrays holds the points (P[r, k], S[r, k]) for
    k < n[r] (n[r] >= 1); the rest of the row is padding and never read.
    Returns the increasing indices r * L + k of every row's vertices, the
    ones ``_monotone_chain`` gives on the row. A stack of at most
    ``HULL_CHAIN_POINTS`` points takes the chain row by row.

    Otherwise a point whose P equals its row's last P leaves first, and
    each pass drops, at once, every point whose cross product with its
    current live neighbours is <= 0, with each row's first and last points
    pinned, so that every live neighbour lies in the point's own row. A
    cross product within rounding of zero (``_CROSS_ROUNDING``) may have
    the wrong sign: its row goes to the chain whole, so every drop the
    kernel keeps removes a point that lies above the hull, and a tie keeps
    the chain's answer. A row still dropping points after ``HULL_PASSES``
    passes hands its survivors to the chain.
    """
    R, L = P.shape
    if P.size <= HULL_CHAIN_POINTS:
        return _chain_rows(P, S, {r: range(m) for r, m in enumerate(n.tolist())})
    last = (n - 1)[:, None]
    cols = np.arange(L)
    live = (cols < last) & (P != np.take_along_axis(P, last, axis=1)) | (cols == last)
    free = (live & (cols > 0) & (cols < last)).ravel()
    flat_P, flat_S = P.ravel(), S.ravel()
    idx = np.flatnonzero(live)
    tied = np.zeros(R, dtype=bool)
    for _ in range(HULL_PASSES):
        p, s = flat_P[idx], flat_S[idx]
        pa, sa = p[:-2], s[:-2]
        left, right = (p[1:-1] - pa) * (s[2:] - sa), (p[2:] - pa) * (s[1:-1] - sa)
        cross = left - right
        inner = free[idx[1:-1]]
        tie = np.abs(cross) <= _CROSS_ROUNDING * (np.abs(left) + np.abs(right)) + sys.float_info.min
        tie &= inner
        if tie.any():
            tied[idx[1:-1][tie] // L] = True
        drop = (cross <= 0.0) & inner
        if not drop.any():
            capped = []
            break
        before, idx = idx, idx[np.concatenate(([True], ~drop, [True]))]
    else:
        capped = np.unique(before[1:-1][drop] // L).tolist()
    redo = {r: range(n[r]) for r in np.flatnonzero(tied).tolist()}
    for r in capped:
        redo.setdefault(r, (idx[idx // L == r] - r * L).tolist())
    if redo:
        kept = idx[~np.isin(idx // L, list(redo))]
        idx = np.sort(np.concatenate((kept, _chain_rows(P, S, redo))))
    return idx


def minimize_Fbar(measure: AtomicMeasure, x, t: float):
    """(nu, k_min, k_max) of the drift potential, weights (0, -t): one drift
    frame's tie rule ``argmin`` at a scalar x, or at each point of a 1-d grid
    in grid order as float, intp and intp arrays. The coefficients check t first."""
    coeffs = PotentialCoefficients.drift(t)
    if len(measure) == 0:
        raise EmptyMeasure("cannot minimize a potential over an empty measure")
    xs, frame = np.asarray(x, dtype=float), PrefixFrame(measure, None, coeffs)
    nu, k_min, k_max = out = np.empty(xs.shape), np.empty(xs.shape, np.intp), np.empty(xs.shape, np.intp)
    for i, p in enumerate(xs.ravel().tolist()):
        nu.flat[i], k_min.flat[i], k_max.flat[i] = frame.argmin(p)
    return out if xs.ndim else (float(nu), int(k_min), int(k_max))
