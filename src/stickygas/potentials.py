"""Generalized potentials and their exact prefix-sum minimization.

For atomic initial data every potential is a left-continuous step function
of the lower integration limit y, so minimizing over y reduces to an exact
argmin over the N+1 prefix sums T_k(x, t). The same machinery serves the
damped self-gravitating system (time weights A, B), its drift limit
(weights 0, -t), and the slow-time-scaled family used in the relaxation
study.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, NonPositiveTime
from .measure import AtomicMeasure, ClusterState, InitialData, _finite_points

__all__ = [
    "DEFAULT_TIE_TOL",
    "DEFAULT_TIE_POS_TOL",
    "PotentialCoefficients",
    "MinimizerResult",
    "minimize_F",
    "minimize_Fbar",
]

# Prefix sums T_j and the minimum nu tie when
#   T_j - nu <= DEFAULT_TIE_TOL * (1 + |nu|)
#              + DEFAULT_TIE_POS_TOL * (1 + |x|) * |P_j - P_argmin|.
# The second term measures the distance from x to the position where the
# two prefixes would tie exactly; the value-relative term alone misses
# ties at late-time clusters where nu is incidentally near zero.
DEFAULT_TIE_TOL = 1e-12
DEFAULT_TIE_POS_TOL = 1e-9

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


@dataclass(frozen=True)
class MinimizerResult:
    """Outcome of minimizing a generalized potential over y at fixed (x, t).

    k_min and k_max are the smallest/largest prefix indices attaining the
    minimum under the tie tolerance; y_star and y_star_up are the matching
    atom positions (left minimizer and its right limit in x).
    """

    nu: float
    y_star: float
    y_star_up: float
    attained_at_y_star: bool
    k_min: int
    k_max: int

    @property
    def has_jump(self) -> bool:
        return self.k_max > self.k_min


class PrefixFrame:
    """Prefix sums of one potential at fixed coefficients, queryable in x.

    T_k(x) = S[k] - x * P[k]; the argmin over k is the minimizer of the
    potential. Also carries the prefix momentum Q used by the solution
    formulas, and the cluster decomposition as the lower convex hull of
    the points (P_k, S_k).
    """

    __slots__ = (
        "measure",
        "coeffs",
        "P",
        "S",
        "Q",
        "X",
        "vel",
        "tie_tol",
        "_hull",
        "_lookup",
    )

    def __init__(self, measure, velocities, coeffs):
        self.measure = measure
        self.coeffs = coeffs
        # the one reader of the tie tolerance, resolved at construction so
        # that a CLI --tol-tie override reaches every frame built under it
        self.tie_tol = DEFAULT_TIE_TOL
        w = measure.masses
        mt = measure.atom_mtilde()
        # collision-free atom positions eta + u*A + mtilde0*B at the coefficient time
        X = measure.positions + coeffs.B * mt
        if velocities is not None and coeffs.A != 0.0:
            X = X + coeffs.A * velocities
        self.X = X
        if velocities is None:
            velocities = np.zeros_like(w)
        # free-flight velocity of each atom at the coefficient time
        self.vel = coeffs.decay * velocities - coeffs.A * mt
        self.P = measure.prefix_mass
        self.S = np.concatenate(([0.0], np.cumsum(w * self.X)))
        self.Q = np.concatenate(([0.0], np.cumsum(w * self.vel)))
        self._hull = self._lookup = None

    def argmin(self, x: float):
        """(nu, k_min, k_max) of the prefix sums at x under the tie tolerance.

        The one tie rule. Scans all N+1 prefixes: the dense reference for
        ``argmin_grid``. Three callers: ``argmin_grid`` for points in a tie
        window, ``result`` (behind ``minimize_F`` and ``minimize_Fbar``) and
        ``euler_poisson.eval_nu_theta_omega``, which report nu. Every field
        evaluation, at a scalar x too, reads ``argmin_grid``.
        """
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        T = self.S - x * self.P
        k0 = int(np.argmin(T))
        nu = float(T[k0])
        tol = self.tie_tol * (1.0 + abs(nu)) + DEFAULT_TIE_POS_TOL * (
            1.0 + abs(x)
        ) * np.abs(self.P - self.P[k0])
        ties = np.flatnonzero(T - nu <= tol)
        return nu, int(ties[0]), int(ties[-1])

    def argmin_grid(self, xs):
        """``argmin`` at every point of a grid: (nu, k_min, k_max) arrays.

        One searchsorted of xs over the cluster positions (the hull slopes)
        gives each point the hull vertex v that minimizes T_k(x). A point
        whose two adjacent slopes lie outside its tie window has no tie and
        takes nu = S[v] - x P[v], the scan's own operation. The window is
        the value term over the adjacent atom's mass, plus the position
        term, plus a rounding bound on T and on the hull. Any other point
        (one near a cluster position, where prefixes may tie) calls
        ``argmin``, so the result equals ``argmin`` point by point, with
        O(N + G) memory. The vertices, the padded slopes and prefix-mass
        steps and the bound on |S| depend only on the frame: they are built
        once, with the hull.
        """
        xs = _finite_points(xs)
        pos = self.clusters()[2]
        verts, slopes, dP, s_max = self._lookup
        P, S = self.P, self.S
        j = np.searchsorted(pos, xs)
        v = verts[j]
        nu = S[v] - xs * P[v]
        rnd = 1e-14 * (s_max + np.abs(xs) * P[-1])
        value = self.tie_tol * (1.0 + np.abs(nu)) + rnd
        reach = DEFAULT_TIE_POS_TOL * (1.0 + np.abs(xs))
        # a zero dP (an atom whose mass vanishes in P) divides to inf or nan:
        # the point stays unsettled
        with np.errstate(divide="ignore", invalid="ignore"):
            settled = (slopes[j + 1] - xs > reach + value / dP[v + 1]) & (
                xs - slopes[j] > reach + value / dP[v]
            )
        k_min, k_max = v, v.copy()
        for i in np.flatnonzero(~settled).tolist():
            nu[i], k_min[i], k_max[i] = self.argmin(float(xs[i]))
        return nu, k_min, k_max

    def result(self, x: float) -> MinimizerResult:
        if len(self.measure) == 0:
            raise EmptyMeasure("cannot minimize a potential over an empty measure")
        nu, k_min, k_max = self.argmin(x)
        pos = self.measure.positions
        # y_star_up is read off k_max instead of re-minimizing at x + eps:
        # increasing x lowers every prefix sum by eps * P_k, which strictly
        # favours the largest tied prefix, so the argmin at x + eps is k_max
        return MinimizerResult(
            nu=nu,
            y_star=float(pos[max(k_min, 1) - 1]),
            y_star_up=float(pos[max(k_max, 1) - 1]),
            attained_at_y_star=(k_min == 0),
            k_min=k_min,
            k_max=k_max,
        )

    def clusters(self):
        """Clusters as the edges of the lower convex hull of (P_k, S_k).

        Returns arrays (lo, hi, position, velocity): cluster j holds atoms
        lo[j]..hi[j]-1, and its position and velocity are the slopes of
        its hull edge in S and in Q. The hull vertices are the exposed
        prefixes; collinear points are dropped (exact test). The hull is
        built once per frame and its arrays are read-only.
        """
        if self._hull is None:
            self._build_hull()
        return self._hull

    def cluster_state(self, time: float, velocities=None) -> ClusterState:
        """The clusters of ``clusters()`` as a ClusterState at ``time``.

        Cluster j has mass P[hi[j]] - P[lo[j]] and its hull velocity, or
        velocities[j] when a velocity column is given.
        """
        lo, hi, pos, vel = self.clusters()
        vel = vel if velocities is None else velocities
        return ClusterState(time, pos, self.P[hi] - self.P[lo], vel, lo, hi)

    def _build_hull(self):
        P, S = self.P.tolist(), self.S.tolist()
        verts = []
        for k in range(len(P)):
            while len(verts) >= 2:
                a, b = verts[-2], verts[-1]
                cross = (P[b] - P[a]) * (S[k] - S[a]) - (P[k] - P[a]) * (S[b] - S[a])
                if cross <= 0.0:
                    verts.pop()
                else:
                    break
            verts.append(k)
        verts = np.array(verts, dtype=np.intp)
        lo, hi = verts[:-1], verts[1:]
        dm = self.P[hi] - self.P[lo]
        pos = (self.S[hi] - self.S[lo]) / dm
        self._hull = (lo, hi, pos, (self.Q[hi] - self.Q[lo]) / dm)
        # what argmin_grid reads besides the hull: the vertices, the cluster
        # positions and the atom masses padded with +-inf, and the S bound
        slopes = np.concatenate(([-np.inf], pos, [np.inf]))
        dP = np.concatenate(([np.inf], np.diff(self.P), [np.inf]))
        self._lookup = (verts, slopes, dP, float(np.max(np.abs(self.S))))
        for arr in (*self._hull, verts, slopes, dP):
            arr.setflags(write=False)


def minimize_F(data: InitialData, x: float, t: float) -> MinimizerResult:
    """Minimize F(.; x, t) over y by exact prefix-sum argmin."""
    coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
    return PrefixFrame(data.measure, data.velocities, coeffs).result(x)


def minimize_Fbar(measure: AtomicMeasure, x: float, t: float) -> MinimizerResult:
    """Minimize the drift potential: identical argmin structure with weights (0, -t)."""
    coeffs = PotentialCoefficients.drift(t)
    return PrefixFrame(measure, None, coeffs).result(x)
