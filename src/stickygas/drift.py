"""Formula-layer solution of the drift dynamics.

The drift mass comes from minimizing the drift potential (time weights
0, -t); the momentum obeys the closed form qbar = -mbar^2/2 + M*mbar/2
exactly, and the velocity is minus the centered cumulative mass, read off
the argmin structure without numeric one-sided limits.
"""

from __future__ import annotations

import numpy as np

from .errors import IdentityViolation
from .measure import AtomicMeasure, ClusterState, _finite_points
from .potentials import PotentialCoefficients, PrefixFrame

__all__ = [
    "eval_mbar",
    "eval_qbar",
    "eval_ubar",
    "eval_mbar_grid",
    "drift_cluster_snapshot",
]


def _drift_frame(measure, t):
    return PrefixFrame(measure, None, PotentialCoefficients.drift(t))


def _drift_ranges(measure, xs, t):
    """(k_min, k_max) arrays: the drift argmin range at each point of a grid.

    At t > 0 one frame and one ``argmin_grid`` lookup; at t = 0 the atoms
    have not moved, so k_min counts the atoms left of x and k_max those at
    or left of x.
    """
    if t == 0.0:
        xs, pos = _finite_points(xs), measure.positions
        return pos.searchsorted(xs, "left"), pos.searchsorted(xs, "right")
    _, k_min, k_max = _drift_frame(measure, t).argmin_grid(xs)
    return k_min, k_max


def _drift_point(measure, x, t):
    """(mbar, qbar, ubar), the drift fields at a scalar x, a one-point grid.

    The momentum is the prefix sum of -mtilde0, which telescopes to
    -mbar^2/2 + M*mbar/2; a violation beyond roundoff signals a
    prefix-side bug.
    """
    k_min, k_max = (int(k[0]) for k in _drift_ranges(measure, [x], t))
    P, M = measure.prefix_mass, measure.total_mass
    mbar = float(P[k_min])
    q = float(-np.sum(measure.masses[:k_min] * measure.atom_mtilde()[:k_min]))
    closed = -0.5 * mbar * mbar + 0.5 * M * mbar
    if abs(q - closed) > 1e-14 * max(1.0, 0.25 * M * M):
        raise IdentityViolation(
            f"drift momentum identity violated at (x={x}, t={t}): {q} vs {closed}"
        )
    return mbar, q, float(-0.5 * (P[k_min] + P[k_max] - M))


def eval_mbar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift mass strictly left of x."""
    return _drift_point(measure, x, t)[0]


def eval_mbar_grid(measure: AtomicMeasure, xs, t: float):
    return measure.prefix_mass[_drift_ranges(measure, xs, t)[0]]


def eval_qbar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift momentum over the prefix of eval_mbar, checked against its closed form."""
    return _drift_point(measure, x, t)[1]


def eval_ubar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift velocity: minus the centered mass, one-sided values from the argmin."""
    return _drift_point(measure, x, t)[2]


def drift_cluster_snapshot(measure: AtomicMeasure, t: float) -> ClusterState:
    """Cluster decomposition of the drift solution at time t.

    The velocity of a cluster is minus its centered cumulative mass; at
    t = 0 the clusters are the atoms.
    """
    if t == 0.0:
        return ClusterState.from_atoms(t, measure, -measure.atom_mtilde())
    frame = _drift_frame(measure, t)
    lo, hi, _, _ = frame.clusters()
    P = frame.P
    return frame.cluster_state(t, -0.5 * (P[lo] + P[hi] - measure.total_mass))
