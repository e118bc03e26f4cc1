"""Formula-layer solution of the drift dynamics.

The drift mass comes from minimizing the drift potential (time weights
0, -t); the momentum obeys the closed form qbar = -mbar^2/2 + M*mbar/2
exactly, and the velocity is minus the centered cumulative mass, read off
the argmin structure without numeric one-sided limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IdentityViolation
from .measure import AtomicMeasure, ClusterState
from .potentials import PotentialCoefficients, PrefixFrame, minimize_Fbar

__all__ = [
    "DriftBranch",
    "DriftSample",
    "eval_mbar",
    "eval_qbar",
    "eval_ubar",
    "sample_drift",
    "eval_mbar_grid",
    "drift_cluster_snapshot",
]


class DriftBranch(Enum):
    DELTA_SHOCK = "delta_shock"
    OFF_SUPPORT = "off_support"


@dataclass(frozen=True)
class DriftSample:
    x: float
    t: float
    mbar: float
    qbar: float
    ubar: float
    branch: DriftBranch


def _drift_frame(measure, t):
    return PrefixFrame(measure, None, PotentialCoefficients.drift(t))


def eval_mbar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift mass strictly left of x."""
    if t == 0.0:
        return float(measure.cdf_left(x))
    res = minimize_Fbar(measure, x, t)
    return float(measure.prefix_mass[res.k_min])


def eval_mbar_grid(measure: AtomicMeasure, xs, t: float):
    xs = np.asarray(xs, dtype=float)
    if t == 0.0:
        return measure.prefix_mass[np.searchsorted(measure.positions, xs, side="left")]
    frame = _drift_frame(measure, t)
    _, k_min, _ = frame.argmin_grid(xs)
    return frame.P[k_min]


def eval_qbar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift momentum: prefix sum of -mtilde0, checked against its closed form.

    The prefix sum telescopes to -mbar^2/2 + M*mbar/2; a violation beyond
    roundoff signals a prefix-side bug.
    """
    res = minimize_Fbar(measure, x, t)
    k = res.k_min
    mt = measure.atom_mtilde()
    q = float(-np.sum(measure.masses[:k] * mt[:k]))
    M = measure.total_mass
    mbar = float(measure.prefix_mass[k])
    closed = -0.5 * mbar * mbar + 0.5 * M * mbar
    scale = max(1.0, 0.25 * M * M)
    if abs(q - closed) > 1e-14 * scale:
        raise IdentityViolation(
            f"drift momentum identity violated at (x={x}, t={t}): {q} vs {closed}"
        )
    return q


def eval_ubar(measure: AtomicMeasure, x: float, t: float) -> float:
    """Drift velocity: minus the centered mass, one-sided values from the argmin."""
    res = minimize_Fbar(measure, x, t)
    P = measure.prefix_mass
    return float(-0.5 * (P[res.k_min] + P[res.k_max] - measure.total_mass))


def sample_drift(measure: AtomicMeasure, x: float, t: float) -> DriftSample:
    """All drift fields at one point with the on/off-support branch flag."""
    res = minimize_Fbar(measure, x, t)
    P = measure.prefix_mass
    M = measure.total_mass
    mbar = float(P[res.k_min])
    qbar = float(-0.5 * mbar * mbar + 0.5 * M * mbar)
    ubar = float(-0.5 * (P[res.k_min] + P[res.k_max] - M))
    branch = DriftBranch.DELTA_SHOCK if res.has_jump else DriftBranch.OFF_SUPPORT
    return DriftSample(x=x, t=t, mbar=mbar, qbar=qbar, ubar=ubar, branch=branch)


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
