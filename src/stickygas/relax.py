"""Relaxation-limit study: slow-time-scaled solutions against the drift limit.

The scaled solution at slow time t is the gas solution at t/tau with the
velocity amplified by 1/tau; its potential weights are computed directly
from (tau, t) so that nothing overflows as tau shrinks. The convergence
study tabulates sup errors of the scaled mass on a shock-free grid and of
the scaled cluster velocities at the drift clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drift import drift_cluster_snapshot, eval_mbar_grid
from .euler_poisson import _fields, _frame
from .measure import ClusterState, InitialData
from .potentials import PotentialCoefficients, minimize_Fbar

__all__ = ["RelaxationReport", "eval_scaled", "convergence_study", "scaled_cluster_snapshot"]

@dataclass(frozen=True)
class RelaxationReport:
    """Per-tau sup errors of the scaled solution against the drift limit."""

    t: float
    tau_sequence: tuple
    err_m: tuple
    err_u: tuple
    grid: tuple

    def rows(self):
        for tau, em, eu in zip(self.tau_sequence, self.err_m, self.err_u):
            yield tau, em, eu


def eval_scaled(data: InitialData, x: float, t: float, tau: float):
    """(m_tau, u_tau, q_tau/tau) of the slow-time-scaled solution at (x, t);
    at t = 0, the initial data's (m0, u0/tau, q0/tau)."""
    m, q, (u, _) = _fields(data.with_tau(tau), x, t, "mqu", PotentialCoefficients.scaled)
    return m, u / tau, q / tau


def scaled_cluster_snapshot(data: InitialData, t: float, tau: float) -> ClusterState:
    """Clusters of the scaled solution at slow time t, velocities divided by tau.

    At t = 0 the clusters are the atoms.
    """
    scaled = data.with_tau(tau)
    if t == 0.0:
        return ClusterState.from_atoms(t, data.measure, data.velocities / tau)
    frame = _frame(scaled, t, PotentialCoefficients.scaled)
    return frame.cluster_state(t, frame.clusters()[3] / tau)


def _filtered_grid(measure, xs, t):
    """Drop grid points sitting exactly on a drift shock, where m is one-sided."""
    keep = []
    for x in np.asarray(xs, dtype=float):
        _, k_min, k_max = minimize_Fbar(measure, float(x), t)
        if k_max == k_min:
            keep.append(float(x))
    return np.array(keep)


def _nearest(pos, xs):
    """``np.argmin(np.abs(pos - x))`` at every x of xs, for sorted nonempty ``pos``.

    With k = searchsorted(pos, x), the computed distances do not rise up to
    k - 1 and do not fall from k on, so the first least one is k or the
    start of the run of equal distances that ends at k - 1. Such a run
    (duplicate positions, or distances that round alike) is walked only
    where one starts.
    """
    xs = np.asarray(xs, dtype=float)
    k = np.searchsorted(pos, xs)
    d_left = np.abs(pos[np.maximum(k - 1, 0)] - xs)
    d_right = np.abs(pos[np.minimum(k, pos.size - 1)] - xs)
    near = np.where((k == 0) | ((k < pos.size) & (d_right < d_left)), k, k - 1)
    before = np.maximum(near - 1, 0)
    for i in np.flatnonzero((near > 0) & (near < k) & (np.abs(pos[before] - xs) == d_left)).tolist():
        j, x, d = int(near[i]) - 1, xs[i], d_left[i]
        while j > 0 and abs(pos[j - 1] - x) == d:
            j -= 1
        near[i] = j
    return near


def convergence_study(
    data: InitialData, t: float, x_grid, tau_sequence
) -> RelaxationReport:
    """Tabulate err_m(tau) on the shock-free grid and err_u(tau) at drift clusters.

    The velocity comparison pairs each drift cluster with the nearest
    cluster of the scaled solution, since at finite tau the concentration
    sits at a slightly shifted position.
    """
    measure = data.measure
    taus = [float(v) for v in tau_sequence]
    scaled = [data.with_tau(tau) for tau in taus]  # every tau checked before any work
    grid = _filtered_grid(measure, x_grid, t)
    mbar = eval_mbar_grid(measure, grid, t)
    drift = drift_cluster_snapshot(measure, t)

    err_m = []
    err_u = []
    for tau, data_tau in zip(taus, scaled):
        frame = _frame(data_tau, t, PotentialCoefficients.scaled)
        if grid.size:
            _, k_min, _ = frame.argmin_grid(grid)
            err_m.append(float(np.max(np.abs(frame.P[k_min] - mbar))))
        else:
            err_m.append(0.0)
        _, _, pos, vel = frame.clusters()
        err = np.abs(vel[_nearest(pos, drift.positions)] / tau - drift.velocities)
        err_u.append(float(np.max(err, initial=0.0)))

    return RelaxationReport(
        t=t,
        tau_sequence=tuple(taus),
        err_m=tuple(err_m),
        err_u=tuple(err_u),
        grid=tuple(grid.tolist()),
    )
