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
from .euler_poisson import _fields, _frame, eval_m_and_clusters_stacked
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


def eval_scaled(data: InitialData, x: float, t: float, tau: float):
    """(m_tau, u_tau, q_tau/tau) of the slow-time-scaled solution at (x, t);
    at t = 0, the initial data's (m0, u0/tau, q0/tau)."""
    m, q, u = _fields(data.with_tau(tau), x, t, "mqu", PotentialCoefficients.scaled)
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
    """Drop grid points sitting exactly on a drift shock, where m is one-sided:
    one ``minimize_Fbar`` call on one drift frame keeps those with k_max == k_min."""
    _, k_min, k_max = minimize_Fbar(measure, xs, t)
    return np.asarray(xs, dtype=float)[k_max == k_min]


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
    sits at a slightly shifted position. The taus' scaled rows go through
    ``eval_m_and_clusters_stacked`` under ``PotentialCoefficients.scaled``:
    one stack and one hull lookup per bounded block of taus.
    """
    measure = data.measure
    taus = [float(v) for v in tau_sequence]
    scaled = [data.with_tau(tau) for tau in taus]  # every tau checked before any work
    grid = _filtered_grid(measure, x_grid, t)
    mbar = eval_mbar_grid(measure, grid, t)
    drift = drift_cluster_snapshot(measure, t)

    err_m = []
    err_u = []
    stacked = eval_m_and_clusters_stacked(((d, t, grid) for d in scaled), PotentialCoefficients.scaled)
    for block, m, m_bounds, _, _, positions, velocities, bounds in stacked:
        for r, (d, _, _) in enumerate(block):
            err_m.append(float(np.max(np.abs(m[m_bounds[r] : m_bounds[r + 1]] - mbar))) if grid.size else 0.0)
            pos, vel = (c[bounds[r] : bounds[r + 1]] for c in (positions, velocities))
            err = np.abs(vel[_nearest(pos, drift.positions)] / d.tau - drift.velocities)
            err_u.append(float(np.max(err, initial=0.0)))

    return RelaxationReport(
        t=t,
        tau_sequence=tuple(taus),
        err_m=tuple(err_m),
        err_u=tuple(err_u),
        grid=tuple(grid.tolist()),
    )
