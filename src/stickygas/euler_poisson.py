"""Entropy-solution evaluation for the damped self-gravitating gas.

Every field at a point (x, t) comes from the prefix argmin of the first
generalized potential: the mass is the prefix mass at the smallest argmin,
momentum and energy are matching prefix sums, and the velocity follows the
branch analysis of the forward generalized characteristics (delta shock,
vacuum escape, or plain characteristic).

The cluster decomposition at a fixed time equals the lower convex hull of
the prefix points (P_k, S_k): hull vertices are the exposed prefixes and
each hull edge is one cluster whose position and velocity are the edge
slopes in S and Q. The hull lives in ``potentials.PrefixFrame.clusters``,
shared with the drift and relaxation layers. Clusters only merge, so the
forward characteristics are read off the same hull: ``forward_position``
is the position of the cluster that holds the atom, and ``trace_shock``
follows a cluster, or a backward characteristic clamped between the two
clusters around it.

``sample``, ``eval_q``, ``eval_u`` and ``eval_E`` take a scalar x or a 1-d
grid of x. A scalar x runs the dense prefix argmin; a grid returns the
per-point results in grid order, from one frame, one hull lookup
(``PrefixFrame.argmin_grid``) and one per-atom energy term array, and
equals the scalar calls point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonPositiveTime
from .measure import BLOCK_ELEMENTS, ClusterState, InitialData
from .potentials import PotentialCoefficients, PrefixFrame

__all__ = [
    "Branch",
    "SolutionSample",
    "ShockCurve",
    "eval_m",
    "eval_q",
    "eval_u",
    "eval_E",
    "eval_nu_theta_omega",
    "sample",
    "eval_m_grid",
    "eval_m_and_clusters",
    "forward_position",
    "cluster_snapshot",
    "FormulaSolution",
    "trace_shock",
    "speed_bound",
]

# Tolerance scale for classifying c(y*; x, t) against u0(y*) and +-U0.
DEFAULT_SPEED_TOL = 1e-9


class Branch(Enum):
    VACUUM_RIGHT = "vacuum_right"
    VACUUM_LEFT = "vacuum_left"
    DELTA_SHOCK = "delta_shock"
    CHARACTERISTIC = "characteristic"


@dataclass(frozen=True)
class SolutionSample:
    """All solution fields at one point, with the velocity branch that fired."""

    x: float
    t: float
    m: float
    q: float
    u: float
    E: float
    branch: Branch


@dataclass(frozen=True)
class ShockCurve:
    """Sampled forward generalized characteristic from (x0, t0)."""

    x0: float
    t0: float
    times: tuple
    positions: tuple
    velocities: tuple
    ranges: tuple  # (k_min, k_max) prefix pair per sample


def speed_bound(data: InitialData) -> float:
    """Global bound U0 + tau*M/2 on every velocity of the solution."""
    return data.max_speed + 0.5 * data.tau * data.measure.total_mass


def _frame(data, t, coeffs=None):
    if coeffs is None:
        coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
    return PrefixFrame(data.measure, data.velocities, coeffs)


# -- pointwise fields --------------------------------------------------------


def eval_m(data: InitialData, x: float, t: float) -> float:
    """Cumulative mass strictly left of x: left-continuous, nondecreasing."""
    if t == 0.0:
        return _initial_fields(data, x, "m")[0].tolist()
    frame = _frame(data, t)
    _, k_min, _ = frame.argmin(x)
    return float(frame.P[k_min])


def eval_q(data: InitialData, x, t: float):
    """Momentum integral over the same prefix as eval_m.

    For a 1-d grid x, a list of momenta in grid order.
    """
    if t == 0.0:
        return _initial_fields(data, x, "q")[0].tolist()
    frame, _, k_min, _ = _ranges(data, x, t)
    qs = frame.Q[k_min].tolist()
    return qs if _is_grid(x) else qs[0]


def _backward_cone(frame, data, x, k_min):
    """Case split of the backward generalized characteristic from (x, t).

    The anchor is atom a = max(k_min, 1) - 1 at y, and c_mid is the initial
    speed that the characteristic through y needs at the atom's symmetric
    centered mass. Returns (side, vacuum, a, y, mt, c): side is 0 when c_mid
    matches u0(a) within the speed tolerance (x on the atom's own path,
    mt and c the symmetric values), +1 right of that path and -1 left of it
    (mt and c the one-sided values). vacuum is True when that one-sided
    speed lies beyond +-U0, so the max-speed vacuum tracer applies.
    """
    coeffs = frame.coeffs
    m = data.measure
    a = max(k_min, 1) - 1
    y = m.positions[a]
    half_m = 0.5 * m.total_mass
    mt = m.prefix_mass[a] + 0.5 * m.masses[a] - half_m
    ratio = coeffs.force_speed_ratio()
    c = (x - y) / coeffs.A - mt * ratio
    u0a = data.velocities[a]
    tol = DEFAULT_SPEED_TOL * (1.0 + abs(c) + abs(u0a))
    u_bound = data.max_speed
    if c > u0a + tol:
        mt = m.prefix_mass[a + 1] - half_m
        c = (x - y) / coeffs.A - mt * ratio
        return 1, c > u_bound + tol, a, y, mt, c
    if c < u0a - tol:
        mt = m.prefix_mass[a] - half_m
        c = (x - y) / coeffs.A - mt * ratio
        return -1, c < -u_bound - tol, a, y, mt, c
    return 0, False, a, y, mt, c


def _velocity_from_frame(frame, data, x, k_min, k_max):
    """Velocity and branch tag at x from a prefix frame and the argmin range at x."""
    coeffs = frame.coeffs
    if k_max > k_min:
        # positive mass at x; when the backward cone is degenerate (lone
        # leading atom exactly on its path, prefix tie 0..1) this is the
        # characteristic case and [q]/[m] reduces to the atom velocity
        u = (frame.Q[k_max] - frame.Q[k_min]) / (frame.P[k_max] - frame.P[k_min])
        shock = max(k_min, 1) != max(k_max, 1)
        branch = Branch.DELTA_SHOCK if shock else Branch.CHARACTERISTIC
        return float(u), branch
    side, vacuum, a, y, mt, _ = _backward_cone(frame, data, x, k_min)
    if side == 0:
        # on the atom's own path: velocity is the atom's free-flight velocity
        return float(frame.vel[a]), Branch.CHARACTERISTIC
    if vacuum:
        u = side * data.max_speed * coeffs.decay - mt * coeffs.A
        branch = Branch.VACUUM_RIGHT if side > 0 else Branch.VACUUM_LEFT
        return float(u), branch
    u = (x - y) * coeffs.decay / coeffs.A + mt * coeffs.char_force_weight()
    return float(u), Branch.CHARACTERISTIC


def _is_grid(x) -> bool:
    return np.ndim(x) == 1


def _initial_fields(data, x, names):
    """The initial-data fields named in ``names`` ("m", "q", "u", "E"), in
    that order, at a scalar x or a 1-d grid of x.

    One searchsorted: m is the prefix mass strictly left of x, q and E are
    sequential prefix sums of the per-atom terms over the same atoms, and
    u is the atom's velocity on an exact atom hit, else 0.0. Only the
    requested fields are built, so an m query stays a binary search.
    Numpy values; ``tolist()`` gives a float for a scalar x and a list for
    a grid.
    """
    m, u0 = data.measure, data.velocities
    k = np.searchsorted(m.positions, x, side="left")
    fields = []
    for name in names:
        if name == "m":
            fields.append(m.prefix_mass[k])
        elif name == "u":
            on_atom = np.append(m.positions, np.nan)[k] == x
            fields.append(np.where(on_atom, np.append(u0, 0.0)[k], 0.0))
        else:
            terms = m.masses * u0 * (u0 if name == "E" else 1.0)
            fields.append(np.concatenate(([0.0], np.cumsum(terms)))[k])
    return fields


def _ranges(data, x, t):
    """(frame, xs, k_min, k_max) lists: dense argmin for a scalar, lookup for a grid."""
    frame = _frame(data, t)
    if _is_grid(x):
        xs = np.asarray(x, dtype=float)
        _, k_min, k_max = frame.argmin_grid(xs)
        return frame, xs.tolist(), k_min.tolist(), k_max.tolist()
    _, k_min, k_max = frame.argmin(x)
    return frame, [x], [k_min], [k_max]


def eval_u(data: InitialData, x, t: float):
    """Velocity at (x, t) and the branch that produced it.

    Off the support the field is an extension convention: interior vacuum
    gaps take the rightward max-speed tracer (+U0, anchored at the atom on
    the left), while only the leftmost infinite vacuum takes -U0. The
    extension is therefore deliberately not mirror-symmetric; on the
    support (at clusters) the value is the physical cluster velocity.
    For a 1-d grid x, a list of (u, branch) pairs in grid order.
    """
    if t == 0.0:
        us = _initial_fields(data, x, "u")[0].tolist()
        if _is_grid(x):
            return [(u, Branch.CHARACTERISTIC) for u in us]
        return us, Branch.CHARACTERISTIC
    frame, xs, k_min, k_max = _ranges(data, x, t)
    us = [_velocity_from_frame(frame, data, *r) for r in zip(xs, k_min, k_max)]
    return us if _is_grid(x) else us[0]


def _energies(frame, k_mins) -> list:
    """Energy over each prefix k_min: free momenta times cluster velocities.

    One sequential prefix sum of the per-atom terms serves every k_min.
    """
    lo, hi, _, vel = frame.clusters()
    terms = frame.measure.masses * frame.vel * np.repeat(vel, hi - lo)
    return np.concatenate(([0.0], np.cumsum(terms)))[k_mins].tolist()


def eval_E(data: InitialData, x, t: float):
    """Energy integral: free momenta weighted by the actual cluster velocities.

    For a 1-d grid x, a list of energies in grid order.
    """
    if t == 0.0:
        return _initial_fields(data, x, "E")[0].tolist()
    frame, _, k_min, _ = _ranges(data, x, t)
    energies = _energies(frame, k_min)
    return energies if _is_grid(x) else energies[0]


def eval_nu_theta_omega(data: InitialData, x: float, t: float):
    """Potential minimum nu plus the auxiliary fields (theta, omega, h) at (x, t)."""
    if t <= 0.0:
        raise NonPositiveTime(f"auxiliary fields require t > 0, got {t}")
    frame = _frame(data, t)
    nu, k_min, _ = frame.argmin(x)
    if k_min == 0:
        return float(nu), 0.0, 0.0, 0.0
    lo, hi, pos, vel = frame.clusters()
    cluster_pos, cluster_vel = np.repeat(pos, hi - lo), np.repeat(vel, hi - lo)
    m = data.measure
    w = m.masses[:k_min]
    off = cluster_pos[:k_min] - x
    theta = float(np.sum(w * frame.vel[:k_min] * off))
    coeffs = frame.coeffs
    mt = m.atom_mtilde()[:k_min]
    omega = float(
        -(coeffs.decay / data.tau)
        * np.sum(w * (data.velocities[:k_min] + data.tau * mt) * off)
    )
    h = float(np.sum(w * cluster_vel[:k_min]))
    return float(nu), theta, omega, h


def sample(data: InitialData, x, t: float):
    """All solution fields at one point; for a 1-d grid x, a list in grid order."""
    if t == 0.0:
        fields = [f.tolist() for f in _initial_fields(data, x, "mquE")]
        if not _is_grid(x):
            return SolutionSample(x, 0.0, *fields, Branch.CHARACTERISTIC)
        xs = np.asarray(x, dtype=float).tolist()
        return [
            SolutionSample(v, 0.0, *f, Branch.CHARACTERISTIC) for v, *f in zip(xs, *fields)
        ]
    frame, xs, k_min, k_max = _ranges(data, x, t)
    samples = []
    for v, a, b, E in zip(xs, k_min, k_max, _energies(frame, k_min)):
        u, branch = _velocity_from_frame(frame, data, v, a, b)
        m, q = float(frame.P[a]), float(frame.Q[a])
        samples.append(SolutionSample(x=v, t=t, m=m, q=q, u=u, E=E, branch=branch))
    return samples if _is_grid(x) else samples[0]


# -- grid evaluation ---------------------------------------------------------


def eval_m_grid(data: InitialData, xs, t: float):
    """Vectorized eval_m over an array of positions."""
    xs = np.asarray(xs, dtype=float)
    if t == 0.0:
        return _initial_fields(data, xs, "m")[0]
    frame = _frame(data, t)
    _, k_min, _ = frame.argmin_grid(xs)
    return frame.P[k_min]


def eval_m_and_clusters(data: InitialData, xs, t: float):
    """``eval_m_grid`` at xs and ``cluster_snapshot`` at t, from one frame.

    Returns (m, ClusterState); each equals the separate call bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    if t == 0.0:
        return eval_m_grid(data, xs, t), cluster_snapshot(data, t)
    frame = _frame(data, t)
    _, k_min, _ = frame.argmin_grid(xs)
    return frame.P[k_min], frame.cluster_state(t)


# -- cluster structure -------------------------------------------------------


def cluster_snapshot(data: InitialData, t: float) -> ClusterState:
    """Cluster decomposition of the solution at time t: the hull edges of
    ``PrefixFrame.clusters``, or one cluster per atom at t = 0.
    """
    if t == 0.0:
        return ClusterState.from_atoms(t, data.measure, data.velocities)
    return _frame(data, t).cluster_state(t)


@dataclass(frozen=True)
class FormulaSolution:
    """The formula layer as a solution for the validators, read like the
    oracle's ``Trajectory``; it tracks no collisions, so the quadrature
    cuts ``event_times`` are the caller's."""

    data: InitialData
    event_times: tuple = ()
    layer = "formula"

    def state_at(self, t: float) -> ClusterState:
        return cluster_snapshot(self.data, t)

    def states_at(self, ts):
        """``Trajectory.states_at`` blocks: consecutive snapshots with equal
        mass columns share a block of at most BLOCK_ELEMENTS positions."""
        block = []
        for t in ts:
            snap = cluster_snapshot(self.data, t)
            if block and (
                not np.array_equal(snap.masses, block[0].masses)
                or len(block) * snap.masses.size >= BLOCK_ELEMENTS
            ):
                yield _stack(block)
                block = []
            block.append(snap)
        if block:
            yield _stack(block)


def _stack(snaps):
    columns = (np.array([getattr(s, name) for s in snaps]) for name in ("time", "positions", "velocities"))
    return (*columns, snaps[0].masses)


# -- forward generalized characteristics --------------------------------------


def _holder(hi, i):
    """Index of the cluster (hull edge) that holds atom i."""
    return int(np.searchsorted(hi, i, side="right"))


def forward_position(data: InitialData, atom_index: int, t: float) -> float:
    """Position x(eta_i, t) of the forward characteristic through atom i.

    Clusters only merge, so atom i sits at the position of the hull edge
    that holds it.
    """
    m = data.measure
    if not 0 <= atom_index < len(m):
        raise IndexError(f"atom index {atom_index} out of range")
    if t == 0.0:
        return float(m.positions[atom_index])
    _, hi, pos, _ = _frame(data, t).clusters()
    return float(pos[_holder(hi, atom_index)])


def trace_shock(
    data: InitialData, x0: float, t0: float, t_end: float, dt: float
) -> ShockCurve:
    """Sample the unique forward generalized characteristic from (x0, t0).

    A start on a cluster (k_max > k_min at x0) follows the cluster that
    holds atom k_min. A start in vacuum (k_min = k_max = k) continues its
    backward characteristic (the max-speed vacuum tracer, or the plain
    characteristic from its anchor atom), clamped between the clusters
    that hold atoms k - 1 and k.
    """
    if not 0.0 < t0 < t_end < math.inf:
        raise NonPositiveTime(
            f"need 0 < t0 < t_end with t_end finite, got t0={t0}, t_end={t_end}"
        )
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    times = [t0]
    n_steps = int(math.floor((t_end - t0) / dt + 1e-12))
    times += [t0 + j * dt for j in range(1, n_steps + 1)]
    if times[-1] < t_end - 1e-12 * (1.0 + t_end):
        times.append(t_end)

    frame = _frame(data, t0)
    coeffs0 = frame.coeffs
    _, k, k_max = frame.argmin(x0)
    if k_max == k:
        side, vacuum, _, y, mt, c = _backward_cone(frame, data, x0, k)

    xs, vels, ranges = [], [], []
    for j, t1 in enumerate(times):
        x1 = float(x0)
        if j > 0:
            frame = _frame(data, t1)
            _, hi, pos, _ = frame.clusters()
            coeffs = frame.coeffs
            if k_max > k:
                x1 = pos[_holder(hi, k)]
            else:
                if vacuum:
                    x1 = (
                        x0
                        + side * data.max_speed * (coeffs.A - coeffs0.A)
                        + mt * (coeffs.B - coeffs0.B)
                    )
                else:
                    x1 = y + c * coeffs.A + mt * coeffs.B
                if k > 0:
                    x1 = max(x1, pos[_holder(hi, k - 1)])
                if k < len(data.measure):
                    x1 = min(x1, pos[_holder(hi, k)])
            x1 = float(x1)
        _, a, b = frame.argmin(x1)
        u, _ = _velocity_from_frame(frame, data, x1, a, b)
        xs.append(x1)
        vels.append(u)
        ranges.append((a, b))
    return ShockCurve(
        x0=float(x0),
        t0=float(t0),
        times=tuple(times),
        positions=tuple(xs),
        velocities=tuple(vels),
        ranges=tuple(ranges),
    )
