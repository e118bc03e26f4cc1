"""Entropy-solution evaluation for the damped self-gravitating gas.

Every field at a point (x, t) comes from the prefix argmin of the first
generalized potential: the mass is the prefix mass at the smallest argmin,
momentum and energy are matching prefix sums, and the velocity follows the
branch analysis of the forward generalized characteristics (delta shock,
vacuum escape, or plain characteristic): one array pass per grid,
``_velocities``, whose backward-cone case split is ``_backward_cone``.

The cluster decomposition at a fixed time equals the lower convex hull of
the prefix points (P_k, S_k): hull vertices are the exposed prefixes and
each hull edge is one cluster whose position and velocity are the edge
slopes in S and Q. ``potentials.PrefixFrame.clusters`` reads it, shared
with the drift and relaxation layers: a frame is a one-row
``potentials.FrameStack``, the one place that builds prefix sums, turns
hull vertices into clusters and answers hull lookups, with its hull built
on first use. Clusters only merge, so the forward characteristic of atom i
sits at the position of the cluster that holds it:
``cluster_snapshot(data, t)``, read at ``searchsorted(hi, i, side="right")``.

``eval_m``, ``eval_q``, ``eval_u``, ``eval_E``, ``sample`` and
``eval_m_grid`` are projections of one routine, ``_fields``. At t = 0 it
reads the initial data with one searchsorted; at t > 0 it builds one frame
and reads every point's prefix range from one hull lookup
(``PrefixFrame.argmin_grid``). A scalar x is a one-point grid, and a 1-d
grid returns one column per field in grid order, equal to the scalar
calls point by point; ``sample`` on a grid is one ``SolutionSample`` of
those columns, with no per-point object. ``eval_nu_theta_omega`` reads
the same lookup. The dense ``PrefixFrame.argmin`` scan runs only in the
lookup's tie window and on grids of a few points before a frame's hull
is built.

Many (data, t, xs) rows at once go through ``eval_m_and_clusters_stacked``,
under any coefficient rule: one ``potentials.FrameStack`` and one hull per
bounded block of rows, handed back with the block's rows as flat columns,
each row equal to its own frame's m and clusters bit for bit. ``compare``
reads its cases through it, and ``relax`` its taus' scaled rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyMeasure, NonPositiveTime
from .measure import BLOCK_ELEMENTS, ClusterState, InitialData, _finite_points
from .potentials import FrameStack, PotentialCoefficients, PrefixFrame

__all__ = [
    "Branch",
    "SolutionSample",
    "eval_m",
    "eval_q",
    "eval_u",
    "eval_E",
    "eval_nu_theta_omega",
    "sample",
    "eval_m_grid",
    "eval_m_and_clusters_stacked",
    "cluster_snapshot",
    "FormulaSolution",
    "speed_bound",
]

# Tolerance scale for classifying c(y*; x, t) against u0(y*) and +-U0.
DEFAULT_SPEED_TOL = 1e-9


class Branch(Enum):
    VACUUM_RIGHT = "vacuum_right"
    VACUUM_LEFT = "vacuum_left"
    DELTA_SHOCK = "delta_shock"
    CHARACTERISTIC = "characteristic"


# the Branch of each integer code that ``_velocities`` assigns
_BRANCH_OF_CODE = np.array([Branch.CHARACTERISTIC, Branch.DELTA_SHOCK, Branch.VACUUM_RIGHT, Branch.VACUUM_LEFT], object)


@dataclass(frozen=True)
class SolutionSample:
    """All solution fields at time t, with the velocity branch that fired:
    floats and one ``Branch`` at a scalar x, or on a 1-d grid the columns
    x, m, q, u, E (lists of floats) and branch (a list of ``Branch``) in
    grid order."""

    x: float | list
    t: float
    m: float | list
    q: float | list
    u: float | list
    E: float | list
    branch: Branch | list


def speed_bound(data: InitialData) -> float:
    """Global bound U0 + tau*M/2 on every velocity of the solution."""
    return data.max_speed + 0.5 * data.tau * data.measure.total_mass


def _frame(data, t, weights=PotentialCoefficients.euler_poisson):
    """Prefix frame of ``data`` at t, with coefficients ``weights(data.tau, t)``."""
    return PrefixFrame(data.measure, data.velocities, weights(data.tau, t))


# -- pointwise fields --------------------------------------------------------


def _points(x):
    """(x as a 1-d float array, whether x is a grid): a scalar is one point."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a scalar or a 1-d grid, got shape {xs.shape}")
    return np.atleast_1d(xs), xs.ndim == 1


def _fields(data, x, t, names, weights=PotentialCoefficients.euler_poisson):
    """The fields named in ``names`` at a scalar x or a 1-d grid of x, in
    that order: "x" the points, "m" mass, "q" momentum, "u" velocity, "b"
    its ``Branch`` tag, "E" energy.

    A grid gives one list per field in grid order; a scalar x is a
    one-point grid and gives one value per field. At t = 0 one
    searchsorted reads the initial data: m is the prefix mass strictly
    left of x, q and E are sequential prefix sums of the per-atom terms
    over the same atoms, and u is the atom's velocity on an exact atom
    hit, else 0.0, on the characteristic branch. At t > 0 one frame
    (coefficients ``weights(data.tau, t)``) and one ``argmin_grid`` lookup
    give every point's prefix range. Only the requested fields are built,
    so an m query does no branch analysis, and "u" and "b" share one pass.
    """
    xs, grid = _points(x)
    if t == 0.0:
        measure, u0 = data.measure, data.velocities
        pos = measure.positions
        k = np.searchsorted(pos, _finite_points(xs), side="left")

        def prefix(terms):
            return np.concatenate(([0.0], np.cumsum(terms)))[k].tolist()

        @functools.cache
        def velocities():
            on_atom = np.append(pos, np.nan)[k] == xs
            return np.where(on_atom, np.append(u0, 0.0)[k], 0.0).tolist(), [Branch.CHARACTERISTIC] * xs.size

        build = {
            "m": lambda: measure.prefix_mass[k].tolist(),
            "q": lambda: prefix(measure.masses * u0),
            "E": lambda: prefix(measure.masses * u0 * u0),
        }
    else:
        frame = _frame(data, t, weights)
        _, k_min, k_max = frame.argmin_grid(xs)

        @functools.cache
        def velocities():
            u, branch = _velocities(frame, data, xs, k_min, k_max)
            return u.tolist(), branch.tolist()

        build = {
            "m": lambda: frame.P[k_min].tolist(),
            "q": lambda: frame.Q[k_min].tolist(),
            "E": lambda: _energies(frame, k_min),
        }
    build.update(x=xs.tolist, u=lambda: velocities()[0], b=lambda: velocities()[1])
    columns = [build[name]() for name in names]
    return columns if grid else [column[0] for column in columns]


def eval_m(data: InitialData, x: float, t: float) -> float:
    """Cumulative mass strictly left of x: left-continuous, nondecreasing."""
    return _fields(data, x, t, "m")[0]


def eval_q(data: InitialData, x, t: float):
    """Momentum integral over the same prefix as eval_m.

    For a 1-d grid x, a list of momenta in grid order.
    """
    return _fields(data, x, t, "q")[0]


def _backward_cone(frame, data, xs, k_min):
    """Case split of the backward generalized characteristics from the
    points xs at the frame's time, one entry per point of xs.

    The anchor is atom a = max(k_min, 1) - 1 at y, and the symmetric c is
    the initial speed that the characteristic through y needs at the
    atom's symmetric centered mass. Returns arrays (side, vacuum, a, y, mt,
    c): side is 0 where that c matches u0(a) within the speed tolerance (x
    on the atom's own path, mt and c the symmetric values), +1 right of
    that path and -1 left of it (mt and c the one-sided values). vacuum is
    True where that one-sided speed lies beyond +-U0, so the max-speed
    vacuum tracer applies. An empty measure has no atom to anchor the
    cone: EmptyMeasure.
    """
    coeffs = frame.coeffs
    m = data.measure
    if len(m) == 0:
        raise EmptyMeasure("no backward characteristic: the measure is empty")
    a = np.maximum(k_min, 1) - 1
    y = m.positions[a]
    half_m = 0.5 * m.total_mass
    ratio = coeffs.force_speed_ratio()
    speed = (xs - y) / coeffs.A
    mt = m.prefix_mass[a] + 0.5 * m.masses[a] - half_m
    c = speed - mt * ratio
    u0a = data.velocities[a]
    tol = DEFAULT_SPEED_TOL * (1.0 + np.abs(c) + np.abs(u0a))
    right, left = c > u0a + tol, c < u0a - tol
    mt = np.where(right, m.prefix_mass[a + 1] - half_m, np.where(left, m.prefix_mass[a] - half_m, mt))
    c = speed - mt * ratio
    u_bound = data.max_speed
    vacuum = (right & (c > u_bound + tol)) | (left & (c < -u_bound - tol))
    return right.astype(int) - left, vacuum, a, y, mt, c


def _velocities(frame, data, xs, k_min, k_max):
    """Velocities and ``Branch`` tags (an object array) at the points xs,
    from a prefix frame and each point's argmin range, in one array pass.
    Each branch's arithmetic runs only on its own points, and is skipped
    when it has none; the tags come from one integer code per point.
    """
    coeffs, P, Q = frame.coeffs, frame.P, frame.Q
    u = np.empty(xs.size)
    code = np.zeros(xs.size, dtype=np.intp)
    # positive mass at x; when the backward cone is degenerate (lone
    # leading atom exactly on its path, prefix tie 0..1) this is the
    # characteristic case and [q]/[m] reduces to the atom velocity. A tie
    # of prefixes with equal P (atoms whose mass vanishes in P) holds no
    # mass: it takes the backward cone, as no tie does
    mass = P[k_max] > P[k_min]
    if mass.any():
        lo, hi = k_min[mass], k_max[mass]
        u[mass] = (Q[hi] - Q[lo]) / (P[hi] - P[lo])
        code[mass] = np.maximum(lo, 1) != np.maximum(hi, 1)
    cone = ~mass
    if cone.any():
        x = xs[cone]
        side, vacuum, a, y, mt, _ = _backward_cone(frame, data, x, k_min[cone])
        on_path = side == 0
        free = ~on_path & ~vacuum
        u_cone = np.empty(x.size)
        if on_path.any():
            # on the atom's own path: the atom's free-flight velocity
            u_cone[on_path] = frame.vel[a[on_path]]
        if vacuum.any():
            u_cone[vacuum] = side[vacuum] * data.max_speed * coeffs.decay - mt[vacuum] * coeffs.A
        if free.any():
            u_cone[free] = (x[free] - y[free]) * coeffs.decay / coeffs.A + mt[free] * coeffs.char_force_weight()
        u[cone] = u_cone
        # vacuum right of the path is code 2, left of it 3, the rest 0
        code[cone] = vacuum * (2 + (side < 0))
    return u, _BRANCH_OF_CODE[code]


def eval_u(data: InitialData, x, t: float):
    """Velocity at (x, t) and the branch that produced it.

    Off the support the field is an extension convention: interior vacuum
    gaps take the rightward max-speed tracer (+U0, anchored at the atom on
    the left), while only the leftmost infinite vacuum takes -U0. The
    extension is therefore deliberately not mirror-symmetric; on the
    support (at clusters) the value is the physical cluster velocity.
    For a 1-d grid x, a list of (u, branch) pairs in grid order.
    """
    u, branch = _fields(data, x, t, "ub")
    return list(zip(u, branch)) if np.ndim(x) else (u, branch)


def _energies(frame, k_mins) -> list:
    """Energy over each prefix k_min: free momenta times cluster velocities.

    One sequential prefix sum of the per-atom terms serves every k_min. A
    cumsum keeps the sign of a leading -0.0 term, which a sum from 0.0
    drops, so + 0.0 turns a -0.0 energy into 0.0.
    """
    lo, hi, _, vel = frame.clusters()
    terms = frame.measure.masses * frame.vel * np.repeat(vel, hi - lo)
    return (np.concatenate(([0.0], np.cumsum(terms)))[k_mins] + 0.0).tolist()


def eval_E(data: InitialData, x, t: float):
    """Energy integral: free momenta weighted by the actual cluster velocities.

    For a 1-d grid x, a list of energies in grid order.
    """
    return _fields(data, x, t, "E")[0]


def eval_nu_theta_omega(data: InitialData, x, t: float):
    """Potential minimum nu plus the auxiliary fields (theta, omega, h) at (x, t).

    A 1-d grid x gives four arrays in grid order, equal to the scalar calls
    point by point. One frame and one ``argmin_grid`` lookup serve every
    point; theta and omega are sums over each point's prefix.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"auxiliary fields require t > 0, got {t}")
    xs, grid = _points(x)
    frame = _frame(data, t)
    nus, k_mins, _ = frame.argmin_grid(xs)
    if k_mins.any():
        lo, hi, pos, vel = frame.clusters()
        cluster_pos = np.repeat(pos, hi - lo)
        w = data.measure.masses
        w_vel = w * frame.vel
        w_rel = w * (data.velocities + data.tau * data.measure.atom_mtilde())
        w_cluster_vel = w * np.repeat(vel, hi - lo)
    rows = []
    for xi, nu, k in zip(xs.tolist(), nus.tolist(), k_mins.tolist()):
        if k == 0:
            rows.append((nu, 0.0, 0.0, 0.0))
            continue
        off = cluster_pos[:k] - xi
        theta = float(np.sum(w_vel[:k] * off))
        omega = float(-(frame.coeffs.decay / data.tau) * np.sum(w_rel[:k] * off))
        rows.append((nu, theta, omega, float(np.sum(w_cluster_vel[:k]))))
    return tuple(np.array(rows, dtype=float).reshape(-1, 4).T) if grid else rows[0]


def sample(data: InitialData, x, t: float) -> SolutionSample:
    """All solution fields at (x, t) as one ``SolutionSample``: values at a
    scalar x, the field columns in grid order for a 1-d grid x."""
    x, m, q, u, E, branch = _fields(data, x, t, "xmquEb")
    return SolutionSample(x, 0.0 if t == 0.0 else t, m, q, u, E, branch)


# -- grid evaluation ---------------------------------------------------------


def eval_m_grid(data: InitialData, xs, t: float):
    """Vectorized eval_m over an array of positions."""
    return np.array(_fields(data, xs, t, "m")[0])


def eval_m_and_clusters_stacked(rows, weights=PotentialCoefficients.euler_poisson):
    """``eval_m_grid`` at xs and ``cluster_snapshot`` at t, each frame under
    ``weights(data.tau, t)``, for rows whose first three items are (data, t,
    xs), t > 0: per block of rows, the block's rows and then its flat columns
    (m, m_bounds, lo, hi, positions, velocities, bounds), row r's m at
    m_bounds[r]:m_bounds[r + 1] and its clusters at bounds[r]:bounds[r + 1],
    bit for bit its own frame's. A block's ``FrameStack``, rows times the
    largest N + 1 or grid length, stays within BLOCK_ELEMENTS (or holds one
    row); rows are read a block at a time, so memory stays bounded by a block."""
    block, width = [], 0
    for row in rows:
        data, _, xs = row[:3]
        size = max(len(data) + 1, len(xs))
        if block and (len(block) + 1) * max(width, size) > BLOCK_ELEMENTS:
            yield _stacked_block(block, weights)
            block, width = [], 0
        block.append(row)
        width = max(width, size)
    if block:
        yield _stacked_block(block, weights)


def _stacked_block(block, weights) -> tuple:
    stack = FrameStack([(data.measure, data.velocities, weights(data.tau, t)) for data, t, *_ in block])
    sizes = [len(row[2]) for row in block]
    _, k_min, _ = stack.argmin_grid([row[2] for row in block])
    m = stack.P[np.repeat(np.arange(len(block)), sizes), k_min]
    return block, m, np.cumsum([0, *sizes]), stack.lo, stack.hi, stack.positions, stack.velocities, stack.bounds


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
