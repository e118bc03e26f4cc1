"""Machine-checkable residual batteries for the entropy conditions.

Each check that reads a solution takes it as an object with ``state_at(t)``
(a ``ClusterState``), ``states_at(ts)`` (blocks as ``Trajectory.states_at``
yields them), ``event_times`` and a report label ``layer``: the oracle's
``Trajectory``, the formula layer's ``FormulaSolution`` or any candidate.

Weak-form residuals integrate the two balance laws against compactly
supported polynomial bumps: the measure integrals are exact cluster sums,
the dx integrals are exact via the bump antiderivative, and the time
integrals use composite midpoint quadrature split at the solution's event
times so the integrand is smooth on every piece. One array routine
evaluates both integrands on each (node x cluster) block, with the bump's
x factors computed once per block and its antiderivative in Horner form;
sums over the clusters run in cluster order, and the weighted sum over the
nodes, one array per bump and level, in node order. The Oleinik bound is
read off adjacent clusters, and weak continuity at t = 0 off cluster
prefix sums. ``check_oleinik`` reads the formula layer's u on one grid per
time, and ``check_potential_identities`` its fields and auxiliary
potentials on a few grids per stencil time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, NonPositiveTime, QuadratureDivergence, StencilTooCloseToShock
from .euler_poisson import (
    cluster_snapshot,
    eval_E,
    eval_m_grid,
    eval_nu_theta_omega,
    eval_q,
    eval_u,
    sample,
    speed_bound,
)
from .measure import InitialData
from .potentials import PotentialCoefficients

__all__ = [
    "ResidualReport",
    "TestFunction",
    "default_bump_family",
    "check_weak_form",
    "check_oleinik",
    "check_oleinik_states",
    "check_initial_continuity",
    "check_potential_identities",
]

# residuals below this scale are treated as roundoff floor in decay checks
ROUNDOFF_FLOOR = 1e-13
# largest excess over the sharp one-sided Lipschitz bound that passes
OLEINIK_TOL = 1e-10
# largest identity residual at the smallest step h <= 1e-4 that passes
IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class ResidualReport:
    """Named residual series per refinement level with a deterministic verdict."""

    name: str
    levels: tuple
    series: dict
    passed: bool

    def rows(self):
        for label, values in self.series.items():
            for level, residual in zip(self.levels, values):
                yield self.name, label, level, residual


def _clip_unit(z):
    return np.minimum(np.maximum(z, -1.0), 1.0)


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump (1-z^2)^3 in x and t: compactly supported, twice C^1."""

    x_center: float
    x_radius: float
    t_center: float
    t_radius: float

    # numpy forms for a scalar or an array z, evaluated on z clipped to
    # [-1, 1]: a far bump never overflows, and outside the support s = 0
    @staticmethod
    def _b_db(z):
        """(b, b') at z for b = (1-z^2)^3, from one clip and one 1 - z^2."""
        zc = _clip_unit(z)
        s = 1.0 - zc * zc
        return s * s * s, -6.0 * zc * s * s

    @staticmethod
    def _B(z):
        # antiderivative z - z^3 + 0.6 z^5 - z^7/7 of (1-z^2)^3 in Horner
        # form, constant outside the support
        z = _clip_unit(z)
        z2 = z * z
        return z * (1.0 - z2 * (1.0 - z2 * (0.6 - z2 / 7.0)))

    def value_and_gradient(self, x, t):
        """(phi, phi_x, phi_t) at x and t, which broadcast against each
        other; the x factors and the t factors are each computed once."""
        bx, dbx = self._b_db((x - self.x_center) / self.x_radius)
        bt, dbt = self._b_db((t - self.t_center) / self.t_radius)
        return bx * bt, dbx / self.x_radius * bt, bx * dbt / self.t_radius

    def dt_x_integral(self, edges, t):
        """Exact integrals of phi_t at time t between consecutive edges.

        The edges run along the last axis; t is a scalar or broadcasts
        against the result (a column for one time per row).
        """
        B = self._B((np.asarray(edges) - self.x_center) / self.x_radius)
        xpart = self.x_radius * np.diff(B, axis=-1)
        return xpart * self._b_db((t - self.t_center) / self.t_radius)[1] / self.t_radius

    def support_t(self):
        return self.t_center - self.t_radius, self.t_center + self.t_radius


def default_bump_family(data: InitialData, t_window):
    """Three deterministic bumps covering the support over the window; EmptyMeasure if it is empty."""
    if len(data) == 0:
        raise EmptyMeasure("no bump covers the support: the measure is empty")
    t_lo, t_hi = t_window
    ct = 0.5 * (t_lo + t_hi)
    rt = 0.5 * (t_hi - t_lo)
    pos = data.measure.positions
    span = float(pos[-1] - pos[0]) + 1.0
    reach = speed_bound(data) * t_hi + 1.0
    cx = float(0.5 * (pos[0] + pos[-1]))
    return [
        TestFunction(cx, span + reach, ct, rt),
        TestFunction(cx - 0.25 * span, 0.75 * (span + reach), ct, 0.8 * rt),
        TestFunction(cx + 0.3 * span, 0.6 * (span + reach), ct, 0.9 * rt),
    ]


def _midpoint_nodes(t_lo, t_hi, cuts, n_total):
    """Composite midpoint nodes and weights as arrays, split at the cut times.

    A piece of length L between consecutive cuts holds ceil(n_total L /
    (t_hi - t_lo)) nodes (at least one) at a + (j + 0.5) h, h = L / count.
    """
    cuts = np.sort(np.asarray(cuts, dtype=float))
    edges = np.concatenate(([t_lo], cuts[(t_lo < cuts) & (cuts < t_hi)], [t_hi]))
    starts, lengths = edges[:-1], np.diff(edges)
    keep = lengths > 0.0
    starts, lengths = starts[keep], lengths[keep]
    counts = np.maximum(1, np.ceil(n_total * lengths / (t_hi - t_lo))).astype(int)
    h = np.repeat(lengths / counts, counts)
    j = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (j + 0.5) * h, h


def _integrands(bump, ts, positions, velocities, masses, tau, total_mass):
    """Mass and momentum integrands at the times ts, one value per time.

    positions and velocities are (len(ts) x clusters) arrays, each row the
    clusters at one time sorted by position; masses is their mass column.
    m(., t) is piecewise constant between the clusters, so the dx part of
    the mass integrand is exact via the bump antiderivative. Every sum over
    the clusters is a cumsum, which adds in cluster order; the momentum sum
    alternates the transport and source terms of each cluster.
    """
    t = ts[:, None]
    lo_supp = bump.x_center - bump.x_radius
    hi_supp = bump.x_center + bump.x_radius
    n = ts.size
    # clipped to the support, consecutive cuts are the ends of the pieces
    # of m(., t); a piece outside the support has equal ends and adds zero
    cuts = np.hstack((np.full((n, 1), lo_supp), positions, np.full((n, 1), hi_supp)))
    cuts = np.minimum(np.maximum(cuts, lo_supp), hi_supp)
    prefix = np.concatenate(([0.0], np.cumsum(masses)))
    pieces = prefix * bump.dt_x_integral(cuts, t)
    value, phi_x, phi_t = bump.value_and_gradient(positions, t)
    u = velocities
    dm = masses * u * value
    mass = np.cumsum(pieces, axis=1)[:, -1] - np.cumsum(dm, axis=1)[:, -1]

    mt = prefix[:-1] + 0.5 * masses - 0.5 * total_mass
    terms = np.empty((n, 2 * masses.size))
    terms[:, 0::2] = masses * (phi_t * u + phi_x * u * u)
    terms[:, 1::2] = -(masses * (mt + u / tau) * value)
    return mass, np.cumsum(terms, axis=1)[:, -1]


def check_weak_form(
    data: InitialData,
    solution,
    t_window,
    refinement_levels=6,
    bumps=None,
    n_base: int = 64,
) -> ResidualReport:
    """Residuals of both weak-form balance laws under midpoint refinement.

    The dm integrals are exact sums over the solution's clusters; only the
    time quadrature is refined, so the residuals of a weak solution decay
    at order two or better.
    """
    t_lo, t_hi = t_window
    if not 0.0 < t_lo < t_hi:
        raise ValueError("time window must satisfy 0 < t_lo < t_hi")
    if refinement_levels < 2:
        raise ValueError(f"refinement_levels must be >= 2, got {refinement_levels}")
    if bumps is None:
        bumps = default_bump_family(data, t_window)
    for bump in bumps:
        blo, bhi = bump.support_t()
        if blo < 0.0:
            raise ValueError("bump time support must stay inside t > 0")
    cuts = solution.event_times
    total_mass = data.measure.total_mass

    levels = list(range(refinement_levels))
    res_mass, res_mom = [], []
    for level in levels:
        n_total = n_base * (2**level)
        worst_mass = 0.0
        worst_mom = 0.0
        for bump in bumps:
            blo, bhi = bump.support_t()
            lo = max(t_lo, blo)
            hi = min(t_hi, bhi)
            nodes, weights = _midpoint_nodes(lo, hi, cuts, n_total)
            blocks = solution.states_at(nodes.tolist())
            values = np.hstack(
                [np.empty((2, 0))] + [np.array(_integrands(bump, *b, data.tau, total_mass)) for b in blocks]
            )
            # weighted (mass, momentum) per node, summed from 0.0 in node order
            sums = np.cumsum(np.hstack((np.zeros((2, 1)), weights * values)), axis=1)
            acc_mass, acc_mom = sums[:, -1].tolist()
            worst_mass = max(worst_mass, abs(acc_mass))
            worst_mom = max(worst_mom, abs(acc_mom))
        res_mass.append(worst_mass)
        res_mom.append(worst_mom)
    for series in (res_mass, res_mom):
        if series[-1] > max(10.0 * series[0], ROUNDOFF_FLOOR) and series[0] > 0.0:
            raise QuadratureDivergence(
                f"weak-form residuals grew under refinement: {series}"
            )
    passed = all(
        _mean_decay_factor(series, floor=ROUNDOFF_FLOOR) >= 4.0
        for series in (res_mass, res_mom)
    )
    return ResidualReport(
        name=f"weak_form_{solution.layer}",
        levels=tuple(n_base * (2**lv) for lv in levels),
        series={"mass": tuple(res_mass), "momentum": tuple(res_mom)},
        passed=passed,
    )


def _mean_decay_factor(series, floor):
    """Geometric-mean shrink factor per refinement step, above the floor.

    A factor of 4 per doubling is decay order 2; single-level jitter from
    error cancellation between quadrature pieces averages out.
    """
    ratios = [
        a / b
        for a, b in zip(series[:-1], series[1:])
        if a > floor and b > floor
    ]
    if not ratios:
        return math.inf  # already at the roundoff floor
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _oleinik(data, t_samples, name, quotients) -> ResidualReport:
    """Worst signed excess of the difference quotients du/dx over the sharp
    one-sided Lipschitz bound e^{-t/tau}/(tau(1-e^{-t/tau})) <= 1/t at each
    t; quotients(t) gives (du, dx). Passes if no excess exceeds OLEINIK_TOL.
    """
    excesses = []
    for t in t_samples:
        coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
        bound = coeffs.decay / coeffs.A
        if bound > 1.0 / t + 1e-12:
            raise AssertionError("sharp bound exceeds 1/t: impossible")
        du, dx = quotients(t)
        excesses.append(float(np.max(du / dx - bound, initial=-math.inf)))
    return ResidualReport(
        name=name,
        levels=tuple(t_samples),
        series={"excess_over_bound": tuple(excesses)},
        passed=not any(e > OLEINIK_TOL for e in excesses),
    )


def check_oleinik(data: InitialData, t_samples, x_pairs) -> ResidualReport:
    """One-sided Lipschitz bound on the formula layer's u at every pair
    x1 < x2, report-only; u is evaluated once per distinct point of the
    pairs, on the support and in vacuum alike.
    """
    pairs = np.reshape(np.asarray(x_pairs, dtype=float), (-1, 2))
    if not np.all(pairs[:, 0] < pairs[:, 1]):
        raise ValueError("x_pairs must satisfy x1 < x2")
    pts, inverse = np.unique(pairs, return_inverse=True)

    def quotients(t):
        us = [u for u, _ in eval_u(data, pts, t)]
        u = np.reshape(np.array(us)[inverse], (-1, 2))
        return u[:, 1] - u[:, 0], pairs[:, 1] - pairs[:, 0]

    return _oleinik(data, t_samples, "oleinik_formula", quotients)


def check_oleinik_states(data: InitialData, solution, t_samples) -> ResidualReport:
    """One-sided Lipschitz bound on a solution's clusters, report-only.

    Every difference quotient of the clusters is a weighted mean of the
    adjacent ones, so the adjacent pairs at distinct positions attain the
    maximum.
    """

    def quotients(t):
        s = solution.state_at(t)
        dx = np.diff(s.positions)
        gap = dx > 0.0
        return np.diff(s.velocities)[gap], dx[gap]

    return _oleinik(data, t_samples, f"oleinik_{solution.layer}", quotients)


def default_continuity_grid(data: InitialData):
    """Continuity points of the initial CDF: interior midpoints plus far field."""
    pos = data.measure.positions
    grid = [float(pos[0]) - 3.0]
    for a, b in zip(pos[:-1], pos[1:]):
        if b - a > 1e-9:
            grid.append(float(0.5 * (a + b)))
    grid.append(float(pos[-1]) + 3.0)
    return grid


def check_initial_continuity(
    data: InitialData,
    solution,
    x_grid=None,
    t_sequence=None,
) -> ResidualReport:
    """Convergence of m, q, E to their initial prefix values as t drops to 0.

    At each level m, q and E at the grid points are the prefix sums of w,
    w*u and w*u^2 over the solution's clusters left of each point. The pass
    flag requires monotone decay up to 5% slack; no absolute final-level
    tolerance is applied (the decay of q and E is first order in t with an
    instance-dependent constant).
    """
    if x_grid is None:
        x_grid = default_continuity_grid(data)
    if t_sequence is None:
        t_sequence = [2.0 ** (-k) for k in range(1, 21)]
    if not all(0.0 <= t < math.inf for t in t_sequence):
        raise NonPositiveTime(f"continuity levels must be finite and >= 0, got {t_sequence}")
    initial = np.array([eval_m_grid(data, x_grid, 0.0), eval_q(data, x_grid, 0.0), eval_E(data, x_grid, 0.0)])
    errs = []
    for t in t_sequence:
        s = solution.state_at(t)
        terms = np.array([s.masses, s.masses * s.velocities, s.masses * s.velocities**2])
        prefix = np.hstack((np.zeros((3, 1)), np.cumsum(terms, axis=1)))
        fields = prefix[:, np.searchsorted(s.positions, x_grid, side="left")]
        errs.append(np.max(np.abs(fields - initial), axis=1, initial=0.0).tolist())

    def settles(errs):
        return all(b <= 1.05 * a + ROUNDOFF_FLOOR for a, b in zip(errs[:-1], errs[1:]))

    series = {name: tuple(e[i] for e in errs) for i, name in enumerate("mqE")}
    return ResidualReport(
        name=f"initial_continuity_{solution.layer}",
        levels=tuple(t_sequence),
        series=series,
        passed=all(settles(v) for v in series.values()),
    )


def check_potential_identities(data: InitialData, stencil_grid, h_sequence) -> ResidualReport:
    """Centered-difference residuals of the five auxiliary-field identities.

    The stencil points (x, t) must stay clear of clusters by a margin of
    h*(2 + vmax) at the largest h; the identities hold classically only on
    smooth pieces. The check passes if every residual decays with h and,
    when the smallest h is at most 1e-4, stays within IDENTITY_TOL there.
    """
    hs = sorted(float(h) for h in h_sequence)
    h_max = hs[-1]
    vmax = speed_bound(data)
    margin = h_max * (2.0 + vmax)
    positions = {}
    for x, t in stencil_grid:
        if t - h_max <= 0.0:
            raise StencilTooCloseToShock(f"stencil at t={t} reaches t <= 0")
        if t not in positions:
            positions[t] = cluster_snapshot(data, t).positions
        if np.any(np.abs(positions[t] - x) < margin):
            raise StencilTooCloseToShock(
                f"stencil point (x={x}, t={t}) within {margin} of a cluster"
            )
    # per stencil time: m, q, E and omega at the centres, then per h one
    # grid call at t for x - h and x + h and one each at t - h and t + h
    names = ["nu_x+m", "nu_t-q", "theta_x+q", "theta_t-E-omega", "omega_x-closure"]
    worst = {name: [0.0] * len(hs) for name in names}
    for t in positions:  # each distinct stencil time once
        xs = np.array([x for x, s in stencil_grid if s == t], dtype=float)
        centre = sample(data, xs, t)
        mv, qv, ev = np.array(centre.m), np.array(centre.q), np.array(centre.E)
        om_c = eval_nu_theta_omega(data, xs, t)[2]
        closure = qv / data.tau + 0.5 * mv * mv - 0.5 * data.measure.total_mass * mv
        for i, h in enumerate(hs):
            nu_x, th_x, om_x, _ = eval_nu_theta_omega(data, np.concatenate((xs - h, xs + h)), t)
            nu_d, th_d, _, _ = eval_nu_theta_omega(data, xs, t - h)
            nu_u, th_u, _, _ = eval_nu_theta_omega(data, xs, t + h)
            (nu_l, nu_r), (th_l, th_r), (om_l, om_r) = (np.split(v, 2) for v in (nu_x, th_x, om_x))
            residuals = {
                "nu_x+m": (nu_r - nu_l) / (2 * h) + mv,
                "nu_t-q": (nu_u - nu_d) / (2 * h) - qv,
                "theta_x+q": (th_r - th_l) / (2 * h) + qv,
                "theta_t-E-omega": (th_u - th_d) / (2 * h) - ev - om_c,
                "omega_x-closure": (om_r - om_l) / (2 * h) - closure,
            }
            for name, r in residuals.items():
                worst[name][i] = max(worst[name][i], *np.abs(r).tolist())
    ordered = {name: tuple(vals) for name, vals in worst.items()}
    floor = 1e-10
    passed = True
    for name, vals in ordered.items():
        # vals[k] corresponds to hs[k] ascending; decay means residual grows with h
        if vals[0] > IDENTITY_TOL and hs[0] <= 1e-4 + 1e-15:
            passed = False
        for small, big in zip(vals[:-1], vals[1:]):
            if small > floor and big > floor and small > big * 1.5:
                passed = False
    return ResidualReport(
        name="potential_identities",
        levels=tuple(hs),
        series=ordered,
        passed=passed,
    )
