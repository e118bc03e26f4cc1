"""Machine-checkable residual batteries for the entropy conditions.

Weak-form residuals integrate the two balance laws against compactly
supported polynomial bumps: the measure integrals are exact cluster sums
on the oracle trajectory, the dx integrals are exact via the bump
antiderivative, and the time integrals use composite midpoint quadrature
split at collision events so the integrand is smooth on every piece.

The remaining checks (one-sided Lipschitz bound, weak continuity at the
initial time, and the distributional identities of the auxiliary fields)
are pointwise sweeps with explicit tolerances and decay expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureDivergence, StencilTooCloseToShock
from .euler_poisson import (
    cluster_snapshot,
    eval_E,
    eval_m,
    eval_m_grid,
    eval_nu_theta_omega,
    eval_q,
    eval_q_grid,
    eval_u,
    speed_bound,
)
from .measure import InitialData
from .oracle import Trajectory, oracle_cdf, simulate_ep

__all__ = [
    "ResidualReport",
    "TestFunction",
    "default_bump_family",
    "check_weak_form",
    "check_oleinik",
    "check_initial_continuity",
    "check_potential_identities",
]

# residuals below this scale are treated as roundoff floor in decay checks
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class ResidualReport:
    """Named residual series per refinement level with a deterministic verdict."""

    name: str
    levels: tuple
    series: dict
    passed: bool
    notes: str = ""

    def rows(self):
        for label, values in self.series.items():
            for level, residual in zip(self.levels, values):
                yield self.name, label, level, residual


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump (1-z^2)^3 in x and t: compactly supported, twice C^1."""

    x_center: float
    x_radius: float
    t_center: float
    t_radius: float

    @staticmethod
    def _b(z):
        if abs(z) >= 1.0:
            return 0.0
        s = 1.0 - z * z
        return s * s * s

    @staticmethod
    def _db(z):
        if abs(z) >= 1.0:
            return 0.0
        s = 1.0 - z * z
        return -6.0 * z * s * s

    @staticmethod
    def _B(z):
        # antiderivative of (1-z^2)^3, clipped outside the support
        z = min(1.0, max(-1.0, z))
        return z - z**3 + 0.6 * z**5 - z**7 / 7.0

    def value(self, x, t):
        return self._b((x - self.x_center) / self.x_radius) * self._b(
            (t - self.t_center) / self.t_radius
        )

    def dx(self, x, t):
        return (
            self._db((x - self.x_center) / self.x_radius)
            / self.x_radius
            * self._b((t - self.t_center) / self.t_radius)
        )

    def dt(self, x, t):
        return self._b((x - self.x_center) / self.x_radius) * self._db(
            (t - self.t_center) / self.t_radius
        ) / self.t_radius

    def dt_x_integral(self, a, b, t):
        """Exact integral of phi_t over [a, b] at fixed t."""
        za = (a - self.x_center) / self.x_radius
        zb = (b - self.x_center) / self.x_radius
        xpart = self.x_radius * (self._B(zb) - self._B(za))
        return xpart * self._db((t - self.t_center) / self.t_radius) / self.t_radius

    def support_t(self):
        return self.t_center - self.t_radius, self.t_center + self.t_radius


def default_bump_family(data: InitialData, t_window):
    """Three deterministic bumps covering the support over the window."""
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
    """Composite midpoint nodes and weights, split at the cut times."""
    edges = [t_lo]
    for c in sorted(cuts):
        if t_lo < c < t_hi:
            edges.append(c)
    edges.append(t_hi)
    total = t_hi - t_lo
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        length = b - a
        if length <= 0.0:
            continue
        npts = max(1, int(math.ceil(n_total * length / total)))
        h = length / npts
        for j in range(npts):
            nodes.append(a + (j + 0.5) * h)
            weights.append(h)
    return nodes, weights


def _mass_integrand(clusters, bump, t):
    """phi_t integrated against m(., t) dx minus the transport measure term.

    ``clusters`` is a (positions, masses, velocities) triple of lists sorted
    by position; m(., t) is piecewise constant between the clusters so the
    dx part is exact via the bump antiderivative.
    """
    xs, ws, us = clusters
    prefix = np.concatenate(([0.0], np.cumsum(ws)))
    lo_supp = bump.x_center - bump.x_radius
    hi_supp = bump.x_center + bump.x_radius
    cut_positions = [lo_supp] + xs + [hi_supp]
    dx_part = 0.0
    for k in range(len(xs) + 1):
        a = max(cut_positions[k], lo_supp)
        b = min(cut_positions[k + 1], hi_supp)
        if b > a:
            dx_part += prefix[k] * bump.dt_x_integral(a, b, t)
    dm_part = sum(w * u * bump.value(x, t) for x, w, u in zip(xs, ws, us))
    return dx_part - dm_part


def _momentum_integrand(clusters, bump, t, tau, total_mass):
    acc = 0.0
    running = 0.0
    for x, w, u in zip(*clusters):
        mt = running + 0.5 * w - 0.5 * total_mass
        running += w
        acc += w * (bump.dt(x, t) * u + bump.dx(x, t) * u * u)
        acc -= w * (mt + u / tau) * bump.value(x, t)
    return acc


def check_weak_form(
    data: InitialData,
    t_window,
    refinement_levels=6,
    bumps=None,
    n_base: int = 64,
    trajectory: Trajectory | None = None,
    layer: str = "oracle",
) -> ResidualReport:
    """Residuals of both weak-form balance laws under midpoint refinement.

    The dm integrals are exact cluster sums, taken from the sticky-particle
    trajectory (layer="oracle") or from the potential-layer cluster
    decomposition (layer="formula"); only the time quadrature is refined,
    so residuals must decay at order two or better on every instance.
    """
    t_lo, t_hi = t_window
    if not 0.0 < t_lo < t_hi:
        raise ValueError("time window must satisfy 0 < t_lo < t_hi")
    if bumps is None:
        bumps = default_bump_family(data, t_window)
    for bump in bumps:
        blo, bhi = bump.support_t()
        if blo < 0.0:
            raise ValueError("bump time support must stay inside t > 0")
    traj = trajectory if trajectory is not None else simulate_ep(data, t_hi * 1.01)
    cuts = traj.event_times
    total_mass = data.measure.total_mass

    def clusters_at(t):
        if layer == "formula":
            snap = cluster_snapshot(data, t)
            return [c.position for c in snap], [c.mass for c in snap], [c.velocity for c in snap]
        s = traj.state_at(t)
        return s.positions.tolist(), s.masses.tolist(), s.velocities.tolist()

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
            acc_mass = 0.0
            acc_mom = 0.0
            for t, w in zip(nodes, weights):
                clusters = clusters_at(t)
                acc_mass += w * _mass_integrand(clusters, bump, t)
                acc_mom += w * _momentum_integrand(
                    clusters, bump, t, data.tau, total_mass
                )
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
        name=f"weak_form_{layer}",
        levels=tuple(n_base * (2**lv) for lv in levels),
        series={"mass": tuple(res_mass), "momentum": tuple(res_mom)},
        passed=passed,
        notes="dm integrals exact; midpoint time quadrature split at events",
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


def check_oleinik(
    data: InitialData,
    t_samples,
    x_pairs,
    tol: float = 1e-10,
    layer: str = "formula",
    trajectory: Trajectory | None = None,
) -> ResidualReport:
    """One-sided Lipschitz bound on velocity differences, report-only.

    Checks (u(x2)-u(x1))/(x2-x1) <= e^{-t/tau}/(tau(1-e^{-t/tau})) <= 1/t
    for every pair x1 < x2; the residual is the worst signed excess over
    the sharp bound.
    """
    tau = data.tau
    excesses = []
    traj = trajectory
    if layer == "oracle" and traj is None:
        traj = simulate_ep(data, max(t_samples) * 1.01)
    if layer != "oracle" and not all(x1 < x2 for x1, x2 in x_pairs):
        raise ValueError("x_pairs must satisfy x1 < x2")
    for t in t_samples:
        em1 = -math.expm1(-t / tau) if t / tau <= 700.0 else 1.0
        decay = math.exp(-t / tau) if t / tau <= 700.0 else 0.0
        bound = decay / (tau * em1)
        if bound > 1.0 / t + 1e-12:
            raise AssertionError("sharp bound exceeds 1/t: impossible")
        worst = -math.inf
        if layer == "oracle":
            # every difference quotient is a weighted mean of the adjacent
            # ones, so the adjacent cluster pairs attain the maximum
            s = traj.state_at(t)
            pts = list(zip(s.positions.tolist(), s.velocities.tolist()))
            for (x1, u1), (x2, u2) in zip(pts[:-1], pts[1:]):
                if x2 - x1 <= 0.0:
                    continue
                worst = max(worst, (u2 - u1) / (x2 - x1) - bound)
        else:
            us = eval_u(data, [x for pair in x_pairs for x in pair], t)
            for (x1, x2), (u1, _), (u2, _) in zip(x_pairs, us[0::2], us[1::2]):
                worst = max(worst, (u2 - u1) / (x2 - x1) - bound)
        excesses.append(worst)
    finite = [e for e in excesses if e > -math.inf]
    passed = all(e <= tol for e in finite)
    return ResidualReport(
        name=f"oleinik_{layer}",
        levels=tuple(t_samples),
        series={"excess_over_bound": tuple(excesses)},
        passed=passed,
        notes="residual = max difference quotient minus the sharp decay bound",
    )


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
    x_grid=None,
    t_sequence=None,
    tol: float | None = None,
    layer: str = "formula",
) -> ResidualReport:
    """Convergence of m, q, E to their initial prefix values as t drops to 0.

    The pass flag requires monotone decay up to 5% slack; an absolute
    final-level tolerance is enforced only when ``tol`` is given (the decay
    of q and E is first order in t with an instance-dependent constant).
    """
    if x_grid is None:
        x_grid = default_continuity_grid(data)
    if t_sequence is None:
        t_sequence = [2.0 ** (-k) for k in range(1, 21)]
    m = data.measure
    w, u = m.masses, data.velocities
    q0 = np.concatenate(([0.0], np.cumsum(w * u)))
    e0 = np.concatenate(([0.0], np.cumsum(w * u * u)))
    traj = None
    if layer == "oracle":
        traj = simulate_ep(data, max(t_sequence) * 1.01)
    errs_m, errs_q, errs_e = [], [], []
    for t in t_sequence:
        em = eq = ee = 0.0
        if layer == "oracle":
            # the positions are sorted: the clusters left of x are a prefix,
            # summed in order as in the running sums
            s = traj.state_at(t)
            ws, us = s.masses.tolist(), s.velocities.tolist()
            wu = [w * u for w, u in zip(ws, us)]
            wuu = [w * u**2 for w, u in zip(ws, us)]
            grid_fields = (
                (mv, sum(wu[:j]), sum(wuu[:j]))
                for mv, j in zip(
                    oracle_cdf(s, x_grid).tolist(),
                    np.searchsorted(s.positions, x_grid, side="left").tolist(),
                )
            )
        else:
            # one hull lookup per level for all three fields
            grid_fields = zip(
                eval_m_grid(data, x_grid, t).tolist(),
                eval_q_grid(data, x_grid, t).tolist(),
                eval_E(data, x_grid, t),
            )
        for x in x_grid:
            k = int(np.searchsorted(m.positions, x, side="left"))
            mv, qv, ev = next(grid_fields)
            em = max(em, abs(mv - m.prefix_mass[k]))
            eq = max(eq, abs(qv - q0[k]))
            ee = max(ee, abs(ev - e0[k]))
        errs_m.append(em)
        errs_q.append(eq)
        errs_e.append(ee)

    def settles(errs):
        nonincreasing = all(
            b <= 1.05 * a + ROUNDOFF_FLOOR for a, b in zip(errs[:-1], errs[1:])
        )
        return nonincreasing and (tol is None or errs[-1] <= tol)

    passed = settles(errs_m) and settles(errs_q) and settles(errs_e)
    return ResidualReport(
        name=f"initial_continuity_{layer}",
        levels=tuple(t_sequence),
        series={"m": tuple(errs_m), "q": tuple(errs_q), "E": tuple(errs_e)},
        passed=passed,
        notes="max deviation from initial prefix values over the continuity grid",
    )


def check_potential_identities(
    data: InitialData, stencil_grid, h_sequence, tol_final: float = 1e-6
) -> ResidualReport:
    """Centered-difference residuals of the five auxiliary-field identities.

    The stencil points (x, t) must stay clear of clusters by a margin of
    h*(2 + vmax) at the largest h; the identities hold classically only on
    smooth pieces.
    """
    hs = sorted(float(h) for h in h_sequence)
    h_max = hs[-1]
    vmax = speed_bound(data)
    tau = data.tau
    M = data.measure.total_mass
    for x, t in stencil_grid:
        if t - h_max <= 0.0:
            raise StencilTooCloseToShock(f"stencil at t={t} reaches t <= 0")
        margin = h_max * (2.0 + vmax)
        for c in cluster_snapshot(data, t):
            if abs(c.position - x) < margin:
                raise StencilTooCloseToShock(
                    f"stencil point (x={x}, t={t}) within {margin} of a cluster"
                )
    names = ["nu_x+m", "nu_t-q", "theta_x+q", "theta_t-E-omega", "omega_x-closure"]
    series = {name: [] for name in names}
    for h in sorted(hs, reverse=True):
        worst = dict.fromkeys(names, 0.0)
        for x, t in stencil_grid:
            mv = eval_m(data, x, t)
            qv = eval_q(data, x, t)
            ev = eval_E(data, x, t)
            nu_c, th_c, om_c, _ = eval_nu_theta_omega(data, x, t)
            nu_l, th_l, om_l, _ = eval_nu_theta_omega(data, x - h, t)
            nu_r, th_r, om_r, _ = eval_nu_theta_omega(data, x + h, t)
            nu_d, th_d, om_d, _ = eval_nu_theta_omega(data, x, t - h)
            nu_u, th_u, om_u, _ = eval_nu_theta_omega(data, x, t + h)
            worst["nu_x+m"] = max(
                worst["nu_x+m"], abs((nu_r - nu_l) / (2 * h) + mv)
            )
            worst["nu_t-q"] = max(
                worst["nu_t-q"], abs((nu_u - nu_d) / (2 * h) - qv)
            )
            worst["theta_x+q"] = max(
                worst["theta_x+q"], abs((th_r - th_l) / (2 * h) + qv)
            )
            worst["theta_t-E-omega"] = max(
                worst["theta_t-E-omega"], abs((th_u - th_d) / (2 * h) - ev - om_c)
            )
            closure = qv / tau + 0.5 * mv * mv - 0.5 * M * mv
            worst["omega_x-closure"] = max(
                worst["omega_x-closure"], abs((om_r - om_l) / (2 * h) - closure)
            )
        for name in names:
            series[name].append(worst[name])
    # series were collected from largest h to smallest: order to match hs
    ordered = {name: tuple(reversed(vals)) for name, vals in series.items()}
    floor = 1e-10
    passed = True
    for name, vals in ordered.items():
        # vals[k] corresponds to hs[k] ascending; decay means residual grows with h
        if vals[0] > tol_final and hs[0] <= 1e-4 + 1e-15:
            passed = False
        for small, big in zip(vals[:-1], vals[1:]):
            if small > floor and big > floor and small > big * 1.5:
                passed = False
    return ResidualReport(
        name="potential_identities",
        levels=tuple(hs),
        series=ordered,
        passed=passed,
        notes="centered differences on smooth pieces; order >= 1 decay expected",
    )
