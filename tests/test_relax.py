import math

import numpy as np
import pytest

from stickygas.drift import drift_cluster_snapshot, eval_ubar
from stickygas.errors import TauOutOfRange
from stickygas.euler_poisson import eval_m, eval_u
from stickygas.measure import InitialData
from stickygas.oracle import oracle_cdf, simulate_ep
from stickygas.potentials import PotentialCoefficients, PrefixFrame
from stickygas.relax import (
    _filtered_grid,
    _nearest,
    convergence_study,
    eval_scaled,
    scaled_cluster_snapshot,
)
from tests.conftest import _lookup_instance, baseline_instance, decreasing

TAUS = [2.0 ** (-k) for k in range(1, 11)]


class TestScaledCoefficients:
    def test_velocity_weight_vanishes_and_force_weight_limits(self):
        # the scaled potential must converge to the drift potential: the
        # velocity weight A goes to 0 and the force weight B to -t
        for t in (0.5, 1.0, 3.0):
            prev = None
            for tau in TAUS:
                c = PotentialCoefficients.scaled(tau, t)
                assert 0.0 <= c.A <= tau
                assert abs(c.B + t) <= tau * tau
                if prev is not None:
                    assert c.A <= prev + 1e-15
                prev = c.A

    def test_flush_policy(self):
        c = PotentialCoefficients.scaled(2.0**-10, 1.0)
        assert c.decay == 0.0
        assert c.B == (2.0**-10) ** 2 - 1.0


class TestEvalScaled:
    def test_symmetric_midpoint_mass_exact(self, two_atom_symmetric):
        for tau in (0.5, 0.25, 2.0**-7):
            m_tau, _, _ = eval_scaled(two_atom_symmetric, 0.0, 1.0, tau)
            assert m_tau == 0.5

    def test_left_cluster_velocity_closed_form(self, two_atom_symmetric):
        t = 1.0
        for tau in (0.5, 0.25):
            z = t / tau**2
            x = -1.0 + 0.25 * (t - tau * tau * (-math.expm1(-z)))
            _, u_tau, _ = eval_scaled(two_atom_symmetric, x, t, tau)
            assert u_tau == pytest.approx(0.25 * (1.0 - math.exp(-z)), rel=1e-12)

    def test_tau_one_is_identity_scaling(self, two_atom_symmetric):
        for x in (-1.5, 0.0, 0.4):
            for t in (0.7, 2.0):
                m_tau, u_tau, _ = eval_scaled(two_atom_symmetric, x, t, 1.0)
                assert m_tau == eval_m(two_atom_symmetric, x, t)
                assert u_tau == eval_u(two_atom_symmetric, x, t)[0]

    def test_rejects_bad_tau(self, two_atom_symmetric):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(TauOutOfRange):
                eval_scaled(two_atom_symmetric, 0.0, 1.0, bad)

    def test_time_zero_gives_the_initial_data(self):
        # (m0, u0/tau, q0/tau), as scaled_cluster_snapshot gives the atoms at t = 0
        data = InitialData.from_atoms([-1.0, 0.5, 2.0], [0.5, 0.8, 0.3], [0.4, -0.6, 0.1], 1.0)
        tau = 0.25
        snap = scaled_cluster_snapshot(data, 0.0, tau)
        # m and q count the atoms strictly left of x; u is the atom's at an
        # atom and 0 between and beyond them
        at_atoms = zip(snap.positions.tolist(), snap.velocities.tolist(), (0.0, 0.5, 1.3), (0.0, 0.2, -0.28))
        between = [(-0.3, 0.0, 0.5, 0.2), (1.0, 0.0, 1.3, -0.28), (2.5, 0.0, 1.6, -0.25)]
        for x, u, m, q in [*at_atoms, *between]:
            m_tau, u_tau, q_tau = eval_scaled(data, x, 0.0, tau)
            assert (m_tau, u_tau) == (pytest.approx(m, rel=1e-15), u)
            assert q_tau == pytest.approx(q / tau, rel=1e-14)
        for bad in (0.0, 1.5):
            with pytest.raises(TauOutOfRange):
                eval_scaled(data, -0.3, 0.0, bad)

    def test_scaled_solution_is_entropy_solution(self):
        # at any fixed tau the scaled fields are the gas solution at t/tau:
        # they must match the sticky oracle run with that relaxation time
        data = InitialData.from_atoms(
            [-1.0, 0.5, 2.0], [0.5, 0.8, 0.3], [0.4, -0.6, 0.1], 1.0
        )
        t = 1.0
        for tau in (0.5, 0.25):
            scaled = data.with_tau(tau)
            traj = simulate_ep(scaled, t / tau + 0.1)
            state = traj.state_at(t / tau)
            for x in (-2.0, -0.3, 0.8, 3.0):
                m_tau, _, _ = eval_scaled(data, x, t, tau)
                assert m_tau == pytest.approx(oracle_cdf(state, x), abs=1e-9)
            for x, v in zip(state.positions.tolist(), state.velocities.tolist()):
                _, u_tau, _ = eval_scaled(data, x, t, tau)
                assert u_tau == pytest.approx(v / tau, abs=1e-9)

    def test_q_scaled_converges_to_drift_momentum(self, two_atom_asymmetric):
        from stickygas.drift import eval_qbar

        x, t = 0.0, 1.0
        want = eval_qbar(two_atom_asymmetric.measure, x, t)
        _, _, q_over_tau = eval_scaled(two_atom_asymmetric, x, t, 2.0**-8)
        assert q_over_tau == pytest.approx(want, abs=1e-9)


    # Comparison grid for the two-atom benchmarks. Every point keeps a
    # margin > (M/2) tau_max^2 from the drift characteristics and clusters
    # at the test times, outside the O(tau^2) bands where the scaled mass
    # profile has not yet switched to the limit step.
    BENCH_GRID = [-4.0, -3.0, -2.0, -1.5, -1.1, -0.55, 0.0, 0.55, 1.1, 1.5, 2.0, 3.0, 4.0]


class TestConvergenceStudy:
    GRID = TestEvalScaled.BENCH_GRID

    def test_symmetric_mass_error_identically_zero(self, two_atom_symmetric):
        rep = convergence_study(two_atom_symmetric, 1.0, self.GRID, TAUS)
        assert max(rep.err_m) == 0.0
        assert decreasing(rep.err_m) and decreasing(rep.err_u)

    def test_asymmetric_monotone_and_small(self, two_atom_asymmetric):
        for t in (1.0, 5.0):
            rep = convergence_study(two_atom_asymmetric, t, self.GRID, TAUS)
            assert decreasing(rep.err_m) and decreasing(rep.err_u)
            assert rep.err_m[-1] <= 1e-3
            assert rep.err_u[-1] <= 1e-3

    def test_single_atom_velocity_error_closed_form(self):
        data = InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)
        grid = np.linspace(-2.0, 2.0, 17)
        t = 1.0
        rep = convergence_study(data, t, grid, [0.5, 0.25])
        for tau, err in zip(rep.tau_sequence, rep.err_u):
            # lone atom: scaled velocity is u0 e^{-t/tau^2}/tau, drift rest
            assert err == pytest.approx(math.exp(-t / tau**2) / tau, rel=1e-10)

    def test_grid_filters_drift_shocks(self, two_atom_asymmetric):
        # place a grid point exactly on the merged drift cluster
        snap = drift_cluster_snapshot(two_atom_asymmetric.measure, 5.0)
        shock_x = float(snap.positions[0])
        grid = [shock_x - 1.0, shock_x, shock_x + 1.0]
        rep = convergence_study(two_atom_asymmetric, 5.0, grid, [0.5, 0.25])
        assert shock_x not in rep.grid
        assert len(rep.grid) == 2

    def test_velocity_error_compares_matched_clusters(self, two_atom_asymmetric):
        # near the drift collapse the scaled concentration sits at a
        # slightly shifted position; matching must still find it
        t = 5.0
        rep = convergence_study(
            two_atom_asymmetric, t, np.linspace(-3, 3, 13), [0.5, 0.25, 0.125]
        )
        drift_c = drift_cluster_snapshot(two_atom_asymmetric.measure, t)
        assert drift_c.positions.size == 1
        x, u = float(drift_c.positions[0]), float(drift_c.velocities[0])
        for tau, err in zip(rep.tau_sequence, rep.err_u):
            clusters = scaled_cluster_snapshot(two_atom_asymmetric, t, tau)
            pos, vel = min(
                zip(clusters.positions.tolist(), clusters.velocities.tolist()),
                key=lambda pv: abs(pv[0] - x),
            )
            assert err == pytest.approx(abs(vel - u), abs=1e-15)

    def test_snapshot_at_time_zero_is_the_atoms(self):
        data = InitialData.from_atoms([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5], [1.0, -0.5, 0.25], 1.0)
        for tau in (1.0, 0.25):
            snap = scaled_cluster_snapshot(data, 0.0, tau)
            assert snap.time == 0.0
            assert snap.positions.tolist() == [-1.0, 0.5, 2.0]
            assert snap.masses.tolist() == [0.2, 0.3, 0.5]
            assert snap.velocities.tolist() == (data.velocities / tau).tolist()
            assert (snap.lo.tolist(), snap.hi.tolist()) == ([0, 1, 2], [1, 2, 3])
        with pytest.raises(TauOutOfRange):
            scaled_cluster_snapshot(data, 0.0, 2.0)


class TestShockFilter:
    # the filter keeps the points where one drift frame's lookup has no tie,
    # so that it can read that lookup instead of one frame per point
    @staticmethod
    def assert_one_lookup(m, xs, t):
        frame = PrefixFrame(m, None, PotentialCoefficients.drift(t))
        _, k_min, k_max = frame.argmin_grid(xs)
        kept = _filtered_grid(m, xs, t)
        assert repr(kept) == repr(xs[k_max == k_min])
        return xs.size - kept.size

    def test_bench_baseline_keeps_every_point(self):
        xs = np.linspace(-12.0, 12.0, 1001)
        for seed in (0, 17):
            assert self.assert_one_lookup(baseline_instance(1000, seed).measure, xs, 1.0) == 0

    def test_lookup_families_on_their_drift_clusters(self):
        rng = np.random.default_rng(90)
        dropped = points = 0
        for trial in range(160):
            m = _lookup_instance(rng, ("plain", "near_duplicate", "mass_decades", "vanishing_mass")[trial % 4]).measure
            t = float(10.0 ** rng.uniform(-2.0, 1.5))
            pos = drift_cluster_snapshot(m, t).positions
            xs = np.sort(np.concatenate([rng.uniform(-15.0, 15.0, size=20), pos]))
            dropped += self.assert_one_lookup(m, xs, t)
            points += xs.size
        # points on a drift shock are dropped, and the rest kept
        assert 0 < dropped < points


class TestNearestCluster:
    def test_equals_argmin_first_index(self):
        # sorted positions with duplicates, and distances that round to a tie
        # between distinct positions (near 1 seen from 1e10)
        rng = np.random.default_rng(51)
        cases = [1.0 + np.arange(6) * 2.0**-52, np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])]
        for _ in range(300):
            pos = np.sort(rng.uniform(-5.0, 5.0, int(rng.integers(1, 12))))
            cases += [np.round(pos), pos]
        for pos in cases:
            xs = [-1e10, 1e10, *pos.tolist(), *(pos + 0.5).tolist()]
            xs += np.nextafter(pos, np.inf).tolist() + rng.uniform(-6.0, 6.0, 5).tolist()
            assert _nearest(pos, xs).tolist() == [int(np.argmin(np.abs(pos - x))) for x in xs]
