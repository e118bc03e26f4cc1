import numpy as np
import pytest

from stickygas import potentials
from stickygas.drift import (
    DriftBranch,
    drift_cluster_snapshot,
    eval_mbar,
    eval_mbar_grid,
    eval_qbar,
    eval_ubar,
    sample_drift,
)
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import oracle_cdf, simulate_drift
from stickygas.potentials import minimize_Fbar
from tests.conftest import make_random_instance


class TestMass:
    def test_two_atom_midpoint(self, two_atom_symmetric):
        assert eval_mbar(two_atom_symmetric.measure, 0.0, 1.0) == 0.5

    def test_left_of_characteristics(self, two_atom_symmetric):
        assert eval_mbar(two_atom_symmetric.measure, -5.0, 1.0) == 0.0

    def test_shock_after_drift_collapse(self, two_atom_symmetric):
        m = two_atom_symmetric.measure
        eps = 1e-6
        assert eval_mbar(m, -eps, 5.0) == 0.0
        assert eval_mbar(m, eps, 5.0) == 1.0


class TestMomentum:
    def test_trivial_endpoints(self, two_atom_symmetric):
        m = two_atom_symmetric.measure
        assert eval_qbar(m, -10.0, 1.0) == 0.0  # empty prefix
        assert eval_qbar(m, 10.0, 1.0) == pytest.approx(0.0, abs=1e-15)  # telescoped

    def test_two_atom_value(self, two_atom_symmetric):
        assert eval_qbar(two_atom_symmetric.measure, 0.0, 1.0) == pytest.approx(
            0.125, abs=1e-16
        )

    def test_closed_form_identity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            data = make_random_instance(rng)
            m = data.measure
            M = m.total_mass
            t = float(rng.uniform(0.05, 8.0))
            x = float(rng.uniform(-15, 15))
            q = eval_qbar(m, x, t)
            mb = eval_mbar(m, x, t)
            closed = -0.5 * mb * mb + 0.5 * M * mb
            assert abs(q - closed) <= 1e-14 * max(1.0, 0.25 * M * M)


class TestVelocity:
    def test_left_cluster_speed(self, two_atom_symmetric):
        # left atom has drifted to -0.75 at t=1
        assert eval_ubar(two_atom_symmetric.measure, -0.75, 1.0) == 0.25

    def test_merged_cluster_at_rest(self, two_atom_symmetric):
        assert eval_ubar(two_atom_symmetric.measure, 0.0, 5.0) == 0.0

    def test_off_support_convention(self, two_atom_symmetric):
        s = sample_drift(two_atom_symmetric.measure, 9.0, 1.0)
        assert s.ubar == -0.5
        assert s.branch is DriftBranch.OFF_SUPPORT

    def test_on_support_branch(self, two_atom_symmetric):
        s = sample_drift(two_atom_symmetric.measure, -0.75, 1.0)
        assert s.branch is DriftBranch.DELTA_SHOCK
        assert s.mbar == 0.0 and s.ubar == 0.25


class TestTieRule:
    def test_attainment_matches_drift_speed_comparison(self):
        # the minimum is attained at y0 exactly when (x - y0)/t is at most
        # minus the centered mass there
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 40:
            data = make_random_instance(rng)
            m = data.measure
            t = float(rng.uniform(0.1, 6.0))
            x = float(rng.uniform(-15, 15))
            r = minimize_Fbar(m, x, t)
            lhs = (x - r.y_star) / t
            rhs = -m.mtilde0(r.y_star)
            if abs(lhs - rhs) < 1e-8 * (1 + abs(lhs)):
                continue
            assert r.attained_at_y_star == (lhs < rhs)
            checked += 1

    def test_grid_reads_the_current_tie_tolerance(self, monkeypatch):
        # a tolerance this wide changes the tie decisions, so the grid
        # and the pointwise minimizer agree only if both read the override
        rng = np.random.default_rng(0)
        positions = np.sort(rng.uniform(-10.0, 10.0, 12))
        masses = rng.uniform(0.01, 2.0, 12)
        m = InitialData.from_atoms(positions, masses, np.zeros(12), 1.0).measure
        xs = np.linspace(-12.0, 12.0, 49)
        monkeypatch.setattr(potentials, "DEFAULT_TIE_TOL", 0.5)
        grid = eval_mbar_grid(m, xs, 1.0)
        assert grid.tolist() == [eval_mbar(m, float(x), 1.0) for x in xs]


class TestOracleEquivalence:
    def test_mass_and_velocity_match_simulation(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            data = make_random_instance(rng)
            m = data.measure
            traj = simulate_drift(m, 8.0)
            for t in rng.uniform(0.05, 7.5, size=6):
                t = float(t)
                if traj.event_times and min(
                    abs(np.array(traj.event_times) - t)
                ) < 1e-3 * (1 + t):
                    continue
                state = traj.state_at(t)
                xs = rng.uniform(-14, 14, size=10)
                got = eval_mbar_grid(m, xs, t)
                want = oracle_cdf(state, xs)
                assert np.max(np.abs(got - want)) <= 1e-9
                for x, v in zip(state.positions.tolist(), state.velocities.tolist()):
                    assert eval_ubar(m, x, t) == pytest.approx(v, abs=1e-9)

    def test_snapshot_matches_simulation(self, two_atom_asymmetric):
        m = two_atom_asymmetric.measure
        traj = simulate_drift(m, 6.0)
        for t in (1.0, 3.9, 5.0):
            snap = drift_cluster_snapshot(m, t)
            state = traj.state_at(t)
            assert len(snap) == len(state.positions)
            for i, a in enumerate(snap):
                assert a.position == pytest.approx(state.positions[i], abs=1e-10)
                assert a.velocity == pytest.approx(state.velocities[i], abs=1e-12)
                assert (a.lo, a.hi) == (state.lo[i], state.hi[i])


class TestPotentialIdentities:
    def test_nubar_finite_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            data = make_random_instance(rng, n_max=8)
            m = data.measure
            t = float(rng.uniform(0.3, 4.0))
            x = float(rng.uniform(-12, 12))
            # keep the stencil away from drift clusters
            clusters = drift_cluster_snapshot(m, t)
            h = 1e-5
            if any(abs(c.position - x) < 10 * h for c in clusters):
                continue
            nu = lambda xx, tt: minimize_Fbar(m, xx, tt).nu
            dx = (nu(x + h, t) - nu(x - h, t)) / (2 * h)
            dt = (nu(x, t + h) - nu(x, t - h)) / (2 * h)
            assert dx == pytest.approx(-eval_mbar(m, x, t), abs=1e-7)
            assert dt == pytest.approx(eval_qbar(m, x, t), abs=1e-6)


class TestWeakContinuity:
    def test_converges_to_initial_cdf(self):
        rng = np.random.default_rng(45)
        data = make_random_instance(rng, n_max=8)
        m = data.measure
        mids = 0.5 * (m.positions[:-1] + m.positions[1:])
        xs = list(mids) + [float(m.positions[0]) - 1.0, float(m.positions[-1]) + 1.0]
        for x in xs:
            x = float(x)
            for k in range(8, 20):
                t = 2.0**-k
                assert eval_mbar(m, x, t) == m.cdf_left(x)

    def test_vacuum_interval_argument(self):
        # x in a gap: for small t the minimizer is the gap's left edge and
        # the mass equals the initial value there
        m = AtomicMeasure([-3.0, 2.0], [1.0, 1.5])
        for t in (0.1, 0.01):
            r = minimize_Fbar(m, 0.0, t)
            assert r.y_star == -3.0
            assert eval_mbar(m, 0.0, t) == 1.0
