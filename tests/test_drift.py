import numpy as np
import pytest

from stickygas import potentials
from stickygas.drift import (
    _drift_point,
    _drift_ranges,
    drift_cluster_snapshot,
    eval_mbar,
    eval_mbar_grid,
    eval_qbar,
    eval_ubar,
)
from stickygas.errors import NonPositiveTime
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import oracle_cdf, simulate_drift
from stickygas.potentials import minimize_Fbar
from tests.conftest import make_random_instance, y_star


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
        m = two_atom_symmetric.measure
        assert eval_ubar(m, 9.0, 1.0) == -0.5
        k_min, k_max = _drift_ranges(m, [9.0], 1.0)
        assert k_min[0] == k_max[0]  # no mass at x

    def test_on_support_branch(self, two_atom_symmetric):
        m = two_atom_symmetric.measure
        k_min, k_max = _drift_ranges(m, [-0.75], 1.0)
        assert k_max[0] > k_min[0]  # the left cluster's mass sits at x
        assert eval_mbar(m, -0.75, 1.0) == 0.0 and eval_ubar(m, -0.75, 1.0) == 0.25


class TestPointRoutine:
    def test_time_zero_reads_the_atoms(self, two_atom_asymmetric):
        m = two_atom_asymmetric.measure
        P, M = m.prefix_mass.tolist(), m.total_mass
        mt = m.atom_mtilde().tolist()
        # left of, on and between the atoms at -1 and 1
        cases = [(-2.0, 0, 0), (-1.0, 0, 1), (0.0, 1, 1), (1.0, 1, 2), (2.0, 2, 2)]
        for x, k_min, k_max in cases:
            assert eval_mbar(m, x, 0.0) == P[k_min] == m.cdf_left(x)
            assert eval_ubar(m, x, 0.0) == -0.5 * (P[k_min] + P[k_max] - M)
            want_q = -sum(w * v for w, v in zip(m.masses.tolist()[:k_min], mt[:k_min]))
            assert eval_qbar(m, x, 0.0) == pytest.approx(want_q, abs=1e-15)
            assert [int(k[0]) for k in _drift_ranges(m, [x], 0.0)] == [k_min, k_max]
        # on an atom the velocity is the atom's drift velocity -mtilde0
        assert eval_ubar(m, -1.0, 0.0) == pytest.approx(-mt[0], abs=1e-15)
        assert eval_ubar(m, 1.0, 0.0) == pytest.approx(-mt[1], abs=1e-15)
        with pytest.raises(NonPositiveTime):
            eval_mbar(m, 0.0, -1.0)

    def test_sample_equals_single_evaluators(self):
        # the point routine's fields are the single evaluators', and its
        # mass is the grid evaluator's at the same point
        rng = np.random.default_rng(46)
        for _ in range(30):
            m = make_random_instance(rng).measure
            for t in (0.0, 1e-3, 0.7, 4.0):
                xs = rng.uniform(-14, 14, size=8).tolist() + m.positions.tolist()
                if t > 0.0:
                    xs += drift_cluster_snapshot(m, t).positions.tolist()
                grid = eval_mbar_grid(m, np.array(xs), t).tolist()
                for x, mbar_grid in zip(xs, grid):
                    mbar, qbar, ubar = _drift_point(m, x, t)
                    assert repr(mbar) == repr(eval_mbar(m, x, t)) == repr(mbar_grid)
                    assert repr(qbar) == repr(eval_qbar(m, x, t))
                    assert repr(ubar) == repr(eval_ubar(m, x, t))


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
            _, k_min, _ = minimize_Fbar(m, x, t)
            y = y_star(m, k_min)
            lhs = (x - y) / t
            rhs = -m.mtilde0(y)
            if abs(lhs - rhs) < 1e-8 * (1 + abs(lhs)):
                continue
            assert (k_min == 0) == (lhs < rhs)
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
            assert snap.time == state.time
            assert np.array_equal(snap.lo, state.lo)
            assert np.array_equal(snap.hi, state.hi)
            assert snap.positions == pytest.approx(state.positions, abs=1e-10)
            assert snap.velocities == pytest.approx(state.velocities, abs=1e-12)
            assert snap.masses == pytest.approx(state.masses, abs=1e-12)

    def test_snapshot_at_time_zero_is_the_atoms(self, two_atom_asymmetric):
        m = two_atom_asymmetric.measure
        snap = drift_cluster_snapshot(m, 0.0)
        assert snap.time == 0.0
        assert snap.positions.tolist() == [-1.0, 1.0]
        assert snap.masses.tolist() == m.masses.tolist()
        assert snap.velocities.tolist() == (-m.atom_mtilde()).tolist()
        assert (snap.lo.tolist(), snap.hi.tolist()) == ([0, 1], [1, 2])
        assert snap == simulate_drift(m, 1.0).state_at(0.0)
        with pytest.raises(NonPositiveTime):
            drift_cluster_snapshot(m, -1.0)


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
            if np.any(np.abs(clusters.positions - x) < 10 * h):
                continue
            nu = lambda xx, tt: minimize_Fbar(m, xx, tt)[0]
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
            _, k_min, _ = minimize_Fbar(m, 0.0, t)
            assert y_star(m, k_min) == -3.0
            assert eval_mbar(m, 0.0, t) == 1.0
