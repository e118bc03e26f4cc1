import math

import numpy as np
import pytest

from stickygas.drift import _drift_point, _drift_ranges, drift_cluster_snapshot, eval_mbar
from stickygas.errors import EmptyMeasure, NonPositiveTime
from stickygas.euler_poisson import (
    DEFAULT_SPEED_TOL,
    Branch,
    _frame,
    _velocities,
    cluster_snapshot,
    eval_E,
    eval_m,
    eval_m_and_clusters_stacked,
    eval_m_grid,
    eval_nu_theta_omega,
    eval_q,
    eval_u,
    sample,
    speed_bound,
)
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import simulate_ep
from stickygas.potentials import PotentialCoefficients, PrefixFrame
from stickygas.relax import eval_scaled, scaled_cluster_snapshot
from tests.conftest import _lookup_instance, baseline_instance, compare_ensemble_cases, make_random_instance

E1 = math.exp(-1.0)
LN2 = math.log(2.0)


# Reference for the array velocity pass: the per-point branch analysis it
# replaced, in Python scalars, one point at a time.


def scalar_backward_cone(frame, data, x, k_min):
    """(side, vacuum, a, y, mt, c) of the backward cone from (x, t)."""
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


def scalar_velocity(frame, data, x, k_min, k_max):
    """(u, branch) at x from a prefix frame and the argmin range at x."""
    coeffs = frame.coeffs
    if frame.P[k_max] > frame.P[k_min]:
        u = (frame.Q[k_max] - frame.Q[k_min]) / (frame.P[k_max] - frame.P[k_min])
        shock = max(k_min, 1) != max(k_max, 1)
        return float(u), Branch.DELTA_SHOCK if shock else Branch.CHARACTERISTIC
    side, vacuum, a, y, mt, _ = scalar_backward_cone(frame, data, x, k_min)
    if side == 0:
        return float(frame.vel[a]), Branch.CHARACTERISTIC
    if vacuum:
        u = side * data.max_speed * coeffs.decay - mt * coeffs.A
        return float(u), Branch.VACUUM_RIGHT if side > 0 else Branch.VACUUM_LEFT
    u = (x - y) * coeffs.decay / coeffs.A + mt * coeffs.char_force_weight()
    return float(u), Branch.CHARACTERISTIC


def atom_positions(data, t):
    """Position at t of every atom: the position of the cluster that holds
    it, since clusters only merge (the forward characteristics)."""
    snap = cluster_snapshot(data, t)
    return np.repeat(snap.positions, snap.hi - snap.lo)


class TestMass:
    def test_two_atom_midpoint(self, two_atom_symmetric):
        assert eval_m(two_atom_symmetric, 0.0, 1.0) == 0.5

    def test_single_atom_vacuum_sides(self, single_atom):
        assert eval_m(single_atom, -50.0, 1.0) == 0.0
        assert eval_m(single_atom, 50.0, 1.0) == 1.0

    def test_left_continuity_and_monotone(self, two_atom_symmetric):
        xs = np.linspace(-3, 3, 201)
        ms = eval_m_grid(two_atom_symmetric, xs, 2.0)
        assert np.all(np.diff(ms) >= 0)
        # value at a step location equals the value from the left
        x_shock = atom_positions(two_atom_symmetric, 2.0)[0]
        assert eval_m(two_atom_symmetric, x_shock, 2.0) == 0.0

    def test_time_zero_convention(self, single_atom):
        assert eval_m(single_atom, 0.0, 0.0) == 0.0
        assert eval_m(single_atom, 0.5, 0.0) == 1.0


class TestMomentum:
    def test_single_atom_closed_form(self, single_atom):
        assert eval_q(single_atom, 10.0, LN2) == pytest.approx(0.5, rel=1e-15)

    def test_empty_prefix(self, single_atom):
        assert eval_q(single_atom, -10.0, 1.0) == 0.0

    def test_symmetric_total_momentum_zero(self, two_atom_symmetric):
        for t in (0.3, 1.0, 5.5):
            assert eval_q(two_atom_symmetric, 10.0, t) == pytest.approx(0.0, abs=1e-16)

    def test_total_momentum_decays_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            data = make_random_instance(rng)
            q0 = float(np.sum(data.measure.masses * data.velocities))
            far = float(data.measure.positions[-1]) + 1e3
            for t in (0.2, 1.7, 6.0):
                expect = q0 * math.exp(-t / data.tau)
                got = eval_q(data, far, t)
                assert got == pytest.approx(expect, abs=1e-12 * (1 + abs(q0)))


class TestVelocity:
    def test_on_path_point(self, single_atom):
        u, branch = eval_u(single_atom, 1.0 - math.exp(-LN2), LN2)
        assert u == pytest.approx(0.5, rel=1e-14)
        assert branch is Branch.CHARACTERISTIC

    def test_symmetric_shock_at_rest(self, two_atom_symmetric):
        u, branch = eval_u(two_atom_symmetric, 0.0, 6.0)
        assert u == 0.0
        assert branch is Branch.DELTA_SHOCK

    def test_vacuum_right_value(self, single_atom):
        u, branch = eval_u(single_atom, 50.0, 1.0)
        assert u == pytest.approx(E1 + 0.5 * (E1 - 1.0), rel=1e-14)
        assert branch is Branch.VACUUM_RIGHT

    def test_vacuum_left_value(self, single_atom):
        u, branch = eval_u(single_atom, -50.0, 1.0)
        assert branch is Branch.VACUUM_LEFT
        assert u == pytest.approx(-E1 - (-0.5) * (1.0 - E1), rel=1e-14)

    def test_on_path_off_the_tie_window(self):
        # 5.5e-9 right of the atom's path: past the prefix tie window
        # (k_min = k_max = 1) but within the speed tolerance of u0, so
        # the velocity is the atom's own free-flight velocity
        data = InitialData.from_atoms([0.0], [1.0], [5.0], 1.0)
        x = 5.0 * (1.0 - E1) + 5.5e-9
        u, branch = eval_u(data, x, 1.0)
        assert u == pytest.approx(5.0 * E1, rel=1e-15)
        assert branch is Branch.CHARACTERISTIC

    def test_interior_vacuum_between_atoms(self, two_atom_symmetric):
        # gap force vanishes by symmetry and U0 = 0: tracer at rest
        u, branch = eval_u(two_atom_symmetric, 0.0, 1.0)
        assert u == 0.0
        assert branch is Branch.VACUUM_RIGHT

    def test_one_sided_ordering(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.1, 4.0))
            for x in cluster_snapshot(data, t).positions.tolist():
                eps = 1e-7
                u_left, _ = eval_u(data, x - eps, t)
                u_right, _ = eval_u(data, x + eps, t)
                u_mid, _ = eval_u(data, x, t)
                assert u_right <= u_mid + 1e-6
                assert u_mid <= u_left + 1e-6

    def test_oleinik_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.1, 4.0))
            tau = data.tau
            bound = math.exp(-t / tau) / (tau * (-math.expm1(-t / tau)))
            assert bound <= 1.0 / t + 1e-12
            xs = np.sort(rng.uniform(-12, 12, size=8))
            us = [eval_u(data, float(x), t)[0] for x in xs]
            for i in range(len(xs) - 1):
                for j in range(i + 1, len(xs)):
                    quot = (us[j] - us[i]) / (xs[j] - xs[i])
                    assert quot <= bound + 1e-10

    def test_speed_bound_holds(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            data = make_random_instance(rng)
            vmax = speed_bound(data)
            for t in (0.2, 1.3, 4.0):
                for x in rng.uniform(-14, 14, size=10):
                    u, _ = eval_u(data, float(x), t)
                    assert abs(u) <= vmax + 1e-12

    def test_continuous_across_vacuum_threshold(self):
        # where the needed initial speed crosses U0 the vacuum value and
        # the characteristic-fan value coincide, so u is continuous there;
        # the far atom only sets the global speed bound U0 = 2
        data = InitialData.from_atoms(
            [0.0, 100.0], [1.0, 1.0], [0.0, 2.0], 1.0
        )
        t = 1.0
        A = 1.0 - math.exp(-t)
        # mtilde right of the first atom is zero, so the max-speed envelope
        # from it sits at U0 * A
        x_edge = data.max_speed * A
        eps = 1e-6
        u_in, b_in = eval_u(data, x_edge - eps, t)
        u_out, b_out = eval_u(data, x_edge + eps, t)
        assert b_in is Branch.CHARACTERISTIC
        assert b_out is Branch.VACUUM_RIGHT
        assert u_out == pytest.approx(u_in, abs=1e-5)


class TestForwardPosition:
    def test_single_atom_closed_form(self, single_atom):
        assert atom_positions(single_atom, LN2).tolist() == [pytest.approx(0.5, abs=1e-9)]

    def test_two_atom_collapse(self, two_atom_symmetric):
        snap = cluster_snapshot(two_atom_symmetric, 6.0)
        assert (snap.lo.tolist(), snap.hi.tolist()) == ([0], [2])
        assert snap.positions[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_atom_pre_collision(self, two_atom_symmetric):
        got = atom_positions(two_atom_symmetric, 1.0)
        assert got.tolist() == pytest.approx([-0.9080301397071394, 0.9080301397071394], abs=1e-9)

    def test_increasing_in_atom_index(self):
        rng = np.random.default_rng(16)
        data = make_random_instance(rng, n_max=8)
        for t in (0.5, 2.0, 5.0):
            assert np.all(np.diff(atom_positions(data, t)) >= 0.0)

    def test_matches_hull_snapshot(self):
        # atom i sits where the dense prefix scan puts its mass: at its
        # cluster's position the minimizing range k_min..k_max covers it
        rng = np.random.default_rng(17)
        for _ in range(10):
            data = make_random_instance(rng, n_max=10)
            t = float(rng.uniform(0.1, 5.0))
            frame = _frame(data, t)
            for i, x in enumerate(atom_positions(data, t).tolist()):
                _, k_min, k_max = frame.argmin(x)
                assert k_min <= i < k_max


class TestEnergy:
    def test_single_atom_closed_form(self, single_atom):
        assert eval_E(single_atom, 10.0, LN2) == pytest.approx(0.25, rel=1e-14)

    def test_empty_prefix(self, single_atom):
        assert eval_E(single_atom, -10.0, 1.0) == 0.0

    def test_symmetric_merged_at_rest(self, two_atom_symmetric):
        assert eval_E(two_atom_symmetric, 10.0, 6.0) == pytest.approx(0.0, abs=1e-15)

    def test_negative_zero_energy_reads_zero(self):
        # the heavy atom's energy term is 0 * (negative cluster velocity):
        # the prefix energy used to be -0.0
        data = InitialData.from_atoms([0.0, 1.0], [1.0, 1e-18], [0.0, 0.0], 1.0)
        xs = [0.5, 1.0]
        assert [repr(s.E) for s in sample(data, xs, 0.1)] == ["0.0", "0.0"]
        assert [repr(e) for e in eval_E(data, xs, 0.1)] == ["0.0", "0.0"]

    def test_energy_matches_oracle_cluster_sum(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.2, 5.0))
            traj = simulate_ep(data, t + 0.1)
            state = traj.state_at(t)
            ws, us = state.masses.tolist(), state.velocities.tolist()
            expect = sum(w * u**2 for w, u in zip(ws, us))
            far = float(data.measure.positions[-1]) + 1e3
            assert eval_E(data, far, t) == pytest.approx(expect, abs=1e-9)

    def test_radon_nikodym_ratios_at_cluster(self):
        # across a single cluster, dq/dm = u and dE/dm = u^2
        rng = np.random.default_rng(19)
        for _ in range(10):
            data = make_random_instance(rng, n_max=10)
            t = float(rng.uniform(0.3, 4.0))
            for x in cluster_snapshot(data, t).positions.tolist():
                eps = 1e-6
                x1, x2 = x - eps, x + eps
                dm = eval_m(data, x2, t) - eval_m(data, x1, t)
                if dm <= 0:
                    continue
                dq = eval_q(data, x2, t) - eval_q(data, x1, t)
                dE = eval_E(data, x2, t) - eval_E(data, x1, t)
                u, _ = eval_u(data, x, t)
                assert dq / dm == pytest.approx(u, abs=1e-9)
                assert dE / dm == pytest.approx(u * u, abs=1e-9)


class TestAuxiliaryFields:
    def test_on_path_theta_omega_vanish(self, single_atom):
        x = 1.0 - math.exp(-LN2)
        nu, theta, omega, h = eval_nu_theta_omega(single_atom, x, LN2)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert omega == pytest.approx(0.0, abs=1e-12)

    def test_left_of_support_all_zero(self, two_atom_symmetric):
        nu, theta, omega, h = eval_nu_theta_omega(two_atom_symmetric, -50.0, 1.0)
        assert (nu, theta, omega, h) == (0.0, 0.0, 0.0, 0.0)

    def test_two_atom_theta_value(self, two_atom_symmetric):
        nu, theta, omega, h = eval_nu_theta_omega(two_atom_symmetric, 0.0, 1.0)
        assert theta == pytest.approx(-0.07174806491810629, rel=1e-12)

    def test_theta_x_equals_minus_q(self, two_atom_symmetric):
        h = 1e-5
        q = eval_q(two_atom_symmetric, 0.0, 1.0)
        th_l = eval_nu_theta_omega(two_atom_symmetric, -h, 1.0)[1]
        th_r = eval_nu_theta_omega(two_atom_symmetric, h, 1.0)[1]
        assert (th_r - th_l) / (2 * h) == pytest.approx(-q, abs=1e-9)

    def test_h_equals_q(self):
        # sum of actual cluster velocities over the prefix telescopes to q
        rng = np.random.default_rng(20)
        for _ in range(15):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.2, 4.0))
            x = float(rng.uniform(-12, 12))
            h_val = eval_nu_theta_omega(data, x, t)[3]
            assert h_val == pytest.approx(eval_q(data, x, t), abs=1e-10)

    def test_requires_positive_time(self, single_atom):
        with pytest.raises(NonPositiveTime):
            eval_nu_theta_omega(single_atom, 0.0, 0.0)

    def test_grid_equals_scalar_calls(self, two_atom_symmetric):
        # left of the support (k = 0), interior vacuum, on a cluster (a
        # prefix tie) and far right, on fixtures and random instances
        rng = np.random.default_rng(2503)
        instances = [two_atom_symmetric] + [make_random_instance(rng) for _ in range(15)]
        for data in instances:
            for t in (0.05, 0.7, 3.0):
                clusters = cluster_snapshot(data, t).positions
                gaps = 0.5 * (clusters[:-1] + clusters[1:])
                xs = np.concatenate(([clusters[0] - 5.0], gaps, clusters, [clusters[-1] + 5.0]))
                grid = eval_nu_theta_omega(data, xs, t)
                scalar = [eval_nu_theta_omega(data, x, t) for x in xs.tolist()]
                assert all(type(v) is float for row in scalar for v in row)
                assert len(grid) == 4
                for column, want in zip(grid, zip(*scalar)):
                    assert column.tobytes() == np.array(want).tobytes()
                # k = 0 gives +0.0 sums; omega's negative scale would make -0.0
                assert repr(scalar[0][1:]) == repr((0.0, 0.0, 0.0))

    def test_grid_rejects_bad_points_and_times(self, two_atom_symmetric):
        with pytest.raises(ValueError, match="1-d grid"):
            eval_nu_theta_omega(two_atom_symmetric, np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="finite"):
            eval_nu_theta_omega(two_atom_symmetric, [0.0, math.nan], 1.0)
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTime):
                eval_nu_theta_omega(two_atom_symmetric, [0.0, 1.0], t)


class TestSample:
    def test_fields_and_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = make_random_instance(rng)
            M = data.measure.total_mass
            vmax = speed_bound(data)
            t = float(rng.uniform(0.1, 5.0))
            for x in rng.uniform(-13, 13, size=6):
                s = sample(data, float(x), t)
                assert 0.0 <= s.m <= M
                assert abs(s.q) <= M * vmax + 1e-12
                assert abs(s.u) <= vmax + 1e-12
                assert s.m == eval_m(data, float(x), t)
                assert s.q == eval_q(data, float(x), t)

    def test_shock_branch_iff_jump(self):
        rng = np.random.default_rng(22)
        hits = 0
        for _ in range(10):
            data = make_random_instance(rng, n_max=6)
            t = float(rng.uniform(1.0, 6.0))
            snap = cluster_snapshot(data, t)
            for x, lo, hi in zip(*(a.tolist() for a in (snap.positions, snap.lo, snap.hi))):
                s = sample(data, x, t)
                jump = eval_m(data, x + 1e-7, t) - s.m
                if hi - lo > 1 or lo > 0:
                    # genuine concentration with mass on its left, or a
                    # merged cluster: must be tagged as a shock
                    if jump > 0 and hi - lo > 1:
                        assert s.branch is Branch.DELTA_SHOCK
                        hits += 1
        assert hits > 0

    def test_time_zero(self, single_atom):
        s = sample(single_atom, 0.0, 0.0)
        assert (s.m, s.q, s.E) == (0.0, 0.0, 0.0)
        assert s.u == 1.0  # atom exactly at the query point

    def test_empty_measure(self):
        # at t > 0 the velocity pass has no atom to anchor a backward cone:
        # the typed error, not an IndexError; m, q and E answer 0.0
        empty = InitialData.from_atoms([], [], [], 1.0)
        for x in (0.0, [-1.0, 0.0, 2.0]):
            for field in (eval_u, sample):
                with pytest.raises(EmptyMeasure):
                    field(empty, x, 1.0)
        assert (eval_m(empty, 0.0, 1.0), eval_q(empty, 0.0, 1.0), eval_E(empty, 0.0, 1.0)) == (0.0, 0.0, 0.0)
        # t = 0 reads the initial data: no atom, so u is 0.0
        s = sample(empty, 0.0, 0.0)
        assert (s.m, s.q, s.u, s.E, s.branch) == (0.0, 0.0, 0.0, 0.0, Branch.CHARACTERISTIC)
        assert eval_u(empty, [0.0, 1.0], 0.0) == [(0.0, Branch.CHARACTERISTIC)] * 2


def holder(state, atom):
    """Index of the cluster of ``state`` that holds ``atom``."""
    return int(np.searchsorted(state.hi, atom, side="right"))


class TestTraceShock:
    # a shock is a cluster of the snapshot; it is followed through time by
    # one of its atoms, since clusters only merge
    def test_single_atom_path(self, single_atom):
        for t in np.arange(0.05, 2.0, 0.25).tolist():
            x = cluster_snapshot(single_atom, t).positions[0]
            assert x == pytest.approx(1.0 - math.exp(-t), abs=1e-9)

    def test_symmetric_shock_stays_at_origin(self, two_atom_symmetric):
        for t in np.arange(5.1, 7.0, 0.4).tolist():
            snap = cluster_snapshot(two_atom_symmetric, t)
            assert (snap.lo.tolist(), snap.hi.tolist()) == ([0], [2])
            assert abs(snap.positions[0]) <= 1e-9
            assert snap.velocities[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_oracle_cluster_trajectory(self):
        data = InitialData.from_atoms(
            [-2.0, 0.3, 1.4], [0.8, 0.5, 0.7], [1.2, -0.3, -0.9], 0.5
        )
        traj = simulate_ep(data, 6.0)
        t0 = traj.events[0].time + 0.05
        state0 = traj.state_at(t0)
        atom = int(state0.lo[np.argmax(state0.hi - state0.lo)])
        for t in np.arange(t0, 5.0, 0.3).tolist():
            snap, state = cluster_snapshot(data, t), traj.state_at(t)
            got, want = holder(snap, atom), holder(state, atom)
            assert snap.positions[got] == pytest.approx(state.positions[want], abs=1e-8)
            assert snap.velocities[got] == pytest.approx(state.velocities[want], abs=1e-8)

    def test_lipschitz_in_time(self, two_atom_symmetric):
        times = np.arange(1.0, 3.0 + 1e-9, 0.2).tolist()
        xs = [atom_positions(two_atom_symmetric, t) for t in times]
        vmax = speed_bound(two_atom_symmetric)
        for t1, t2, x1, x2 in zip(times[:-1], times[1:], xs[:-1], xs[1:]):
            assert np.max(np.abs(x2 - x1)) <= vmax * (t2 - t1) + 1e-9

    def test_rejects_bad_window(self, single_atom):
        with pytest.raises(NonPositiveTime):
            cluster_snapshot(single_atom, -0.1)


class TestWeakContinuityAtZero:
    def test_two_atom_midpoint_all_small_t(self, two_atom_symmetric):
        for k in range(1, 15):
            t = 2.0**-k
            assert eval_m(two_atom_symmetric, 0.0, t) == 0.5

    def test_prefix_values_recovered(self):
        rng = np.random.default_rng(23)
        data = make_random_instance(rng, n_max=8)
        m = data.measure
        x = float(0.5 * (m.positions[0] + m.positions[-1]) + 0.37)
        k = int(np.searchsorted(m.positions, x, side="left"))
        q0 = float(np.sum(m.masses[:k] * data.velocities[:k]))
        e0 = float(np.sum(m.masses[:k] * data.velocities[:k] ** 2))
        errs = []
        for j in range(1, 21):
            t = 2.0**-j
            errs.append(
                max(
                    abs(eval_m(data, x, t) - m.prefix_mass[k]),
                    abs(eval_q(data, x, t) - q0),
                    abs(eval_E(data, x, t) - e0),
                )
            )
        # first-order decay in t once the backward cone clears the gap
        assert errs[-1] <= 4.0 * errs[-2] + 1e-15
        assert errs[-1] <= 1e-4 * (1.0 + abs(q0) + abs(e0))


class TestMirrorSymmetry:
    def test_solution_is_odd_under_reflection(self):
        # reflecting positions and velocities flips u on the support and in
        # the outer vacuum, and complements m everywhere; interior vacuum
        # gaps are excluded because the off-support extension is anchored
        # to the left atom by convention and not mirror-symmetric
        rng = np.random.default_rng(25)
        for _ in range(12):
            data = make_random_instance(rng, n_max=9)
            m = data.measure
            mirrored = InitialData.from_atoms(
                -m.positions[::-1].copy(),
                m.masses[::-1].copy(),
                -data.velocities[::-1].copy(),
                data.tau,
            )
            M = m.total_mass
            t = float(rng.uniform(0.1, 4.0))
            for x in rng.uniform(-12, 12, size=8):
                x = float(x)
                m_left = eval_m(data, x, t)
                m_right_mirr = eval_m_grid(mirrored, [-x + 1e-7], t)[0]
                assert m_left == pytest.approx(M - m_right_mirr, abs=1e-9)
            clusters = cluster_snapshot(data, t)
            far = abs(float(m.positions[0])) + abs(float(m.positions[-1])) + 30.0
            probes = clusters.positions.tolist() + [far, -far]
            for x in probes:
                u1, _ = eval_u(data, float(x), t)
                u2, _ = eval_u(mirrored, float(-x), t)
                assert u2 == pytest.approx(-u1, abs=1e-9 * (1 + abs(u1)))


class TestDeepDecayRegime:
    def test_matches_oracle_beyond_flush_threshold(self):
        # t/tau = 800 > 700: decay factors flush to exactly zero and the
        # force weight becomes tau^2 - tau*t; the layers must still agree
        rng = np.random.default_rng(26)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-5, 5, size=n)),
                rng.uniform(0.1, 1.5, size=n),
                rng.uniform(-1.5, 1.5, size=n),
                0.1,
            )
            traj = simulate_ep(data, 80.0)
            for t in (40.0, 80.0):
                state = traj.state_at(t)
                xs = rng.uniform(-8, 8, size=10)
                from stickygas.oracle import oracle_cdf

                want = oracle_cdf(state, xs)
                got = eval_m_grid(data, xs, t)
                assert np.max(np.abs(got - want)) <= 1e-9
                for x, v in zip(state.positions.tolist(), state.velocities.tolist()):
                    u, _ = eval_u(data, x, t)
                    assert u == pytest.approx(v, abs=1e-9)


class TestRandomizedShockTraces:
    def test_traces_follow_oracle_clusters(self):
        rng = np.random.default_rng(27)
        traced = 0
        while traced < 6:
            data = make_random_instance(rng, n_max=7)
            traj = simulate_ep(data, 6.0)
            if not traj.events or traj.events[0].time > 4.0:
                continue
            t0 = traj.events[0].time + 0.1
            state0 = traj.state_at(t0)
            atom = int(state0.lo[np.argmax(state0.hi - state0.lo)])
            for t in np.arange(t0, min(t0 + 2.0, 6.0), 0.37).tolist():
                x = atom_positions(data, t)[atom]
                state = traj.state_at(t)
                assert x == pytest.approx(state.positions[holder(state, atom)], abs=1e-7)
            traced += 1


# -- bisection references for the hull reads ---------------------------------


def _exact_argmin(frame, x):
    """(k_min, k_max) of the prefix sums at x, value tie term only."""
    T = frame.S - x * frame.P
    nu = float(np.min(T))
    ties = np.flatnonzero(T - nu <= frame.tie_tol * (1.0 + abs(nu)))
    return int(ties[0]), int(ties[-1])


def _bisect(pred, lo, hi, tol):
    """Shrink [lo, hi] with pred(lo) false and pred(hi) true to width tol."""
    assert not pred(lo) and pred(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _pos_tol(data):
    pos = data.measure.positions
    return 1e-12 * (1.0 + float(pos[-1] - pos[0]))


def bisect_forward_position(data, i, t):
    """Atom i's forward position: where k_max(x, t) first reaches i + 1.

    The reference for the per-atom positions read off the hull."""
    m = data.measure
    frame = _frame(data, t)
    reach = data.max_speed * frame.coeffs.A + 0.5 * m.total_mass * abs(frame.coeffs.B)
    lo = float(m.positions[0]) - reach - 1.0
    hi = float(m.positions[-1]) + reach + 1.0
    return _bisect(lambda x: _exact_argmin(frame, x)[1] >= i + 1, lo, hi, _pos_tol(data))


def _near_duplicate(data, rng):
    """Each atom of data beside a copy of itself 1e-14 |x| to its right."""
    p = data.measure.positions
    pos = np.sort(np.concatenate([p, p + 1e-14 * np.abs(p)]))
    n = pos.size
    return InitialData.from_atoms(
        pos, rng.uniform(0.01, 2.0, size=n), rng.uniform(-2.0, 2.0, size=n), data.tau
    )


def _instances(seed, count):
    rng = np.random.default_rng(seed)
    for j in range(count):
        data = make_random_instance(rng, n_max=10)
        yield rng, (_near_duplicate(data, rng) if j % 2 else data)


def _close(got, want):
    return abs(got - want) <= 1e-8 * (1.0 + abs(want))


class TestHullReadsMatchBisection:
    def test_forward_position(self):
        for rng, data in _instances(70, 24):
            for t in rng.uniform(1e-3, 6.0, size=3).tolist():
                for i, got in enumerate(atom_positions(data, t).tolist()):
                    assert _close(got, bisect_forward_position(data, i, t))

    def test_extreme_mass_ratio_reads_the_cluster(self):
        # masses across 12 decades: the light atom's cluster sits near 0.75;
        # a bisection over the prefix argmin lands far from it
        data = InitialData.from_atoms([-1.0, 1.0], [1e6, 1e-6], [0.0, 0.0], 1.0)
        snap = cluster_snapshot(data, 1e-3)
        assert (snap.lo.tolist(), snap.hi.tolist()) == ([0, 1], [1, 2])
        assert snap.positions[1] == pytest.approx(0.75, abs=1e-3)


def assert_scalar_calls_equal_dense_scan(data, xs, t):
    """Scalar formula calls at (x, t) equal the fields read off the dense
    ``PrefixFrame.argmin`` range: ``eval_m`` and ``sample``, the drift
    scalars and ranges, and ``eval_scaled``. Atoms, drift and scaled
    cluster positions are added to xs."""
    frame = _frame(data, t)
    for x in xs:
        _, a, b = frame.argmin(x)
        u, branch = scalar_velocity(frame, data, x, a, b)
        assert eval_m(data, x, t) == frame.P[a]
        s = sample(data, x, t)
        assert (s.m, s.q, s.u, s.branch) == (frame.P[a], frame.Q[a], u, branch)
    m, M = data.measure, data.measure.total_mass
    drift_frame = PrefixFrame(m, None, PotentialCoefficients.drift(t))
    for x in xs + drift_cluster_snapshot(m, t).positions.tolist():
        _, a, b = drift_frame.argmin(x)
        mbar, _, ubar = _drift_point(m, x, t)
        assert (mbar, ubar) == (m.prefix_mass[a], -0.5 * (m.prefix_mass[a] + m.prefix_mass[b] - M))
        assert [int(k[0]) for k in _drift_ranges(m, [x], t)] == [a, b]
    tau = 0.25
    scaled = data.with_tau(tau)
    scaled_frame = PrefixFrame(m, data.velocities, PotentialCoefficients.scaled(tau, t))
    for x in xs + scaled_cluster_snapshot(data, t, tau).positions.tolist():
        _, a, b = scaled_frame.argmin(x)
        u, _ = scalar_velocity(scaled_frame, scaled, x, a, b)
        want = (scaled_frame.P[a], u / tau, scaled_frame.Q[a] / tau)
        assert eval_scaled(data, x, t, tau) == want


class TestGridEvaluation:
    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(24)
        data = make_random_instance(rng)
        t = 1.3
        xs = rng.uniform(-12, 12, size=25)
        ms = eval_m_grid(data, xs, t)
        qs = eval_q(data, xs, t)
        for x, mv, qv in zip(xs, ms, qs):
            assert mv == eval_m(data, float(x), t)
            assert qv == eval_q(data, float(x), t)

    def test_grid_forms_equal_scalar_calls(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            data = make_random_instance(rng)
            for t in (0.0, 1e-3, 0.7, 3.0):
                xs = [float(x) for x in rng.uniform(-12, 12, size=15)]
                xs += data.measure.positions.tolist()
                if t > 0.0:
                    xs += cluster_snapshot(data, t).positions.tolist()
                for fn in (sample, eval_q, eval_u, eval_E):
                    grid = fn(data, np.array(xs), t)
                    assert [repr(v) for v in grid] == [repr(fn(data, x, t)) for x in xs]
                assert fn(data, [], t) == []
                if t > 0.0:
                    assert_scalar_calls_equal_dense_scan(data, xs, t)

    def test_dense_reference_sees_a_wrong_range(self, two_atom_symmetric, monkeypatch):
        # scalar calls read the hull lookup, so a lookup whose k_max is off
        # by one must fail the comparison with the dense scan
        lookup = PrefixFrame.argmin_grid

        def shifted(self, xs):
            nu, k_min, k_max = lookup(self, xs)
            return nu, k_min, np.minimum(k_max + 1, self.P.size - 1)

        monkeypatch.setattr(PrefixFrame, "argmin_grid", shifted)
        with pytest.raises(AssertionError):
            assert_scalar_calls_equal_dense_scan(two_atom_symmetric, [-1.0, 0.0], 0.5)

    def test_grids_of_two_dimensions_are_rejected(self, two_atom_symmetric):
        # the scalar path would otherwise read the first row alone
        xs = np.zeros((2, 2))
        for t in (0.0, 1.0):
            for fn in (eval_m, eval_m_grid, sample, eval_u):
                with pytest.raises(ValueError, match="1-d grid"):
                    fn(two_atom_symmetric, xs, t)

    def test_shared_frame_equals_separate_calls(self):
        # every row of the stacked entry point, empty grids included, equals
        # the separate single-frame calls byte for byte; t = 0 has no frame
        rng = np.random.default_rng(26)
        rows = []
        for _ in range(25):
            data = make_random_instance(rng)
            with pytest.raises(NonPositiveTime):
                list(eval_m_and_clusters_stacked([(data, 0.0, [0.0])]))
            for t in (1e-3, 0.7, 3.0):
                xs = rng.uniform(-12, 12, size=15)
                xs = np.concatenate([xs, cluster_snapshot(data, t).positions])
                rows += [(data, t, xs), (data, t, xs[:0])]
        assert_rows_equal_single_frames(rows)

    def test_time_zero_scalar_forms_read_the_sequential_prefixes(self):
        # the prefixes of w*u and w*u*u that eval_q on a grid and the
        # initial-continuity check form with a running sum
        rng = np.random.default_rng(28)
        for n in [8, 40] * 25:
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-10.0, 10.0, n)),
                rng.uniform(0.01, 2.0, n),
                rng.uniform(-2.0, 2.0, n),
                0.5,
            )
            w, u = data.measure.masses, data.velocities
            e0 = np.concatenate(([0.0], np.cumsum(w * u * u)))
            xs = rng.uniform(-11.0, 11.0, size=30)
            k = np.searchsorted(data.measure.positions, xs, side="left")
            qs = [eval_q(data, x, 0.0) for x in xs.tolist()]
            es = [eval_E(data, x, 0.0) for x in xs.tolist()]
            assert qs == eval_q(data, xs, 0.0)
            assert es == eval_E(data, xs, 0.0) == e0[k].tolist()


CLUSTER_COLUMNS = ("lo", "hi", "positions", "velocities")


def stacked_rows(rows):
    """Each row's (m, {column: clusters}) cut out of the blocks of
    ``eval_m_and_clusters_stacked``, in row order; every block's offsets
    cover its flat columns exactly."""
    got = []
    for m, m_bounds, *columns, bounds in eval_m_and_clusters_stacked(iter(rows)):
        assert m_bounds[0] == bounds[0] == 0 and m_bounds.size == bounds.size
        assert m_bounds[-1] == m.size and all(c.size == bounds[-1] for c in columns)
        for r in range(bounds.size - 1):
            cut = slice(bounds[r], bounds[r + 1])
            got.append((m[m_bounds[r] : m_bounds[r + 1]], {n: c[cut] for n, c in zip(CLUSTER_COLUMNS, columns)}))
    return got


def assert_rows_equal_single_frames(rows):
    """Each row (data, t, xs)'s slice of its ``eval_m_and_clusters_stacked``
    block equals ``eval_m_grid`` plus ``cluster_snapshot`` byte for byte, in
    row order (a block holds no mass column: compare reads none)."""
    got = stacked_rows(rows)
    assert len(got) == len(rows)
    for (data, t, xs), (m, state) in zip(rows, got):
        want = eval_m_grid(data, xs, t)
        assert (m.dtype, m.tobytes()) == (want.dtype, want.tobytes())
        snap = cluster_snapshot(data, t)
        for name in CLUSTER_COLUMNS:
            a, b = state[name], getattr(snap, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


class TestStackedRows:
    def test_one_row_block(self):
        data = make_random_instance(np.random.default_rng(40))
        assert_rows_equal_single_frames([(data, 1.3, np.linspace(-12.0, 12.0, 9))])

    def test_rows_of_different_sizes_share_a_block(self):
        # N from 1 to 30 and grids of 0 to 40 points in one block, with the
        # points at the formula clusters and an ulp around them
        rng = np.random.default_rng(41)
        rows = []
        for n in [1, 30, 2, 17, 1, 5]:
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-5.0, 5.0, n)), rng.uniform(0.01, 2.0, n), rng.uniform(-2.0, 2.0, n), 0.5
            )
            t = float(rng.uniform(0.1, 5.0))
            pos = cluster_snapshot(data, t).positions
            size = int(rng.integers(0, 40))
            xs = np.concatenate([rng.uniform(-8.0, 8.0, size), pos, np.nextafter(pos, np.inf)])
            rows.append((data, t, xs))
        assert_rows_equal_single_frames(rows)

    def test_single_atom_instances(self):
        rng = np.random.default_rng(42)
        rows = [
            (InitialData.from_atoms([x], [m], [v], tau), t, np.array([x - 1.0, x, x + 1.0]))
            for x, m, v, tau, t in zip(
                rng.uniform(-3, 3, 8), rng.uniform(0.1, 2, 8), rng.uniform(-2, 2, 8), [1.0, 0.5] * 4, [0.5, 2.0] * 4
            )
        ]
        assert_rows_equal_single_frames(rows)

    def test_no_rows(self):
        assert list(eval_m_and_clusters_stacked(iter([]))) == []

    def test_blocks_stay_within_the_element_bound(self, monkeypatch):
        # each block's padded size, rows times the widest N + 1 or grid,
        # stays within BLOCK_ELEMENTS; one-row blocks give the same bytes
        from stickygas import euler_poisson, potentials

        rng = np.random.default_rng(43)
        rows = []
        for _ in range(40):
            data = make_random_instance(rng, n_max=20)
            rows.append((data, float(rng.uniform(0.1, 5.0)), rng.uniform(-12, 12, size=int(rng.integers(0, 30)))))
        blocks = []

        class Recorded(potentials.FrameStack):
            def argmin_grid(self, grids):
                width = max(self.P.shape[1], max(len(g) for g in grids))
                blocks.append((len(grids), width))
                return super().argmin_grid(grids)

        monkeypatch.setattr(euler_poisson, "FrameStack", Recorded)
        default = euler_poisson.BLOCK_ELEMENTS
        for bound in (1, 200, default):
            monkeypatch.setattr(euler_poisson, "BLOCK_ELEMENTS", bound)
            blocks.clear()
            assert_rows_equal_single_frames(rows)
            assert sum(n for n, _ in blocks) == len(rows)
            if bound == 1:
                assert len(blocks) == len(rows)
            else:
                assert max(n * w for n, w in blocks) <= bound
            assert len(blocks) > 1 or bound == default


class TestNonFiniteTime:
    # a NaN fails every comparison, so each guard is written as
    # "not 0 < t < inf" and a NaN or inf time raises the typed error
    ENTRY_POINTS = {
        "cluster_snapshot": cluster_snapshot,
        "drift_cluster_snapshot": lambda d, t: drift_cluster_snapshot(d.measure, t),
        "scaled_cluster_snapshot": lambda d, t: scaled_cluster_snapshot(d, t, 0.5),
        "eval_m": lambda d, t: eval_m(d, 0.0, t),
        "sample": lambda d, t: sample(d, [0.0], t),
        "eval_mbar": lambda d, t: eval_mbar(d.measure, 0.0, t),
        "simulate_ep": simulate_ep,
        "eval_nu_theta_omega": lambda d, t: eval_nu_theta_omega(d, 0.0, t),
    }

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_raises_non_positive_time(self, entry, t, two_atom_symmetric):
        with pytest.raises(NonPositiveTime, match="finite"):
            self.ENTRY_POINTS[entry](two_atom_symmetric, t)


def probe_points(data, frame, rng, count=20):
    """Random points over the reach of the atoms, and the atoms' free
    positions and the clusters, each with its neighbours one ulp, 1e-10
    and 5e-9 away: points in and next to every tie window."""
    pos = data.measure.positions
    span = float(pos[-1] - pos[0]) + 1.0
    near = np.concatenate((frame.X, frame.clusters()[2]))
    return np.concatenate(
        [
            rng.uniform(float(pos[0]) - 2.0 * span, float(pos[-1]) + 2.0 * span, size=count),
            near,
            np.nextafter(near, np.inf),
            np.nextafter(near, -np.inf),
            near + 1e-10,
            near - 1e-10,
            near + 5e-9,
            near - 5e-9,
        ]
    )


def tie_family_instance(rng, kind, t):
    """Atoms whose free positions at t are equal up to rounding ("equal")
    or in reverse order ("collision"), so that prefixes tie or every atom
    has merged."""
    n = int(rng.integers(3, 30))
    positions = np.sort(rng.uniform(-5.0, 5.0, n))
    masses = rng.uniform(0.01, 2.0, n) / n
    tau = float(rng.choice([1.0, 0.5, 0.1]))
    X = np.sort(rng.uniform(-5.0, 5.0, n))
    X = np.repeat(X, rng.integers(1, 5, n))[:n] if kind == "equal" else X[::-1]
    coeffs = PotentialCoefficients.euler_poisson(tau, t)
    mt = AtomicMeasure(positions, masses).atom_mtilde()
    velocities = (X - positions - coeffs.B * mt) / coeffs.A
    return InitialData.from_atoms(positions, masses, velocities, tau)


class TestVelocityPass:
    """The array velocity pass of a grid call equals the scalar reference
    point by point (repr of u and branch), on frames of every family."""

    def assert_grid_equals_reference(self, data, xs, t, weights=PotentialCoefficients.euler_poisson):
        frame = _frame(data, t, weights)
        _, k_min, k_max = frame.argmin_grid(xs)
        want = [scalar_velocity(frame, data, *r) for r in zip(xs.tolist(), k_min.tolist(), k_max.tolist())]
        u, branch = _velocities(frame, data, xs, k_min, k_max)
        assert repr(list(zip(u.tolist(), branch.tolist()))) == repr(want)
        return {branch for _, branch in want}

    def test_compare_ensemble(self):
        rng = np.random.default_rng(80)
        seen = set()
        for data, _, times in compare_ensemble_cases():
            for t in times[1:]:
                seen |= self.assert_grid_equals_reference(data, probe_points(data, _frame(data, t), rng), t)
        assert seen == set(Branch)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_bench_instances(self, n):
        grid = np.linspace(-12.0, 12.0, 1001)
        for seed in (0, 17):
            data = baseline_instance(n, seed)
            for t in (0.3, 1.0, 2.0):
                xs = np.concatenate((grid, cluster_snapshot(data, t).positions))
                assert self.assert_grid_equals_reference(data, xs, t) == set(Branch)

    def test_tie_families_and_lookup_kinds(self):
        rng = np.random.default_rng(81)
        for trial in range(160):
            t = float(10.0 ** rng.uniform(-3.0, 1.0))
            kind = ("equal", "collision", "near_duplicate", "vanishing_mass")[trial % 4]
            if kind in ("equal", "collision"):
                data = tie_family_instance(rng, kind, t)
            else:
                data = _lookup_instance(rng, kind)
            self.assert_grid_equals_reference(data, probe_points(data, _frame(data, t), rng), t)

    def test_scaled_frames(self):
        rng = np.random.default_rng(82)
        for _ in range(40):
            data = make_random_instance(rng)
            tau = float(rng.choice([0.5, 0.1, 1e-3]))
            scaled = data.with_tau(tau)
            for t in (1e-3, 0.7, 3.0):
                frame = _frame(scaled, t, PotentialCoefficients.scaled)
                xs = probe_points(data, frame, rng, count=10)
                self.assert_grid_equals_reference(scaled, xs, t, PotentialCoefficients.scaled)
                _, k_min, k_max = frame.argmin_grid(xs[:12])
                for x, a, b in zip(xs[:12].tolist(), k_min.tolist(), k_max.tolist()):
                    u, _ = scalar_velocity(frame, scaled, x, a, b)
                    assert repr(eval_scaled(data, x, t, tau)[1]) == repr(u / tau)
