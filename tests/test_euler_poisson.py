import math

import numpy as np
import pytest

from stickygas.errors import NonPositiveTime
from stickygas.euler_poisson import (
    Branch,
    _backward_cone,
    _frame,
    cluster_snapshot,
    eval_E,
    eval_m,
    eval_m_grid,
    eval_nu_theta_omega,
    eval_q,
    eval_q_grid,
    eval_u,
    forward_position,
    sample,
    speed_bound,
    trace_shock,
)
from stickygas.measure import InitialData
from stickygas.oracle import simulate_ep
from stickygas.potentials import PotentialCoefficients
from tests.conftest import make_random_instance

E1 = math.exp(-1.0)
LN2 = math.log(2.0)


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
        x_shock = forward_position(two_atom_symmetric, 0, 2.0)
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
            for c in cluster_snapshot(data, t):
                eps = 1e-7
                u_left, _ = eval_u(data, c.position - eps, t)
                u_right, _ = eval_u(data, c.position + eps, t)
                u_mid, _ = eval_u(data, c.position, t)
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
        assert forward_position(single_atom, 0, LN2) == pytest.approx(0.5, abs=1e-9)

    def test_two_atom_collapse(self, two_atom_symmetric):
        assert forward_position(two_atom_symmetric, 0, 6.0) == pytest.approx(0.0, abs=1e-9)
        assert forward_position(two_atom_symmetric, 1, 6.0) == pytest.approx(0.0, abs=1e-9)

    def test_two_atom_pre_collision(self, two_atom_symmetric):
        got = forward_position(two_atom_symmetric, 0, 1.0)
        assert got == pytest.approx(-0.9080301397071394, abs=1e-9)

    def test_increasing_in_atom_index(self):
        rng = np.random.default_rng(16)
        data = make_random_instance(rng, n_max=8)
        for t in (0.5, 2.0, 5.0):
            xs = [forward_position(data, i, t) for i in range(len(data))]
            assert all(b >= a - 1e-9 for a, b in zip(xs[:-1], xs[1:]))

    def test_matches_hull_snapshot(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            data = make_random_instance(rng, n_max=10)
            t = float(rng.uniform(0.1, 5.0))
            snap = cluster_snapshot(data, t)
            for c in snap:
                for i in range(c.lo, c.hi):
                    assert forward_position(data, i, t) == pytest.approx(
                        c.position, abs=1e-8 * (1 + abs(c.position))
                    )


class TestEnergy:
    def test_single_atom_closed_form(self, single_atom):
        assert eval_E(single_atom, 10.0, LN2) == pytest.approx(0.25, rel=1e-14)

    def test_empty_prefix(self, single_atom):
        assert eval_E(single_atom, -10.0, 1.0) == 0.0

    def test_symmetric_merged_at_rest(self, two_atom_symmetric):
        assert eval_E(two_atom_symmetric, 10.0, 6.0) == pytest.approx(0.0, abs=1e-15)

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
            for c in cluster_snapshot(data, t):
                eps = 1e-6
                x1, x2 = c.position - eps, c.position + eps
                dm = eval_m(data, x2, t) - eval_m(data, x1, t)
                if dm <= 0:
                    continue
                dq = eval_q(data, x2, t) - eval_q(data, x1, t)
                dE = eval_E(data, x2, t) - eval_E(data, x1, t)
                u, _ = eval_u(data, c.position, t)
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
            for c in cluster_snapshot(data, t):
                s = sample(data, c.position, t)
                jump = eval_m(data, c.position + 1e-7, t) - s.m
                if c.hi - c.lo > 1 or c.lo > 0:
                    # genuine concentration with mass on its left, or a
                    # merged cluster: must be tagged as a shock
                    if jump > 0 and c.hi - c.lo > 1:
                        assert s.branch is Branch.DELTA_SHOCK
                        hits += 1
        assert hits > 0

    def test_time_zero(self, single_atom):
        s = sample(single_atom, 0.0, 0.0)
        assert (s.m, s.q, s.E) == (0.0, 0.0, 0.0)
        assert s.u == 1.0  # atom exactly at the query point


class TestTraceShock:
    def test_single_atom_path(self, single_atom):
        t0 = 0.05
        x0 = 1.0 - math.exp(-t0)
        curve = trace_shock(single_atom, x0, t0, 2.0, 0.25)
        for t, x in zip(curve.times, curve.positions):
            assert x == pytest.approx(1.0 - math.exp(-t), abs=1e-9)

    def test_symmetric_shock_stays_at_origin(self, two_atom_symmetric):
        curve = trace_shock(two_atom_symmetric, 0.0, 5.1, 7.0, 0.4)
        assert max(abs(p) for p in curve.positions) <= 1e-9
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in curve.velocities)
        los = [r[0] for r in curve.ranges]
        his = [r[1] for r in curve.ranges]
        assert all(b <= a for a, b in zip(los[:-1], los[1:]))
        assert all(b >= a for a, b in zip(his[:-1], his[1:]))

    def test_matches_oracle_cluster_trajectory(self):
        data = InitialData.from_atoms(
            [-2.0, 0.3, 1.4], [0.8, 0.5, 0.7], [1.2, -0.3, -0.9], 0.5
        )
        traj = simulate_ep(data, 6.0)
        t0 = traj.events[0].time + 0.05
        state0 = traj.state_at(t0)
        merged = int(np.argmax(state0.hi - state0.lo))
        curve = trace_shock(data, float(state0.positions[merged]), t0, 5.0, 0.3)
        for t, x, u in zip(curve.times, curve.positions, curve.velocities):
            state = traj.state_at(t)
            target = int(np.argmin(np.abs(state.positions - x)))
            assert x == pytest.approx(state.positions[target], abs=1e-8)
            assert u == pytest.approx(state.velocities[target], abs=1e-8)

    def test_lipschitz_in_time(self, two_atom_symmetric):
        curve = trace_shock(two_atom_symmetric, 0.0, 1.0, 3.0, 0.2)
        vmax = speed_bound(two_atom_symmetric)
        for (t1, x1), (t2, x2) in zip(
            zip(curve.times[:-1], curve.positions[:-1]),
            zip(curve.times[1:], curve.positions[1:]),
        ):
            assert abs(x2 - x1) <= vmax * (t2 - t1) + 1e-9

    def test_rejects_bad_window(self, single_atom):
        with pytest.raises(NonPositiveTime):
            trace_shock(single_atom, 0.0, 0.0, 1.0, 0.1)


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
            probes = [c.position for c in clusters] + [far, -far]
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
            start = float(state0.positions[np.argmax(state0.hi - state0.lo)])
            curve = trace_shock(data, start, t0, min(t0 + 2.0, 6.0), 0.37)
            for t, x in zip(curve.times, curve.positions):
                pos = traj.state_at(t).positions
                nearest = pos[np.argmin(np.abs(pos - x))]
                assert x == pytest.approx(nearest, abs=1e-7)
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
    """Atom i's forward position: where k_max(x, t) first reaches i + 1."""
    m = data.measure
    frame = _frame(data, t)
    reach = data.max_speed * frame.coeffs.A + 0.5 * m.total_mass * abs(frame.coeffs.B)
    lo = float(m.positions[0]) - reach - 1.0
    hi = float(m.positions[-1]) + reach + 1.0
    return _bisect(lambda x: _exact_argmin(frame, x)[1] >= i + 1, lo, hi, _pos_tol(data))


def bisect_trace(data, x0, t0, times):
    """Forward characteristic from (x0, t0): at each time, the point whose
    backward characteristic (or max-speed vacuum tracer) passes through x0
    at t0. These curves are ordered in x, so the search is monotone.
    """
    coeffs0 = PotentialCoefficients.euler_poisson(data.tau, t0)
    vmax = speed_bound(data)
    xs = [float(x0)]
    for t1 in times[1:]:
        frame = _frame(data, t1)
        A, B = frame.coeffs.A, frame.coeffs.B

        def back(x):
            k_min, _ = _exact_argmin(frame, x)
            side, vacuum, _, y, mt, c = _backward_cone(frame, data, x, k_min)
            if vacuum:
                return x - side * data.max_speed * (A - coeffs0.A) - mt * (B - coeffs0.B)
            return y + c * coeffs0.A + mt * coeffs0.B

        reach = vmax * (t1 - t0) + 1.0
        xs.append(
            _bisect(lambda x: back(x) >= x0, x0 - reach, x0 + reach, _pos_tol(data))
        )
    return xs


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
                for i in range(len(data)):
                    got = forward_position(data, i, t)
                    assert _close(got, bisect_forward_position(data, i, t))

    def test_trace_shock_cluster_and_vacuum_starts(self):
        kinds = {"cluster": 0, "k=0": 0, "interior": 0, "k=N": 0}
        for rng, data in _instances(71, 24):
            t0 = float(rng.uniform(0.05, 3.0))
            pos = [c.position for c in cluster_snapshot(data, t0)]
            starts = [("cluster", pos[int(rng.integers(len(pos)))])]
            starts += [("k=0", pos[0] - 1.0), ("k=N", pos[-1] + 1.0)]
            if len(pos) > 1:
                j = int(rng.integers(len(pos) - 1))
                starts.append(("interior", 0.5 * (pos[j] + pos[j + 1])))
            for kind, x0 in starts:
                curve = trace_shock(data, x0, t0, t0 + 2.0, 0.45)
                want = bisect_trace(data, x0, t0, curve.times)
                for got, ref in zip(curve.positions, want):
                    assert _close(got, ref), (kind, got, ref)
                kinds[kind] += 1
        assert min(kinds.values()) > 0

    def test_extreme_mass_ratio_reads_the_cluster(self):
        # masses across 12 decades: the light atom's cluster sits near 0.75;
        # a bisection over the prefix argmin lands far from it
        data = InitialData.from_atoms([-1.0, 1.0], [1e6, 1e-6], [0.0, 0.0], 1.0)
        t = 1e-3
        for c in cluster_snapshot(data, t):
            for i in range(c.lo, c.hi):
                assert forward_position(data, i, t) == c.position
        assert forward_position(data, 1, t) == pytest.approx(0.75, abs=1e-3)


class TestGridEvaluation:
    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(24)
        data = make_random_instance(rng)
        t = 1.3
        xs = rng.uniform(-12, 12, size=25)
        ms = eval_m_grid(data, xs, t)
        qs = eval_q_grid(data, xs, t)
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
                    xs += [c.position for c in cluster_snapshot(data, t)]
                for fn in (sample, eval_u, eval_E):
                    grid = fn(data, np.array(xs), t)
                    assert [repr(v) for v in grid] == [repr(fn(data, x, t)) for x in xs]
                assert fn(data, [], t) == []

    def test_time_zero_scalar_forms_read_the_sequential_prefixes(self):
        # the prefixes of w*u and w*u*u that eval_q_grid and the
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
            assert qs == eval_q_grid(data, xs, 0.0).tolist()
            assert es == eval_E(data, xs, 0.0) == e0[k].tolist()
