import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

from stickygas import cli, drift, euler_poisson, potentials, relax
from stickygas.errors import EmptyMeasure, NonPositiveTime, PotentialOverflow
from stickygas.euler_poisson import _backward_cone, cluster_snapshot
from stickygas.instances import random_instance
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import oracle_cdf, simulate_ep
from stickygas.potentials import PotentialCoefficients, PrefixFrame, minimize_Fbar
from tests.conftest import _lookup_instance, make_random_instance, reference_frame, y_star

E1 = math.exp(-1.0)


class TestCoefficients:
    def test_euler_poisson_values(self):
        c = PotentialCoefficients.euler_poisson(1.0, 1.0)
        assert c.A == pytest.approx(1.0 - E1, rel=1e-15)
        assert c.B == pytest.approx(-E1, rel=1e-15)
        assert c.decay == pytest.approx(E1, rel=1e-15)

    def test_force_weight_nonpositive(self):
        for tau in (1.0, 0.5, 0.1):
            for t in (1e-8, 0.1, 1.0, 50.0):
                c = PotentialCoefficients.euler_poisson(tau, t)
                assert c.B <= 0.0
                assert 0.0 <= c.A < tau + 1e-15

    def test_drift_variant(self):
        c = PotentialCoefficients.drift(2.5)
        assert (c.A, c.B) == (0.0, -2.5)

    def test_requires_positive_time(self):
        with pytest.raises(NonPositiveTime):
            PotentialCoefficients.euler_poisson(1.0, 0.0)
        with pytest.raises(NonPositiveTime):
            PotentialCoefficients.drift(-1.0)

    def test_flush_beyond_700(self):
        c = PotentialCoefficients.euler_poisson(1e-3, 10.0)
        assert c.decay == 0.0
        assert c.A == 1e-3

    def test_scaled_tau_whose_square_underflows(self):
        # tau * tau is 0.0 below about 1.5e-162; the weights are the drift
        # limit's (A -> 0, B = -t) and nothing divides by zero
        for tau in (1e-200, 1e-300):
            c = PotentialCoefficients.scaled(tau, 2.0)
            assert (c.A, c.B, c.decay) == (tau, -2.0, 0.0)
        # a square in the normal range keeps the one division by tau * tau
        c = PotentialCoefficients.scaled(1e-3, 1e-7)
        assert c.A == 1e-3 * -math.expm1(-1e-7 / (1e-3 * 1e-3))


def frame_of_F(data, t):
    return PrefixFrame(data.measure, data.velocities, PotentialCoefficients.euler_poisson(data.tau, t))


class TestEvalF:
    # F(y; x, t) sums over the k atoms strictly below y: it is the prefix
    # sum S[k] - x P[k] of the frame that the minimizer scans
    def test_empty_measure_sum(self):
        frame = frame_of_F(InitialData.from_atoms([], [], [], 1.0), 1.0)
        assert (frame.S.tolist(), frame.P.tolist()) == ([0.0], [0.0])

    def test_single_atom_on_path(self):
        frame = frame_of_F(InitialData.from_atoms([0.0], [1.0], [1.0], 1.0), 1.0)
        assert frame.S[1] - (1.0 - E1) * frame.P[1] == pytest.approx(0.0, abs=1e-15)

    def test_two_atom_value(self, two_atom_symmetric):
        frame = frame_of_F(two_atom_symmetric, 1.0)
        assert frame.S[1] == pytest.approx(-0.4540150698535697, abs=1e-15)

    def test_left_continuity_jump(self, two_atom_symmetric):
        # F(y) at y = -1 excludes the atom there (k = 0), F(y+) includes it
        frame = frame_of_F(two_atom_symmetric, 1.0)
        assert frame.S[0] == 0.0
        assert frame.S[1] == pytest.approx(-0.4540150698535697, abs=1e-15)

    def test_requires_positive_time(self, two_atom_symmetric):
        with pytest.raises(NonPositiveTime):
            frame_of_F(two_atom_symmetric, 0.0)


class TestMinimizeF:
    # the minimizer of F is the tie rule's triple (nu, k_min, k_max) on F's
    # frame: the minimum is attained at y* when k_min == 0, and it jumps when
    # k_max > k_min
    def test_single_atom_on_path(self):
        d = InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)
        nu, k_min, k_max = frame_of_F(d, 1.0).argmin(1.0 - E1)
        assert nu == pytest.approx(0.0, abs=1e-14)
        assert (k_min, k_max) == (0, 1)
        assert y_star(d.measure, k_min) == 0.0 and y_star(d.measure, k_max) == 0.0

    def test_two_atom_before_collision(self, two_atom_symmetric):
        nu, k_min, k_max = frame_of_F(two_atom_symmetric, 1.0).argmin(0.0)
        assert nu == pytest.approx(-0.4540150698535697, abs=1e-15)
        assert (k_min, k_max) == (1, 1)
        m = two_atom_symmetric.measure
        assert y_star(m, k_min) == -1.0 and y_star(m, k_max) == -1.0

    def test_two_atom_after_collapse(self, two_atom_symmetric):
        _, k_min, k_max = frame_of_F(two_atom_symmetric, 6.0).argmin(0.0)
        assert (k_min, k_max) == (0, 2)
        m = two_atom_symmetric.measure
        assert (y_star(m, k_min), y_star(m, k_max)) == (-1.0, 1.0)

    def test_empty_measure_rejected(self):
        # minimize_Fbar makes the one check; the coefficients check t first.
        # F's frame over an empty measure has one prefix, the empty one
        d = InitialData.from_atoms([], [], [], 1.0)
        assert frame_of_F(d, 1.0).argmin(0.0) == (0.0, 0, 0)
        with pytest.raises(EmptyMeasure):
            minimize_Fbar(d.measure, 0.0, 1.0)
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTime):
                frame_of_F(d, t)
            with pytest.raises(NonPositiveTime):
                minimize_Fbar(d.measure, 0.0, t)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x_rejected_at_every_entry_point(self, two_atom_symmetric, x):
        # at t > 0 a NaN x used to leave no tie (IndexError), an infinite
        # one to multiply inf by the empty prefix's zero mass
        # (RuntimeWarning); at t = 0 searchsorted sorted a NaN after every
        # atom and returned the total mass
        d = two_atom_symmetric
        for t in (0.0, 1.0):
            calls = [
                lambda: euler_poisson.eval_m(d, x, t),
                lambda: euler_poisson.eval_m_grid(d, np.array([0.0, x]), t),
                lambda: euler_poisson.sample(d, x, t),
                lambda: drift.eval_mbar(d.measure, x, t),
                lambda: drift.eval_mbar_grid(d.measure, np.array([0.0, x]), t),
                lambda: relax.eval_scaled(d, x, t, 0.5),
            ]
            if t > 0.0:
                calls.append(lambda: frame_of_F(d, t).argmin(x))
                calls.append(lambda: minimize_Fbar(d.measure, x, t))
            # the oracle reads the same check: a NaN used to sort after
            # every cluster and give the total mass
            state = simulate_ep(d, 1.0).state_at(t)
            calls.append(lambda: oracle_cdf(state, x))
            calls.append(lambda: oracle_cdf(state, np.array([0.0, x])))
            for call in calls:
                with pytest.raises(ValueError, match=f"x must be finite, got {x!r}"):
                    call()


def initial_speed(data, x, t):
    """(side, c) of the backward cone from (x, t), as the velocity reads it:
    c(y; x, t) = (x - y)/A - mtilde0 B/A at the anchor atom y, with the
    symmetric mtilde0 on the atom's own path (side 0) and the one-sided
    value right (+1) or left (-1) of it."""
    frame = PrefixFrame(data.measure, data.velocities, PotentialCoefficients.euler_poisson(data.tau, t))
    _, k_min, _ = frame.argmin(x)
    side, _, _, _, _, c = _backward_cone(frame, data, np.array([x]), np.array([k_min]))
    return int(side[0]), float(c[0])


class TestInitialSpeed:
    def test_single_atom_recovers_velocity(self):
        d = InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)
        side, c = initial_speed(d, 1.0 - E1, 1.0)
        assert side == 0 and c == pytest.approx(1.0, rel=1e-14)

    def test_vertical_characteristic(self):
        d = InitialData.from_atoms([0.0], [1.0], [0.0], 1.0)
        assert initial_speed(d, 0.0, 2.0) == (0, 0.0)

    def test_two_atom_value(self, two_atom_symmetric):
        # the symmetric value 1.4364825301519948 exceeds u0 = 0, so x = 0
        # lies right of the left atom's path and c takes mtilde0(-1+) = 0
        side, c = initial_speed(two_atom_symmetric, 0.0, 1.0)
        assert side == 1 and c == pytest.approx(1.0 / (1.0 - E1), rel=1e-14)

    def test_one_sided_variants(self, two_atom_symmetric):
        # mtilde0(-1-) = -1/2 left of the left atom's path, mtilde0(-1+) = 0
        # right of it
        ratio = PotentialCoefficients.euler_poisson(1.0, 1.0).force_speed_ratio()
        side_left, c_left = initial_speed(two_atom_symmetric, -1.5, 1.0)
        side_right, c_right = initial_speed(two_atom_symmetric, 0.0, 1.0)
        assert (side_left, side_right) == (-1, 1)
        assert c_left == pytest.approx(-0.5 / (1.0 - E1) + 0.5 * ratio, rel=1e-14)
        assert c_right == pytest.approx(1.0 / (1.0 - E1), rel=1e-14)

    def test_small_time_stability(self):
        # c must behave like (x - y)/t without catastrophic cancellation
        d = InitialData.from_atoms([0.0], [1.0], [0.0], 1.0)
        t = 1e-9
        side, c = initial_speed(d, 1e-9, t)
        assert side == 1 and c == pytest.approx(1.0, rel=1e-6)


class TestDriftPotential:
    def test_two_atom_argmin(self, two_atom_symmetric):
        m = two_atom_symmetric.measure
        nu, k_min, k_max = minimize_Fbar(m, 0.0, 1.0)
        assert nu == pytest.approx(-0.375, abs=1e-15)
        assert (k_min, k_max) == (1, 1)
        assert y_star(m, k_min) == -1.0

    def test_two_atom_past_drift_collapse(self, two_atom_symmetric):
        _, k_min, k_max = minimize_Fbar(two_atom_symmetric.measure, 0.0, 5.0)
        assert (k_min, k_max) == (0, 2)

    def test_prefix_below_first_atom(self, two_atom_symmetric):
        # the drift potential at y = -1 sums over no atom, at every x
        frame = PrefixFrame(two_atom_symmetric.measure, None, PotentialCoefficients.drift(1.0))
        for x in (-3.0, 0.0, 2.5):
            assert frame.S[0] - x * frame.P[0] == 0.0

    def test_matches_minimize_F_with_drift_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 4.0))
            x = float(rng.uniform(-12, 12))
            frame = PrefixFrame(data.measure, None, PotentialCoefficients.drift(t))
            nu, k_min, k_max = frame.argmin(x)
            assert minimize_Fbar(data.measure, x, t) == (nu, k_min, k_max)


class TestDriftPotentialOnAGrid:
    # one drift frame for the whole grid, and at each point the triple of
    # the scalar call, which builds a frame of its own
    def test_grid_equals_scalar_calls_on_the_lookup_families(self):
        rng = np.random.default_rng(37)
        ties = 0
        for trial in range(120):
            m = _lookup_instance(rng, ("plain", "near_duplicate", "mass_decades", "vanishing_mass")[trial % 4]).measure
            t = float(10.0 ** rng.uniform(-2.0, 1.5))
            pos = drift.drift_cluster_snapshot(m, t).positions
            xs = np.sort(np.concatenate([rng.uniform(-15.0, 15.0, size=12), pos]))
            nu, k_min, k_max = minimize_Fbar(m, xs, t)
            assert (nu.dtype, k_min.dtype, k_max.dtype) == (np.float64, np.intp, np.intp)
            got = list(zip(nu.tolist(), k_min.tolist(), k_max.tolist()))
            assert repr(got) == repr([minimize_Fbar(m, x, t) for x in xs.tolist()])
            ties += int(np.count_nonzero(k_max > k_min))
        # the drift cluster positions tie
        assert ties > 0

    def test_empty_grid(self, two_atom_symmetric):
        for xs in ([], np.array([])):
            nu, k_min, k_max = minimize_Fbar(two_atom_symmetric.measure, xs, 1.0)
            assert (nu.dtype, k_min.dtype, k_max.dtype) == (np.float64, np.intp, np.intp)
            assert nu.shape == k_min.shape == k_max.shape == (0,)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_grid_point_rejected(self, two_atom_symmetric, x):
        with pytest.raises(ValueError, match=f"x must be finite, got {x!r}"):
            minimize_Fbar(two_atom_symmetric.measure, np.array([0.0, x, 1.0]), 1.0)

    def test_time_checked_before_the_empty_measure(self):
        empty = InitialData.from_atoms([], [], [], 1.0).measure
        with pytest.raises(EmptyMeasure):
            minimize_Fbar(empty, np.array([0.0, 1.0]), 1.0)
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTime):
                minimize_Fbar(empty, np.array([0.0, 1.0]), t)


class TestAuxiliaryPotentials:
    def test_share_minimizers_with_F(self):
        # prefix argmin of the G increments, and of the H increments with
        # the constant negative prefactor removed, must bracket F's argmin
        # for any admissible constant k > U0 + M*tau/2
        rng = np.random.default_rng(11)
        for _ in range(25):
            data = make_random_instance(rng, n_max=8)
            t = float(rng.uniform(0.1, 3.0))
            x = float(rng.uniform(-11, 11))
            _, k_min, k_max = frame_of_F(data, t).argmin(x)
            snap = cluster_snapshot(data, t)
            fp = np.repeat(snap.positions, snap.hi - snap.lo)
            coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
            m = data.measure
            vel = coeffs.decay * data.velocities - coeffs.A * m.atom_mtilde()
            bound = data.max_speed + 0.5 * m.total_mass * data.tau
            for k in (bound + 1.0, bound + 7.3):
                for terms in (
                    m.masses * (vel + k) * (fp - x),
                    m.masses
                    * (data.velocities + data.tau * m.atom_mtilde() + k)
                    * (fp - x),
                ):
                    prefix = np.concatenate(([0.0], np.cumsum(terms)))
                    lo = prefix.min()
                    tol = 1e-9 * (1.0 + abs(lo)) + 1e-9 * np.abs(
                        m.prefix_mass - m.prefix_mass[np.argmin(prefix)]
                    )
                    ties = np.flatnonzero(prefix - lo <= tol)
                    assert ties[0] <= k_min and k_max <= ties[-1]


class TestMinimizerProperties:
    def test_coercivity_window_meets_argmin_plateau(self):
        # the potential strictly decreases left of the window and strictly
        # increases right of it, so every minimizing plateau of prefixes
        # (eta_k, eta_{k+1}] must intersect the window: the search may be
        # restricted to atoms bordering it
        rng = np.random.default_rng(3)
        for _ in range(40):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 5.0))
            x = float(rng.uniform(-12, 12))
            c = PotentialCoefficients.euler_poisson(data.tau, t)
            lo = x - data.max_speed * c.A + 0.5 * data.measure.total_mass * c.B
            hi = x + data.max_speed * c.A - 0.5 * data.measure.total_mass * c.B
            _, k_min, k_max = frame_of_F(data, t).argmin(x)
            pos = data.measure.positions
            n = len(data)
            pad = 1e-9 * (1.0 + abs(x))
            for k in (k_min, k_max):
                plateau_left = -np.inf if k == 0 else float(pos[k - 1])
                plateau_right = np.inf if k == n else float(pos[k])
                assert plateau_left <= hi + pad
                assert plateau_right >= lo - pad

    def test_y_star_monotone_in_x(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 5.0))
            xs = np.sort(rng.uniform(-12, 12, size=6))
            frame = frame_of_F(data, t)
            prev_up = -np.inf
            for x in xs:
                _, k_min, k_max = frame.argmin(float(x))
                y, y_up = y_star(data.measure, k_min), y_star(data.measure, k_max)
                assert y <= y_up
                assert y >= prev_up - 1e-12
                prev_up = y_up

    def test_y_star_up_equals_nearby_reminimization(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 5.0))
            x = float(rng.uniform(-12, 12))
            frame = frame_of_F(data, t)
            _, _, k_max = frame.argmin(x)
            eps = float(rng.uniform(1e-7, 1e-6)) * (1.0 + abs(x))
            _, k_min_up, _ = frame.argmin(x + eps)
            assert y_star(data.measure, k_min_up) >= y_star(data.measure, k_max) - 1e-12

    def test_nu_is_lipschitz(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            data = make_random_instance(rng)
            M = data.measure.total_mass
            t = float(rng.uniform(0.05, 5.0))
            x1, x2 = sorted(rng.uniform(-12, 12, size=2))
            frame = frame_of_F(data, t)
            n1, n2 = frame.argmin(float(x1))[0], frame.argmin(float(x2))[0]
            assert abs(n1 - n2) <= M * (x2 - x1) + 1e-9 * (1 + abs(n1))
            # in time the slope is bounded by the largest prefix momentum
            t2 = t + float(rng.uniform(0.01, 0.5))
            n3 = frame_of_F(data, t2).argmin(float(x1))[0]
            c_data = M * (data.max_speed + 0.5 * data.tau * M)
            assert abs(n3 - n1) <= c_data * (t2 - t) + 1e-9 * (1 + abs(n1))

    def test_attainment_matches_speed_comparison(self):
        # the minimum is attained at y_star exactly when the backward
        # characteristic there needs speed at most the atom's own
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 40:
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 4.0))
            x = float(rng.uniform(-12, 12))
            _, k_min, _ = frame_of_F(data, t).argmin(x)
            y = y_star(data.measure, k_min)
            i = data.measure.atom_index(y)
            coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
            mt = data.measure.mtilde0(y)
            c = (x - y) / coeffs.A - mt * coeffs.force_speed_ratio()
            u0 = float(data.velocities[i])
            if abs(c - u0) < 1e-6 * (1 + abs(c)):
                continue  # boundary case: either classification is valid
            assert (k_min == 0) == (c < u0)
            checked += 1


def _lookup_frame(data, family, t):
    if family == "euler_poisson":
        coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
    elif family == "drift":
        return PrefixFrame(data.measure, None, PotentialCoefficients.drift(t))
    else:
        coeffs = PotentialCoefficients.scaled(data.tau, t)
    return PrefixFrame(data.measure, data.velocities, coeffs)


class TestArgminGrid:
    @pytest.mark.parametrize("tie_tol", [None, 0.0, 0.5])
    def test_equals_dense_scan(self, tie_tol, monkeypatch):
        if tie_tol is not None:
            monkeypatch.setattr(potentials, "DEFAULT_TIE_TOL", tie_tol)
        rng = np.random.default_rng(61)
        checked = 0
        for trial in range(120):
            kind = ("plain", "near_duplicate", "mass_decades", "vanishing_mass")[trial % 4]
            family = ("euler_poisson", "drift", "scaled")[(trial // 4) % 3]
            data = _lookup_instance(rng, kind)
            t = float(10.0 ** rng.uniform(-6.0, math.log10(50.0)))
            frame = _lookup_frame(data, family, t)
            pos = np.asarray(frame.clusters()[2])
            xs = np.concatenate(
                [
                    rng.uniform(-15.0, 15.0, size=20),
                    pos,
                    np.nextafter(pos, np.inf),
                    np.nextafter(pos, -np.inf),
                    pos + 1e-10,
                    pos - 1e-10,
                    pos + 5e-9,
                    pos - 5e-9,
                ]
            )
            nu, k_min, k_max = frame.argmin_grid(xs)
            got = list(zip(nu.tolist(), k_min.tolist(), k_max.tolist()))
            assert got == [frame.argmin(x) for x in xs.tolist()]
            checked += xs.size
        assert checked > 5000

    def test_unsettled_points_call_argmin(self, monkeypatch):
        # only points in a tie window near a cluster position reach the
        # scalar tie rule; a grid 1e-6 clear of every cluster never does
        calls = []
        tie_rule = potentials._argmin

        def counted(P, S, tie_tol, x):
            calls.append(x)
            return tie_rule(P, S, tie_tol, x)

        monkeypatch.setattr(potentials, "_argmin", counted)
        rng = np.random.default_rng(64)
        for _ in range(20):
            data = make_random_instance(rng, n_max=12)
            frame = _lookup_frame(data, "euler_poisson", float(rng.uniform(0.1, 5.0)))
            pos = np.asarray(frame.clusters()[2])
            calls.clear()
            frame.argmin_grid(np.concatenate([pos - 1e-6, pos + 1e-6]))
            assert calls == []
            nu, k_min, k_max = frame.argmin_grid(pos)
            assert calls
            got = list(zip(nu.tolist(), k_min.tolist(), k_max.tolist()))
            assert got == [tie_rule(frame.P, frame.S, frame.tie_tol, x) for x in pos.tolist()]

    def test_empty_grid_and_empty_measure(self):
        data = InitialData.from_atoms([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], 1.0)
        frame = _lookup_frame(data, "euler_poisson", 1.0)
        nu, k_min, k_max = frame.argmin_grid([])
        assert nu.size == k_min.size == k_max.size == 0
        empty = InitialData.from_atoms([], [], [], 1.0)
        frame = _lookup_frame(empty, "euler_poisson", 1.0)
        nu, k_min, k_max = frame.argmin_grid([-1.0, 2.0])
        assert list(zip(nu.tolist(), k_min.tolist(), k_max.tolist())) == [
            frame.argmin(-1.0),
            frame.argmin(2.0),
        ]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_on_both_paths(self, x):
        # the dense scan of a short grid before the hull is built, and the
        # hull lookup of a long grid or of any grid once the hull is built
        data = _lookup_instance(np.random.default_rng(65), "plain")
        frame = _lookup_frame(data, "euler_poisson", 0.5)
        for grid in ([0.0, x], [0.0] * potentials.DENSE_GRID_POINTS + [x], [x]):
            with pytest.raises(ValueError, match=f"x must be finite, got {x!r}"):
                frame.argmin_grid(grid)

    def test_two_dimensional_grid_keeps_its_shape(self):
        # drift.eval_mbar_grid passes its grid through as given: a 2-d grid
        # gives the 1-d results in its shape, on the hull lookup and on the
        # dense scan of a grid shorter than DENSE_GRID_POINTS alike
        data = _lookup_instance(np.random.default_rng(64), "plain")
        for shape in ((3, 4), (4, 4), (1, 1), (2, 2), (0, 3)):
            xs = np.linspace(-12.0, 12.0, shape[0] * shape[1])
            frame = _lookup_frame(data, "drift", 0.5)
            for got, want in zip(frame.argmin_grid(xs.reshape(shape)), frame.argmin_grid(xs)):
                assert got.shape == shape and got.ravel().tobytes() == want.tobytes()
            assert drift.eval_mbar_grid(data.measure, xs.reshape(shape), 0.5).shape == shape

    def test_no_dense_grid_by_atom_matrix(self):
        # G = N = 2000: a G x N float64 temporary alone takes 32 MB
        rng = np.random.default_rng(62)
        n = 2000
        data = InitialData.from_atoms(
            np.sort(rng.uniform(-10.0, 10.0, size=n)),
            rng.uniform(0.01, 2.0, size=n) / n,
            rng.uniform(-2.0, 2.0, size=n),
            0.5,
        )
        xs = np.linspace(-12.0, 12.0, 2000)
        frame = _lookup_frame(data, "euler_poisson", 0.3)
        tracemalloc.start()
        try:
            frame.argmin_grid(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_hull_is_isotonic_regression_of_free_positions(self):
        # the lower-hull edges of (P_k, S_k) are the blocks of the weighted
        # isotonic regression of the free positions (pool adjacent violators)
        rng = np.random.default_rng(63)
        for _ in range(40):
            data = make_random_instance(rng, n_max=30)
            for t in (0.05, 0.4, 1.5, 6.0):
                frame = _lookup_frame(data, "euler_poisson", t)
                lo, hi, pos, _ = frame.clusters()
                fit = isotonic_regression(frame.X, weights=data.measure.masses)
                assert len(fit.blocks) - 1 == lo.size
                hull = np.repeat(pos, hi - lo)
                scale = max(1.0, float(np.max(np.abs(fit.x))))
                assert np.max(np.abs(hull - fit.x)) <= 1e-12 * scale


class TestNoSplitting:
    def test_later_hull_vertices_are_earlier_vertices(self):
        # sticky dynamics: clusters only merge, so every prefix exposed on
        # the hull at a later time was exposed at every earlier time
        rng = np.random.default_rng(64)
        pairs = 0
        for _ in range(100):
            data = random_instance(rng)
            earlier = None
            for t in np.sort(rng.uniform(1e-4, 6.0, size=40)).tolist():
                frame = _lookup_frame(data, "euler_poisson", t)
                lo, hi, _, _ = frame.clusters()
                verts = set(lo.tolist()) | set(hi.tolist())
                if earlier is not None:
                    assert verts <= earlier, f"hull split between times at t={t}"
                    pairs += 1
                earlier = verts
        assert pairs == 100 * 39



def _bench_instance(n, seed):
    """The benchmark's baseline atoms: N positions U(-10, 10) sorted, masses
    U(0.01, 2)/N and velocities U(-2, 2), drawn in that order from
    default_rng(seed), with tau 0.5."""
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n))
    masses = rng.uniform(0.01, 2.0, size=n) / n
    return InitialData.from_atoms(positions, masses, rng.uniform(-2.0, 2.0, size=n), 0.5)


def _ep_frame(data, t):
    return PrefixFrame(data.measure, data.velocities, PotentialCoefficients.euler_poisson(data.tau, t))


def _chain(P, S):
    return potentials._monotone_chain(P, S, range(P.size))


def _kernel(rows):
    """The vertices of each (P, S) row from one stacked run of the kernel."""
    n = np.array([P.size for P, _ in rows])
    L = int(n.max())
    P, S = (np.vstack([np.pad(row[i], (0, L - row[i].size), mode="edge") for row in rows]) for i in (0, 1))
    row, k = np.divmod(potentials._hull_vertices(P, S, n), L)
    return [k[row == r].tolist() for r in range(len(rows))]


def _prefix_rows(w, X):
    return np.concatenate(([0.0], np.cumsum(w))), np.concatenate(([0.0], np.cumsum(w * X)))


def _dense_argmin(P, S, tie_tol, x):
    """The tie rule over the whole row, the reference for ``potentials._argmin``:
    the minimum nu = T[k0] of T = S - x P, and the first and last prefix
    within its tie window, tie_tol (1 + |nu|) plus
    DEFAULT_TIE_POS_TOL (1 + |x|) |P_j - P_k0|, formed for every prefix."""
    T = S - x * P
    k0 = int(np.argmin(T))
    nu = float(T[k0])
    tol = tie_tol * (1.0 + abs(nu)) + potentials.DEFAULT_TIE_POS_TOL * (1.0 + abs(x)) * np.abs(P - P[k0])
    ties = np.flatnonzero(T - nu <= tol)
    return nu, int(ties[0]), int(ties[-1])


class TestTieRuleKernel:
    TIE_TOLS = (0.0, potentials.DEFAULT_TIE_TOL, 1e-6, 0.5)

    @staticmethod
    def points(frame):
        """Every cluster position, one ulp to either side, and 1e-10 and
        1e-7 away: the points where prefixes tie or nearly tie."""
        pos = np.asarray(frame.clusters()[2])
        near = [np.nextafter(pos, -np.inf), np.nextafter(pos, np.inf)]
        return np.concatenate([pos, *near, *(pos + d for d in (1e-10, -1e-10, 1e-7, -1e-7))])

    def assert_equals_dense(self, frame, xs):
        for tie_tol in self.TIE_TOLS:
            for x in xs.tolist():
                got = potentials._argmin(frame.P, frame.S, tie_tol, x)
                assert repr(got) == repr(_dense_argmin(frame.P, frame.S, tie_tol, x)), (tie_tol, x)

    def test_bench_instances(self):
        # the drift frame of relax's shock filter and the gas frames of solve
        for seed in (0, 17):
            data = _bench_instance(1000, seed)
            frames = [_lookup_frame(data, "drift", 1.0), _ep_frame(data, 0.3), _ep_frame(data, 1.0)]
            for frame in frames:
                self.assert_equals_dense(frame, np.concatenate([np.linspace(-12.0, 12.0, 101), self.points(frame)]))

    def test_lookup_families(self):
        rng = np.random.default_rng(66)
        for trial in range(36):
            kind = ("plain", "near_duplicate", "mass_decades", "vanishing_mass")[trial % 4]
            family = ("euler_poisson", "drift", "scaled")[(trial // 4) % 3]
            data = _lookup_instance(rng, kind)
            frame = _lookup_frame(data, family, float(10.0 ** rng.uniform(-6.0, math.log10(50.0))))
            self.assert_equals_dense(frame, np.concatenate([rng.uniform(-15.0, 15.0, size=10), self.points(frame)]))

    def test_exact_window_drops_a_candidate_that_does_not_tie(self, monkeypatch):
        # x = 0.5 between a unit atom at 0 and one of mass 1e-6 at 0.5001:
        # T_2 - nu = 1e-10 lies under the one bound a + b P[-1] (about
        # 1.5e-9) and past its own window a + b (P_2 - P_1) (about 1.5e-12)
        windows = []

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, a):
                windows.append(a.size)
                return np.abs(a)

        monkeypatch.setattr(potentials, "np", CountedNumpy())
        P, S = _prefix_rows(np.array([1.0, 1e-6]), np.array([0.0, 0.5001]))
        got = potentials._argmin(P, S, potentials.DEFAULT_TIE_TOL, 0.5)
        assert windows == [2] and got[1:] == (1, 1)
        assert repr(got) == repr(_dense_argmin(P, S, potentials.DEFAULT_TIE_TOL, 0.5))
        # a true tie goes through the same window; a lone candidate skips it
        windows.clear()
        assert potentials._argmin(P, S, 1e-9, 0.5)[1:] == (1, 2) and windows == [2]
        windows.clear()
        assert potentials._argmin(P, S, potentials.DEFAULT_TIE_TOL, -1.0)[1:] == (0, 0) and windows == []


class TestFarPoints:
    ATOMS = InitialData.from_atoms([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_point_raises_at_every_entry_point(self):
        # s_max + |x| P[-1] past a quarter of the largest float: S - x P could
        # overflow, and the parent read m = 0 at both far points
        d = self.ATOMS
        far = [0.0, 8.5e307, 1.7e308]
        stack = potentials.FrameStack([(d.measure, d.velocities, PotentialCoefficients.euler_poisson(d.tau, 1.0))])
        calls = [
            lambda: euler_poisson.eval_m_grid(d, np.array(far), 1.0),
            lambda: euler_poisson.eval_m_grid(d, np.array(far * 2), 1.0),
            lambda: stack.argmin_grid([np.array(far)]),
            lambda: _lookup_frame(d, "euler_poisson", 1.0).argmin(-8.5e307),
            lambda: minimize_Fbar(d.measure, np.array(far), 1.0),
            lambda: drift.eval_mbar_grid(d.measure, np.array(far), 1.0),
            lambda: relax.eval_scaled(d, 8.5e307, 1.0, 0.5),
        ]
        for call in calls:
            with pytest.raises(PotentialOverflow, match=r"x = -?8\.5e\+307 is too far out"):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_points_inside_the_reach_answer(self):
        # 6 |x| stays under the bound up to about 7.5e306: m is the total mass,
        # as the oracle reads it, on both paths
        d = self.ATOMS
        xs = np.array([-7e306, -1e306, 1e306, 7e306])
        state = simulate_ep(d, 1.0).state_at(1.0)
        for grid in (xs, np.tile(xs, 2)):
            m = euler_poisson.eval_m_grid(d, grid, 1.0)
            assert m.tolist() == oracle_cdf(state, grid).tolist() == [0.0, 0.0, 6.0, 6.0] * (grid.size // 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_window_past_the_float_range_leaves_the_point_unsettled(self):
        # rounding bound 1e-14 * 4e307 over the last atom's mass 1e-15
        # overflows: the lookup sends those points to the tie rule
        d = InitialData.from_atoms([-1.0, 1.0], [1.0, 1e-15], [0.0, 0.0], 0.5)
        frame = _lookup_frame(d, "euler_poisson", 1.0)
        xs = np.linspace(1e307, 4e307, 7)
        got = list(zip(*(a.tolist() for a in frame.argmin_grid(xs))))
        assert got == [frame.argmin(x) for x in xs.tolist()]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_tie_tolerance_leaves_the_point_to_the_tie_rule(self, tmp_path):
        # tie_tol (1 + |nu|) overflows at a tie tolerance of 1e308 from the
        # flag or the config: solve used to exit 1 on the numpy warning
        d = self.ATOMS
        atoms = [{"position": p, "mass": w, "velocity": 0.0} for p, w in zip(d.measure.positions.tolist(), d.measure.masses.tolist())]
        cfg = {"version": 1, "atoms": atoms, "tau": d.tau, "times": [1.0], "x_grid": {"min": -5.0, "max": 5.0, "count": 11}, "t_end": 2.0, "seed": 0}
        frame = _ep_frame(d, 1.0)
        want = [frame.P[_dense_argmin(frame.P, frame.S, 1e308, x)[1]] for x in np.linspace(-5.0, 5.0, 11).tolist()]
        for name, extra, flags in (("flag", {}, ["--tol-tie", "1e308"]), ("config", {"tolerances": {"tie": 1e308}}, [])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(cfg, **extra)), encoding="utf-8")
            assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / name), *flags]) == 0
            lines = (tmp_path / name / "solution_t1.csv").read_text(encoding="utf-8").split()
            assert lines[0].split(",")[1] == "m"
            assert [float(line.split(",")[1]) for line in lines[1:]] == want


class TestHullKernel:
    """``_hull_vertices`` runs its passes on every stack here, one row or
    many, and must give the monotone chain's vertices."""

    @pytest.fixture(autouse=True)
    def kernel_only(self, monkeypatch):
        monkeypatch.setattr(potentials, "HULL_CHAIN_POINTS", 0)

    def assert_equals_chain(self, frames):
        rows = [(f.P, f.S) for f in frames]
        want = [_chain(P, S) for P, S in rows]
        assert _kernel(rows) == want
        assert [_kernel([row])[0] for row in rows] == want
        for f, verts in zip(frames, want):
            lo, hi, _, _ = f.clusters()
            assert [0] + hi.tolist() == verts and lo.tolist() == verts[:-1]

    def test_equals_chain_on_compare_ensemble(self):
        # compare's rows on the benchmark ensemble: the N = 100 instance at
        # its two times, then 200 random instances at five times each
        data = _bench_instance(100, 0)
        raw = {
            "version": 1,
            "atoms": [
                {"position": p, "mass": m, "velocity": v}
                for p, m, v in zip(data.measure.positions.tolist(), data.measure.masses.tolist(), data.velocities.tolist())
            ],
            "tau": 0.5,
            "times": [0.3, 1.0],
            "n_instances": 200,
        }
        cases = cli._compare_cases(cli.RunConfig(raw), np.random.default_rng(20260810))
        frames = [_ep_frame(d, t) for d, t, *_ in cases]
        assert len(frames) == 2 + 5 * 200
        self.assert_equals_chain(frames)

    def test_equals_chain_on_bench_instances(self):
        frames = [_ep_frame(_bench_instance(100, seed), t) for seed in range(30) for t in (0.3, 1.0)]
        for n in (1000, 10000):
            frames += [_ep_frame(_bench_instance(n, seed), t) for seed in (0, 17) for t in (0.3, 1.0)]
        self.assert_equals_chain(frames)

    def test_equals_chain_on_validate_and_relax_frames(self):
        # the continuity levels 2^-1 ... 2^-20, the relax study's ten taus
        # and its drift frames, and the drift frames at the solve times
        frames = []
        for n, seed in ((100, 0), (100, 1), (100, 2), (1000, 0)):
            data = _bench_instance(n, seed)
            frames += [_ep_frame(data, 2.0 ** -k) for k in range(1, 21)]
            for k in range(1, 11):
                coeffs = PotentialCoefficients.scaled(2.0 ** -k, 1.0)
                frames.append(PrefixFrame(data.measure, data.velocities, coeffs))
            frames += [PrefixFrame(data.measure, None, PotentialCoefficients.drift(t)) for t in (0.3, 1.0)]
        self.assert_equals_chain(frames)

    def test_tie_cases_equal_chain(self, monkeypatch):
        # exact ties: equal free positions (collinear points), chain
        # collisions (free positions in reverse order), near-duplicate
        # atoms, and atoms whose mass vanishes in P; each row alone and all
        # rows stacked
        redone = []
        chain_rows = potentials._chain_rows

        def recorded(P, S, rows):
            redone.extend(rows)
            return chain_rows(P, S, rows)

        monkeypatch.setattr(potentials, "_chain_rows", recorded)
        rng = np.random.default_rng(70)
        for kind in ("equal", "collision", "near_duplicate", "vanishing_mass"):
            rows = []
            for trial in range(300):
                n = int(rng.integers(3, 40))
                w = rng.uniform(0.01, 2.0, n)
                X = np.sort(rng.uniform(-5.0, 5.0, n))
                if kind == "equal":
                    X = np.repeat(X, rng.integers(1, 5, n))[:n]
                elif kind == "collision":
                    X = X[::-1].copy()
                    X[: trial % n] = np.sort(X[: trial % n])
                elif kind == "near_duplicate":
                    X = X[0] * (1.0 + 1e-14 * np.arange(n)) + 1e-13 * rng.standard_normal(n)
                else:
                    w = np.where(rng.random(n) < 0.3, 1e-18, w)
                rows.append(_prefix_rows(w, X))
            want = [_chain(P, S) for P, S in rows]
            assert [_kernel([row])[0] for row in rows] == want, kind
            assert _kernel(rows) == want, kind
        # the ties went to the chain
        assert redone

    def test_zero_mass_atom_joins_the_last_cluster(self):
        # 1 + 1e-18 == 1: the light atom is the same point in P as the end
        w, X = np.array([1.0, 1e-18]), np.array([-0.005, 0.9975])
        P, S = _prefix_rows(w, X)
        assert _chain(P, S) == _kernel([(P, S)])[0] == [0, 2]
        data = InitialData.from_atoms([0.0, 1.0], [1.0, 1e-18], [0.0, 0.0], 1.0)
        lo, hi, pos, vel = _ep_frame(data, 0.1).clusters()
        assert (lo.tolist(), hi.tolist()) == ([0], [2])
        assert np.isfinite(pos).all() and np.isfinite(vel).all()

    def test_pass_cap_hands_survivors_to_the_chain(self, monkeypatch):
        # a strictly convex row whose last point lies far below it: each
        # pass drops only the point next to the end, so the row needs N - 1
        # passes, more than the cap
        n = potentials.HULL_PASSES + 40
        X = np.concatenate((np.linspace(0.0, 1.0, n - 1), [-1e6]))
        P, S = _prefix_rows(np.full(n, 1.0 / n), X)
        calls = []
        chain = potentials._monotone_chain

        def recorded(P, S, ks):
            calls.append(len(ks))
            return chain(P, S, ks)

        monkeypatch.setattr(potentials, "_monotone_chain", recorded)
        assert _kernel([(P, S)])[0] == [0, n]
        assert calls == [n + 1 - potentials.HULL_PASSES]
        calls.clear()
        assert _kernel([(P, S)] * 3 + [_prefix_rows(np.ones(4), np.arange(4.0))]) == [[0, n]] * 3 + [[0, 1, 2, 3, 4]]
        assert len(calls) == 3

    def test_stacked_blocks_are_isotonic_regression_of_free_positions(self):
        # each row's clusters are the blocks of the weighted isotonic
        # regression of its free positions, as in a single frame
        rng = np.random.default_rng(71)
        rows, fits = [], []
        for _ in range(40):
            data = make_random_instance(rng, n_max=30)
            for t in (0.05, 0.4, 1.5, 6.0):
                coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
                rows.append((data.measure, data.velocities, coeffs))
                fits.append(isotonic_regression(PrefixFrame(*rows[-1]).X, weights=data.measure.masses))
        stack = potentials.FrameStack(rows)
        for r, fit in enumerate(fits):
            state = stack.cluster_state(r, 0.0)
            assert len(fit.blocks) - 1 == state.lo.size
            hull = np.repeat(state.positions, state.hi - state.lo)
            assert np.max(np.abs(hull - fit.x)) <= 1e-12 * max(1.0, float(np.max(np.abs(fit.x))))


class TestFrameStack:
    def test_rows_equal_their_frames_bit_for_bit(self):
        # X, S and Q, the clusters, and the lookup at points in and around
        # every tie window, for the three potential families in one stack
        rng = np.random.default_rng(72)
        rows, grids = [], []
        for trial in range(60):
            kind = ("plain", "near_duplicate", "mass_decades", "vanishing_mass")[trial % 4]
            family = ("euler_poisson", "drift", "scaled")[(trial // 4) % 3]
            data = _lookup_instance(rng, kind)
            frame = _lookup_frame(data, family, float(10.0 ** rng.uniform(-6.0, math.log10(50.0))))
            rows.append((frame.measure, None if family == "drift" else data.velocities, frame.coeffs))
            pos = np.asarray(frame.clusters()[2])
            grids.append(np.concatenate([rng.uniform(-15.0, 15.0, 10), pos, np.nextafter(pos, np.inf), pos - 1e-10]))
        stack = potentials.FrameStack(rows)
        got = stack.argmin_grid(grids)
        ends = np.cumsum([g.size for g in grids])
        for r, (row, xs) in enumerate(zip(rows, grids)):
            frame = PrefixFrame(*row)
            n = frame.P.size
            for name in ("P", "S", "Q"):
                assert getattr(stack, name)[r, :n].tobytes() == getattr(frame, name).tobytes(), name
            assert stack.cluster_state(r, 1.0) == frame.cluster_state(1.0)
            want = frame.argmin_grid(xs)
            for a, b in zip(got, want):
                part = a[ends[r] - xs.size : ends[r]]
                assert (part.dtype, part.tobytes()) == (b.dtype, b.tobytes())

    def test_scattered_rows_mix_drift_and_moving_rows(self):
        # rows of 0 to 25 atoms: drift rows without velocities, drift
        # coefficients with velocities (A = 0: the row adds no A*u), and
        # Euler-Poisson and scaled rows, in turn. Each row's P, S, Q, X and
        # vel, in a stack of rows of many lengths, of one length, and as a
        # one-row frame, equal the 1-d reference bit for bit; the padding
        # repeats the row's last prefix and the clusters equal the frame's
        rng = np.random.default_rng(74)
        rows = []
        for trial in range(80):
            n = int(rng.integers(0, 26))
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-10.0, 10.0, n)), rng.uniform(0.01, 2.0, n), rng.uniform(-2.0, 2.0, n), 0.5
            )
            t = float(rng.uniform(0.05, 5.0))
            kind = trial % 4
            coeffs = (
                PotentialCoefficients.drift(t),
                PotentialCoefficients.drift(t),
                PotentialCoefficients.euler_poisson(0.5, t),
                PotentialCoefficients.scaled(0.5, t),
            )[kind]
            rows.append((data.measure, None if kind == 0 else data.velocities, coeffs))
        # an atom at -0.0 with mtilde 0 has X = -0.0, which adding A*u = 0.0
        # would turn into 0.0: a row with A = 0 must add nothing
        lone = InitialData.from_atoms([-0.0], [1.0], [1.0], 0.5)
        rows += [(lone.measure, lone.velocities, PotentialCoefficients.drift(1.0)), (lone.measure, None, PotentialCoefficients.drift(2.0))]
        for block in (rows, rows[-2:], [rows[-3]] * 3):
            stack = potentials.FrameStack(block)
            assert stack.bounds[0] == 0 and stack.bounds[-1] == stack.lo.size
            for r, row in enumerate(block):
                frame = PrefixFrame(*row)
                n = frame.P.size
                for name, want in zip(("P", "S", "Q", "X", "vel"), reference_frame(*row)):
                    for got in (getattr(stack, name)[r, : want.size], getattr(frame, name)):
                        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
                for name in ("P", "S", "Q"):
                    got = getattr(stack, name)[r]
                    assert (got[n:] == got[n - 1]).all(), name
                assert stack.cluster_state(r, 1.0) == frame.cluster_state(1.0)

    def test_unsettled_points_call_the_tie_rule_on_their_rows(self, monkeypatch):
        calls = []
        tie_rule = potentials._argmin

        def counted(P, S, tie_tol, x):
            calls.append(x)
            return tie_rule(P, S, tie_tol, x)

        monkeypatch.setattr(potentials, "_argmin", counted)
        rng = np.random.default_rng(73)
        rows = [(d.measure, d.velocities, PotentialCoefficients.euler_poisson(d.tau, 1.0)) for d in (make_random_instance(rng) for _ in range(5))]
        stack = potentials.FrameStack(rows)
        clear = [stack.cluster_state(r, 1.0).positions + 1e-6 for r in range(5)]
        stack.argmin_grid(clear)
        assert calls == []
        at = [stack.cluster_state(r, 1.0).positions for r in range(5)]
        stack.argmin_grid(at)
        assert sorted(calls) == sorted(np.concatenate(at).tolist())


    def test_tie_window_reads_the_stack_tie_tolerance(self, monkeypatch):
        # a stack built under a wide tie tolerance keeps it after the module
        # default is restored, in its tie window as in its settled test
        rng = np.random.default_rng(78)
        data = [make_random_instance(rng) for _ in range(50)]
        ts = rng.uniform(0.1, 3.0, 50).tolist()
        with monkeypatch.context() as m:
            m.setattr(potentials, "DEFAULT_TIE_TOL", 1e-2)
            frames = [_lookup_frame(d, "euler_poisson", t) for d, t in zip(data, ts)]
            stack = potentials.FrameStack([(f.measure, d.velocities, f.coeffs) for f, d in zip(frames, data)])
        grids = [np.asarray(f.clusters()[2]) for f in frames]
        got = stack.argmin_grid(grids)
        want = [np.concatenate(a) for a in zip(*(f.argmin_grid(xs) for f, xs in zip(frames, grids)))]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        narrow = [np.concatenate(a) for a in zip(*(_lookup_frame(d, "euler_poisson", t).argmin_grid(xs) for d, t, xs in zip(data, ts, grids)))]
        assert any(a.tobytes() != b.tobytes() for a, b in zip(got, narrow))


class TestFrameHull:
    """A frame builds its hull once, on first use, and hands out read-only
    cluster arrays."""

    def counted_kernel(self, monkeypatch):
        calls = []
        kernel = potentials._hull_vertices

        def counted(P, S, n):
            calls.append(P.shape)
            return kernel(P, S, n)

        monkeypatch.setattr(potentials, "_hull_vertices", counted)
        return calls

    def test_cluster_arrays_are_read_only(self):
        rng = np.random.default_rng(74)
        for kind in ("plain", "vanishing_mass"):
            frame = _lookup_frame(_lookup_instance(rng, kind), "euler_poisson", 0.7)
            for column in frame.clusters():
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[...] = 0

    def test_repeated_calls_build_one_hull(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        rng = np.random.default_rng(75)
        for family in ("euler_poisson", "drift", "scaled"):
            data = _lookup_instance(rng, "plain")
            frame = _lookup_frame(data, family, 0.4)
            calls.clear()
            for _ in range(3):
                frame.clusters()
                frame.cluster_state(0.4)
                frame.cluster_state(0.4, np.zeros(frame.clusters()[0].size))
                frame.argmin_grid(np.linspace(-12.0, 12.0, 41))
                frame.argmin_grid([0.5])
            assert calls == [(1, frame.P.size)]

    def test_short_grid_on_a_fresh_frame_builds_no_hull(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        data = _lookup_instance(np.random.default_rng(76), "plain")
        frame = _lookup_frame(data, "euler_poisson", 0.4)
        xs = np.linspace(-12.0, 12.0, potentials.DENSE_GRID_POINTS)
        for size in range(potentials.DENSE_GRID_POINTS):
            frame.argmin_grid(xs[:size])
        assert calls == []
        frame.argmin_grid(xs)
        assert len(calls) == 1

    def test_stack_hull_is_built_by_its_first_reader(self, monkeypatch):
        # a stack alone builds no hull; its first reader, the lookup, a
        # ClusterState or any cluster column, builds one, and later reads
        # build none
        calls = self.counted_kernel(monkeypatch)
        rng = np.random.default_rng(79)
        instances = [make_random_instance(rng) for _ in range(4)]
        rows = [(d.measure, d.velocities, PotentialCoefficients.euler_poisson(d.tau, 0.8)) for d in instances]
        readers = [
            lambda stack: stack.argmin_grid([np.linspace(-12.0, 12.0, 7)] * len(rows)),
            lambda stack: stack.cluster_state(2, 0.8),
        ] + [lambda stack, name=name: getattr(stack, name) for name in ("lo", "hi", "masses", "positions", "velocities", "bounds")]
        for first in readers:
            stack = potentials.FrameStack(rows)
            assert calls == []
            first(stack)
            for read in readers:
                read(stack)
            assert calls == [stack.P.shape]
            calls.clear()

    def test_lookup_reads_the_frame_tie_tolerance(self, monkeypatch):
        # a frame built under a wide tie tolerance keeps it after the
        # module default is restored, in the lookup as in the dense scan
        rng = np.random.default_rng(77)
        for trial in range(20):
            data = _lookup_instance(rng, ("plain", "near_duplicate")[trial % 2])
            with monkeypatch.context() as m:
                m.setattr(potentials, "DEFAULT_TIE_TOL", 0.5)
                frame = _lookup_frame(data, "euler_poisson", float(rng.uniform(0.1, 3.0)))
            pos = np.asarray(frame.clusters()[2])
            xs = np.concatenate([rng.uniform(-12.0, 12.0, 8), pos, pos + 1e-3])
            nu, k_min, k_max = frame.argmin_grid(xs)
            assert list(zip(nu.tolist(), k_min.tolist(), k_max.tolist())) == [frame.argmin(x) for x in xs.tolist()]
