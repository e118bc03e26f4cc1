import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

from stickygas import drift, euler_poisson, potentials, relax
from stickygas.errors import EmptyMeasure, NonPositiveTime
from stickygas.euler_poisson import _backward_cone, cluster_snapshot
from stickygas.instances import random_instance
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import oracle_cdf, simulate_ep
from stickygas.potentials import PotentialCoefficients, PrefixFrame, minimize_F, minimize_Fbar
from tests.conftest import make_random_instance

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
    def test_single_atom_on_path(self):
        d = InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)
        r = minimize_F(d, 1.0 - E1, 1.0)
        assert r.nu == pytest.approx(0.0, abs=1e-14)
        assert (r.k_min, r.k_max) == (0, 1)
        assert r.y_star == 0.0 and r.y_star_up == 0.0
        assert r.attained_at_y_star

    def test_two_atom_before_collision(self, two_atom_symmetric):
        r = minimize_F(two_atom_symmetric, 0.0, 1.0)
        assert r.nu == pytest.approx(-0.4540150698535697, abs=1e-15)
        assert (r.k_min, r.k_max) == (1, 1)
        assert r.y_star == -1.0 and r.y_star_up == -1.0
        assert not r.attained_at_y_star

    def test_two_atom_after_collapse(self, two_atom_symmetric):
        r = minimize_F(two_atom_symmetric, 0.0, 6.0)
        assert (r.k_min, r.k_max) == (0, 2)
        assert (r.y_star, r.y_star_up) == (-1.0, 1.0)
        assert r.has_jump

    def test_empty_measure_rejected(self):
        # PrefixFrame.result makes the one check; the coefficients check t first
        d = InitialData.from_atoms([], [], [], 1.0)
        with pytest.raises(EmptyMeasure):
            minimize_F(d, 0.0, 1.0)
        with pytest.raises(EmptyMeasure):
            minimize_Fbar(d.measure, 0.0, 1.0)
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTime):
                minimize_F(d, 0.0, t)
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
                calls.append(lambda: minimize_F(d, x, t))
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
    side, _, _, _, _, c = _backward_cone(frame, data, x, k_min)
    return side, c


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
        r = minimize_Fbar(m, 0.0, 1.0)
        assert r.nu == pytest.approx(-0.375, abs=1e-15)
        assert (r.k_min, r.k_max) == (1, 1)
        assert r.y_star == -1.0

    def test_two_atom_past_drift_collapse(self, two_atom_symmetric):
        r = minimize_Fbar(two_atom_symmetric.measure, 0.0, 5.0)
        assert (r.k_min, r.k_max) == (0, 2)
        assert r.has_jump

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
            r = minimize_Fbar(data.measure, x, t)
            assert (r.k_min, r.k_max) == (k_min, k_max)
            assert r.nu == nu


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
            res = minimize_F(data, x, t)
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
                    assert ties[0] <= res.k_min and res.k_max <= ties[-1]


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
            r = minimize_F(data, x, t)
            pos = data.measure.positions
            n = len(data)
            pad = 1e-9 * (1.0 + abs(x))
            for k in (r.k_min, r.k_max):
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
            prev_up = -np.inf
            for x in xs:
                r = minimize_F(data, float(x), t)
                assert r.y_star <= r.y_star_up
                assert r.y_star >= prev_up - 1e-12
                prev_up = r.y_star_up

    def test_y_star_up_equals_nearby_reminimization(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            data = make_random_instance(rng)
            t = float(rng.uniform(0.05, 5.0))
            x = float(rng.uniform(-12, 12))
            r = minimize_F(data, x, t)
            eps = float(rng.uniform(1e-7, 1e-6)) * (1.0 + abs(x))
            r_up = minimize_F(data, x + eps, t)
            assert r_up.y_star >= r.y_star_up - 1e-12

    def test_nu_is_lipschitz(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            data = make_random_instance(rng)
            M = data.measure.total_mass
            t = float(rng.uniform(0.05, 5.0))
            x1, x2 = sorted(rng.uniform(-12, 12, size=2))
            n1 = minimize_F(data, float(x1), t).nu
            n2 = minimize_F(data, float(x2), t).nu
            assert abs(n1 - n2) <= M * (x2 - x1) + 1e-9 * (1 + abs(n1))
            # in time the slope is bounded by the largest prefix momentum
            t2 = t + float(rng.uniform(0.01, 0.5))
            n3 = minimize_F(data, float(x1), t2).nu
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
            r = minimize_F(data, x, t)
            i = data.measure.atom_index(r.y_star)
            coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
            mt = data.measure.mtilde0(r.y_star)
            c = (x - r.y_star) / coeffs.A - mt * coeffs.force_speed_ratio()
            u0 = float(data.velocities[i])
            if abs(c - u0) < 1e-6 * (1 + abs(c)):
                continue  # boundary case: either classification is valid
            assert r.attained_at_y_star == (c < u0)
            checked += 1


def _lookup_instance(rng, kind):
    """Instances for the lookup tests: plain, near-duplicate atoms, masses
    spread across 12 decades, or atoms whose mass vanishes in the prefix
    masses (some np.diff(P) == 0)."""
    n = int(rng.integers(1, 40))
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n))
    masses = rng.uniform(0.01, 2.0, size=n) / n
    if kind == "near_duplicate":
        step = 1e-14 * (1.0 + abs(positions[0]))
        positions = positions[0] + step * np.arange(n)
    elif kind == "mass_decades":
        masses = 10.0 ** rng.uniform(-12.0, 0.0, size=n)
    elif kind == "vanishing_mass":
        masses = np.where(rng.random(n) < 0.3, 1e-18, 1.0)
    velocities = rng.uniform(-2.0, 2.0, size=n)
    tau = float(rng.choice([1.0, 0.5, 0.1, 1e-3]))
    return InitialData.from_atoms(positions, masses, velocities, tau)


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
        argmin = potentials.PrefixFrame.argmin

        def counted(self, x):
            calls.append(x)
            return argmin(self, x)

        monkeypatch.setattr(potentials.PrefixFrame, "argmin", counted)
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
            assert got == [argmin(frame, x) for x in pos.tolist()]

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

