import math
import warnings
from itertools import accumulate, islice
from types import SimpleNamespace

import numpy as np
import pytest

from stickygas import validate
from stickygas.cli import _stencil_candidates
from stickygas.errors import EmptyMeasure, NonPositiveTime, QuadratureDivergence, StencilTooCloseToShock
from stickygas.euler_poisson import FormulaSolution, cluster_snapshot, eval_E, eval_m_grid, eval_q, sample
from stickygas.instances import random_instance
from stickygas.measure import BLOCK_ELEMENTS, InitialData
from stickygas.oracle import oracle_cdf, simulate_ep
from stickygas.potentials import PotentialCoefficients, PrefixFrame
from stickygas.validate import (
    ROUNDOFF_FLOOR,
    ResidualReport,
    TestFunction as Bump,
    _integrands,
    _mean_decay_factor,
    _midpoint_nodes,
    check_initial_continuity,
    check_oleinik,
    check_oleinik_states,
    check_potential_identities,
    check_weak_form,
    default_bump_family,
    default_continuity_grid,
)
from tests.conftest import baseline_instance, compare_ensemble_cases, make_random_instance


class TestBump:
    def test_compact_support_and_smoothness(self):
        b = Bump(0.0, 1.0, 1.0, 0.5)
        assert b.value_and_gradient(2.0, 1.0)[0] == 0.0
        assert b.value_and_gradient(0.0, 2.0)[0] == 0.0
        assert b.value_and_gradient(0.0, 1.0)[0] == 1.0
        assert b.value_and_gradient(0.0, 1.0)[1] == 0.0
        # derivative vanishes at the support edge (C^2 regularity)
        assert b.value_and_gradient(1.0 - 1e-9, 1.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_x_integral_matches_quadrature(self):
        b = Bump(0.3, 1.7, 1.0, 0.5)
        t = 1.2
        a, c = -1.0, 1.5
        n = 20000
        h = (c - a) / n
        want = h * sum(b.value_and_gradient(a + (np.arange(n) + 0.5) * h, t)[2].tolist())
        assert b.dt_x_integral([a, c], t)[0] == pytest.approx(want, abs=1e-8)


    def test_x_integral_is_constant_outside_the_support(self):
        b = Bump(0.3, 1.7, 1.0, 0.5)
        edges = [-1e200, 0.3 - 1.7, 0.3 + 1.7, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pieces = b.dt_x_integral(edges, 1.2)
        assert pieces[0] == pieces[2] == 0.0
        assert pieces[1] == b.dt_x_integral([-5.0, 5.0], 1.2)[0] != 0.0


class TestAntiderivative:
    # B(z) = z - z^3 + 0.6 z^5 - z^7/7 on [-1, 1], evaluated in Horner form
    Z = np.linspace(-1.0, 1.0, 4001)

    def test_derivative_is_the_bump(self):
        # 4-point Gauss-Legendre integrates the degree-6 bump exactly, so on
        # every cell of a dense grid B(b) - B(a) equals it up to rounding
        nodes, weights = np.polynomial.legendre.leggauss(4)
        a, b = self.Z[:-1], self.Z[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        z = mid[:, None] + half[:, None] * nodes
        integral = half * np.sum(weights * (1.0 - z * z) ** 3, axis=1)
        assert np.max(np.abs(np.diff(Bump._B(self.Z)) - integral)) <= 1e-15
        # constant outside the support, where the bump vanishes
        outside = np.array([1.0, 1.5, 1e200])
        assert Bump._B(outside).tolist() == [Bump._B(1.0)] * 3
        assert Bump._B(-outside).tolist() == [Bump._B(-1.0)] * 3

    def test_ends_and_odd_symmetry(self):
        ulp = np.spacing(16.0 / 35.0)
        assert abs(Bump._B(1.0) - 16.0 / 35.0) <= ulp
        assert abs(Bump._B(-1.0) + 16.0 / 35.0) <= ulp
        assert Bump._B(0.0) == 0.0
        assert np.array_equal(Bump._B(-self.Z), -Bump._B(self.Z))

    def test_horner_form_is_within_a_few_ulps_of_the_power_form(self):
        z = np.linspace(-1.0, 1.0, 200001)
        power = z - np.float_power(z, 3) + 0.6 * np.float_power(z, 5) - np.float_power(z, 7) / 7.0
        ulps = np.abs(Bump._B(z) - power) / np.spacing(np.abs(power))
        assert np.max(ulps) <= 8.0


class TestWeakForm:
    def test_single_atom_residuals_tiny(self, single_atom):
        traj = simulate_ep(single_atom, 2.5 * 1.01)
        rep = check_weak_form(single_atom, traj, (0.5, 2.5), refinement_levels=8, n_base=32)
        assert rep.passed
        assert rep.series["mass"][-1] <= 1e-10
        assert rep.series["momentum"][-1] <= 1e-10

    def test_empty_measure_raises_empty_measure(self):
        # the default bumps read the support's ends, which used to raise IndexError
        empty = InitialData.from_atoms([], [], [], 1.0)
        with pytest.raises(EmptyMeasure, match="empty"):
            check_weak_form(empty, simulate_ep(empty, 2.0), (0.5, 1.5))
        with pytest.raises(EmptyMeasure):
            validate.default_bump_family(empty, (0.5, 1.5))

    def test_two_atom_through_collision_order_two(self, two_atom_symmetric):
        rep = check_weak_form(
            two_atom_symmetric, simulate_ep(two_atom_symmetric, 6.0 * 1.01), (4.0, 6.0),
            refinement_levels=7, n_base=32,
        )
        assert rep.passed  # geometric-mean decay of at least 4x per doubling

    def test_formula_layer_matches_oracle_layer(self, two_atom_symmetric):
        # the dm sums can come from either layer; residuals must agree
        kwargs = dict(t_window=(4.0, 6.0), refinement_levels=3, n_base=32)
        traj = simulate_ep(two_atom_symmetric, 6.0 * 1.01)
        rep_o = check_weak_form(two_atom_symmetric, traj, **kwargs)
        formula = FormulaSolution(two_atom_symmetric, traj.event_times)
        rep_f = check_weak_form(two_atom_symmetric, formula, **kwargs)
        for key in ("mass", "momentum"):
            for a, b in zip(rep_o.series[key], rep_f.series[key]):
                assert a == pytest.approx(b, abs=1e-10)

    def test_zero_test_function(self, single_atom):
        # bump supported outside the window contributes exactly nothing
        dead = Bump(0.0, 1.0, 10.0, 0.5)
        rep = check_weak_form(
            single_atom, simulate_ep(single_atom, 2.5 * 1.01), (0.5, 2.5),
            refinement_levels=2, bumps=[dead], n_base=16,
        )
        assert all(v == 0.0 for v in rep.series["mass"])
        assert all(v == 0.0 for v in rep.series["momentum"])

    @pytest.mark.parametrize("levels", [0, 1])
    def test_rejects_fewer_than_two_levels(self, single_atom, levels):
        # no level used to raise IndexError, and one level passed every
        # solution: a single level has no decay factor, which read as inf
        traj = simulate_ep(single_atom, 2.5 * 1.01)
        with pytest.raises(ValueError, match="refinement_levels"):
            check_weak_form(single_atom, traj, (0.5, 2.5), refinement_levels=levels, n_base=16)

    def test_rejects_bump_reaching_t_zero(self, single_atom):
        with pytest.raises(ValueError):
            check_weak_form(
                single_atom,
                simulate_ep(single_atom, 2.5 * 1.01),
                (0.5, 2.5),
                bumps=[Bump(0.0, 1.0, 0.2, 0.5)],
            )

    def test_random_many_event_instance_converges(self):
        # several merges inside the window: the event-split quadrature must
        # still deliver second-order decay
        rng = np.random.default_rng(52)
        data = make_random_instance(rng, n_max=8)
        rep = check_weak_form(
            data, simulate_ep(data, 5.0 * 1.01), (0.5, 5.0), refinement_levels=6, n_base=32
        )
        assert rep.passed
        assert rep.series["mass"][-1] < rep.series["mass"][0] or (
            rep.series["mass"][0] == 0.0
        )

    def test_momentum_residual_sees_source_terms(self, single_atom):
        # dropping the damping term from the balance must leave an O(1)
        # defect: guards against a vacuous momentum integrand
        bump = Bump(0.5, 2.0, 1.5, 0.8)
        traj = simulate_ep(single_atom, 3.0)
        nodes, weights = _midpoint_nodes(0.7, 2.3, [], 512)
        acc = 0.0
        for t, w in zip(nodes.tolist(), weights.tolist()):
            state = traj.state_at(t)
            x, mass, v = state.positions[0], state.masses[0], state.velocities[0]
            _, phi_x, phi_t = bump.value_and_gradient(x, t)
            acc += w * mass * (phi_t * v + phi_x * v**2)
        assert abs(acc) > 1e-3


# Reference for the batched weak form: the per-node loop it replaced, one
# state_at per node and Python loops over the clusters through the scalar
# bump arithmetic (the antiderivative in the same Horner form).


class ScalarBump:
    def __init__(self, bump):
        self.x_center, self.x_radius = bump.x_center, bump.x_radius
        self.t_center, self.t_radius = bump.t_center, bump.t_radius
        self.support_t = bump.support_t

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
        z = min(1.0, max(-1.0, z))
        z2 = z * z
        return z * (1.0 - z2 * (1.0 - z2 * (0.6 - z2 / 7.0)))

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
        za = (a - self.x_center) / self.x_radius
        zb = (b - self.x_center) / self.x_radius
        xpart = self.x_radius * (self._B(zb) - self._B(za))
        return xpart * self._db((t - self.t_center) / self.t_radius) / self.t_radius


def scalar_midpoint_nodes(t_lo, t_hi, cuts, n_total):
    """Composite midpoint nodes and weights, one piece and one node at a time."""
    edges = [t_lo] + [c for c in sorted(cuts) if t_lo < c < t_hi] + [t_hi]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        length = b - a
        if length <= 0.0:
            continue
        npts = max(1, int(math.ceil(n_total * length / (t_hi - t_lo))))
        h = length / npts
        for j in range(npts):
            nodes.append(a + (j + 0.5) * h)
            weights.append(h)
    return nodes, weights


def scalar_mass_integrand(clusters, bump, t):
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


def scalar_momentum_integrand(clusters, bump, t, tau, total_mass):
    acc = 0.0
    running = 0.0
    for x, w, u in zip(*clusters):
        mt = running + 0.5 * w - 0.5 * total_mass
        running += w
        acc += w * (bump.dt(x, t) * u + bump.dx(x, t) * u * u)
        acc -= w * (mt + u / tau) * bump.value(x, t)
    return acc


def scalar_weak_form(data, t_window, refinement_levels, n_base, layer):
    """(mass series, momentum series, passed), node by node."""
    t_lo, t_hi = t_window
    traj = simulate_ep(data, t_hi * 1.01)

    def clusters_at(t):
        s = cluster_snapshot(data, t) if layer == "formula" else traj.state_at(t)
        return s.positions.tolist(), s.masses.tolist(), s.velocities.tolist()

    bumps = [ScalarBump(b) for b in default_bump_family(data, t_window)]
    total_mass = data.measure.total_mass
    res_mass, res_mom = [], []
    for level in range(refinement_levels):
        worst_mass = worst_mom = 0.0
        for bump in bumps:
            blo, bhi = bump.support_t()
            nodes, weights = scalar_midpoint_nodes(
                max(t_lo, blo), min(t_hi, bhi), traj.event_times, n_base * 2**level
            )
            acc_mass = acc_mom = 0.0
            for t, w in zip(nodes, weights):
                clusters = clusters_at(t)
                acc_mass += w * scalar_mass_integrand(clusters, bump, t)
                acc_mom += w * scalar_momentum_integrand(
                    clusters, bump, t, data.tau, total_mass
                )
            worst_mass = max(worst_mass, abs(acc_mass))
            worst_mom = max(worst_mom, abs(acc_mom))
        res_mass.append(worst_mass)
        res_mom.append(worst_mom)
    passed = all(
        _mean_decay_factor(series, floor=ROUNDOFF_FLOOR) >= 4.0
        for series in (res_mass, res_mom)
    )
    return res_mass, res_mom, passed


def weak_form_cases():
    yield InitialData.from_atoms([-1.0, 1.0], [0.5, 0.5], [0.0, 0.0], 1.0), (4.0, 6.0)
    yield InitialData.from_atoms([0.0], [1.0], [1.0], 1.0), (0.5, 2.5)
    rng = np.random.default_rng(1010)
    for _ in range(30):
        yield make_random_instance(rng, n_max=12), (0.5, 3.0)


def solutions(data, t_hi):
    """The oracle trajectory and the formula layer cut at its events, by layer name."""
    traj = simulate_ep(data, t_hi * 1.01)
    return {"oracle": traj, "formula": FormulaSolution(data, traj.event_times)}


class TestBatchedWeakFormMatchesScalarLoop:
    def test_series_and_verdicts(self):
        for data, window in weak_form_cases():
            for layer, solution in solutions(data, window[1]).items():
                want_mass, want_mom, want_passed = scalar_weak_form(data, window, 3, 16, layer)
                rep = check_weak_form(data, solution, window, refinement_levels=3, n_base=16)
                assert rep.name == f"weak_form_{layer}"
                assert rep.passed == want_passed
                for got, want in zip(rep.series["mass"], want_mass):
                    assert abs(got - want) <= 1e-14
                assert repr(rep.series["momentum"]) == repr(tuple(want_mom))

    def test_midpoint_nodes_equal_the_loop(self):
        # cuts outside the window, repeated, and on its ends; empty windows
        rng = np.random.default_rng(53)
        for _ in range(500):
            lo = float(rng.uniform(0.01, 3.0))
            hi = lo + float(rng.choice([0.0, -0.5, rng.uniform(1e-9, 4.0)]))
            cuts = rng.uniform(lo - 1.0, hi + 1.0, int(rng.integers(0, 12))).tolist()
            if cuts and rng.random() < 0.5:
                cuts += [cuts[0], lo, hi]
            n_total = int(rng.choice([16, 100, 2048]))
            nodes, weights = _midpoint_nodes(lo, hi, cuts, n_total)
            want = scalar_midpoint_nodes(lo, hi, cuts, n_total)
            assert repr((nodes.tolist(), weights.tolist())) == repr(want)

    def test_far_bump_gives_exact_zeros_without_warnings(self, two_atom_symmetric):
        # left of every cluster m = 0; far right the support rounds to a point
        for x_center in (-1e6, -1e200, 1e200):
            far = Bump(x_center, 1.0, 5.0, 0.9)
            for solution in solutions(two_atom_symmetric, 5.8).values():
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rep = check_weak_form(
                        two_atom_symmetric,
                        solution,
                        (4.2, 5.8),
                        refinement_levels=2,
                        bumps=[far],
                        n_base=16,
                    )
                assert rep.series == {"mass": (0.0, 0.0), "momentum": (0.0, 0.0)}


def per_level_weak_form(data, solution, t_window, refinement_levels=6, bumps=None, n_base=64):
    """The reference for ``check_weak_form``'s one walk per bump: the former
    loop, one ``states_at`` walk per (level, bump) over that level's nodes."""
    t_lo, t_hi = t_window
    if bumps is None:
        bumps = default_bump_family(data, t_window)
    total_mass = data.measure.total_mass
    levels = list(range(refinement_levels))
    res_mass, res_mom = [], []
    for level in levels:
        worst_mass = worst_mom = 0.0
        for bump in bumps:
            blo, bhi = bump.support_t()
            nodes, weights = _midpoint_nodes(max(t_lo, blo), min(t_hi, bhi), solution.event_times, n_base * (2**level))
            blocks = solution.states_at(nodes.tolist())
            values = np.hstack(
                [np.empty((2, 0))] + [np.array(_integrands(bump, *b, data.tau, total_mass)) for b in blocks]
            )
            sums = np.cumsum(np.hstack((np.zeros((2, 1)), weights * values)), axis=1)
            acc_mass, acc_mom = sums[:, -1].tolist()
            worst_mass = max(worst_mass, abs(acc_mass))
            worst_mom = max(worst_mom, abs(acc_mom))
        res_mass.append(worst_mass)
        res_mom.append(worst_mom)
    for series in (res_mass, res_mom):
        if series[-1] > max(10.0 * series[0], ROUNDOFF_FLOOR) and series[0] > 0.0:
            raise QuadratureDivergence(f"weak-form residuals grew under refinement: {series}")
    return ResidualReport(
        name=f"weak_form_{solution.layer}",
        levels=tuple(n_base * (2**lv) for lv in levels),
        series={"mass": tuple(res_mass), "momentum": tuple(res_mom)},
        passed=all(_mean_decay_factor(s, floor=ROUNDOFF_FLOOR) >= 4.0 for s in (res_mass, res_mom)),
    )


class RowBlocks:
    """A trajectory whose ``states_at`` yields one row per block."""

    layer = "rows"

    def __init__(self, traj):
        self.traj, self.event_times = traj, traj.event_times

    def states_at(self, ts):
        for times, x, v, masses in self.traj.states_at(ts):
            for j in range(times.size):
                yield times[j : j + 1], x[j : j + 1], v[j : j + 1], masses


class CountedWalks:
    """A trajectory that records the times of each ``states_at`` walk."""

    layer = "counted"

    def __init__(self, traj):
        self.traj, self.event_times, self.walks = traj, traj.event_times, []

    def states_at(self, ts):
        self.walks.append(list(ts))
        return self.traj.states_at(ts)


class TestOneWalkPerBump:
    """``check_weak_form`` reads every level's nodes of a bump in one walk,
    ``repr``-equal to the per-level walks it replaced."""

    @staticmethod
    def assert_equals_per_level(data, solution, window, **kwargs):
        got = check_weak_form(data, solution, window, **kwargs)
        assert repr(got) == repr(per_level_weak_form(data, solution, window, **kwargs))

    def test_bench_instances(self):
        # validate's call on the N = 100 instances of the benchmark
        for seed in (0, 17):
            data = baseline_instance(100, seed)
            self.assert_equals_per_level(data, simulate_ep(data, 1.4 * 1.01), (0.6, 1.4), refinement_levels=5)

    def test_compare_ensemble_instances(self):
        for i, (data, _, _) in enumerate(islice(compare_ensemble_cases(), 24)):
            data = data.with_tau((1.0, 0.5, 0.1)[i % 3])
            kwargs = dict(refinement_levels=5, n_base=64) if i % 2 else dict(refinement_levels=3, n_base=32)
            self.assert_equals_per_level(data, simulate_ep(data, 6.0 * 1.01), (4.0, 6.0), **kwargs)

    def test_flushed_and_kept_rows_share_blocks(self):
        # the inner pair merges at t = 0.401; past t = 0.7 the outer atoms'
        # z = t / tau passes the 700 flush while the merged cluster's stays
        # under it, so one block holds flushed and kept elements
        data = InitialData.from_atoms([-1.0, 0.0, 1e-4, 1.0], [0.25] * 4, [0.0] * 4, 1e-3)
        traj = simulate_ep(data, 1.0 * 1.01)
        z = (1.0 - traj.records.birth[traj._alive(1.0)]) / data.tau
        assert z.tolist() == [1000.0, pytest.approx(599.0), 1000.0]
        self.assert_equals_per_level(data, traj, (0.5, 1.0), refinement_levels=4, n_base=32)

    def test_formula_solution_and_row_blocks(self):
        rng = np.random.default_rng(4243)
        for _ in range(3):
            data = make_random_instance(rng, n_max=10)
            traj = simulate_ep(data, 3.0 * 1.01)
            for solution in (FormulaSolution(data, traj.event_times), RowBlocks(traj)):
                self.assert_equals_per_level(data, solution, (0.5, 3.0), refinement_levels=3, n_base=16)

    @pytest.mark.parametrize("levels", [2, 6])
    def test_refinement_levels(self, levels):
        data = make_random_instance(np.random.default_rng(4244), n_max=12)
        self.assert_equals_per_level(data, simulate_ep(data, 3.0 * 1.01), (0.5, 3.0), refinement_levels=levels, n_base=32)

    def test_three_walks_each_node_once_in_time_order(self):
        data = baseline_instance(100, 0)
        counted = CountedWalks(simulate_ep(data, 1.4 * 1.01))
        check_weak_form(data, counted, (0.6, 1.4), refinement_levels=5)
        bumps = default_bump_family(data, (0.6, 1.4))
        assert len(counted.walks) == len(bumps) == 3
        for walk, bump in zip(counted.walks, bumps):
            blo, bhi = bump.support_t()
            grids = [_midpoint_nodes(max(0.6, blo), min(1.4, bhi), counted.event_times, 64 * 2**lv) for lv in range(5)]
            assert walk == sorted(np.concatenate([nodes for nodes, _ in grids]).tolist())


class TestOleinik:
    def test_bound_chain_example(self):
        assert math.exp(-1) / (1 - math.exp(-1)) == pytest.approx(0.58198, abs=1e-5)
        assert math.exp(-1) / (1 - math.exp(-1)) <= 1.0

    def test_degenerate_pair_rejected(self, single_atom):
        with pytest.raises(ValueError):
            check_oleinik(single_atom, [1.0], [(0.5, 0.5)])

    def test_nonpositive_time_raises(self, single_atom):
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTime):
                check_oleinik(single_atom, [t], [(0.5, 1.5)])
            with pytest.raises(NonPositiveTime):
                check_oleinik_states(single_atom, simulate_ep(single_atom, 1.01), [1.0, t])

    def test_empty_samples_give_the_same_report_on_both_layers(self, two_atom_symmetric):
        rep_f = check_oleinik(two_atom_symmetric, [], [])
        rep_o = check_oleinik_states(two_atom_symmetric, simulate_ep(two_atom_symmetric, 1.0), [])
        for rep in (rep_f, rep_o):
            assert (rep.levels, rep.series, rep.passed) == (
                (),
                {"excess_over_bound": ()},
                True,
            )

    def test_random_instance_passes_both_layers(self):
        rng = np.random.default_rng(51)
        data = make_random_instance(rng, n_max=10)
        ts = [0.3, 1.0, 2.5]
        pairs = []
        for _ in range(100):
            a, b = np.sort(rng.uniform(-12, 12, size=2))
            if b - a > 1e-6:
                pairs.append((float(a), float(b)))
        rep = check_oleinik(data, ts, pairs)
        assert rep.passed
        rep_oracle = check_oleinik_states(data, simulate_ep(data, 2.5 * 1.01), ts)
        assert rep_oracle.passed

    def test_one_velocity_per_distinct_point(self, monkeypatch):
        # adjacent grid pairs share their inner points: u is evaluated once
        # at each, and the excesses equal the per-pair quotients
        rng = np.random.default_rng(52)
        data = make_random_instance(rng, n_max=10)
        grid = np.linspace(-12.0, 12.0, 41).tolist()
        pairs = list(zip(grid[:-1], grid[1:]))
        sizes = []
        eval_u = validate.eval_u

        def counted(data, x, t):
            sizes.append(len(x))
            return eval_u(data, x, t)

        monkeypatch.setattr(validate, "eval_u", counted)
        ts = [0.3, 1.0, 2.5]
        rep = check_oleinik(data, ts, pairs)
        assert sizes == [len(grid)] * len(ts)
        for t, excess in zip(ts, rep.series["excess_over_bound"]):
            coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
            u = dict(zip(grid, (v for v, _ in eval_u(data, grid, t))))
            want = max((u[b] - u[a]) / (b - a) - coeffs.decay / coeffs.A for a, b in pairs)
            assert repr(excess) == repr(want)


class TestInitialContinuity:
    def test_single_atom_far_field(self, single_atom):
        rep = check_initial_continuity(
            single_atom,
            FormulaSolution(single_atom),
            x_grid=[-3.0, 3.0],
            t_sequence=[2.0**-k for k in range(1, 21)],
        )
        assert rep.series["m"][-1] == 0.0
        # q and E converge at first order in t; the far-field prefix is the
        # whole atom so the errors are 1 - e^{-t} and 1 - e^{-2t}
        t_last = 2.0**-20
        assert rep.series["q"][-1] == pytest.approx(-math.expm1(-t_last), rel=1e-10)
        assert rep.series["E"][-1] == pytest.approx(-math.expm1(-2 * t_last), rel=1e-10)
        assert rep.passed

    def test_two_atom_midpoint_constant(self, two_atom_symmetric):
        rep = check_initial_continuity(
            two_atom_symmetric, FormulaSolution(two_atom_symmetric), x_grid=[0.0]
        )
        assert all(v == 0.0 for v in rep.series["m"])

    def test_default_grid_avoids_atoms(self, two_atom_symmetric):
        grid = default_continuity_grid(two_atom_symmetric)
        assert grid == [-4.0, 0.0, 4.0]

    def test_oracle_layer_agrees(self, two_atom_symmetric):
        rep_f = check_initial_continuity(two_atom_symmetric, FormulaSolution(two_atom_symmetric))
        traj = simulate_ep(two_atom_symmetric, 0.5 * 1.01)
        rep_o = check_initial_continuity(two_atom_symmetric, traj)
        for key in ("m", "q", "E"):
            assert rep_f.series[key][-1] == pytest.approx(
                rep_o.series[key][-1], abs=1e-10
            )


def reference_continuity(data, solution, x_grid, ts, pointwise):
    """The per-level loops the state reader replaced: the oracle's running
    sums in cluster order, or the formula layer's pointwise fields."""
    initial = list(
        zip(eval_m_grid(data, x_grid, 0.0).tolist(), eval_q(data, x_grid, 0.0), eval_E(data, x_grid, 0.0))
    )
    series = {"m": [], "q": [], "E": []}
    for t in ts:
        if pointwise:
            fields = zip(eval_m_grid(data, x_grid, t).tolist(), eval_q(data, x_grid, t), eval_E(data, x_grid, t))
        else:
            s = solution.state_at(t)
            ws, us = s.masses.tolist(), s.velocities.tolist()
            wu = list(accumulate((w * u for w, u in zip(ws, us)), initial=0.0))
            wuu = list(accumulate((w * u**2 for w, u in zip(ws, us)), initial=0.0))
            ks = np.searchsorted(s.positions, x_grid, side="left").tolist()
            fields = ((m, wu[k], wuu[k]) for m, k in zip(oracle_cdf(s, x_grid).tolist(), ks))
        errs = [0.0, 0.0, 0.0]
        for now, then in zip(fields, initial):
            errs = [max(e, abs(a - b)) for e, a, b in zip(errs, now, then)]
        for name, e in zip("mqE", errs):
            series[name].append(e)
    return {name: tuple(v) for name, v in series.items()}


class TestContinuityReadsStates:
    TS = [2.0**-k for k in range(1, 21)]

    def instances(self):
        rng = np.random.default_rng(53)
        yield baseline_instance(100, 0)
        for _ in range(20):
            yield make_random_instance(rng, n_max=12)

    def test_oracle_series_equal_the_running_sums_bit_for_bit(self):
        for data in self.instances():
            traj = simulate_ep(data, 0.5 * 1.01)
            grid = default_continuity_grid(data)
            rep = check_initial_continuity(data, traj)
            assert rep.series == reference_continuity(data, traj, grid, self.TS, pointwise=False)

    def test_formula_series_match_the_pointwise_fields(self):
        # m is the same prefix mass; q and E are cluster sums of w u and
        # w u^2 instead of atom sums, equal up to rounding
        for data in self.instances():
            grid = default_continuity_grid(data)
            rep = check_initial_continuity(data, FormulaSolution(data))
            want = reference_continuity(data, None, grid, self.TS, pointwise=True)
            assert rep.series["m"] == want["m"]
            scale = 1.0 + float(np.sum(data.measure.masses * data.velocities**2))
            for name in ("q", "E"):
                assert np.max(np.abs(np.subtract(rep.series[name], want[name]))) <= 1e-14 * scale
            assert rep.passed == all(
                all(b <= 1.05 * a + ROUNDOFF_FLOOR for a, b in zip(v[:-1], v[1:])) for v in want.values()
            )


class TestContinuityEdgeCases:
    def both_layers(self, data):
        return simulate_ep(data, 1.0), FormulaSolution(data)

    def test_empty_levels_give_the_empty_report_on_every_solution(self, two_atom_symmetric):
        for solution in self.both_layers(two_atom_symmetric):
            rep = check_initial_continuity(two_atom_symmetric, solution, t_sequence=[])
            assert (rep.levels, rep.series, rep.passed) == ((), {"m": (), "q": (), "E": ()}, True)

    def test_negative_or_non_finite_level_raises_on_every_solution(self, two_atom_symmetric):
        for solution in self.both_layers(two_atom_symmetric):
            for t in (-1.0, -1e-300, math.nan, math.inf):
                with pytest.raises(NonPositiveTime):
                    check_initial_continuity(two_atom_symmetric, solution, t_sequence=[0.5, t])

    def test_time_zero_is_accepted_on_every_solution(self, single_atom):
        for solution in self.both_layers(single_atom):
            rep = check_initial_continuity(single_atom, solution, t_sequence=[0.5, 0.0])
            assert rep.series["m"] == (0.0, 0.0)
            assert rep.series["q"][1] == 0.0 and rep.series["E"][1] <= 1e-15


class TestFormulaSolution:
    def test_blocks_are_the_snapshots_stacked(self):
        data = baseline_instance(100, 0)
        formula = FormulaSolution(data)
        ts = np.linspace(0.05, 2.0, 120)
        rows = 0
        for times, positions, velocities, masses in formula.states_at(ts):
            assert positions.size <= max(BLOCK_ELEMENTS, masses.size)
            for j, t in enumerate(times.tolist()):
                s = formula.state_at(t)
                assert np.array_equal(s.masses, masses)
                assert positions[j].tobytes() == s.positions.tobytes()
                assert velocities[j].tobytes() == s.velocities.tobytes()
                rows += 1
        assert rows == ts.size
        assert formula.event_times == () and formula.layer == "formula"


class TestPotentialIdentities:
    HS = [1e-2, 1e-3, 1e-4]

    def test_vacuum_region_residuals_zero(self, two_atom_symmetric):
        # far right of the support every field is affine in x and smooth in t
        rep = check_potential_identities(
            two_atom_symmetric, [(8.0, 1.0)], self.HS
        )
        assert rep.passed
        assert rep.series["nu_x+m"][-1] <= 1e-9

    def test_single_atom_slope_is_minus_mass(self, single_atom):
        rep = check_potential_identities(single_atom, [(4.0, 0.7)], self.HS)
        assert rep.passed
        assert rep.series["nu_x+m"][0] <= 1e-9

    def test_two_atom_between_paths(self, two_atom_symmetric):
        rep = check_potential_identities(
            two_atom_symmetric, [(0.0, 1.0), (0.3, 1.0)], self.HS
        )
        assert rep.passed
        for series in rep.series.values():
            assert series[0] <= 1e-6  # residual at h = 1e-4

    def test_stencil_on_cluster_rejected(self, two_atom_symmetric):
        x_cluster = float(cluster_snapshot(two_atom_symmetric, 1.0).positions[0])
        with pytest.raises(StencilTooCloseToShock):
            check_potential_identities(
                two_atom_symmetric, [(x_cluster, 1.0)], self.HS
            )

    def test_stencil_reaching_t_zero_rejected(self, single_atom):
        with pytest.raises(StencilTooCloseToShock):
            check_potential_identities(single_atom, [(4.0, 1e-3)], self.HS)

    def test_rows_shape(self, single_atom):
        rep = check_potential_identities(single_atom, [(4.0, 0.7)], self.HS)
        rows = list(rep.rows())
        assert len(rows) == 5 * len(self.HS)
        assert all(len(r) == 4 for r in rows)


# Reference for the grouped identity check: the per-point loop it replaced,
# one frame per stencil point through the scalar auxiliary fields.


def scalar_nu_theta_omega(data, x, t):
    coeffs = PotentialCoefficients.euler_poisson(data.tau, t)
    frame = PrefixFrame(data.measure, data.velocities, coeffs)
    nu, k_min, _ = frame.argmin(x)
    if k_min == 0:
        return float(nu), 0.0, 0.0, 0.0
    lo, hi, pos, vel = frame.clusters()
    cluster_pos, cluster_vel = np.repeat(pos, hi - lo), np.repeat(vel, hi - lo)
    m = data.measure
    w = m.masses[:k_min]
    off = cluster_pos[:k_min] - x
    theta = float(np.sum(w * frame.vel[:k_min] * off))
    mt = m.atom_mtilde()[:k_min]
    omega = float(
        -(coeffs.decay / data.tau)
        * np.sum(w * (data.velocities[:k_min] + data.tau * mt) * off)
    )
    h = float(np.sum(w * cluster_vel[:k_min]))
    return float(nu), theta, omega, h


def scalar_identity_series(data, stencil_grid, hs):
    tau = data.tau
    M = data.measure.total_mass
    names = ["nu_x+m", "nu_t-q", "theta_x+q", "theta_t-E-omega", "omega_x-closure"]
    series = {name: [] for name in names}
    for h in sorted(hs):
        worst = dict.fromkeys(names, 0.0)
        for x, t in stencil_grid:
            s = sample(data, x, t)
            mv, qv, ev = s.m, s.q, s.E
            om_c = scalar_nu_theta_omega(data, x, t)[2]
            nu_l, th_l, om_l, _ = scalar_nu_theta_omega(data, x - h, t)
            nu_r, th_r, om_r, _ = scalar_nu_theta_omega(data, x + h, t)
            nu_d, th_d, _, _ = scalar_nu_theta_omega(data, x, t - h)
            nu_u, th_u, _, _ = scalar_nu_theta_omega(data, x, t + h)
            closure = qv / tau + 0.5 * mv * mv - 0.5 * M * mv
            residuals = {
                "nu_x+m": (nu_r - nu_l) / (2 * h) + mv,
                "nu_t-q": (nu_u - nu_d) / (2 * h) - qv,
                "theta_x+q": (th_r - th_l) / (2 * h) + qv,
                "theta_t-E-omega": (th_u - th_d) / (2 * h) - ev - om_c,
                "omega_x-closure": (om_r - om_l) / (2 * h) - closure,
            }
            for name, r in residuals.items():
                worst[name] = max(worst[name], abs(r))
        for name in names:
            series[name].append(worst[name])
    return {name: tuple(vals) for name, vals in series.items()}


def stencil_cases(fixtures):
    """Each instance with the stencils of ``_stencil_candidates`` on a wide
    grid (left vacuum first) and on one that starts inside the support."""
    rng = np.random.default_rng(2501)
    instances = list(fixtures) + [random_instance(rng, n_max=20) for _ in range(20)]
    grids = (np.linspace(-12.0, 12.0, 97), np.linspace(-2.0, 12.0, 57))
    for data in instances:
        for grid in grids:
            cfg = SimpleNamespace(data=data, times=[0.3, 1.0, 2.5], x_grid=grid)
            stencils = _stencil_candidates(cfg, max(TestPotentialIdentities.HS))
            if stencils:
                yield data, stencils


class TestGroupedIdentitiesMatchPointwiseLoop:
    HS = TestPotentialIdentities.HS

    def test_series_equal_bit_for_bit(self, single_atom, two_atom_symmetric, two_atom_asymmetric):
        cases = 0
        for data, stencils in stencil_cases((single_atom, two_atom_symmetric, two_atom_asymmetric)):
            # interleaved times exercise the grouping by t
            for grid in (stencils, stencils[::-1]):
                rep = check_potential_identities(data, grid, self.HS)
                want = scalar_identity_series(data, grid, self.HS)
                assert repr(rep.series) == repr(want)  # repr keeps the sign of zero
            cases += 1
        assert cases >= 40

    def test_frames_per_stencil_time(self, monkeypatch):
        # the guard's snapshot, the centres' sample and omega, and three
        # grid calls per h: at most 3 + 3H frames per time, whatever P is
        data = random_instance(np.random.default_rng(2502), n_max=20)
        grid = np.linspace(-12.0, 12.0, 97)
        times = [0.3, 1.0, 2.5]
        built = []
        init = PrefixFrame.__init__

        def counted(frame, *args):
            built.append(frame)
            init(frame, *args)

        for points in (1, 5):
            stencils = _stencil_candidates(SimpleNamespace(data=data, times=times, x_grid=grid), 1e-2)
            by_time = {t: [p for p in stencils if p[1] == t][:points] for t in times}
            stencils = [p for group in by_time.values() for p in group]
            assert [len(group) for group in by_time.values()] == [points] * len(times)
            for hs in ([1e-2], self.HS):
                built.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(PrefixFrame, "__init__", counted)
                    check_potential_identities(data, stencils, hs)
                assert 0 < len(built) <= len(times) * (3 + 3 * len(hs))
