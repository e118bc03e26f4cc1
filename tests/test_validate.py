import math

import numpy as np
import pytest

from stickygas.errors import StencilTooCloseToShock
from stickygas.euler_poisson import cluster_snapshot
from stickygas.measure import InitialData
from stickygas.validate import (
    TestFunction as Bump,
    check_initial_continuity,
    check_oleinik,
    check_potential_identities,
    check_weak_form,
    default_continuity_grid,
)
from tests.conftest import make_random_instance


class TestBump:
    def test_compact_support_and_smoothness(self):
        b = Bump(0.0, 1.0, 1.0, 0.5)
        assert b.value(2.0, 1.0) == 0.0
        assert b.value(0.0, 2.0) == 0.0
        assert b.value(0.0, 1.0) == 1.0
        assert b.dx(0.0, 1.0) == 0.0
        # derivative vanishes at the support edge (C^2 regularity)
        assert b.dx(1.0 - 1e-9, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_x_integral_matches_quadrature(self):
        b = Bump(0.3, 1.7, 1.0, 0.5)
        t = 1.2
        a, c = -1.0, 1.5
        n = 20000
        h = (c - a) / n
        want = h * sum(b.dt(a + (j + 0.5) * h, t) for j in range(n))
        assert b.dt_x_integral(a, c, t) == pytest.approx(want, abs=1e-8)


class TestWeakForm:
    def test_single_atom_residuals_tiny(self, single_atom):
        rep = check_weak_form(single_atom, (0.5, 2.5), refinement_levels=8, n_base=32)
        assert rep.passed
        assert rep.series["mass"][-1] <= 1e-10
        assert rep.series["momentum"][-1] <= 1e-10

    def test_two_atom_through_collision_order_two(self, two_atom_symmetric):
        rep = check_weak_form(
            two_atom_symmetric, (4.0, 6.0), refinement_levels=7, n_base=32
        )
        assert rep.passed  # geometric-mean decay of at least 4x per doubling

    def test_formula_layer_matches_oracle_layer(self, two_atom_symmetric):
        # the dm sums can come from either layer; residuals must agree
        kwargs = dict(t_window=(4.0, 6.0), refinement_levels=3, n_base=32)
        rep_o = check_weak_form(two_atom_symmetric, **kwargs)
        rep_f = check_weak_form(two_atom_symmetric, layer="formula", **kwargs)
        for key in ("mass", "momentum"):
            for a, b in zip(rep_o.series[key], rep_f.series[key]):
                assert a == pytest.approx(b, abs=1e-10)

    def test_zero_test_function(self, single_atom):
        # bump supported outside the window contributes exactly nothing
        dead = Bump(0.0, 1.0, 10.0, 0.5)
        rep = check_weak_form(
            single_atom, (0.5, 2.5), refinement_levels=2, bumps=[dead], n_base=16
        )
        assert all(v == 0.0 for v in rep.series["mass"])
        assert all(v == 0.0 for v in rep.series["momentum"])

    def test_rejects_bump_reaching_t_zero(self, single_atom):
        with pytest.raises(ValueError):
            check_weak_form(
                single_atom,
                (0.5, 2.5),
                bumps=[Bump(0.0, 1.0, 0.2, 0.5)],
            )

    def test_random_many_event_instance_converges(self):
        # several merges inside the window: the event-split quadrature must
        # still deliver second-order decay
        rng = np.random.default_rng(52)
        data = make_random_instance(rng, n_max=8)
        rep = check_weak_form(data, (0.5, 5.0), refinement_levels=6, n_base=32)
        assert rep.passed
        assert rep.series["mass"][-1] < rep.series["mass"][0] or (
            rep.series["mass"][0] == 0.0
        )

    def test_momentum_residual_sees_source_terms(self, single_atom):
        # dropping the damping term from the balance must leave an O(1)
        # defect: guards against a vacuous momentum integrand
        from stickygas.oracle import simulate_ep
        from stickygas.validate import _midpoint_nodes

        bump = Bump(0.5, 2.0, 1.5, 0.8)
        traj = simulate_ep(single_atom, 3.0)
        nodes, weights = _midpoint_nodes(0.7, 2.3, [], 512)
        acc = 0.0
        for t, w in zip(nodes, weights):
            state = traj.state_at(t)
            x, mass, v = state.positions[0], state.masses[0], state.velocities[0]
            acc += w * mass * (bump.dt(x, t) * v + bump.dx(x, t) * v**2)
        assert abs(acc) > 1e-3


class TestOleinik:
    def test_bound_chain_example(self):
        assert math.exp(-1) / (1 - math.exp(-1)) == pytest.approx(0.58198, abs=1e-5)
        assert math.exp(-1) / (1 - math.exp(-1)) <= 1.0

    def test_degenerate_pair_rejected(self, single_atom):
        with pytest.raises(ValueError):
            check_oleinik(single_atom, [1.0], [(0.5, 0.5)])

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
        rep_oracle = check_oleinik(data, ts, [], layer="oracle")
        assert rep_oracle.passed


class TestInitialContinuity:
    def test_single_atom_far_field(self, single_atom):
        rep = check_initial_continuity(
            single_atom, x_grid=[-3.0, 3.0], t_sequence=[2.0**-k for k in range(1, 21)]
        )
        assert rep.series["m"][-1] == 0.0
        # q and E converge at first order in t; the far-field prefix is the
        # whole atom so the errors are 1 - e^{-t} and 1 - e^{-2t}
        t_last = 2.0**-20
        assert rep.series["q"][-1] == pytest.approx(-math.expm1(-t_last), rel=1e-10)
        assert rep.series["E"][-1] == pytest.approx(-math.expm1(-2 * t_last), rel=1e-10)
        assert rep.passed

    def test_two_atom_midpoint_constant(self, two_atom_symmetric):
        rep = check_initial_continuity(two_atom_symmetric, x_grid=[0.0])
        assert all(v == 0.0 for v in rep.series["m"])

    def test_default_grid_avoids_atoms(self, two_atom_symmetric):
        grid = default_continuity_grid(two_atom_symmetric)
        assert grid == [-4.0, 0.0, 4.0]

    def test_oracle_layer_agrees(self, two_atom_symmetric):
        rep_f = check_initial_continuity(two_atom_symmetric)
        rep_o = check_initial_continuity(two_atom_symmetric, layer="oracle")
        for key in ("m", "q", "E"):
            assert rep_f.series[key][-1] == pytest.approx(
                rep_o.series[key][-1], abs=1e-10
            )


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
        x_cluster = cluster_snapshot(two_atom_symmetric, 1.0)[0].position
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
