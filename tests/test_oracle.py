import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stickygas.errors import NoClusterAt, NonPositiveTime
from stickygas.instances import random_instance, sample_times_avoiding_events
from stickygas.measure import AtomicMeasure, InitialData
from stickygas.oracle import (
    MergeEvent,
    _DriftDynamics,
    _EpDynamics,
    oracle_cdf,
    oracle_velocity,
    simulate_drift,
    simulate_ep,
)
from tests.conftest import make_random_instance


class TestSingleAtom:
    def test_free_flight_closed_form(self, single_atom):
        traj = simulate_ep(single_atom, 3.0)
        assert traj.events == ()
        for t in (0.2, 1.0, 2.7):
            state = traj.state_at(t)
            (x,) = state.positions
            (v,) = state.velocities
            assert x == pytest.approx(1.0 - math.exp(-t), rel=1e-13)
            assert v == pytest.approx(math.exp(-t), rel=1e-13)


class TestTwoAtomBenchmark:
    def test_collision_time_against_independent_root(self, two_atom_symmetric):
        traj = simulate_ep(two_atom_symmetric, 6.0)
        assert len(traj.events) == 1
        # gap equation reduces to t + e^{-t} = 5; brentq is the oracle here
        root = brentq(lambda s: s + math.exp(-s) - 5.0, 4.0, 6.0, xtol=1e-14)
        assert abs(traj.events[0].time - root) <= 1e-10
        assert traj.events[0].position == pytest.approx(0.0, abs=1e-12)

    def test_merged_cluster_at_rest(self, two_atom_symmetric):
        traj = simulate_ep(two_atom_symmetric, 6.0)
        state = traj.state_at(6.0)
        (x,) = state.positions
        (v,) = state.velocities
        assert v == 0.0
        assert x == pytest.approx(0.0, abs=1e-12)
        assert (state.lo.tolist(), state.hi.tolist()) == ([0], [2])


class TestConservation:
    def test_momentum_decay_law(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data = make_random_instance(rng)
            q0 = float(np.sum(data.measure.masses * data.velocities))
            traj = simulate_ep(data, 7.0)
            for t in np.linspace(0.1, 7.0, 9):
                state = traj.state_at(float(t))
                expect = q0 * math.exp(-t / data.tau)
                assert state.momentum() == pytest.approx(
                    expect, abs=1e-12 * (1.0 + abs(q0))
                )

    def test_mass_conserved_and_order_kept(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            data = make_random_instance(rng)
            M = data.measure.total_mass
            traj = simulate_ep(data, 7.0)
            assert len(traj.events) <= len(data) - 1
            for state in traj.states:
                assert sum(state.masses.tolist()) == pytest.approx(M, rel=1e-14)
                pos = state.positions
                assert np.all(np.diff(pos) > 0) or len(pos) == 1
                ranges = list(zip(state.lo.tolist(), state.hi.tolist()))
                assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
                assert all(a[1] == b[0] for a, b in zip(ranges[:-1], ranges[1:]))


class TestDeterminism:
    def test_resume_reproduces_remaining_trajectory(self):
        rng = np.random.default_rng(33)
        data = make_random_instance(rng, n_max=10)
        traj = simulate_ep(data, 7.0)
        if len(traj.events) == 0:
            pytest.skip("instance produced no events")
        for idx in range(1, len(traj.states) - 1):
            resumed = simulate_ep(data, 7.0).resume(idx)
            tail = [s for s in traj.states if s.time >= traj.states[idx].time]
            assert len(resumed.states) == len(tail)
            for a, b in zip(tail, resumed.states):
                assert a.time == b.time
                assert a == b

    def test_resumed_trajectory_rejects_times_before_its_start(self):
        data = InitialData.from_atoms(
            [-1.0, 0.0, 1.0], [0.4, 0.3, 0.4], [0.5, 0.0, -0.2], 1.0
        )
        traj = simulate_ep(data, 6.0)
        resumed = traj.resume(1)
        start = traj.events[0].time
        assert resumed.state_at(start) == traj.state_at(start)
        with pytest.raises(ValueError):
            resumed.state_at(0.5 * start)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(34)
        data = make_random_instance(rng)
        t1 = simulate_ep(data, 5.0)
        t2 = simulate_ep(data, 5.0)
        assert t1.states == t2.states
        assert t1.events == t2.events


class TestDrift:
    def test_two_atom_collides_at_four(self, two_atom_symmetric):
        traj = simulate_drift(two_atom_symmetric.measure, 5.0)
        assert len(traj.events) == 1
        assert traj.events[0].time == 4.0
        assert traj.events[0].position == pytest.approx(0.0, abs=1e-15)
        assert traj.state_at(5.0).velocities.tolist() == [0.0]

    def test_initial_speeds(self, two_atom_symmetric):
        traj = simulate_drift(two_atom_symmetric.measure, 1.0)
        assert traj.states[0].velocities.tolist() == [0.25, -0.25]

    def test_single_atom_stationary(self):
        m = AtomicMeasure([0.7], [2.0])
        traj = simulate_drift(m, 3.0)
        state = traj.state_at(3.0)
        assert state.positions.tolist() == [0.7] and state.velocities.tolist() == [0.0]

    def test_three_equal_atoms_symmetric(self):
        w = 0.6
        m = AtomicMeasure([-2.0, 0.0, 2.0], [w, w, w])
        traj = simulate_drift(m, 0.5)
        v = traj.states[0].velocities
        assert v[1] == pytest.approx(0.0, abs=1e-15)
        assert v[0] == pytest.approx(w, rel=1e-14)
        assert v[2] == pytest.approx(-w, rel=1e-14)

    def test_total_drift_momentum_zero(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            data = make_random_instance(rng)
            traj = simulate_drift(data.measure, 6.0)
            for state in traj.states:
                assert state.momentum() == pytest.approx(
                    0.0, abs=1e-12 * (1 + data.measure.total_mass)
                )


class TestStateQueries:
    def test_oracle_cdf_examples(self, two_atom_symmetric):
        traj = simulate_ep(two_atom_symmetric, 6.0)
        post = traj.state_at(6.0)
        assert oracle_cdf(post, 0.1) == 1.0
        assert oracle_cdf(post, -5.0) == 0.0
        pre = traj.state_at(1.0)
        assert oracle_cdf(pre, 0.0) == 0.5

    def test_velocity_lookup(self, two_atom_symmetric):
        traj = simulate_ep(two_atom_symmetric, 6.0)
        state = traj.state_at(1.0)
        x = state.positions[0]
        assert oracle_velocity(state, x) == state.velocities[0]
        with pytest.raises(NoClusterAt):
            oracle_velocity(state, 100.0)

    def test_state_at_bounds(self, single_atom):
        traj = simulate_ep(single_atom, 2.0)
        with pytest.raises(ValueError):
            traj.state_at(2.5)
        assert traj.state_at(0.0).positions[0] == 0.0

    def test_grid_cdf_is_the_filtered_running_sum(self):
        # the draws of `compare`: 200 instances, five sample times, 21 points
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            data = random_instance(rng, n_max=20)
            traj = simulate_ep(data, 6.0)
            times = sample_times_avoiding_events(rng, 5, 0.1, 5.5, traj.event_times)
            lo = float(data.measure.positions[0]) - 2.0
            hi = float(data.measure.positions[-1]) + 2.0
            xs = rng.uniform(lo, hi, size=21)
            for t in [0.0, *times, 6.0]:
                state = traj.state_at(t)
                pairs = list(zip(state.positions.tolist(), state.masses.tolist()))
                want = [float(sum(w for p, w in pairs if p < x)) for x in xs.tolist()]
                grid = oracle_cdf(state, xs)
                assert repr(grid.tolist()) == repr(want)
                assert [oracle_cdf(state, x) for x in xs.tolist()] == grid.tolist()

    def test_columns_reject_writes(self, two_atom_symmetric):
        traj = simulate_ep(two_atom_symmetric, 6.0)
        for state in (*traj.states, traj.state_at(1.0)):
            for column in (state.positions, state.masses, state.velocities, state.lo, state.hi):
                with pytest.raises(ValueError):
                    column[0] = 1
        with pytest.raises(AttributeError):
            traj.states[0].positions = np.zeros(2)

    def test_rejects_nonpositive_horizon(self, single_atom):
        with pytest.raises(NonPositiveTime):
            simulate_ep(single_atom, 0.0)
        with pytest.raises(NonPositiveTime):
            simulate_drift(single_atom.measure, -1.0)


class TestSimultaneousCollisions:
    def test_symmetric_triple_merge(self):
        # outer atoms reach the middle one at the same instant
        data = InitialData.from_atoms(
            [-1.0, 0.0, 1.0], [0.4, 0.4, 0.4], [0.0, 0.0, 0.0], 1.0
        )
        traj = simulate_ep(data, 20.0)
        final = traj.state_at(20.0)
        assert len(final.positions) == 1
        assert final.positions[0] == pytest.approx(0.0, abs=1e-10)
        assert final.velocities[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_collapse_eventually(self):
        rng = np.random.default_rng(36)
        data = make_random_instance(rng, n_max=6)
        traj = simulate_ep(data, 500.0)
        assert len(traj.state_at(500.0).positions) == 1

    def test_deep_decay_regime(self):
        # t/tau beyond the exponent flush threshold: the merged cluster
        # must sit exactly at the center of mass, at rest
        data = InitialData.from_atoms(
            [-1.0, 2.0], [1.0, 3.0], [0.5, -0.5], 0.1
        )
        traj = simulate_ep(data, 90.0)  # t/tau = 900 > 700
        state = traj.state_at(90.0)
        (x,) = state.positions
        (v,) = state.velocities
        com = (1.0 * -1.0 + 3.0 * 2.0) / 4.0
        drift = 0.1 * (1.0 * 0.5 + 3.0 * -0.5) / 4.0  # tau * v_com decays in
        assert v == pytest.approx(0.0, abs=1e-15)
        assert math.isfinite(x)
        # center of mass obeys x_com(t) = com + tau*(1 - e^{-t/tau}) v_com(0)
        assert x == pytest.approx(com + drift, rel=1e-12)


# -- reference: the all-pairs event loop ---------------------------------------
#
# It re-solves every neighbour pair root after every event and advances the
# clusters one at a time. The array event loop, which solves only the pairs
# whose certified root bound reaches the next event, must reproduce its
# events and states exactly (repr-equal, so signed zeros count), and state_at
# its closed-form replay.

RefCluster = namedtuple("RefCluster", "position mass velocity lo hi")
RefState = namedtuple("RefState", "time clusters")

# ClusterState column -> RefCluster field
COLUMNS = {
    "positions": "position",
    "masses": "mass",
    "velocities": "velocity",
    "lo": "lo",
    "hi": "hi",
}


def assert_state_is(state, ref):
    """ClusterState equals a RefState exactly: time, then every column's repr."""
    assert state.time == ref.time
    for column, name in COLUMNS.items():
        want = [getattr(c, name) for c in ref.clusters]
        assert repr(getattr(state, column).tolist()) == repr(want)


def _ref_mtilde(clusters):
    total = sum(c.mass for c in clusters)
    out, acc = [], 0.0
    for c in clusters:
        out.append(acc + 0.5 * c.mass - 0.5 * total)
        acc += c.mass
    return out


def _ref_advance(clusters, mts, dyn, dt):
    out = []
    for c, mt in zip(clusters, mts):
        x, v = dyn.advance(c.position, c.velocity, mt, dt)
        out.append(RefCluster(x, c.mass, v, c.lo, c.hi))
    return out


def _ref_merge(clusters, i, t_ev, events):
    a, b = clusters[i], clusters[i + 1]
    w = a.mass + b.mass
    c = RefCluster(
        (a.mass * a.position + b.mass * b.position) / w,
        w,
        (a.mass * a.velocity + b.mass * b.velocity) / w,
        a.lo,
        b.hi,
    )
    clusters[i : i + 2] = [c]
    events.append(
        MergeEvent(t_ev, ((a.lo, a.hi), (b.lo, b.hi)), (a.lo, b.hi), c.position)
    )


def reference_simulate(clusters, t_end, dyn, stats):
    """(states, events) of the all-pairs loop; stats counts its calls."""
    clusters = list(clusters)
    states = [RefState(0.0, tuple(clusters))]
    events = []
    t = 0.0
    while len(clusters) > 1:
        mts = _ref_mtilde(clusters)
        roots = [
            t + dyn.pair_root(b.position - a.position, b.velocity - a.velocity, mb - ma)
            for a, b, ma, mb in zip(clusters[:-1], clusters[1:], mts[:-1], mts[1:])
        ]
        t_ev = min(roots)
        if t_ev > t_end:
            break
        tol_event = 1e-11 * (1.0 + t_ev)
        clusters = _ref_advance(clusters, mts, dyn, t_ev - t)
        due = [i for i, r in enumerate(roots) if r <= t_ev + tol_event]
        for i in reversed(due):
            _ref_merge(clusters, i, t_ev, events)
        changed = True
        while changed:
            changed = False
            for i in range(len(clusters) - 1):
                gap = clusters[i + 1].position - clusters[i].position
                if gap <= 1e-12 * (1.0 + abs(clusters[i].position)):
                    _ref_merge(clusters, i, t_ev, events)
                    stats["chain_merges"] += 1
                    changed = True
                    break
        if dyn.kind == "drift":
            clusters = [
                RefCluster(c.position, c.mass, -mt, c.lo, c.hi)
                for c, mt in zip(clusters, _ref_mtilde(clusters))
            ]
        t = t_ev
        states.append(RefState(t, tuple(clusters)))
    final = _ref_advance(clusters, _ref_mtilde(clusters), dyn, t_end - t)
    states.append(RefState(t_end, tuple(final)))
    return tuple(states), tuple(events)


def reference_state_at(states, dyn, t):
    base = states[bisect_right([s.time for s in states], t) - 1]
    if base.time == t:
        return base
    w = np.array([c.mass for c in base.clusters])
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    mts = (prefix[:-1] + 0.5 * w - 0.5 * prefix[-1]).tolist()
    return RefState(t, tuple(_ref_advance(base.clusters, mts, dyn, t - base.time)))


def assert_matches_reference(data, t_end, times=()):
    """simulate_ep and simulate_drift against the all-pairs loop.

    Returns the chain-merge count and the events of each kind.
    """
    m = data.measure
    mts = m.prefix_mass[:-1] + 0.5 * m.masses - 0.5 * m.total_mass
    atoms = zip(m.positions.tolist(), m.masses.tolist(), data.velocities.tolist())
    ep_atoms = [RefCluster(p, w, v, i, i + 1) for i, (p, w, v) in enumerate(atoms)]
    drift_atoms = [
        RefCluster(c.position, c.mass, float(-mt), c.lo, c.hi)
        for c, mt in zip(ep_atoms, mts)
    ]
    stats = {"chain_merges": 0}
    for traj, atoms, dyn in (
        (simulate_ep(data, t_end), ep_atoms, _EpDynamics(data.tau)),
        (simulate_drift(m, t_end), drift_atoms, _DriftDynamics()),
    ):
        states, events = reference_simulate(atoms, t_end, dyn, stats)
        assert repr(traj.events) == repr(events)
        assert len(traj.states) == len(states)
        for state, ref in zip(traj.states, states):
            assert_state_is(state, ref)
        for t in [*times, *(e.time for e in events)]:
            assert_state_is(traj.state_at(t), reference_state_at(states, dyn, t))
        stats[dyn.kind] = len(events)
    return stats


def _chain_case(mu, tau, delta):
    """Heavy atoms at -1 and 1 hit light atoms at -h and h at the same time T.

    The light pair's own root is T + delta: too late to be due at T, but
    their gap at T is below the chain-merge threshold.
    """
    h = 0.0
    for _ in range(20):
        T = _EpDynamics(tau).pair_root(1.0 - h, 0.0, 0.5 * (1.0 + mu))
        d = T + delta
        h = 0.5 * mu * tau * (d + tau * math.expm1(-d / tau))
    data = InitialData.from_atoms([-1.0, -h, h, 1.0], [1.0, mu, mu, 1.0], [0.0] * 4, tau)
    return data, T


class TestAgainstAllPairsReference:
    def test_compare_ensemble(self):
        # the 200 instances of `compare`, with its draws and sample times
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            data = random_instance(rng, n_max=20)
            times = sample_times_avoiding_events(
                rng, 5, 0.1, 5.5, simulate_ep(data, 6.0).event_times
            )
            rng.uniform(size=21)
            assert_matches_reference(data, 6.0, [0.0, *times, 6.0])

    def test_bench_sized_instances(self):
        rng = np.random.default_rng(7)
        for n in (60, 100):
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-10.0, 10.0, n)),
                rng.uniform(0.01, 2.0, n) / n,
                rng.uniform(-2.0, 2.0, n),
                0.5,
            )
            stats = assert_matches_reference(data, 2.0, [0.3, 1.0])
            assert stats["euler_poisson"] > n // 3

    @pytest.mark.parametrize(
        "mu, tau, delta", [(1e-3, 1.0, 1e-10), (1e-3, 0.5, 1e-9), (1e-2, 0.5, 1e-10)]
    )
    def test_symmetric_multi_collision_reaches_chain_merges(self, mu, tau, delta):
        data, T = _chain_case(mu, tau, delta)
        stats = assert_matches_reference(data, 2.0 * T + 1.0, [T, 2.0 * T])
        assert stats["chain_merges"] >= 1
        final = simulate_ep(data, 2.0 * T + 1.0).state_at(2.0 * T + 1.0)
        assert len(final.positions) == 1

    def test_near_duplicate_atoms(self):
        rng = np.random.default_rng(41)
        chains = 0
        for _ in range(20):
            base = np.sort(rng.uniform(-10.0, 10.0, int(rng.integers(2, 15))))
            pos = np.concatenate([base, base + 1e-14 * np.abs(base)])
            data = InitialData.from_atoms(
                pos,
                rng.uniform(0.01, 2.0, pos.size),
                rng.uniform(-2.0, 2.0, pos.size),
                float(rng.choice([1.0, 0.5, 0.1])),
            )
            chains += assert_matches_reference(data, 6.0, [1e-9, 0.5, 3.0])["chain_merges"]
        assert chains > 0

    def test_masses_across_twelve_decades(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-10.0, 10.0, n)),
                10.0 ** rng.uniform(-12.0, 0.0, n),
                rng.uniform(-2.0, 2.0, n),
                float(rng.choice([1.0, 0.5, 0.1])),
            )
            assert_matches_reference(data, 6.0, [0.5, 3.0])

    def test_tiny_tau_past_the_exp_flush(self):
        rng = np.random.default_rng(43)
        tau = 1e-3
        late = 0
        for _ in range(10):
            n = int(rng.integers(2, 20))
            data = InitialData.from_atoms(
                np.sort(rng.uniform(-0.01, 0.01, n)),
                rng.uniform(0.01, 2.0, n),
                rng.uniform(-2.0, 2.0, n),
                tau,
            )
            assert_matches_reference(data, 20.0, [0.5, 10.0])
            late += sum(e.time / tau > 700.0 for e in simulate_ep(data, 20.0).events)
        assert late > 0


class TestPrunedRootWork:
    @settings(max_examples=300, deadline=None)
    @given(
        log_gap=st.floats(-15.0, 3.0),
        dv=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        log_dmt=st.floats(-12.0, 2.0),
        log_tau=st.floats(-6.0, 2.0),
    )
    def test_root_never_below_certified_bound(self, log_gap, dv, log_dmt, log_tau):
        gap, dmt = 10.0**log_gap, 10.0**log_dmt
        dyn = _EpDynamics(10.0**log_tau)
        (bound,) = dyn.root_bounds(np.array([gap]), np.array([dv]), np.array([dmt]))
        assert dyn.pair_root(gap, dv, dmt) >= bound

    def test_drift_bound_is_the_root(self):
        rng = np.random.default_rng(44)
        gap = rng.uniform(1e-9, 10.0, 200)
        dv = -rng.uniform(1e-6, 3.0, 200)
        drift = _DriftDynamics()
        bounds = drift.root_bounds(gap, dv, -dv)
        roots = [drift.pair_root(g, d, -d) for g, d in zip(gap.tolist(), dv.tolist())]
        assert bounds.tolist() == roots

    def test_about_one_root_per_event(self, monkeypatch):
        # without pruning this instance takes ~494,000 pair roots
        calls = [0]
        pair_root = _EpDynamics.pair_root

        def counted(self, *args):
            calls[0] += 1
            return pair_root(self, *args)

        monkeypatch.setattr(_EpDynamics, "pair_root", counted)
        rng = np.random.default_rng(0)
        n = 1000
        data = InitialData.from_atoms(
            np.sort(rng.uniform(-10.0, 10.0, n)),
            rng.uniform(0.01, 2.0, n) / n,
            rng.uniform(-2.0, 2.0, n),
            0.5,
        )
        events = len(simulate_ep(data, 2.0).events)
        assert events > 800
        assert calls[0] <= math.ceil(1.01 * events)
