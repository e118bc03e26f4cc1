import hashlib
import inspect
import json
import math
import re
import textwrap
from bisect import bisect_right
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stickygas import cli, oracle, validate
from stickygas.errors import (
    EventHorizonExceeded,
    IdentityViolation,
    NonPositiveTime,
    RootBracketFailure,
)
from stickygas.euler_poisson import cluster_snapshot
from stickygas.instances import random_instance, sample_times_avoiding_events
from stickygas.measure import AtomicMeasure, ClusterState, InitialData
from stickygas.oracle import (
    BLOCK_ELEMENTS,
    MergeEvent,
    _DriftDynamics,
    _EpDynamics,
    _Records,
    _simulate,
    oracle_cdf,
    simulate_drift,
    simulate_ep,
)
from tests.conftest import baseline_instance, compare_ensemble_cases, make_random_instance


def event_states(traj):
    """The states at t0, at each distinct event time and at t_end."""
    times = (traj.t0, *dict.fromkeys(traj.event_times), traj.t_end)
    return tuple(traj.state_at(t) for t in times)


def resume(traj, state_index):
    """Re-run the rest of traj from the records alive at event_states(traj)[state_index]."""
    t = event_states(traj)[state_index].time
    ids = traj._alive(t)
    live = _Records(*(c[ids] for c in traj.records))._replace(death=np.full(ids.size, math.inf))
    return _simulate(live, t, traj.t_end, traj._dynamics())


def run_digest(traj):
    """sha256 of a run's events (each field by repr, which keeps every float
    bit) followed by its record columns' dtypes and bytes."""
    h = hashlib.sha256(repr([(e.time, e.merged, e.result, e.position) for e in traj.events]).encode())
    for column in traj.records:
        h.update(column.dtype.str.encode() + column.tobytes())
    return h.hexdigest()


# (events, digest) of seeded baseline runs to t = 2, pinned before the event
# loop moved onto plain scalars; any moved event time or record bit shows here
RUN_DIGESTS = {
    ("euler_poisson", 1000, 0): (894, "3c494959b0a09eff1639ae1b0d7c0ecc801801aaa911f3a1ad8e65a035785528"),
    ("euler_poisson", 1000, 17): (891, "0fb844f6ae6fbcf0ba779f43ae3f8434fd5bd509b42795c7ac60deeaf9121356"),
    ("euler_poisson", 10000, 0): (9745, "b42b04dd660e3c3a1fdbd2c83e699823b6c887400a77d62d36c190fbb30a162b"),
    ("drift", 1000, 0): (107, "4bf802c3d94f7d406887882bb785559fc858404f68f968afa49d2b12bfa783ff"),
}


@pytest.mark.parametrize("kind, n, seed", RUN_DIGESTS, ids=lambda v: str(v))
def test_seeded_runs_keep_their_digests(kind, n, seed):
    data = baseline_instance(n, seed)
    traj = simulate_ep(data, 2.0) if kind == "euler_poisson" else simulate_drift(data.measure, 2.0)
    assert (len(traj.events), run_digest(traj)) == RUN_DIGESTS[kind, n, seed]


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
            for state in event_states(traj):
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
        states = event_states(traj)
        for idx in range(1, len(states) - 1):
            resumed = event_states(resume(simulate_ep(data, 7.0), idx))
            tail = [s for s in states if s.time >= states[idx].time]
            assert len(resumed) == len(tail)
            for a, b in zip(tail, resumed):
                assert a.time == b.time
                assert a == b

    def test_resumed_trajectory_rejects_times_before_its_start(self):
        data = InitialData.from_atoms(
            [-1.0, 0.0, 1.0], [0.4, 0.3, 0.4], [0.5, 0.0, -0.2], 1.0
        )
        traj = simulate_ep(data, 6.0)
        resumed = resume(traj, 1)
        start = traj.events[0].time
        assert resumed.state_at(start) == traj.state_at(start)
        with pytest.raises(ValueError):
            resumed.state_at(0.5 * start)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(34)
        data = make_random_instance(rng)
        t1 = simulate_ep(data, 5.0)
        t2 = simulate_ep(data, 5.0)
        assert event_states(t1) == event_states(t2)
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
        assert traj.state_at(0.0).velocities.tolist() == [0.25, -0.25]

    def test_single_atom_stationary(self):
        m = AtomicMeasure([0.7], [2.0])
        traj = simulate_drift(m, 3.0)
        state = traj.state_at(3.0)
        assert state.positions.tolist() == [0.7] and state.velocities.tolist() == [0.0]

    def test_three_equal_atoms_symmetric(self):
        w = 0.6
        m = AtomicMeasure([-2.0, 0.0, 2.0], [w, w, w])
        traj = simulate_drift(m, 0.5)
        v = traj.state_at(0.0).velocities
        assert v[1] == pytest.approx(0.0, abs=1e-15)
        assert v[0] == pytest.approx(w, rel=1e-14)
        assert v[2] == pytest.approx(-w, rel=1e-14)

    def test_total_drift_momentum_zero(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            data = make_random_instance(rng)
            traj = simulate_drift(data.measure, 6.0)
            for state in event_states(traj):
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
        for state in (*event_states(traj), traj.state_at(1.0)):
            for column in (state.positions, state.masses, state.velocities, state.lo, state.hi):
                with pytest.raises(ValueError):
                    column[0] = 1
        with pytest.raises(AttributeError):
            traj.state_at(0.0).positions = np.zeros(2)

    def test_rejects_nonpositive_horizon(self, single_atom):
        with pytest.raises(NonPositiveTime):
            simulate_ep(single_atom, 0.0)
        with pytest.raises(NonPositiveTime):
            simulate_drift(single_atom.measure, -1.0)


class TestBatchedStates:
    """Trajectory.states_at blocks against state_at, row by row and bit for bit."""

    @staticmethod
    def assert_blocks_match(traj, ts):
        done = 0
        for times, x, v, m in traj.states_at(ts):
            assert times.tolist() == ts[done : done + times.size]
            assert x.shape == v.shape == (times.size, m.size)
            assert x.size <= max(BLOCK_ELEMENTS, m.size)
            for t, x_row, v_row in zip(times.tolist(), x, v):
                state = traj.state_at(t)
                assert x_row.tobytes() == state.positions.tobytes()
                assert v_row.tobytes() == state.velocities.tobytes()
                assert m.tobytes() == state.masses.tobytes()
            done += times.size
        assert done == len(ts)

    def test_rows_equal_state_at_inside_at_events_and_at_the_end(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            data = make_random_instance(rng, n_max=12)
            for traj in (simulate_ep(data, 4.0), simulate_drift(data.measure, 4.0)):
                inside = rng.uniform(0.0, 4.0, size=40).tolist()
                ts = sorted([0.0, *inside, *traj.event_times, 4.0])
                self.assert_blocks_match(traj, ts)

    def test_rows_at_a_state_time_keep_signed_zeros(self):
        # advancing -0.0 by dt = 0 would give +0.0 where mtilde < 0
        data = InitialData.from_atoms([-1.0, 0.5, 1.0], [0.5, 0.2, 0.5], [-0.0, 0.0, -0.0], 1.0)
        traj = simulate_ep(data, 4.0)
        self.assert_blocks_match(traj, [0.0, 0.0, 0.5, *traj.event_times, 4.0])

    def test_blocks_are_capped(self, single_atom):
        data = random_instance(np.random.default_rng(3), n_max=20)
        ts = np.linspace(0.01, 1.99, 5000).tolist()
        for traj in (simulate_ep(single_atom, 2.0), simulate_ep(data, 2.0)):
            self.assert_blocks_match(traj, ts)
        assert [x.shape[0] for _, x, _, _ in simulate_ep(single_atom, 2.0).states_at(ts)] == [
            BLOCK_ELEMENTS,
            5000 - BLOCK_ELEMENTS,
        ]

    def test_empty_trajectory_yields_zero_column_blocks(self):
        # BLOCK_ELEMENTS // 0 clusters used to raise ZeroDivisionError, while
        # state_at answered an empty state
        empty = InitialData.from_atoms([], [], [], 1.0)
        ts = np.linspace(0.0, 2.0, BLOCK_ELEMENTS + 7).tolist()
        for traj in (simulate_ep(empty, 2.0), simulate_drift(empty.measure, 2.0)):
            assert traj.state_at(1.0).positions.size == 0
            self.assert_blocks_match(traj, ts)
            assert [x.shape for _, x, _, _ in traj.states_at(ts)] == [(BLOCK_ELEMENTS, 0), (7, 0)]

    def test_rejects_times_outside_the_horizon(self, single_atom):
        traj = simulate_ep(single_atom, 2.0)
        for ts in ([0.5, 2.5], [-0.1, 1.0]):
            with pytest.raises(ValueError):
                list(traj.states_at(ts))
        assert list(traj.states_at([])) == []


class TestRecordStorage:
    """One record per cluster that ever lived, the events as columns with their
    `MergeEvent`s built once on first read, and nothing cached beside them."""

    FIELDS = {"kind", "tau", "t0", "t_end", "event_columns", "records"}

    def test_at_most_two_n_minus_one_records_and_no_states_built(self):
        n = 1000
        data = baseline_instance(n, 0)
        for traj in (simulate_ep(data, 2.0), simulate_drift(data.measure, 2.0)):
            assert traj.events
            assert {c.size for c in traj.records} == {n + len(traj.events)}
            assert n + len(traj.events) <= 2 * n - 1
            traj.state_at(1.0)
            list(traj.states_at(np.linspace(0.0, 2.0, 50)))
            assert set(vars(traj)) == self.FIELDS | {"events"}

    def test_record_columns_keep_their_dtypes(self):
        # the loop keeps the records as lists; the arrays are rebuilt at the end
        data = baseline_instance(200, 0)
        for traj in (simulate_ep(data, 2.0), simulate_drift(data.measure, 2.0)):
            for records in (traj.records, resume(traj, 3).records):
                assert [c.dtype for c in records[:6]] == [np.dtype(np.float64)] * 6
                assert records.lo.dtype == records.hi.dtype == np.arange(1).dtype
            state = traj.state_at(1.0)
            assert state.lo.dtype.kind == state.hi.dtype.kind == "i"

    def test_commands_and_checks_never_build_states(self, tmp_path, monkeypatch):
        built = []

        def recorded(simulate):
            def run(*args):
                built.append(simulate(*args))
                return built[-1]

            return run

        monkeypatch.setattr(cli, "simulate_ep", recorded(cli.simulate_ep))
        data = baseline_instance(30, 0)
        atoms = zip(*(a.tolist() for a in (data.measure.positions, data.measure.masses, data.velocities)))
        cfg = {
            "version": 1,
            "atoms": [{"position": p, "mass": w, "velocity": v} for p, w, v in atoms],
            "tau": 0.5,
            "times": [0.3, 1.0],
            "x_grid": {"min": -12.0, "max": 12.0, "count": 41},
            "t_end": 2.0,
            "n_instances": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for command in ("oracle", "compare", "validate"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        validate.check_oleinik_states(data, built[-1], [0.5, 1.0])
        assert len(built) > 3
        # the commands read the event columns: no `MergeEvent` is built either
        assert all(set(vars(traj)) == self.FIELDS for traj in built)


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

    def test_an_event_merges_only_new_pairs_that_touch_and_approach(self):
        data = _touching_pairs_case()
        traj = simulate_ep(data, 1.0)
        assert [e.merged for e in traj.events] == [((0, 1), (1, 2)), ((5, 6), (6, 7))]
        assert traj.events[0].time < 1e-13 and traj.events[1].time > 1e-11
        before, after = [0, 2, 3, 4, 5, 6], [0, 2, 3, 4, 5]
        for t, lo in ((1e-12, before), (5e-11, before), (1e-9, after), (1.0, after)):
            state, snap = traj.state_at(t), cluster_snapshot(data, t)
            assert state.lo.tolist() == snap.lo.tolist() == lo
            assert state.hi.tolist() == snap.hi.tolist() == lo[1:] + [7]

    def test_a_slowly_approaching_neighbour_merges_at_its_own_root(self):
        # atoms 0 and 1 merge at about 4e-14 and leave atom 2 within 1e-12 of
        # the new cluster, closing at about 0.01: its own root is about 5e-11,
        # past the event tolerance, so it stays apart until then
        data = InitialData.from_atoms([-1e-14, 0.0, 5e-13], [1.0, 1.0, 1.0], [0.5, -0.5, -0.01], 1.0)
        traj = simulate_ep(data, 1.0)
        assert [e.merged for e in traj.events] == [((0, 1), (1, 2)), ((0, 2), (2, 3))]
        assert traj.events[0].time < 1e-13 and 3e-11 < traj.events[1].time < 1e-10
        for t, lo in ((1e-11, [0, 2]), (3e-11, [0, 2]), (1e-10, [0])):
            assert traj.state_at(t).lo.tolist() == cluster_snapshot(data, t).lo.tolist() == lo


# -- reference: the array event loop ------------------------------------------
#
# The event loop before per-cluster records: every cluster advances at every
# event, the certified root bounds of all neighbour pairs are one array
# operation sorted by an argsort, and a full state is stored per event.


def _mtilde(m, total=None):
    """prefix + own/2 - total/2 per cluster, the prefix a sequential running sum.

    ``total`` defaults to the last running sum.
    """
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    if total is None:
        total = prefix[-1]
    return prefix[:-1] + 0.5 * m - 0.5 * total


def root_bounds(dyn, gap0, dv, dmt):
    """Arrays of lower bounds that `pair_root` never undercuts.

    The drift gives its roots themselves. A pair without a bound
    (gap0 <= 0) gets -inf.
    """
    if dyn.kind == "drift":
        return gap0 / (-dv)
    a = np.maximum(-dv, 0.0)
    with np.errstate(all="ignore"):
        d_lo = 2.0 * gap0 / (a + np.sqrt(a * a + 2.0 * dmt * gap0))
    return np.fmax(d_lo * (1.0 - 1e-9) - 1e-12 * (1.0 + dyn.tau), -np.inf)


def _next_event(dyn, t, gap0, dv, dmt):
    """Earliest pair root t_ev and the pairs due within tol_event of it.

    Pairs are solved in increasing order of their certified lower bounds.
    Once t + bound exceeds best + 1e-11*(1 + best), that pair's root and every
    later one lie past t_ev + tol_event (rounding is monotone and t_ev <=
    best), so t_ev and the due pairs are those of solving every pair.
    """
    bounds = t + root_bounds(dyn, gap0, dv, dmt)
    roots = {}
    best = math.inf
    for i in np.argsort(bounds):
        if bounds[i] > best + 1e-11 * (1.0 + best):
            break
        r = t + dyn.pair_root(float(gap0[i]), float(dv[i]), float(dmt[i]))
        roots[int(i)] = r
        best = min(best, r)
    tol_event = 1e-11 * (1.0 + best)
    return best, sorted(i for i, r in roots.items() if r <= best + tol_event)


def _merge_pair(x, m, v, lo, hi, i, t_ev, events):
    """Merge cluster i + 1 into slot i in place and record the event."""
    (ma, mb), (xa, xb), (va, vb) = (a[i : i + 2].tolist() for a in (m, x, v))
    (lo_a, lo_b), (hi_a, hi_b) = lo[i : i + 2].tolist(), hi[i : i + 2].tolist()
    w = ma + mb
    x[i] = position = (ma * xa + mb * xb) / w
    v[i] = (ma * va + mb * vb) / w
    m[i], hi[i] = w, hi_b
    events.append(MergeEvent(t_ev, ((lo_a, hi_a), (lo_b, hi_b)), (lo_a, hi_b), position))


def array_loop_simulate(x, m, v, lo, hi, t0, t_end, dyn):
    """(states, events) of the array loop; every sum runs in the order of a Python loop."""
    n_atoms = int(hi[-1]) if hi.size else 0
    total_mass = sum(m.tolist())
    q0 = sum((m * v).tolist())
    states = [ClusterState(t0, x, m, v, lo, hi)]
    events = []
    t = t0
    while x.size > 1:
        mts = _mtilde(m, sum(m.tolist()))
        t_ev, due = _next_event(dyn, t, np.diff(x), np.diff(v), np.diff(mts))
        if t_ev > t_end:
            break
        # advance everything to the event time, then merge every pair due now
        x, v = dyn.advance(x, v, mts, t_ev - t)
        # the merges write in place; the stored states keep their arrays
        m, v, lo, hi = m.copy(), v.copy(), lo.copy(), hi.copy()
        keep = np.ones(x.size, dtype=bool)
        for i in reversed(due):
            _merge_pair(x, m, v, lo, hi, i, t_ev, events)
            keep[i + 1] = False
        x, m, v, lo, hi = x[keep], m[keep], v[keep], lo[keep], hi[keep]
        if dyn.kind == "drift":
            v = -_mtilde(m, sum(m.tolist()))
        t = t_ev
        states.append(ClusterState(t, x, m, v, lo, hi))
        if len(events) > max(n_atoms - 1, 0):
            raise EventHorizonExceeded("more merge events than atoms minus one")
        # conservation checks at every event
        mass_err = abs(sum(m.tolist()) - total_mass)
        if mass_err > 1e-12 * (1.0 + total_mass):
            raise IdentityViolation(f"mass conservation violated by {mass_err}")
        q_now = sum((m * v).tolist())
        if dyn.kind == "euler_poisson":
            q_ref = q0 * math.exp(-(t - t0) / dyn.tau) if (t - t0) / dyn.tau <= 700.0 else 0.0
        else:
            q_ref = 0.0
        if abs(q_now - q_ref) > 1e-11 * (1.0 + abs(q0) + total_mass):
            raise IdentityViolation(f"momentum decay law violated at t={t}: {q_now} vs {q_ref}")
    # final state at the horizon
    x, v = dyn.advance(x, v, _mtilde(m, sum(m.tolist())), t_end - t)
    states.append(ClusterState(t_end, x, m, v, lo, hi))
    return tuple(states), tuple(events)


def array_loop_state_at(states, dyn, t):
    """Closed-form state at t advanced from the last stored state at or before t."""
    base = states[bisect_right([s.time for s in states], t) - 1]
    if base.time == t:
        return base
    x, v = dyn.advance(base.positions, base.velocities, _mtilde(base.masses), t - base.time)
    return ClusterState(t, x, base.masses, v, base.lo, base.hi)


def reference_runs(data, t_end):
    """(trajectory, atoms, dynamics, array-loop states, array-loop events) per dynamics."""
    m = data.measure
    mts = m.prefix_mass[:-1] + 0.5 * m.masses - 0.5 * m.total_mass
    atoms = zip(m.positions.tolist(), m.masses.tolist(), data.velocities.tolist())
    ep_atoms = [RefCluster(p, w, v, i, i + 1) for i, (p, w, v) in enumerate(atoms)]
    drift_atoms = [
        RefCluster(c.position, c.mass, float(-mt), c.lo, c.hi)
        for c, mt in zip(ep_atoms, mts)
    ]
    for traj, atoms, dyn in (
        (simulate_ep(data, t_end), ep_atoms, _EpDynamics(data.tau)),
        (simulate_drift(m, t_end), drift_atoms, _DriftDynamics()),
    ):
        x, w, v = (np.array(col, dtype=float) for col in list(zip(*atoms))[:3])
        lo = np.arange(len(atoms))
        states, events = array_loop_simulate(x, w, v, lo, lo + 1, 0.0, t_end, dyn)
        yield traj, atoms, dyn, states, events


# -- reference: the all-pairs event loop ---------------------------------------
#
# It re-solves every neighbour pair root after every event and advances the
# clusters one at a time. The array event loop, which solves only the pairs
# whose certified root bound reaches the next event, must reproduce its
# events and states exactly (repr-equal, so signed zeros count), and its
# state replay the closed-form replay.

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


def reference_simulate(clusters, t_end, dyn):
    """(states, events) of the all-pairs loop."""
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
    """The array event loop against the all-pairs loop, for both dynamics.

    Returns the event count of each kind.
    """
    stats = {}
    for _, atoms, dyn, loop_states, loop_events in reference_runs(data, t_end):
        states, events = reference_simulate(atoms, t_end, dyn)
        assert repr(loop_events) == repr(events)
        assert len(loop_states) == len(states)
        for state, ref in zip(loop_states, states):
            assert_state_is(state, ref)
        for t in [*times, *(e.time for e in events)]:
            assert_state_is(
                array_loop_state_at(loop_states, dyn, t), reference_state_at(states, dyn, t)
            )
        stats[dyn.kind] = len(events)
    return stats


def _chain_case(mu, tau, delta):
    """Heavy atoms at -1 and 1 hit light atoms at -h and h at the same time T.

    The light pair's own root is T + delta: too late to be due at T. The
    two struck clusters are left touching at T and merge at their own root,
    within 1e-12 after T.
    """
    h = 0.0
    for _ in range(20):
        T = _EpDynamics(tau).pair_root(1.0 - h, 0.0, 0.5 * (1.0 + mu))
        d = T + delta
        h = 0.5 * mu * tau * (d + tau * math.expm1(-d / tau))
    data = InitialData.from_atoms([-1.0, -h, h, 1.0], [1.0, mu, mu, 1.0], [0.0] * 4, tau)
    return data, T


# (data, t_end, sample times) of each reference case


def bench_sized_cases():
    rng = np.random.default_rng(7)
    for n in (60, 100):
        data = InitialData.from_atoms(
            np.sort(rng.uniform(-10.0, 10.0, n)),
            rng.uniform(0.01, 2.0, n) / n,
            rng.uniform(-2.0, 2.0, n),
            0.5,
        )
        yield data, 2.0, [0.3, 1.0]


CHAIN_PARAMETERS = [(1e-3, 1.0, 1e-10), (1e-3, 0.5, 1e-9), (1e-2, 0.5, 1e-10)]


def chain_cases():
    for mu, tau, delta in CHAIN_PARAMETERS:
        data, T = _chain_case(mu, tau, delta)
        yield data, 2.0 * T + 1.0, [T, 2.0 * T]


def _struck_pair_case(x, sides, tau):
    """Near-duplicate atoms at x and x + 1e-14|x|, at rest, struck by atoms
    1e-8 away on the given sides (-1 left, +1 right) moving at them at unit speed.

    The pair's own root is about 1e-7 away, so it is not due when struck at
    about 1e-8. The struck cluster is left touching the other atom of the
    pair and merges with it at their own root, within 1e-12 after the strike.
    """
    pair = [x, x + 1e-14 * abs(x)]
    pos, vel = list(pair), [0.0, 0.0]
    if -1 in sides:
        pos, vel = [x - 1e-8, *pos], [1.0, *vel]
    if 1 in sides:
        pos, vel = [*pos, pair[1] + 1e-8], [*vel, -1.0]
    return InitialData.from_atoms(pos, [1.0] * len(pos), vel, tau)


STRUCK_PAIRS = [(-3.7, (-1,), 1.0), (2.2, (1,), 0.5), (8.9, (-1, 1), 0.1)]


def assert_struck_pair_merges_at_its_own_root(data, t_end):
    """The merge after the first event time T is an event of its own, at a
    time in (T, T + 1e-11*(1 + T)], that leaves one cluster.

    Between the two, the oracle and the formula layer's hull both show the
    two clusters apart. Returns T.
    """
    traj = simulate_ep(data, t_end)
    T = traj.events[0].time
    later = [e for e in traj.events if e.time > T]
    assert later and later[0].time <= T + 1e-11 * (1.0 + T)
    assert later[0].result == (0, len(data))
    mid = 0.5 * (T + later[0].time)
    apart = [0, later[0].merged[1][0]]
    assert traj.state_at(mid).lo.tolist() == cluster_snapshot(data, mid).lo.tolist() == apart
    assert len(traj.state_at(t_end).positions) == 1
    return T


def _touching_pairs_case():
    """Seven atoms in three groups, 1e-14 to 1e-12 apart.

    At -1, atoms 0 and 1 approach and merge at about 2.6e-14; atom 2 then
    touches the new cluster but separates from it. At 1, atoms 3 and 4
    separate. At 3, atoms 5 and 6 approach slowly and merge at their own
    root, about 1e-10. So the first event merges nothing but atoms 0 and 1.
    """
    return InitialData.from_atoms(
        [-1.0, -1.0 + 1e-14, -1.0 + 2e-14, 1.0, 1.0 + 1e-14, 3.0, 3.0 + 1e-12],
        [0.5, 0.7, 0.2, 0.6, 0.4, 0.3, 0.8],
        [0.5, -0.5, 1.0, -0.5, 0.5, 0.005, -0.005],
        1.0,
    )


def near_duplicate_cases():
    rng = np.random.default_rng(41)
    for _ in range(20):
        base = np.sort(rng.uniform(-10.0, 10.0, int(rng.integers(2, 15))))
        pos = np.concatenate([base, base + 1e-14 * np.abs(base)])
        data = InitialData.from_atoms(
            pos,
            rng.uniform(0.01, 2.0, pos.size),
            rng.uniform(-2.0, 2.0, pos.size),
            float(rng.choice([1.0, 0.5, 0.1])),
        )
        yield data, 6.0, [1e-9, 0.5, 3.0]
    # drawn near-duplicates approach fast enough to be due at once, so these
    # cover a near-duplicate pair that a strike leaves touching
    for case in STRUCK_PAIRS:
        yield _struck_pair_case(*case), 6.0, [1e-9, 0.5, 3.0]
    yield _touching_pairs_case(), 1.0, [1e-12, 5e-11, 1e-9]


def twelve_decade_cases():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        data = InitialData.from_atoms(
            np.sort(rng.uniform(-10.0, 10.0, n)),
            10.0 ** rng.uniform(-12.0, 0.0, n),
            rng.uniform(-2.0, 2.0, n),
            float(rng.choice([1.0, 0.5, 0.1])),
        )
        yield data, 6.0, [0.5, 3.0]


def tiny_tau_cases():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        data = InitialData.from_atoms(
            np.sort(rng.uniform(-0.01, 0.01, n)),
            rng.uniform(0.01, 2.0, n),
            rng.uniform(-2.0, 2.0, n),
            1e-3,
        )
        yield data, 20.0, [0.5, 10.0]


class TestAgainstAllPairsReference:
    def test_compare_ensemble(self):
        for data, t_end, times in compare_ensemble_cases():
            assert_matches_reference(data, t_end, times)

    def test_bench_sized_instances(self):
        for data, t_end, times in bench_sized_cases():
            stats = assert_matches_reference(data, t_end, times)
            assert stats["euler_poisson"] > len(data) // 3

    @pytest.mark.parametrize("mu, tau, delta", CHAIN_PARAMETERS)
    def test_symmetric_multi_collision_reaches_chain_merges(self, mu, tau, delta):
        # both strikes are one event at T, and the struck clusters merge next
        data, T = _chain_case(mu, tau, delta)
        assert_matches_reference(data, 2.0 * T + 1.0, [T, 2.0 * T])
        strike = assert_struck_pair_merges_at_its_own_root(data, 2.0 * T + 1.0)
        assert abs(strike - T) <= 1e-11 * (1.0 + T)
        assert [e.time for e in simulate_ep(data, 2.0 * T + 1.0).events[:2]] == [strike, strike]

    def test_near_duplicate_atoms(self):
        for data, t_end, times in near_duplicate_cases():
            assert_matches_reference(data, t_end, times)
        for case in STRUCK_PAIRS:
            assert_struck_pair_merges_at_its_own_root(_struck_pair_case(*case), 6.0)

    def test_masses_across_twelve_decades(self):
        for data, t_end, times in twelve_decade_cases():
            assert_matches_reference(data, t_end, times)

    def test_tiny_tau_past_the_exp_flush(self):
        late = 0
        for data, t_end, times in tiny_tau_cases():
            assert_matches_reference(data, t_end, times)
            late += sum(e.time / data.tau > 700.0 for e in simulate_ep(data, t_end).events)
        assert late > 0


def flushing_advance_rows(tau, x, v, mt, dt):
    """`_EpDynamics.advance_rows` with the flush `np.where`s taken on every call."""
    z = dt / tau
    kept = z <= 700.0
    A = tau * np.where(kept, -np.expm1(-z), 1.0)
    decay = np.where(kept, np.exp(-np.minimum(z, 700.0)), 0.0)
    return x + v * A + mt * (tau * A - tau * dt), v * decay - mt * A


class TestFlushKernel:
    def test_rows_with_and_without_flushed_records_equal_the_flushing_path(self):
        # a lone atom has mt = 0, so at z = 720 only the flush zeroes v * e^{-z}
        lone = InitialData.from_atoms(np.array([0.0]), np.array([1.0]), np.array([1.0]), 1e-3)
        flushed = kept = 0
        for data, t_end, _ in [*tiny_tau_cases(), (lone, 20.0, None)]:
            traj = simulate_ep(data, t_end)
            r, dyn = traj.records, _EpDynamics(data.tau)
            for times in ([1e-4, 2e-3], [0.3], [0.5, 0.69], [0.72], [0.5, 10.0], [t_end]):
                ids = traj._alive(times[0])
                dt = np.array(times)[:, None] - r.birth[ids]
                args = (r.x[ids], r.v[ids], r.mt[ids], dt)
                got, want = dyn.advance_rows(*args), flushing_advance_rows(data.tau, *args)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                flushed += dt.max() / data.tau > 700.0
                kept += dt.max() / data.tau <= 700.0
        assert flushed and kept


# -- the record loop against the array loop ------------------------------------
#
# Records advance from their own births, not from the last event, and a pair
# root is solved from the time the pair formed, so the two loops agree to
# rounding: the same merges in the same order, event times and positions
# within EVENT_TOL*(1 + t), masses and atom ranges exactly, and positions and
# velocities within STATE_TOL*(1 + |value|), one tenth of the default compare
# tolerance (1e-9).

EVENT_TOL = 1e-11
STATE_TOL = 1e-10


def assert_state_close(state, ref):
    assert state.lo.tolist() == ref.lo.tolist() and state.hi.tolist() == ref.hi.tolist()
    assert state.masses.tolist() == ref.masses.tolist()
    for new, old in ((state.positions, ref.positions), (state.velocities, ref.velocities)):
        assert np.all(np.abs(new - old) <= STATE_TOL * (1.0 + np.abs(old)))


def assert_close_to_array_loop(data, t_end, times):
    for traj, _, dyn, states, events in reference_runs(data, t_end):
        assert [(e.merged, e.result) for e in traj.events] == [
            (e.merged, e.result) for e in events
        ]
        for e, ref in zip(traj.events, events):
            tol = EVENT_TOL * (1.0 + ref.time)
            assert abs(e.time - ref.time) <= tol and abs(e.position - ref.position) <= tol
        # one state per distinct event time in each, at times within EVENT_TOL
        assert len(event_states(traj)) == len(states)
        for state, ref in zip(event_states(traj), states):
            assert abs(state.time - ref.time) <= EVENT_TOL * (1.0 + ref.time)
            assert_state_close(state, ref)
        # at a sample time within EVENT_TOL of an event the two loops may sit
        # on either side of it; the event states above cover those
        near = [e.time for e in events]
        for t in times:
            if all(abs(t - s) > EVENT_TOL * (1.0 + s) for s in near):
                assert_state_close(traj.state_at(t), array_loop_state_at(states, dyn, t))


class TestRecordLoopAgainstArrayLoop:
    @pytest.mark.parametrize(
        "cases",
        [
            compare_ensemble_cases,
            bench_sized_cases,
            chain_cases,
            near_duplicate_cases,
            twelve_decade_cases,
            tiny_tau_cases,
        ],
    )
    def test_same_merges_and_states_to_rounding(self, cases):
        for data, t_end, times in cases():
            assert_close_to_array_loop(data, t_end, times)


def reference_pair_root(tau, gap0, dv, dmt):
    """The collision root with the gap as a closure over the scalar helper."""

    def em1(z):
        return -math.expm1(-z) if z <= 700.0 else 1.0

    def gap(d):
        A = tau * em1(d / tau)
        return gap0 + dv * A + dmt * (tau * A - tau * d)

    lo = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
    hi = max(lo, (gap0 + abs(dv) * tau + dmt * tau * tau) / (dmt * tau)) + 1.0
    for _ in range(200):
        if gap(hi) <= 0.0:
            break
        hi = 2.0 * hi + 1.0
    else:
        raise RootBracketFailure("collision root bracket expansion failed")
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


EPS = 2.0**-52


def gap_terms(tau, gap0, dv, dmt, d):
    """The computed gap at d with `pair_root`'s operations, its slope, and
    the size of its terms: the gap is known to about 4*EPS times that size."""
    z = d / tau
    A = tau * (-math.expm1(-z) if z <= 700.0 else 1.0)
    e = math.exp(-z) if z <= 700.0 else 0.0
    gap = gap0 + dv * A + dmt * (tau * A - tau * d)
    return gap, dv * e - dmt * A, abs(gap0) + abs(dv) * A + dmt * tau * (A + d)


def assert_root_agrees_with_reference(tau, gap0, dv, dmt):
    """`pair_root` against the bisection reference; returns the root.

    Both return the midpoint of a bracket at most 1e-13*max(1, b) wide whose
    ends have certified computed signs, so each lies within its half-width of
    a sign change of the computed gap, and the gap's rounding blurs its sign
    change over 4*EPS*size/|gap'|. Newton's bracket mostly closes a few ulps
    around its iterate; it keeps a far end when its first bracket [lo, b]
    already passes the test (a root below the tolerance) or when a probe
    meant to stay on one side crosses inside the blur. Just outside the
    widest bracket the computed gap has the root's signs wherever it exceeds
    its rounding.
    """
    root = _EpDynamics(tau).pair_root(gap0, dv, dmt)
    ref = reference_pair_root(tau, gap0, dv, dmt)
    _, slope, size = gap_terms(tau, gap0, dv, dmt, ref)
    blur = 4.0 * EPS * size / -slope if slope < 0.0 else math.inf
    halves = 0.5e-13 * (max(1.0, ref) + max(1.0, root))
    assert abs(root - ref) <= halves + 2.0 * blur + 4.0 * EPS * max(1.0, ref)
    lo = tau * math.log1p(dv / (dmt * tau)) if dv > 0.0 else 0.0
    h = 0.5e-13 * max(1.0, root) * (1.0 + 1e-12) + 4.0 * EPS * max(1.0, root)
    for d, sign in ((root - h, 1.0), (root + h, -1.0)):
        gap, _, size = gap_terms(tau, gap0, dv, dmt, d)
        if d > lo and abs(gap) > 4.0 * EPS * size:
            assert gap * sign > 0.0
    return root


class TestInlinePairRoot:
    def test_equals_closure_reference(self):
        # Newton from the certified bound against bisection, case by case
        rng = np.random.default_rng(2026)
        n = 10_000
        gap0 = 10.0 ** rng.uniform(-15.0, 3.0, n)
        dv = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-1e3, 1e3, n))
        dmt = 10.0 ** rng.uniform(-12.0, 2.0, n)
        tau = np.where(rng.random(n) < 0.25, 1e-3, 10.0 ** rng.uniform(-6.0, 2.0, n))
        flushed = 0
        for case in zip(tau.tolist(), gap0.tolist(), dv.tolist(), dmt.tolist()):
            root = assert_root_agrees_with_reference(*case)
            flushed += root / case[0] > 700.0
        # the exp-flush branch decides a good share of the roots
        assert flushed > n // 10

    @settings(max_examples=300, deadline=None)
    @given(
        gap0=st.one_of(
            st.floats(-15.0, 3.0).map(lambda p: 10.0**p),
            st.just(0.0),
            st.floats(-18.0, -12.0).map(lambda p: -(10.0**p)),  # touching, by rounding
        ),
        dv=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        log_dmt=st.floats(-12.0, 2.0),
        tau=st.one_of(st.just(1e-3), st.floats(-6.0, 2.0).map(lambda p: 10.0**p)),
    )
    # gap0 + dv*tau = 0: past d = 2.6 the dv term varies below its rounding, and
    # Newton steps from the right crawled for 200 points
    @example(gap0=0.1, dv=-1.0, log_dmt=-11.75, tau=0.1)
    def test_agrees_with_closure_reference_on_any_pair(self, gap0, dv, log_dmt, tau):
        assert_root_agrees_with_reference(tau, gap0, dv, 10.0**log_dmt)

    def test_approach_that_exactly_uses_up_the_gap(self):
        # gap0 + dv*tau = 0: past the bulk of the decay the dv term varies
        # below its rounding, gap' overstates the computed gap's slope, and
        # Newton crawls, from either side of the root
        rng = np.random.default_rng(2027)
        for _ in range(400):
            tau, gap0, dmt = 10.0 ** rng.uniform(-6.0, 2.0), 10.0 ** rng.uniform(-15.0, 3.0), 10.0 ** rng.uniform(-12.0, 2.0)
            assert_root_agrees_with_reference(float(tau), float(gap0), float(-gap0 / tau), float(dmt))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["gap0", "dv", "dmt"])
    def test_non_finite_data_raises(self, slot, bad):
        # never a NaN, an inf or a hang
        args = {"gap0": 1.0, "dv": -0.5, "dmt": 0.25, slot: bad}
        with pytest.raises(RootBracketFailure):
            _EpDynamics(0.5).pair_root(**args)

    @pytest.mark.parametrize("v_right", [1e308, math.nan])
    def test_non_finite_data_raises_where_the_pair_forms(self, v_right):
        # dv = inf or NaN puts the certified bound past t_end, so the pair is never solved
        m, mt, lo = np.array([0.5, 0.5]), np.array([-0.25, 0.25]), np.arange(2)
        v = np.array([-1e308, v_right])
        live = _Records(np.zeros(2), np.full(2, math.inf), np.array([0.0, 1.0]), v, mt, m, lo, lo + 1)
        with pytest.raises(RootBracketFailure, match="collision gap data not finite"):
            _simulate(live, 0.0, 1.0, _EpDynamics(1.0))


class TestNewtonRootsAgainstBisection:
    """The oracle with Newton roots makes the merges of the oracle with the
    bisection reference, in the same order, at times within 1e-12*(1 + t)."""

    @staticmethod
    def assert_same_merges(instances, t_end, monkeypatch):
        newton = [simulate_ep(data, t_end).events for data in instances]
        with monkeypatch.context() as m:
            m.setattr(_EpDynamics, "pair_root", lambda self, gap0, dv, dmt, start=None: reference_pair_root(self.tau, gap0, dv, dmt))
            bisected = [simulate_ep(data, t_end).events for data in instances]
        for ours, ref in zip(newton, bisected):
            assert [e.merged for e in ours] == [e.merged for e in ref]
            assert all(abs(a.time - b.time) <= 1e-12 * (1.0 + b.time) for a, b in zip(ours, ref))
        return sum(map(len, newton))

    def test_bench_baseline_instance(self, monkeypatch):
        assert self.assert_same_merges([baseline_instance(1000, 0)], 2.0, monkeypatch) > 800

    def test_compare_ensemble(self, monkeypatch):
        instances = [data for data, _, _ in compare_ensemble_cases()]
        assert len(instances) == 200
        assert self.assert_same_merges(instances, 6.0, monkeypatch) > 200


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
        assert dyn.pair_root(gap, dv, dmt) >= dyn.root_bound(gap, dv, dmt)

    def test_scalar_bound_equals_the_array_reference(self):
        rng = np.random.default_rng(45)
        n = 2000
        gap0 = 10.0 ** rng.uniform(-15.0, 3.0, n)
        dv = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-1e3, 1e3, n))
        dmt = 10.0 ** rng.uniform(-12.0, 2.0, n)
        for tau in (1e-3, 0.1, 1.0):
            dyn = _EpDynamics(tau)
            want = root_bounds(dyn, gap0, dv, dmt).tolist()
            assert [dyn.root_bound(*c) for c in zip(gap0.tolist(), dv.tolist(), dmt.tolist())] == want
            assert dyn.root_bound(0.0, -1.0, 1.0) == dyn.root_bound(-1.0, 1.0, 1.0) == -math.inf

    def test_drift_bound_is_the_root(self):
        rng = np.random.default_rng(44)
        gap = rng.uniform(1e-9, 10.0, 200)
        dv = -rng.uniform(1e-6, 3.0, 200)
        drift = _DriftDynamics()
        bounds = [drift.root_bound(g, d, -d) for g, d in zip(gap.tolist(), dv.tolist())]
        roots = [drift.pair_root(g, d, -d) for g, d in zip(gap.tolist(), dv.tolist())]
        assert bounds == roots

    @staticmethod
    def root_work(monkeypatch, run):
        """run() with pair_root counted; returns its result, the calls, and
        the pairs pushed with a bound and pushed solved, in push order."""
        calls, bounded, solved = [0], [], []
        pair_root, heappush = _EpDynamics.pair_root, oracle.heappush

        def counted(self, *args):
            calls[0] += 1
            return pair_root(self, *args)

        def recorded(heap, entry):
            (bounded if entry[-1] else solved).append(entry[1:3])
            heappush(heap, entry)

        with monkeypatch.context() as m:
            m.setattr(_EpDynamics, "pair_root", counted)
            m.setattr(oracle, "heappush", recorded)
            return run(), calls[0], bounded, solved

    def test_one_root_per_neighbour_pair(self, monkeypatch):
        # each pair is pushed once with its bound when it forms (N - 1 + 2*merges
        # at most) and solved at most once, only when its bound reaches the top
        # while both clusters live: 928 roots here against 2,784 pairs formed
        traj, roots, bounded, solved = self.root_work(monkeypatch, lambda: simulate_ep(baseline_instance(1000, 0), 2.0))
        events = len(traj.events)
        assert events > 800
        assert len(bounded) == len(set(bounded)) <= 999 + 2 * events
        assert roots == len(solved) == len(set(solved)) and set(solved) <= set(bounded)
        assert roots <= math.ceil(1.05 * events)

    def test_a_separating_pair_past_t_end_is_never_solved(self, monkeypatch):
        # the bound, 2*sqrt(2) here, lies past t_end: no root is solved and no pair merges
        data = InitialData.from_atoms(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), np.array([-1.0, 1.0]), 0.5)
        traj, roots, bounded, solved = self.root_work(monkeypatch, lambda: simulate_ep(data, 1.0))
        assert traj.events == () and bounded == [(0, 1)]
        assert roots == 0 and solved == []

    def test_a_pair_whose_cluster_merges_first_is_never_solved(self, monkeypatch):
        # atoms 0 and 1 merge near t = 1, long before the bound of the pair (1, 2), about 5.4;
        # the merged cluster 3 then forms its own pair with atom 2, which merges before t_end
        data = InitialData.from_atoms(np.array([0.0, 0.1, 5.0]), np.full(3, 1.0 / 3.0), np.zeros(3), 0.5)
        traj, roots, bounded, solved = self.root_work(monkeypatch, lambda: simulate_ep(data, 40.0))
        assert [e.merged for e in traj.events] == [((0, 1), (1, 2)), ((0, 2), (2, 3))]
        assert traj.events[0].time < 2.0 < 5.0 < traj.events[1].time
        assert bounded == [(0, 1), (1, 2), (3, 2)]
        assert solved == [(0, 1), (3, 2)] and roots == 2


def overlapping_pair(dyn):
    """Two records 1e-12 out of order, born at and resumed from t = 1."""
    m, mt, lo = np.array([0.5, 0.5]), np.array([-0.25, 0.25]), np.arange(2)
    v = -mt if dyn.kind == "drift" else np.zeros(2)
    return _Records(np.ones(2), np.full(2, math.inf), np.array([0.0, -1e-12]), v, mt, m, lo, lo + 1)


@st.composite
def event_instances(draw):
    """Equal masses on a lattice, or atoms with twins 1e-13 away; tau down to 1e-6."""
    tau = 10.0 ** draw(st.one_of(st.floats(-6.0, -4.0), st.floats(-4.0, 0.0)))
    n = draw(st.integers(2, 10))
    speeds = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        # spacing 0.1*tau: the attraction closes it at t ~ 0.1*n, past e^{-700} for tau <= 1e-4
        positions, masses, velocities = 0.1 * tau * np.arange(n), np.full(n, 1.0 / n), 0.5 * speeds
    else:
        base = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
        positions = np.concatenate([base, base + 1e-13])
        masses = np.tile(np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))), 2)
        velocities = np.tile(speeds, 2)
    return InitialData.from_atoms(positions, masses, velocities, tau)


class TestEventTimesNeverGoBack:
    @pytest.mark.parametrize("dyn", [_DriftDynamics(), _EpDynamics(0.5)], ids=["drift", "euler_poisson"])
    def test_a_pair_overlapping_by_rounding_merges_at_t0(self, dyn):
        # the drift root is -2e-12: without the clamp the event falls before t0
        traj = _simulate(overlapping_pair(dyn), 1.0, 2.0, dyn)
        assert [e.time for e in traj.events] == [1.0]

    @settings(max_examples=40, deadline=None)
    @given(data=event_instances())
    def test_event_times_are_sorted_within_the_horizon(self, data):
        traj = simulate_ep(data, 4.0)
        runs = [traj, simulate_drift(data.measure, 4.0)]
        if traj.events:
            runs.append(resume(traj, len(event_states(traj)) // 2))
        for run in runs:
            times = run.event_times
            assert times == sorted(times)
            assert all(run.t0 <= t <= run.t_end for t in times)


# -- the checks against injected defects ---------------------------------------
#
# Each defect goes into one N = 200 run to t = 2, either as corrupted records
# passed to `_simulate` or as one source expression of `_simulate` replaced.
# A global mass and momentum audit after every event raises on each defect
# below before t_end (at the time in its comment), so the local checks at
# each merge and the global audits after event times 1, 2, 4, 8, ... and at
# t_end must raise on each too.


def atom_records(data, drift=False):
    """The records `simulate_ep` (or `simulate_drift`) starts from, as writable arrays."""
    m, lo = data.measure, np.arange(len(data))
    mt = m.atom_mtilde().copy()
    v = -mt if drift else data.velocities.copy()
    return _Records(np.zeros(lo.size), np.full(lo.size, math.inf), m.positions.copy(), v, mt, m.masses.copy(), lo, lo + 1)


def mutant(old, new):
    """`_simulate` with its source text `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(_simulate))
    assert source.count(old) == 1
    namespace = dict(vars(oracle))
    exec(compile(source.replace(old, new), oracle.__file__, "exec"), namespace)
    return namespace["_simulate"]


def wrong_atom_mt(seed, k, delta):
    records = atom_records(baseline_instance(200, seed))
    records.mt[k] += delta
    return _simulate, records


def shifted_mt(seed, delta):
    # every identity mt_r - mt_l = (m_l + m_r)/2 still holds; only sum(m*mt) = 0 fails
    records = atom_records(baseline_instance(200, seed))
    records.mt[:] += delta
    return _simulate, records


def dropped_atom(seed, k, drift=False):
    # the other atoms keep the centred masses computed with atom k
    records = atom_records(baseline_instance(200, seed), drift)
    records = _Records(*(np.delete(c, k) for c in records))
    return _simulate, records._replace(lo=np.arange(199), hi=np.arange(1, 200))


def at_merge(value, seed, merge, delta):
    """The source expression `value` off by delta at one merge."""
    wrong = f"{value} + ({delta!r} if len(events) == {merge} else 0.0)"
    return mutant(value, wrong), atom_records(baseline_instance(200, seed))


MERGED_MT = "r_mt[a] + 0.5 * mb"
MERGED_V = "(ma * va + mb * vb) / w"

# each defect, with the time at which an audit after every event raises on it
DEFECTS = {
    "atom 0 mt +1e-7": lambda: wrong_atom_mt(0, 0, 1e-7),  # 0.074
    "atom 120 mt +1e-8": lambda: wrong_atom_mt(0, 120, 1e-8),  # 0.777
    "atom 0 mt +1e-9, seed 1": lambda: wrong_atom_mt(1, 0, 1e-9),  # 1.292
    "atom 199 mt +1e-6": lambda: wrong_atom_mt(0, 199, 1e-6),  # 0.006
    "every atom mt +1e-8": lambda: shifted_mt(0, 1e-8),  # 0.002
    "merge 10 mt +1e-8, seed 2": lambda: at_merge(MERGED_MT, 2, 10, 1e-8),  # 0.436
    "merge 100 mt +1e-6": lambda: at_merge(MERGED_MT, 0, 100, 1e-6),  # 0.248
    "merge 100 v +1e-8": lambda: at_merge(MERGED_V, 0, 100, 1e-8),  # 0.243
    "merged v the unweighted mean": lambda: (
        mutant(MERGED_V, "0.5 * (va + vb)"),
        atom_records(baseline_instance(200, 0)),
    ),  # 0.001
    "atom 60 dropped": lambda: dropped_atom(0, 60),  # 0.001
    "atom 199 dropped, seed 1": lambda: dropped_atom(1, 199),  # 0.001
}


class TestChecksCatchInjectedDefects:
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_raises_before_t_end(self, defect):
        simulate, records = DEFECTS[defect]()
        with pytest.raises(IdentityViolation):
            simulate(records, 0.0, 2.0, _EpDynamics(0.5))

    def test_a_dropped_atom_in_the_drift_raises(self):
        simulate, records = dropped_atom(1, 60, drift=True)
        with pytest.raises(IdentityViolation):
            simulate(records, 0.0, 2.0, _DriftDynamics())

    def test_a_one_ulp_bias_in_A_stays_below_every_check(self, monkeypatch):
        """No check raises on it, and none should: it moves the run by rounding only.

        A one-ulp bias in A moves each closed-form state x + v*A + mt*B by
        (|v| + tau*|mt|)*tau*EPS plus a changed rounding of the sum: a few
        ulps of its size. A pair's gap then moves by delta ~ c*EPS*(1 + |x|),
        and its root by delta/|gap'(root)|, where gap'(root) = v_b - v_a is
        the closing speed at the collision: an event time moves by up to
        2.7e-14 here, where the closing speed is small, while |dt|*|gap'|
        stays below EPS*(1 + |x|).
        """
        data = baseline_instance(200, 0)
        exact = simulate_ep(data, 2.0)
        em1 = oracle._em1
        monkeypatch.setattr(oracle, "_em1", lambda z: math.nextafter(em1(z), math.inf))
        biased = simulate_ep(data, 2.0)
        assert [e.merged for e in biased.events] == [e.merged for e in exact.events]
        # the bias reaches the run (through `_em1`), by rounding only
        shifts = [abs(a.time - b.time) for a, b in zip(biased.events, exact.events)]
        assert max(shifts) > 0.0
        r, dyn = exact.records, _EpDynamics(data.tau)
        row = {(lo, hi): i for i, (lo, hi) in enumerate(zip(r.lo.tolist(), r.hi.tolist()))}
        for e, shift in zip(exact.events, shifts):
            ids = [row[m] for m in e.merged]
            (xa, va), (xb, vb) = (dyn.advance(r.x[i], r.v[i], r.mt[i], e.time - r.birth[i]) for i in ids)
            assert shift * abs(vb - va) <= 8.0 * EPS * (1.0 + max(abs(xa), abs(xb)))
        for t in (0.5, 1.0, 2.0):
            a, b = biased.state_at(t), exact.state_at(t)
            for new, old in ((a.positions, b.positions), (a.velocities, b.velocities)):
                assert np.max(np.abs(new - old)) <= 4.0 * EPS * (1.0 + np.max(np.abs(old)))

    def test_a_failure_names_the_check_the_event_the_time_and_the_clusters(self):
        data = baseline_instance(200, 0)
        first = simulate_ep(data, 2.0).events[0]
        (lo_a, hi_a), (lo_b, hi_b) = first.merged
        simulate, records = DEFECTS["merged v the unweighted mean"]()
        with pytest.raises(IdentityViolation) as local:
            simulate(records, 0.0, 2.0, _EpDynamics(0.5))
        want = f"local momentum check failed at event 1, t={first.time!r}, merging [{lo_a}, {hi_a}) and [{lo_b}, {hi_b}): "
        assert str(local.value).startswith(want)
        simulate, records = shifted_mt(0, 1e-8)
        with pytest.raises(IdentityViolation) as audit:
            simulate(records, 0.0, 2.0, _EpDynamics(0.5))
        found = re.match(r"global momentum audit failed at event (\d+), t=([^,]+), all (\d+) clusters, atoms \[0, 200\): ", str(audit.value))
        k, t, clusters = int(found[1]), float(found[2]), int(found[3])
        assert k & (k - 1) == 0 and 0.0 < t < 2.0 and clusters < 200


class TestAuditSchedule:
    def test_global_audits_grow_as_the_log_of_the_events(self, monkeypatch):
        calls = [0]
        sums = _EpDynamics.sums

        def counted(self, *args):
            calls[0] += 1
            return sums(self, *args)

        monkeypatch.setattr(_EpDynamics, "sums", counted)
        events = len(simulate_ep(baseline_instance(1000, 0), 2.0).events)
        assert events > 800
        assert calls[0] <= math.ceil(math.log2(events)) + 3
