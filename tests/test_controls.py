"""Negative controls: wrong solutions that the validators must tell apart.

The paper's uniqueness theorem picks the entropy solution out of the weak
solutions by the Oleinik condition and the initial weak continuity of the
kinetic energy. Each control below is a closed-form candidate written here
from the equations of motion, sharing no code with either layer, and each
must fail exactly the verdict the theorem predicts and pass the others.

Between events every atom moves by x'' = -x'/tau - mt, where mt is the mass
to its left plus half its own minus half the total.
"""

import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np
import pytest

from stickygas.measure import InitialData
from stickygas.validate import (
    ROUNDOFF_FLOOR,
    _mean_decay_factor,
    check_initial_continuity,
    check_oleinik_states,
    check_weak_form,
)

State = namedtuple("State", "time positions masses velocities")


def advance(x, v, mt, d, tau):
    """Position and velocity after a time d under x'' = -x'/tau - mt."""
    a = -tau * np.expm1(-d / tau)  # tau (1 - e^{-d/tau})
    return x + v * a + mt * (tau * a - tau * d), v * np.exp(-d / tau) - mt * a


def centred_masses(w):
    return np.cumsum(w) - 0.5 * w - 0.5 * w.sum()


def first_root(gap):
    """The first d > 0 with gap(d) <= 0, for a gap that is positive just
    after 0 and changes sign once."""
    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    return hi


class PiecewiseSolution:
    """Atoms in position order, restarted at each piece's start time.

    ``pieces`` holds (start, x, v, w); the starts after the first are the
    events, where the quadrature is cut.
    """

    def __init__(self, layer, tau, pieces):
        self.layer, self.tau, self.pieces = layer, tau, pieces
        self.starts = [p[0] for p in pieces]
        self.event_times = self.starts[1:]

    def _rows(self, k, ts):
        start, x, v, w = self.pieces[k]
        d = np.asarray(ts)[:, None] - start
        return advance(x, v, centred_masses(w), d, self.tau)

    def _piece(self, t):
        if not t >= 0.0:
            raise ValueError(f"control defined for t >= 0 only, got {t}")
        return bisect_right(self.starts, t) - 1

    def state_at(self, t):
        k = self._piece(t)
        x, v = self._rows(k, [t])
        return State(t, x[0], self.pieces[k][3], v[0])

    def states_at(self, ts):
        ts = np.asarray(ts, dtype=float)
        idx = np.array([self._piece(t) for t in ts])
        for k in np.unique(idx):
            times = ts[idx == k]
            yield (times, *self._rows(k, times), self.pieces[k][3])


def free_crossing(data, t_end):
    """The 1-d sheet model: atoms pass through each other instead of
    sticking, each under the force of the mass currently to its left."""
    tau = data.tau
    pieces = [(0.0, data.measure.positions, data.velocities, data.measure.masses)]
    while True:
        start, x, v, w = pieces[-1]
        mt = centred_masses(w)

        def gap(d, i):
            (xl, xr), _ = advance(x[i : i + 2], v[i : i + 2], mt[i : i + 2], d, tau)
            return xr - xl

        roots = [first_root(lambda d: gap(d, i)) for i in range(x.size - 1)]
        i = int(np.argmin(roots))
        if start + roots[i] > t_end:
            return PiecewiseSolution("free_crossing", tau, pieces)
        x, v = advance(x, v, mt, roots[i], tau)
        order = np.arange(x.size)
        order[[i, i + 1]] = i + 1, i
        x[[i, i + 1]] = 0.5 * (x[i] + x[i + 1])  # they meet: one position
        pieces.append((start + roots[i], x[order], v[order], w[order]))


def spontaneous_split(mass, c, tau):
    """One resting atom at 0 that leaves as two halves at -c and +c, which
    stick again when they meet."""
    halves = (0.0, np.zeros(2), np.array([-c, c]), np.full(2, 0.5 * mass))
    mt = centred_masses(halves[3])

    def gap(d):
        (xl, xr), _ = advance(halves[1], halves[2], mt, d, tau)
        return xr - xl

    t_merge = first_root(gap)
    (xl, xr), (vl, vr) = advance(halves[1], halves[2], mt, t_merge, tau)
    merged = (t_merge, np.array([0.5 * (xl + xr)]), np.array([0.5 * (vl + vr)]), np.array([mass]))
    return PiecewiseSolution("split", tau, [halves, merged])


def assert_second_order(rep):
    """The residuals of a weak solution: both series decay at order two.

    The report's own verdict asks for a mean factor of at least 4 per
    doubling, the asymptotic factor itself. The momentum factors of both
    controls approach 4 from below (means 3.94 and 3.9993 over seven
    levels), so that verdict reads False on them although they are weak
    solutions.
    """
    for series in rep.series.values():
        assert _mean_decay_factor(series, floor=ROUNDOFF_FLOOR) >= 3.9
    momentum = rep.series["momentum"]
    assert momentum[-2] / momentum[-1] == pytest.approx(4.0, rel=0.01)


# two equal atoms at rest 2 apart: they cross at t_c, the root of
# t - (1 - e^{-t}) = 4 (tau = 1, so the gap is 2 - (t - A(t))/2)
CROSSING_DATA = InitialData.from_atoms([-1.0, 1.0], [0.5, 0.5], [0.0, 0.0], 1.0)
WINDOW = (4.0, 6.0)


class TestFreeCrossing:
    control = free_crossing(CROSSING_DATA, WINDOW[1] * 1.01)
    t_c = control.event_times[0]

    def test_first_crossing_inside_the_window(self):
        assert WINDOW[0] < self.t_c < WINDOW[1]
        assert self.t_c - (1.0 - math.exp(-self.t_c)) == pytest.approx(4.0, abs=1e-12)
        s = self.control.state_at(self.t_c + 0.01)
        assert s.velocities[0] < s.velocities[1]  # passed through, now apart

    def test_weak_form_residuals_decay_at_order_two(self):
        rep = check_weak_form(CROSSING_DATA, self.control, WINDOW, refinement_levels=7, n_base=32)
        assert rep.name == "weak_form_free_crossing"
        assert_second_order(rep)

    def test_oleinik_fails_just_after_the_first_crossing(self):
        before = [1.0, 3.0, 0.99 * self.t_c]
        assert check_oleinik_states(CROSSING_DATA, self.control, before).passed
        deltas = [1e-3, 1e-2]
        rep = check_oleinik_states(CROSSING_DATA, self.control, [self.t_c + d for d in deltas])
        assert rep.name == "oleinik_free_crossing"
        assert not rep.passed
        # the atoms part at their relative speed: slope about 1/(t - t_c)
        for d, excess in zip(deltas, rep.series["excess_over_bound"]):
            assert excess == pytest.approx(1.0 / d, rel=0.05)

    def test_initial_continuity_passes(self):
        rep = check_initial_continuity(CROSSING_DATA, self.control)
        assert rep.passed, rep.series


SPLIT_MASS, SPLIT_SPEED = 1.0, 1.0
SPLIT_DATA = InitialData.from_atoms([0.0], [SPLIT_MASS], [0.0], 1.0)


class TestSpontaneousSplit:
    control = spontaneous_split(SPLIT_MASS, SPLIT_SPEED, SPLIT_DATA.tau)
    t_merge = control.event_times[0]

    def test_halves_merge_inside_the_window(self):
        assert WINDOW[0] < self.t_merge < WINDOW[1]
        assert self.control.state_at(WINDOW[1]).masses.size == 1

    def test_weak_form_residuals_decay_at_order_two(self):
        rep = check_weak_form(SPLIT_DATA, self.control, WINDOW, refinement_levels=7, n_base=32)
        assert_second_order(rep)

    def test_oleinik_holds_until_the_halves_merge(self):
        ts = [1e-3, 0.1, 1.0, 3.0, 0.999 * self.t_merge]
        rep = check_oleinik_states(SPLIT_DATA, self.control, ts)
        assert rep.name == "oleinik_split"
        assert rep.passed, rep.series
        assert all(-math.inf < e <= 0.0 for e in rep.series["excess_over_bound"])

    def test_initial_continuity_fails_on_E_alone(self):
        rep = check_initial_continuity(SPLIT_DATA, self.control)
        assert rep.name == "initial_continuity_split"
        assert not rep.passed
        # m and q do not move at the far-field points; E = sum w u^2 jumps
        # at the right one from E0 = 0 to m c^2 as t -> 0
        assert set(rep.series["m"]) == {0.0}
        assert set(rep.series["q"]) == {0.0}
        assert rep.series["E"][-1] == pytest.approx(SPLIT_MASS * SPLIT_SPEED**2, rel=1e-5)
        assert all(a < b for a, b in zip(rep.series["E"][:-1], rep.series["E"][1:]))
