import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickygas import measure
from stickygas.errors import TauOutOfRange
from stickygas.measure import AtomicMeasure, InitialData


def atoms_strategy(max_n=12):
    return st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.floats(0.01, 5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=max_n,
        unique_by=lambda a: a[0],
    )


def build(atoms):
    pos, mass = zip(*atoms)
    return AtomicMeasure(pos, mass)


class TestCdf:
    def test_empty_measure(self):
        m = AtomicMeasure([], [])
        assert m.cdf_left(5.0) == 0.0
        assert m.cdf_right(5.0) == 0.0
        assert m.total_mass == 0.0

    def test_two_atom_prefix(self):
        m = AtomicMeasure([-1.0, 1.0], [0.5, 0.5])
        assert m.cdf_left(0.0) == 0.5
        assert m.cdf_left(-1.0) == 0.0  # left limit excludes the atom
        assert m.cdf_right(-1.0) == 0.5  # right limit includes it

    def test_single_atom_right(self):
        m = AtomicMeasure([0.0], [1.0])
        assert m.cdf_right(-3.0) == 0.0
        assert m.cdf_right(0.0) == 1.0

    def test_infinite_limits(self):
        m = AtomicMeasure([-2.0, 0.5, 3.0], [1.0, 2.0, 0.5])
        assert m.cdf_left(1e30) == m.total_mass
        assert m.cdf_left(-1e30) == 0.0


class TestMtilde:
    def test_single_centered_atom(self):
        m = AtomicMeasure([0.0], [1.0])
        assert m.mtilde0(0.0) == 0.0

    def test_two_atom_values(self):
        m = AtomicMeasure([-1.0, 1.0], [0.5, 0.5])
        assert m.mtilde0(-1.0) == pytest.approx(-0.25, abs=0)
        # the one-sided limits at the atom, the average of which is mtilde0
        assert m.cdf_right(-1.0) - 0.5 * m.total_mass == 0.0
        assert m.cdf_left(-1.0) - 0.5 * m.total_mass == -0.5

    def test_atom_mtilde_matches_pointwise(self):
        m = AtomicMeasure([-2.0, 0.0, 1.5], [0.3, 1.1, 0.6])
        per_atom = m.atom_mtilde()
        for i, p in enumerate(m.positions):
            assert per_atom[i] == pytest.approx(m.mtilde0(float(p)), abs=1e-15)

    @given(atoms_strategy())
    @settings(max_examples=60, deadline=None)
    def test_left_not_above_right_and_gap_is_mass(self, atoms):
        m = build(atoms)
        xs = list(m.positions) + [float(x) + 0.37 for x in m.positions] + [-1e3, 1e3]
        for x in xs:
            left, right = m.cdf_left(x), m.cdf_right(x)
            assert left <= right
            i = m.atom_index(x)
            gap = right - left
            if i >= 0:
                assert gap == pytest.approx(m.masses[i], rel=1e-14)
            else:
                assert gap == 0.0

    @given(atoms_strategy())
    @settings(max_examples=60, deadline=None)
    def test_mtilde_monotone_and_bounded(self, atoms):
        m = build(atoms)
        half = 0.5 * m.total_mass
        xs = np.sort(np.concatenate([m.positions, m.positions + 0.25, [-1e4, 1e4]]))
        vals = [m.mtilde0(float(x)) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals[:-1], vals[1:]))
        assert all(-half - 1e-12 <= v <= half + 1e-12 for v in vals)

    @given(atoms_strategy())
    @settings(max_examples=60, deadline=None)
    def test_reflection_antisymmetry(self, atoms):
        m = build(atoms)
        reflected = AtomicMeasure(-m.positions[::-1], m.masses[::-1])
        for x in list(m.positions) + [0.0, 0.123, -2.5]:
            assert reflected.mtilde0(-float(x)) == pytest.approx(
                -m.mtilde0(float(x)), abs=1e-12 * (1 + m.total_mass)
            )


class TestConstruction:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            AtomicMeasure([0.0], [0.0])
        with pytest.raises(ValueError):
            AtomicMeasure([0.0, 1.0], [1.0, -0.5])

    def test_sorts_positions(self):
        m = AtomicMeasure([3.0, -1.0], [1.0, 2.0])
        assert list(m.positions) == [-1.0, 3.0]
        assert list(m.masses) == [2.0, 1.0]

    def test_duplicate_positions_merge_with_warning(self):
        with pytest.warns(UserWarning, match="merged"):
            m = AtomicMeasure([1.0, 1.0, 2.0], [0.5, 0.25, 1.0])
        assert len(m) == 2
        assert m.masses[0] == 0.75

    def test_duplicate_velocity_merge_is_momentum_consistent(self):
        with pytest.warns(UserWarning, match="merged"):
            d = InitialData.from_atoms(
                [1.0, 1.0], [1.0, 3.0], [2.0, -2.0], 1.0
            )
        # (1*2 + 3*(-2)) / 4
        assert d.velocities[0] == pytest.approx(-1.0, abs=0)
        assert d.measure.masses[0] == 4.0

    def test_from_atoms_warns_once_on_duplicates(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            InitialData.from_atoms([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1.0)
        assert [str(w.message) for w in caught] == [
            "duplicate atom positions merged (mass added, velocity mass-averaged)"
        ]
        assert caught[0].filename == __file__

    def test_from_atoms_checks_the_columns_once(self, monkeypatch):
        # the measure takes the checked, sorted and merged columns as they are
        calls = []
        atom_columns = measure._atom_columns

        def counted(*args):
            calls.append(len(args))
            return atom_columns(*args)

        monkeypatch.setattr(measure, "_atom_columns", counted)
        with pytest.warns(UserWarning, match="merged"):
            d = InitialData.from_atoms([2.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.0, 3.0, 0.0], 1.0)
        assert calls == [3]
        assert (d.measure.positions.tolist(), d.measure.masses.tolist()) == ([1.0, 2.0], [3.0, 1.0])
        assert not d.measure.positions.flags.writeable
        AtomicMeasure([1.0, 0.0], [1.0, 1.0])
        assert calls == [3, 2]

    def test_from_atoms_check_order(self):
        cases = [
            (([0.0, 1.0], [1.0], [0.0]), "positions, masses, velocities must have equal length"),
            (([np.nan, 1.0], [-1.0, 1.0], [0.0, 0.0]), "all masses must be strictly positive"),
            (([np.inf, 1.0], [1.0, 1.0], [0.0, 0.0]), "positions and masses must be finite"),
            (([0.0, 1.0], [1.0, np.nan], [0.0, 0.0]), "positions and masses must be finite"),
            (([0.0, 1.0], [1.0, 1.0], [0.0, np.nan]), "velocities must be finite"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                InitialData.from_atoms(*args, 1.0)

    def test_measure_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            AtomicMeasure([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure([0.0, np.inf], [1.0, 1.0])

    def test_prefix_mass_cached(self):
        m = AtomicMeasure([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert list(m.prefix_mass) == [0.0, 1.0, 3.0, 6.0]
        assert m.total_mass == 6.0

    def test_velocity_length_checked(self):
        m = AtomicMeasure([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            InitialData(m, [1.0], 1.0)

    def test_tau_range(self):
        m = AtomicMeasure([0.0], [1.0])
        for bad in (0.0, -1.0, 1.5, 5e-324, math.nan):
            with pytest.raises(TauOutOfRange):
                InitialData(m, [0.0], bad)

    def test_max_speed_cached(self):
        d = InitialData.from_atoms([0.0, 1.0], [1.0, 1.0], [-1.5, 0.5], 0.5)
        assert d.max_speed == 1.5

    def test_velocities_are_copied(self):
        # a view of a writable base, and a caller's own array: writes after
        # construction reach neither the velocities nor U0
        m = AtomicMeasure([0.0, 1.0], [1.0, 1.0])
        base = np.array([1.0, -1.0, 0.0])
        d = InitialData(m, base[:2], 1.0)
        base[0] = 50.0
        assert d.velocities.tolist() == [1.0, -1.0] and d.max_speed == 1.0
        own = np.array([0.5, -2.0])
        InitialData(m, own, 1.0)
        own[1] = 3.0
        assert own.flags.writeable

    def test_with_tau(self):
        d = InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)
        d2 = d.with_tau(0.25)
        assert d2.tau == 0.25
        assert d2.measure is d.measure
