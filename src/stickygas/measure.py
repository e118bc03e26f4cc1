"""Finite atomic measures on the line with exact one-sided CDF queries.

All Stieltjes integrals downstream reduce to prefix sums over the sorted
atom array, so construction caches the prefix-mass table once and every
query is a binary search. Instances are immutable after construction and
safe for unlimited concurrent reads.

The solution at a fixed time is a finite set of point clusters; both the
formula layer and the oracle hand it out as one ``ClusterState``, and
stack the states at many times into blocks of at most ``BLOCK_ELEMENTS``.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TauOutOfRange

__all__ = ["AtomicMeasure", "InitialData", "ClusterState"]

# cap on the (time x cluster) elements of one states_at block
BLOCK_ELEMENTS = 4096


def _finite_points(xs):
    """xs as a float array; a non-finite point raises ValueError.

    The one check of query points, shared by the formula layer and the
    oracle.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {float(xs[~np.isfinite(xs)][0])!r}")
    return xs


def _merge_duplicates(positions, masses, velocities=None):
    """Collapse exact duplicate positions, summing mass.

    Velocity, when present, is merged mass-averaged: the only choice that
    preserves the momentum of the merged atom.
    """
    keep_pos = [positions[0]]
    keep_mass = [masses[0]]
    keep_mom = None if velocities is None else [masses[0] * velocities[0]]
    merged = False
    for i in range(1, len(positions)):
        if positions[i] == keep_pos[-1]:
            merged = True
            keep_mass[-1] += masses[i]
            if keep_mom is not None:
                keep_mom[-1] += masses[i] * velocities[i]
        else:
            keep_pos.append(positions[i])
            keep_mass.append(masses[i])
            if keep_mom is not None:
                keep_mom.append(masses[i] * velocities[i])
    if merged:
        warnings.warn(
            "duplicate atom positions merged (mass added, velocity mass-averaged)",
            stacklevel=4,
        )
    pos = np.array(keep_pos, dtype=float)
    mass = np.array(keep_mass, dtype=float)
    vel = None
    if keep_mom is not None:
        vel = np.array(keep_mom, dtype=float) / mass
    return pos, mass, vel


def _atom_columns(positions, masses, velocities=None):
    """Checked atom columns sorted by position, exact duplicates merged.

    Raises ValueError for columns of unequal length, then for a mass that
    is not strictly positive, then for a non-finite position or mass.
    Velocities are optional; they follow their atoms and stay None when
    not given.
    """
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    if velocities is None:
        if positions.shape != masses.shape or positions.ndim != 1:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
    else:
        velocities = np.atleast_1d(np.asarray(velocities, dtype=float))
        if not (positions.shape == masses.shape == velocities.shape) or positions.ndim != 1:
            raise ValueError("positions, masses, velocities must have equal length")
    if positions.size:
        order = np.argsort(positions, kind="stable")
        positions, masses = positions[order], masses[order]
        if velocities is not None:
            velocities = velocities[order]
        if np.any(masses <= 0.0):
            raise ValueError("all masses must be strictly positive")
        if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(masses)):
            raise ValueError("positions and masses must be finite")
        if np.any(np.diff(positions) == 0.0):
            positions, masses, velocities = _merge_duplicates(positions, masses, velocities)
    return positions, masses, velocities


class AtomicMeasure:
    """Sorted finite atomic measure: atoms (position, mass > 0).

    Positions are strictly increasing; exact duplicates passed to the
    constructor are merged (masses added) with a warning.
    """

    __slots__ = ("positions", "masses", "prefix_mass", "total_mass")

    def __init__(self, positions, masses, _checked=False):
        # _checked: the columns already come from _atom_columns
        if not _checked:
            positions, masses, _ = _atom_columns(positions, masses)
        self.positions = positions
        self.masses = masses
        # prefix_mass[k] = sum of the first k masses, k = 0..N
        self.prefix_mass = np.concatenate(([0.0], np.cumsum(masses)))
        self.total_mass = float(self.prefix_mass[-1])
        for arr in (self.positions, self.masses, self.prefix_mass):
            arr.setflags(write=False)

    def __len__(self):
        return self.positions.size

    def __repr__(self):
        return f"AtomicMeasure(n={len(self)}, total_mass={self.total_mass!r})"

    # -- one-sided CDF queries -------------------------------------------

    def cdf_left(self, x):
        """Mass strictly left of x: nondecreasing, left-continuous."""
        k = np.searchsorted(self.positions, x, side="left")
        return self.prefix_mass[k]

    def cdf_right(self, x):
        """Mass left of or at x: the right-continuous companion."""
        k = np.searchsorted(self.positions, x, side="right")
        return self.prefix_mass[k]

    def mtilde0(self, x):
        """Symmetric centered CDF: (cdf_left + cdf_right - M) / 2."""
        return 0.5 * (self.cdf_left(x) + self.cdf_right(x) - self.total_mass)

    def atom_mtilde(self):
        """mtilde0 evaluated at every atom: prefix + half own mass - M/2."""
        return self.prefix_mass[:-1] + 0.5 * self.masses - 0.5 * self.total_mass

    def atom_index(self, y):
        """Index of the atom at position y, or -1 if y is not an atom."""
        k = int(np.searchsorted(self.positions, y, side="left"))
        if k < len(self) and self.positions[k] == y:
            return k
        return -1


class InitialData:
    """Atomic measure plus a read-only copy of the per-atom velocities, and the relaxation time tau."""

    __slots__ = ("measure", "velocities", "tau", "max_speed")

    def __init__(self, measure: AtomicMeasure, velocities, tau: float):
        velocities = np.array(velocities, dtype=float, ndmin=1)
        if velocities.shape != measure.positions.shape:
            raise ValueError("velocities must match the atom count")
        if velocities.size and not np.all(np.isfinite(velocities)):
            raise ValueError("velocities must be finite")
        # a subnormal tau has lost bits, and u/tau or x/A overflow
        if not sys.float_info.min <= tau <= 1.0:
            raise TauOutOfRange(f"tau must be a normal float in (0, 1], got {tau}")
        self.measure = measure
        self.velocities = velocities
        self.velocities.setflags(write=False)
        self.tau = float(tau)
        self.max_speed = float(np.max(np.abs(velocities))) if velocities.size else 0.0

    @classmethod
    def from_atoms(cls, positions, masses, velocities, tau):
        """Build from raw arrays, merging duplicate positions momentum-consistently."""
        positions, masses, velocities = _atom_columns(positions, masses, velocities)
        return cls(AtomicMeasure(positions, masses, _checked=True), velocities, tau)

    def with_tau(self, tau: float) -> "InitialData":
        """Same atoms and velocities under a different relaxation time."""
        return InitialData(self.measure, self.velocities, tau)

    def __len__(self):
        return len(self.measure)

    def __repr__(self):
        return f"InitialData(n={len(self)}, tau={self.tau!r}, U0={self.max_speed!r})"


@dataclass(frozen=True, slots=True, eq=False)
class ClusterState:
    """All clusters at one time as read-only columns, ordered by position.

    Cluster i holds atoms lo[i]..hi[i]-1 merged at positions[i] with mass
    masses[i] and common velocity velocities[i]. The columns are made
    read-only in place, not copied.
    """

    time: float
    positions: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for column in (self.positions, self.masses, self.velocities, self.lo, self.hi):
            column.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, ClusterState):
            return NotImplemented
        return self.time == other.time and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("positions", "masses", "velocities", "lo", "hi")
        )

    @classmethod
    def from_atoms(cls, time, measure: AtomicMeasure, velocities) -> "ClusterState":
        """Every atom its own cluster, as at t = 0."""
        lo = np.arange(len(measure))
        return cls(time, measure.positions, measure.masses, velocities, lo, lo + 1)

    def momentum(self) -> float:
        return float(sum((self.masses * self.velocities).tolist()))
