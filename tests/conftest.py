import numpy as np
import pytest
from hypothesis import settings

from stickygas.instances import random_instance, sample_times_avoiding_events
from stickygas.measure import InitialData
from stickygas.oracle import simulate_ep

# every run draws the same hypothesis examples, and no example database
# carries a failing draw from one run into the next
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def single_atom():
    """One unit mass at the origin moving right; the canonical smooth instance."""
    return InitialData.from_atoms([0.0], [1.0], [1.0], 1.0)


@pytest.fixture
def two_atom_symmetric():
    """Equal masses at -1 and 1 at rest: collapse at the origin, exact ties."""
    return InitialData.from_atoms([-1.0, 1.0], [0.5, 0.5], [0.0, 0.0], 1.0)


@pytest.fixture
def two_atom_asymmetric():
    """Unequal masses at rest; the relaxation-study benchmark."""
    return InitialData.from_atoms([-1.0, 1.0], [1.0 / 3.0, 2.0 / 3.0], [0.0, 0.0], 1.0)


def make_random_instance(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    positions = np.sort(rng.uniform(-10.0, 10.0, size=n))
    masses = rng.uniform(0.01, 2.0, size=n)
    velocities = rng.uniform(-2.0, 2.0, size=n)
    tau = float(rng.choice([1.0, 0.5, 0.1]))
    return InitialData.from_atoms(positions, masses, velocities, tau)


def y_star(measure, k):
    """The atom position y* that a minimizer's prefix index k reads: the k-th
    atom's, and the first atom's at k = 0, where the minimum is attained at
    y*. y* is y_star(m, k_min) and its right limit in x is y_star(m, k_max)."""
    return float(measure.positions[max(k, 1) - 1])


def reference_frame(measure, velocities, coeffs):
    """(P, S, Q, X, vel) of one (measure, velocities, coeffs) row by 1-d
    arithmetic of its own, an independent reference for ``FrameStack``'s
    rows: the measure's prefix masses P, the collision-free atom positions
    X = eta + B*mtilde0 (+ A*u when the row has velocities and A != 0),
    the free-flight velocities decay*u - A*mtilde0, and their mass-weighted
    prefix sums S and Q."""
    w = measure.masses
    mt = measure.atom_mtilde()
    X = measure.positions + coeffs.B * mt
    if velocities is not None and coeffs.A != 0.0:
        X = X + coeffs.A * velocities
    if velocities is None:
        velocities = np.zeros_like(w)
    vel = coeffs.decay * velocities - coeffs.A * mt
    S = np.concatenate(([0.0], np.cumsum(w * X)))
    Q = np.concatenate(([0.0], np.cumsum(w * vel)))
    return measure.prefix_mass, S, Q, X, vel


def decreasing(errs):
    """Each error at most 1.05 times the one before, plus 1e-12 so that errors
    at roundoff level compare as equal."""
    return all(b <= 1.05 * a + 1e-12 for a, b in zip(errs[:-1], errs[1:]))


def baseline_instance(n, seed):
    """The ROADMAP baseline: N atoms on [-10, 10], masses U(0.01, 2)/N, tau 0.5."""
    rng = np.random.default_rng(seed)
    return InitialData.from_atoms(
        np.sort(rng.uniform(-10.0, 10.0, n)), rng.uniform(0.01, 2.0, n) / n, rng.uniform(-2.0, 2.0, n), 0.5
    )


def compare_ensemble_cases():
    """The 200 instances of `compare`, with its draws and sample times, as
    (data, t_end, sample times)."""
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        data = random_instance(rng, n_max=20)
        times = sample_times_avoiding_events(
            rng, 5, 0.1, 5.5, simulate_ep(data, 6.0).event_times
        )
        rng.uniform(size=21)
        yield data, 6.0, [0.0, *times, 6.0]


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
