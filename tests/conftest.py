import numpy as np
import pytest

from stickygas.measure import InitialData


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


def decreasing(errs):
    """Each error at most 1.05 times the one before, plus 1e-12 so that errors
    at roundoff level compare as equal."""
    return all(b <= 1.05 * a + 1e-12 for a, b in zip(errs[:-1], errs[1:]))
