import numpy as np
import pytest
from hypothesis import settings

from canonfactor import inverse_spectral, sinc_bump_weight, step_weight

# property tests draw the same examples on every run and have no deadline
# (one example solves Toeplitz systems of order up to 512)
settings.register_profile("canonfactor", derandomize=True, deadline=None,
                          max_examples=20)
settings.load_profile("canonfactor")


@pytest.fixture(scope="session")
def bump_mu():
    return sinc_bump_weight(0.5, 1.0)


@pytest.fixture(scope="session")
def bump_ham(bump_mu):
    # cell width 1/16: the isometry check is resolution-limited and needs
    # roughly this to sit comfortably under its tolerance
    return inverse_spectral(bump_mu, 16.0, 256)


@pytest.fixture(scope="session")
def step_mu():
    return step_weight(2.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
