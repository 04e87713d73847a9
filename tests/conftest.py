import time

import pytest

from earc.model import train
from earc.systems import HamiltonianConfig, builtin_rep, hamiltonian_generate


@pytest.fixture(scope="session")
def ham_series():
    return hamiltonian_generate(HamiltonianConfig(steps=600))


@pytest.fixture(scope="session")
def k4_model(ham_series):
    """The Hamiltonian paper model (L=5, p=3) and its training time.

    Its coefficient fit is no longer the suite's largest computation (a
    train takes about 0.2 s); the model is trained once because several
    test modules use it.
    """
    start = time.perf_counter()
    m = train(ham_series[:90], builtin_rep("k4"), 5, 3)
    return m, time.perf_counter() - start
