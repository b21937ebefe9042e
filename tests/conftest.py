import multiprocessing

import numpy as np
import pytest

from btdm import solver


@pytest.fixture(scope="session", autouse=True)
def no_process_left_behind():
    """At the end of the session, stop the restart pool and require that no
    child process is left running."""
    yield
    solver.shutdown_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def crandn(rng, *shape):
    """Standard complex Gaussian array (unit variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_unitary(rng, n):
    Q, R = np.linalg.qr(crandn(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))
