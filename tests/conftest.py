import multiprocessing

import numpy as np
import pytest

from btdm import solver


@pytest.fixture(scope="session", autouse=True)
def no_process_left_behind():
    """At the end of the session, stop the group pool and require that no
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


def subspace_distance(M, N):
    """Chordal distance between the column spaces of M and N (same shape):
    sqrt(L - ||Q_M^H Q_N||_F^2), with Q_X an orthonormal basis of X."""
    overlap = np.linalg.norm(np.linalg.qr(M)[0].conj().T @ np.linalg.qr(N)[0])
    return float(np.sqrt(max(0.0, M.shape[1] - overlap ** 2)))
