import numpy as np
import pytest


@pytest.fixture()
def ill_conditioned_design():
    """A 40x8 design whose observed fit selects a near-collinear pair.

    Columns 0 and 1 differ by 1e-6 of a direction the response loads on, so
    both are selected and, with one estimated factor, their projected gram
    has condition number about 4e12. The other columns share a strong
    common direction, which that factor takes.
    """
    n, p = 40, 8
    E, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, p + 1)))
    E *= np.sqrt(n)
    X = np.empty((n, p))
    X[:, 0] = E[:, 0]
    X[:, 1] = E[:, 0] + 1e-6 * E[:, 1]
    X[:, 2:] = 3.0 * E[:, [2]] + E[:, 3:]
    return X, E[:, 0] + E[:, 1]
