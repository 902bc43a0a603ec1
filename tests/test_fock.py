import numpy as np
import pytest

from nanomech.fock import DensityMatrix, partial_trace


PAIR = (2, 3)


def test_space_validation():
    with pytest.raises(ValueError, match="expected"):
        DensityMatrix((2, 3), np.eye(5))
    with pytest.raises(ValueError, match="expected"):
        DensityMatrix((2,), np.ones((2, 3)))
    joint = DensityMatrix(PAIR, np.eye(6) / 6)
    for keep in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(joint, keep)


def test_partial_trace_recovers_product_factors():
    rho_a = DensityMatrix((2,), np.array([[0.25, 0.1j], [-0.1j, 0.75]]))
    p_b = np.array([0.5, 0.3, 0.2])
    rho_b = DensityMatrix((3,), np.diag(p_b))
    joint = DensityMatrix(PAIR, np.kron(rho_a.matrix, rho_b.matrix))
    np.testing.assert_allclose(partial_trace(joint, 0).matrix,
                               rho_a.matrix, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, 1).matrix,
                               rho_b.matrix, atol=1e-14)
    assert partial_trace(joint, 1).dims == (3,)


def test_partial_trace_maximally_mixed():
    joint = DensityMatrix(PAIR, np.eye(6, dtype=complex) / 6)
    np.testing.assert_allclose(partial_trace(joint, 1).matrix,
                               np.eye(3) / 3.0, atol=1e-14)


def test_partial_trace_three_factors(rng):
    dims = (2, 3, 2)
    parts = []
    for k in dims:
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        m = m @ m.conj().T
        parts.append(DensityMatrix((k,), m / np.trace(m)))
    joint = DensityMatrix(dims, np.kron(
        np.kron(parts[0].matrix, parts[1].matrix), parts[2].matrix))
    for k in range(3):
        np.testing.assert_allclose(partial_trace(joint, k).matrix,
                                   parts[k].matrix, atol=1e-13)
