import numpy as np
import pytest

from nanomech.fock import (CompositeSpace, DensityMatrix, FockError,
                           FockSpace, partial_trace)


@pytest.fixture
def pair():
    return CompositeSpace((FockSpace(2, "a"), FockSpace(3, "b")))


def test_space_validation():
    with pytest.raises(FockError):
        FockSpace(1)
    with pytest.raises(FockError):
        CompositeSpace((FockSpace(2, "x"), FockSpace(3, "x")))
    with pytest.raises(FockError):
        CompositeSpace(())


def test_partial_trace_recovers_product_factors(pair):
    rho_a = DensityMatrix(pair.factors[0], np.array([[0.25, 0.1j],
                                                     [-0.1j, 0.75]]))
    p_b = np.array([0.5, 0.3, 0.2])
    rho_b = DensityMatrix(pair.factors[1], np.diag(p_b))
    joint = DensityMatrix(pair, np.kron(rho_a.matrix, rho_b.matrix))
    np.testing.assert_allclose(partial_trace(joint, 0).matrix,
                               rho_a.matrix, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, 1).matrix,
                               rho_b.matrix, atol=1e-14)


def test_partial_trace_maximally_mixed(pair):
    d = pair.total_dim
    joint = DensityMatrix(pair, np.eye(d, dtype=complex) / d)
    np.testing.assert_allclose(partial_trace(joint, 1).matrix,
                               np.eye(3) / 3.0, atol=1e-14)


def test_partial_trace_three_factors(rng):
    spaces = [FockSpace(2, "a"), FockSpace(3, "b"), FockSpace(2, "c")]
    parts = []
    for s in spaces:
        m = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        m = m @ m.conj().T
        parts.append(DensityMatrix(s, m / np.trace(m)))
    joint = DensityMatrix(CompositeSpace(tuple(spaces)), np.kron(
        np.kron(parts[0].matrix, parts[1].matrix), parts[2].matrix))
    for k in range(3):
        np.testing.assert_allclose(partial_trace(joint, k).matrix,
                                   parts[k].matrix, atol=1e-13)
