import numpy as np
import pytest

import scipy.sparse as sp

from nanomech.fock import (CompositeSpace, DensityMatrix, FockError,
                           FockOperator, FockSpace, annihilation,
                           diagonal_density, fock_state, lift, number,
                           partial_trace)


@pytest.fixture
def mode3():
    return FockSpace(3, "m")


@pytest.fixture
def pair():
    return CompositeSpace((FockSpace(2, "a"), FockSpace(3, "b")))


def test_annihilation_entries(mode3):
    b = annihilation(mode3).to_dense()
    expected = np.array([[0, 1, 0],
                         [0, 0, np.sqrt(2)],
                         [0, 0, 0]], dtype=complex)
    np.testing.assert_allclose(b, expected, atol=0)


def test_creation_is_dagger(mode3):
    expected = np.array([[0, 0, 0],
                         [1, 0, 0],
                         [0, np.sqrt(2), 0]], dtype=complex)
    np.testing.assert_array_equal(annihilation(mode3).dagger().to_dense(),
                                  expected)


def test_number_equals_bdag_b(mode3):
    b = annihilation(mode3)
    np.testing.assert_allclose((b.dagger() @ b).to_dense(),
                               number(mode3).to_dense(), atol=1e-15)


def test_commutator_truncation_artifact():
    # [b, b^dag] = 1 on every level except the top one, where the
    # truncation leaves 1 - dim
    space = FockSpace(6, "m")
    b = annihilation(space)
    comm = (b @ b.dagger() - b.dagger() @ b).to_dense()
    diag = np.real(np.diag(comm))
    np.testing.assert_allclose(diag[:-1], 1.0, atol=1e-14)
    assert diag[-1] == pytest.approx(1.0 - space.dim)


def test_space_validation():
    with pytest.raises(FockError):
        FockSpace(1)
    with pytest.raises(FockError):
        CompositeSpace((FockSpace(2, "x"), FockSpace(3, "x")))
    with pytest.raises(FockError):
        CompositeSpace(())


def test_lift_first_slot_ordering(pair):
    # first factor varies slowest: number on slot 0 of 2x3 is
    # diag(0,0,0,1,1,1)
    n0 = lift(number(pair.factors[0]), pair, 0)
    np.testing.assert_allclose(np.diag(n0.to_dense()).real,
                               [0, 0, 0, 1, 1, 1], atol=0)


def test_lift_second_slot_ordering(pair):
    n1 = lift(number(pair.factors[1]), pair, 1)
    np.testing.assert_allclose(np.diag(n1.to_dense()).real,
                               [0, 1, 2, 0, 1, 2], atol=0)


def test_lifted_operators_on_distinct_slots_commute(pair):
    a = lift(annihilation(pair.factors[0]), pair, 0)
    b = lift(annihilation(pair.factors[1]), pair, 1)
    comm = (a @ b - b @ a).matrix
    assert comm.nnz == 0


def test_lift_distributes_over_products(pair, rng):
    f = pair.factors[1]
    m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op1 = FockOperator(f, sp.csr_matrix(m1))
    op2 = FockOperator(f, sp.csr_matrix(m2))
    left = lift(op1 @ op2, pair, 1)
    right = lift(op1, pair, 1) @ lift(op2, pair, 1)
    np.testing.assert_allclose(left.to_dense(), right.to_dense(), atol=1e-12)


@pytest.mark.parametrize("slot", range(4))
def test_lift_matches_kron_per_factor(slot, rng):
    # reference: one Kronecker product per factor, identities elsewhere
    space = CompositeSpace(tuple(FockSpace(d, f"f{i}")
                                 for i, d in enumerate((4, 2, 3, 2))))
    d = space.dims[slot]
    op = FockOperator(space.factors[slot], sp.csr_matrix(
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
    ref = sp.identity(1, dtype=complex, format="csr")
    for i, f in enumerate(space.factors):
        blk = op.matrix if i == slot else sp.identity(f.dim, dtype=complex)
        ref = sp.kron(ref, blk, format="csr")
    m = lift(op, space, slot).matrix
    np.testing.assert_array_equal(m.indptr, ref.indptr)
    np.testing.assert_array_equal(m.indices, ref.indices)
    np.testing.assert_array_equal(m.data, ref.data)


def test_lift_errors(pair):
    with pytest.raises(FockError):
        lift(number(FockSpace(4, "z")), pair, 0)     # dim mismatch
    with pytest.raises(FockError):
        lift(number(pair.factors[0]), pair, 2)       # slot out of range


def test_partial_trace_recovers_product_factors(pair):
    rho_a = DensityMatrix(pair.factors[0], np.array([[0.25, 0.1j],
                                                     [-0.1j, 0.75]]))
    p_b = np.array([0.5, 0.3, 0.2])
    rho_b = diagonal_density(pair.factors[1], p_b)
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


def test_fock_state_composite(pair):
    rho = fock_state(pair, (1, 2))
    # index 1*3 + 2 = 5 in the lexicographic basis
    assert rho.matrix[5, 5] == 1.0
    assert rho.trace() == pytest.approx(1.0)
    with pytest.raises(FockError):
        fock_state(pair, (0, 3))
    with pytest.raises(FockError):
        fock_state(pair, (0,))


def test_operator_algebra_space_mismatch(mode3):
    b = annihilation(mode3)
    c = annihilation(FockSpace(4, "z"))
    with pytest.raises(FockError):
        b @ c
    with pytest.raises(FockError):
        b + c


def test_scalar_multiplication(mode3):
    b = annihilation(mode3)
    np.testing.assert_allclose((2.5 * b).to_dense(), 2.5 * b.to_dense())
    np.testing.assert_allclose((-b).to_dense(), -b.to_dense())
