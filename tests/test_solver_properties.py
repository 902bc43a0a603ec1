"""Property test of the full steady-state solver over random Lindbladians:
sparse LU in Hermitian coordinates against the dense null space."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanomech.fock import CompositeSpace, FockSpace
from nanomech.lindblad import Liouvillian, steady_state_solve

ENTRY = st.floats(-1.0, 1.0)


def complex_matrices(d):
    return st.builds(lambda re, im: re + 1j * im,
                     arrays(float, (d, d), elements=ENTRY),
                     arrays(float, (d, d), elements=ENTRY))


@st.composite
def lindbladians(draw):
    """Dense column-stacked generator of a random Hermitian H and one or two
    random jump operators, written out with Kronecker products."""
    d = draw(st.integers(2, 5))
    h = draw(complex_matrices(d))
    h = h + h.conj().T
    eye = np.eye(d)
    lsuper = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in draw(st.lists(complex_matrices(d), min_size=1, max_size=2)):
        cdc = c.conj().T @ c
        lsuper += (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                   - 0.5 * np.kron(cdc.T, eye))
    return d, lsuper


@settings(max_examples=60, deadline=None)
@given(lindbladians())
def test_steady_state_matches_null_space(generator):
    d, lsuper = generator
    # the oracle itself is accurate to about eps / (gap in the singular
    # values), so keep generators whose null space is clearly one-dimensional
    sv = scipy.linalg.svdvals(lsuper)
    assume(sv[-2] > 1e-5 * sv[0])
    ns = scipy.linalg.null_space(lsuper)
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)

    space = CompositeSpace((FockSpace(d, "mech"),))
    ss = steady_state_solve(Liouvillian(space, sp.csr_matrix(lsuper)))
    rho = ss.rho.matrix
    np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-10)
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert ss.residual <= 1e-12 * np.abs(lsuper).max()
