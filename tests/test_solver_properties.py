"""Property tests of the full steady-state solver over random Lindbladians:
preconditioned GMRES in Hermitian coordinates against the dense null
space, with the generator as its own preconditioner and with an inexact
one."""

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


def dense_generator(h, jumps):
    """Dense column-stacked generator of a Hermitian H and jump operators,
    written out with Kronecker products."""
    d = h.shape[0]
    eye = np.eye(d)
    lsuper = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in jumps:
        cdc = c.conj().T @ c
        lsuper += (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                   - 0.5 * np.kron(cdc.T, eye))
    return lsuper


@st.composite
def hamiltonians_and_jumps(draw):
    """A random Hermitian H and one or two random jump operators."""
    d = draw(st.integers(2, 5))
    h = draw(complex_matrices(d))
    jumps = draw(st.lists(complex_matrices(d), min_size=1, max_size=2))
    return d, h + h.conj().T, jumps


@st.composite
def lindbladians(draw):
    d, h, jumps = draw(hamiltonians_and_jumps())
    return d, dense_generator(h, jumps)


@st.composite
def lindbladians_with_inexact_uncoupled(draw):
    """A random generator L and a preconditioning generator M with the same
    H, whose jump operators are L's rescaled: the first one kept, any other
    one possibly dropped (the jumps are random, so which one is kept does
    not matter)."""
    d, h, jumps = draw(hamiltonians_and_jumps())
    weights = [draw(st.floats(0.25, 2.0))] + draw(st.lists(
        st.just(0.0) | st.floats(0.25, 2.0),
        min_size=len(jumps) - 1, max_size=len(jumps) - 1))
    return d, dense_generator(h, jumps), dense_generator(
        h, [w * c for w, c in zip(weights, jumps)])


def one_dimensional_null_space(lsuper):
    # the oracle itself is accurate to about eps / (gap in the singular
    # values), so keep generators whose null space is clearly one-dimensional
    sv = scipy.linalg.svdvals(lsuper)
    return sv[-2] > 1e-5 * sv[0]


def check_against_null_space(d, lsuper, uncoupled=None):
    ns = scipy.linalg.null_space(lsuper)
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)

    space = CompositeSpace((FockSpace(d, "mech"),))
    ss = steady_state_solve(Liouvillian(
        space, sp.csr_matrix(lsuper),
        None if uncoupled is None else sp.csr_matrix(uncoupled)))
    rho = ss.rho.matrix
    np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-10)
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert ss.residual <= 1e-12 * np.abs(lsuper).max()


@settings(max_examples=60, deadline=None)
@given(lindbladians())
def test_steady_state_matches_null_space(generator):
    d, lsuper = generator
    assume(one_dimensional_null_space(lsuper))
    check_against_null_space(d, lsuper)


@settings(max_examples=60, deadline=None)
@given(lindbladians_with_inexact_uncoupled())
def test_steady_state_with_inexact_uncoupled_generator(generators):
    d, lsuper, uncoupled = generators
    assume(one_dimensional_null_space(lsuper))
    # the preconditioner must itself have a unique steady state
    assume(one_dimensional_null_space(uncoupled))
    check_against_null_space(d, lsuper, uncoupled)
