"""Property tests of the full steady-state solver over random Lindbladians,
in Hermitian coordinates against the dense null space: solved directly from
the LU of the generator's real system, by GMRES preconditioned with an
inexact generator, and on generators that conserve the excitation parity,
solved block by block; its uniqueness test on near-singular generators, at
the probe's tolerance and at the steady solve's; and its GMRES cycle
against scipy's on random nonsymmetric systems."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanomech import lindblad
from nanomech.lindblad import (CONDITION_LIMIT, DegenerateSteadyStateError,
                               SolverError, _arnoldi_cycle,
                               steady_state_solve)

from reference_path import real_liouvillian
from conftest import (dense_generator, parity_block_count,
                      product_excitations)

ENTRY = st.floats(-1.0, 1.0)


def complex_matrices(d):
    return st.builds(lambda re, im: re + 1j * im,
                     arrays(float, (d, d), elements=ENTRY),
                     arrays(float, (d, d), elements=ENTRY))


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


def check_against_null_space(d, lsuper, uncoupled=None, dims=None):
    ns = scipy.linalg.null_space(lsuper)
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)

    dims = dims or (d,)
    ss = steady_state_solve(real_liouvillian(
        dims, lsuper, product_excitations(dims), uncoupled))
    rho = ss.rho.matrix
    np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-10)
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert ss.residual <= 1e-12 * np.abs(lsuper).max()


# the decay of a two-level system at a rate of 1e-165: the probe solution
# of 1e165 once overflowed the solver's norms
@example((2, 1e-165 * dense_generator(np.zeros((2, 2)),
                                       [np.array([[0.0, 1.0], [0.0, 0.0]])])))
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


@st.composite
def parity_conserving_lindbladians(draw):
    """A random generator on one or two factors, with or without an inexact
    preconditioning generator as above, that conserves the parity of
    N_i + N_j (N the total excitation number): H connects only states of
    equal parity, and each jump only states of opposite parity, or only
    states of equal parity."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)))
    d = math.prod(dims)
    parity = sum(np.unravel_index(np.arange(d), dims)) % 2
    equal = parity[:, None] == parity[None, :]
    h = draw(complex_matrices(d)) * equal
    jumps = [draw(complex_matrices(d)) * (equal == draw(st.booleans()))
             for _ in range(draw(st.integers(1, 2)))]
    weights = [draw(st.floats(0.25, 2.0)) for _ in jumps]
    uncoupled = dense_generator(h + h.conj().T,
                                [w * c for w, c in zip(weights, jumps)])
    return (dims, dense_generator(h + h.conj().T, jumps),
            uncoupled if draw(st.booleans()) else None)


@settings(max_examples=60, deadline=None)
@given(parity_conserving_lindbladians())
def test_parity_conserving_steady_state_matches_null_space(generators):
    dims, lsuper, uncoupled = generators
    assume(one_dimensional_null_space(lsuper))
    assume(uncoupled is None or one_dimensional_null_space(uncoupled))
    assert parity_block_count(product_excitations(dims), lsuper,
                              uncoupled) == 2
    check_against_null_space(math.prod(dims), lsuper, uncoupled, dims)


def linked_islands(seed, d, k, e_l, e_m):
    """A generator L on d states split into two islands, the first k states
    and the rest, each with its own random H and two random jumps, linked by
    one random jump between them of amplitude 10^-e_l: as the link's rate
    10^-2e_l falls, the null space tends to two dimensions.  The
    preconditioning generator M has the same H, the island jumps rescaled as
    in lindbladians_with_inexact_uncoupled and the link at its own amplitude
    10^-e_m, so M may be far better or far worse conditioned than L.  The
    entries are Gaussian from `seed`."""
    rng = np.random.default_rng(seed)
    within = np.zeros((d, d), dtype=bool)
    within[:k, :k] = within[k:, k:] = True

    def gaussian():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = gaussian() * within
    jumps = [gaussian() * within for _ in range(2)]
    link = gaussian() * ~within
    weights = rng.uniform(0.25, 2.0, size=2)
    lsuper = dense_generator(h + h.conj().T, jumps + [10.0**-e_l * link])
    uncoupled = dense_generator(h + h.conj().T,
                                [w * c for w, c in zip(weights, jumps)]
                                + [10.0**-e_m * link])
    return real_liouvillian((d,), lsuper, np.arange(d), uncoupled)


@st.composite
def weakly_linked_islands(draw):
    """linked_islands with d = 3..5 and e_l, e_m in [0, 9]: the condition
    estimate runs from about 1 to past CONDITION_LIMIT."""
    d = draw(st.integers(3, 5))
    return linked_islands(draw(st.integers(0, 2**32 - 1)), d,
                          draw(st.integers(1, d - 1)),
                          draw(st.floats(0.0, 9.0)), draw(st.floats(0.0, 9.0)))


def uniqueness_verdict(liou):
    """The solve's verdict and its condition estimate: ("unique", estimate),
    ("degenerate", estimate), inf for a singular preconditioner, or
    ("unconverged", None)."""
    try:
        return "unique", steady_state_solve(liou).condition
    except DegenerateSteadyStateError as exc:
        found = re.search(r"condition estimate (\S+) ", str(exc))
        return "degenerate", float(found.group(1)) if found else math.inf
    except SolverError:
        return "unconverged", None


# a tight estimate within this factor of CONDITION_LIMIT is left out: over
# 300 draws the loose estimate was within 0.74-1.19 times the tight one
# wherever the tight one was above 1e6, and off by more than 30% (down to
# 0.094 times) only below 10, where M's link was far weaker than L's
LIMIT_MARGIN = 100.0


# two draws on either side of the margin: tight estimates of 3.6e9 (unique)
# and 2.0e14 (degenerate)
@example(linked_islands(315565471, 4, 1, 4.74, 2.32))
@example(linked_islands(3435058134, 3, 1, 7.2, 4.56))
@settings(max_examples=200, deadline=None)
@given(weakly_linked_islands())
def test_probe_tolerance_keeps_the_refusals(liou):
    # the uniqueness verdict at PROBE_TOL is the one at GMRES_TOL; a tight
    # probe that stalls above GMRES_TOL leaves no estimate to compare with
    loose = uniqueness_verdict(liou)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "PROBE_TOL", lindblad.GMRES_TOL)
        tight = uniqueness_verdict(liou)
    assume(tight[1] is not None and not (CONDITION_LIMIT / LIMIT_MARGIN
                                         < tight[1]
                                         < CONDITION_LIMIT * LIMIT_MARGIN))
    assert loose[0] == tight[0]


def scipy_cycle(a, b, atol, restart):
    """The oracle: one cycle of scipy's GMRES from x = 0, and its steps."""
    steps = []
    x, _info = scipy.sparse.linalg.gmres(
        a, b, rtol=0.0, atol=atol, restart=restart, maxiter=1,
        callback=steps.append, callback_type="pr_norm")
    return x, len(steps)


@st.composite
def nonsymmetric_systems(draw):
    """A random nonsymmetric n x n system, its diagonal shifted by 0 to 2n
    (from indefinite to diagonally dominant), a right-hand side, a restart
    length and a stopping tolerance of 0 or a fraction of |b|.  The entries
    are Gaussian from a drawn seed: drawn entry by entry, they shrink to
    multiples of the identity, whose Krylov space closes to rounding after
    one step, where scipy's single-pass Gram-Schmidt carries on with a
    vector of rounding noise and is no oracle (see the breakdown test)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    a = rng.standard_normal((n, n)) + draw(st.floats(0.0, 2.0)) * n * np.eye(n)
    b = rng.standard_normal(n)
    restart = draw(st.integers(1, n + 2))
    atol = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.1])) * np.linalg.norm(b)
    return a, b, atol, restart


@settings(max_examples=100, deadline=None)
@given(nonsymmetric_systems())
def test_arnoldi_cycle_matches_scipy_gmres(system):
    a, b, atol, restart = system
    dx, steps = _arnoldi_cycle(lambda v: a @ v, b, atol, restart)
    x, oracle_steps = scipy_cycle(a, b, atol, restart)
    assert steps == oracle_steps
    # to 1e-10 of the correction's size: near-singular draws (|x| ~ 1e3 at
    # condition ~ 1e4) leave both cycles rounding errors of 1e-10
    np.testing.assert_allclose(dx, x, rtol=0,
                               atol=1e-10 * max(1.0, np.abs(x).max()))


@pytest.mark.parametrize("a, b, restart, steps, dx, oracle", [
    # b lies in a two-dimensional invariant space: after 2 steps w = 0
    # exactly and the correction is the solution
    (np.diag([1.0, 1, 3, 3, 5, 7]), [1.0, 1, 1, 1, 0, 0], 6, 2,
     [1, 1, 1 / 3, 1 / 3, 0, 0], True),
    # a singular system whose second step adds nothing (a zero rotation):
    # the first step cannot reduce the residual, so the correction is 0
    (np.array([[0.0, 0.0], [1.0, 0.0]]), [1.0, 0.0], 2, 2, [0, 0], True),
    # A b = 3 b: w is rounding noise after one step; scipy goes on with
    # it as a basis vector and returns 0.398 for 1/3
    (3.0 * np.eye(3), [1.0, 1.0, 1.0], 2, 1, [1 / 3] * 3, False),
], ids=["invariant_space", "zero_rotation", "one_step"])
def test_arnoldi_cycle_happy_breakdown(a, b, restart, steps, dx, oracle):
    b = np.array(b)
    got, got_steps = _arnoldi_cycle(lambda v: a @ v, b, 0.0, restart)
    assert got_steps == steps
    np.testing.assert_allclose(got, dx, rtol=0, atol=1e-15)
    if oracle:
        x, oracle_steps = scipy_cycle(a, b, 0.0, restart)
        assert oracle_steps == steps
        np.testing.assert_allclose(got, x, rtol=0, atol=1e-15)
