"""Oracles for the full solve's index-arithmetic internals, on drawn
systems: the reference path's Hermitian-coordinate map T against its COO
build; the real systems R and R_M that build_full_liouvillian writes
straight from the model against the reference path (the complex L and M
through T, tests/reference_path.py) and against scipy's product and
fancy row index (then sorted); and the trace defect that the build judges
against the sum of a CSR row slice.  Each oracle is the straightforward
scipy formula; the internals must give the same arrays bit for bit (the
defect to rounding), since GMRES's sums and so every output bit follow
their order."""

import contextlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanomech import lindblad
from nanomech.lindblad import (LaserParams, SystemConfig, _hamiltonian_parts,
                               _hermitian_coordinates, _real_generator,
                               _transpose,
                               _unique_by_structure, build_full_liouvillian)

from reference_path import (_generator, assert_same_csr, complex_generators,
                            hermitian_map, reference_liouvillian,
                            trace_weight)
from conftest import with_uncoupled
from test_lindblad import small_systems


def coo_coordinates(excitations):
    """T of hermitian_map built from COO triplets: the diagonal coordinates
    at 1, Re at 1 and Im at 1j on the upper vec entry, their conjugates on
    the lower one."""
    d = excitations.size
    parity = excitations % 2
    i, j = (np.concatenate([np.arange(d), k, k]) for k in np.triu_indices(d, 1))
    unsplit = np.argsort(parity[i] != parity[j], kind="stable")
    i, j, imag = i[unsplit], j[unsplit], unsplit >= d * (d + 1) // 2
    k, off, value = np.arange(d * d), i != j, np.where(imag, 1j, 1.0)
    return sp.csr_matrix((np.concatenate([value, value[off].conj()]),
                          (np.concatenate([i + j * d, (j + i * d)[off]]),
                           np.concatenate([k, k[off]]))), shape=(d * d, d * d))


def indexed_real_system(lsuper, t, rows, imag, unit, weight):
    """The real system from scipy's product and fancy row index, then
    sorted, on the coordinates that T's columns, rows and imag hold: row k
    is Re, or Im where imag[k], of row rows[k] of L T / unit, but row 0 is
    the trace row, `weight` on the diagonal coordinates."""
    d, n = math.isqrt(t.shape[0]), rows.size
    part = (lsuper @ t).tocsr()[rows[1:]]
    data = np.where(np.repeat(imag[1:], np.diff(part.indptr)), part.data.imag,
                    part.data.real) / unit
    a = sp.csr_matrix((np.insert(data, 0, np.full(d, weight)),
                       np.insert(part.indices, 0, np.arange(d)),
                       np.insert(part.indptr + d, 0, 0)), shape=(n, n))
    a.eliminate_zeros()
    a.sort_indices()
    return a


@contextlib.contextmanager
def real_blocks(rows, blocks):
    """build_full_liouvillian writing R in blocks of at least `rows` pairs,
    `blocks` per parity block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "REAL_BLOCK_ROWS", rows)
        patch.setattr(lindblad, "REAL_BLOCKS", blocks)
        yield


BLOCKINGS = st.sampled_from([(lindblad.REAL_BLOCK_ROWS, lindblad.REAL_BLOCKS),
                             (1, 10**9), (5, 10**9), (10**9, 1)])


@settings(max_examples=40, deadline=None)
@given(arrays(np.int64, st.integers(1, 24), elements=st.integers(0, 6)))
def test_hermitian_coordinates_match_coo_build(excitations):
    t = hermitian_map(excitations)[0]
    assert_same_csr(t, coo_coordinates(excitations))


@settings(max_examples=25, deadline=None)
@given(small_systems(), st.integers(-3, 3))
def test_real_system_matches_indexed_product(cfg, shift):
    # R in L's units with the trace row at max|L_ij| over its rows, and R
    # divided by a power of two near it as the solve divides it: exact, the
    # system of L T / unit on the coordinates built with the trace row at
    # that weight / unit; R_M as the build writes it or, where the build
    # solves directly, as _uncoupled_system does
    liou = with_uncoupled(cfg)
    lsuper, uncoupled = complex_generators(cfg)
    n = liou.dim
    t, rows = hermitian_map(liou.excitations)
    t, rows = t[:, :n], rows[:n]
    imag = _hermitian_coordinates(liou.excitations)[2][:n]
    big = trace_weight(liou)
    unit = math.ldexp(1.0, math.frexp(big)[1] - 1 + shift)
    for r, g in ((liou.superoperator, lsuper), (liou.uncoupled, uncoupled)):
        if g is None:
            assert r is None
            continue
        assert r.has_canonical_format
        assert_same_csr(r, indexed_real_system(g, t, rows, imag, 1.0, big))
        assert_same_csr(
            sp.csr_matrix((r.data / unit, r.indices, r.indptr), r.shape),
            indexed_real_system(g, t, rows, imag, unit, big / unit))


@st.composite
def drawn_systems(draw):
    """Systems of mech 3-12 and 0-3 cavities with at most 1-2 photons in
    all, couplings of any phase and of |g| up to 3 kappa, with and without
    mechanical damping and thermal occupation."""
    kappa = 5.0e4
    magnitude = st.floats(0.0, 3.0 * kappa)
    lasers = tuple(
        LaserParams(g=draw(magnitude) * np.exp(1j * draw(st.floats(-4, 4))),
                    detuning=draw(st.floats(-6.0e6, 6.0e6)))
        for _ in range(draw(st.integers(0, 3))))
    return SystemConfig(
        mech_dim=draw(st.integers(3, 12)),
        cavity_photons=draw(st.integers(1, 2)),
        omega_m_prime=5.0e6, lam=draw(st.floats(0.0, 4.0e5)),
        gamma_m=draw(st.sampled_from([0.0, 5.0, 3.0e3])),
        n_bar=draw(st.sampled_from([0.0, 0.3, 20.0])), kappa=kappa,
        lasers=lasers)


@settings(max_examples=60, deadline=None)
@given(drawn_systems(), BLOCKINGS)
def test_real_systems_match_the_reference_path_bit_for_bit(cfg, blocking):
    # R and R_M written straight from the model (R_M by _uncoupled_system
    # where the build solves directly) are those of the complex L and M
    # through T, in every blocking of their rows: the even block alone,
    # with the build's trace-row weight, where the model's structure proves
    # the steady state unique, both blocks elsewhere; and the sizes that
    # the benchmark's traced spans read off them are R's
    with real_blocks(*blocking):
        liou = with_uncoupled(cfg)
    d = math.prod(cfg.dims())
    even = _hermitian_coordinates(liou.excitations)[3]
    n = even if _unique_by_structure(cfg) else d * d
    ref = reference_liouvillian(cfg, n, trace_weight(liou))
    assert liou.dims == ref.dims == cfg.dims()
    assert_same_csr(liou.superoperator, ref.superoperator)
    if ref.uncoupled is None:
        assert liou.uncoupled is None
    else:
        assert_same_csr(liou.uncoupled, ref.uncoupled)
    assert liou.dim == n == ref.superoperator.shape[0]
    assert liou.superoperator.nnz == ref.superoperator.nnz
    assert abs(liou.superoperator).max() == abs(ref.superoperator).max()
    # the trace row holds max|L_ij| over the rows of the coordinates built,
    # the scale of the solve
    rows = hermitian_map(liou.excitations)[1][:n]
    big = np.abs(complex_generators(cfg)[0][rows].data).max()
    row = liou.superoperator[[0]]
    np.testing.assert_array_equal(row.indices, np.arange(d))
    assert (row.data == big).all()


@settings(max_examples=25, deadline=None)
@given(small_systems(), st.integers(0, 2**32 - 1), BLOCKINGS)
def test_trace_preservation_defect_matches_row_slice_sum(cfg, seed, blocking):
    # on L itself (a defect at rounding) and on L with random imaginary
    # parts of order kappa added to its energies, a non-Hermitian H (a
    # defect of order 1): the largest column sum of R's diagonal rows, (0,0)
    # row included, against scipy's sum of those rows of Re L T
    table, _encoded, energy, coupling, b, cavities = _hamiltonian_parts(cfg)
    excitations = table.sum(axis=1)
    d = excitations.size
    coords = _hermitian_coordinates(excitations)
    jumps = [[(s, np.sqrt(cfg.kappa) * w) for s, w in a] for a in cavities]
    jumps += [[(s, np.sqrt(cfg.gamma_m * (cfg.n_bar + 1.0)) * w) for s, w in b],
              _transpose([(s, np.sqrt(cfg.gamma_m * cfg.n_bar) * w)
                          for s, w in b])]
    rng = np.random.default_rng(seed)
    t, rows = hermitian_map(excitations)
    for noise in (0.0, 1.0):
        drawn = energy + 1j * noise * cfg.kappa * rng.standard_normal(d)
        with real_blocks(*blocking):
            got = _real_generator(drawn, coupling, jumps, coords)[2]
        diagonal = (_generator(drawn, coupling, jumps) @ t).tocsr()[rows[:d]]
        want = float(np.abs(diagonal.real.sum(axis=0)).max())
        scale = np.abs(diagonal.real).sum(axis=0).max()
        assert abs(got - want) <= 1e-15 * max(want, scale)
