"""Oracles for the full solve's index-arithmetic internals, on drawn
systems: the Hermitian-coordinate map T against its COO build, the real
system against scipy's product and fancy row index (then sorted), and the
trace-preservation defect against the sum of a CSR row slice.  Each oracle
is the straightforward scipy formula; the internals must give the same
arrays bit for bit (the defect to rounding), since GMRES's sums and so
every output bit follow their order."""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanomech.lindblad import (_hermitian_coordinates, _real_system,
                               build_full_liouvillian)

from test_lindblad import small_systems


def coo_coordinates(excitations):
    """T of _hermitian_coordinates built from COO triplets: the diagonal
    coordinates at 1, Re at 1 and Im at 1j on the upper vec entry, their
    conjugates on the lower one."""
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
    """_real_system from scipy's product and fancy row index, then sorted."""
    d = math.isqrt(rows.size)
    part = (lsuper @ t).tocsr()[rows[1:]]
    data = np.where(np.repeat(imag[1:], np.diff(part.indptr)), part.data.imag,
                    part.data.real) / unit
    a = sp.csr_matrix((np.insert(data, 0, np.full(d, weight)),
                       np.insert(part.indices, 0, np.arange(d)),
                       np.insert(part.indptr + d, 0, 0)), shape=t.shape)
    a.eliminate_zeros()
    a.sort_indices()
    return a


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


@settings(max_examples=40, deadline=None)
@given(arrays(np.int64, st.integers(1, 24), elements=st.integers(0, 6)))
def test_hermitian_coordinates_match_coo_build(excitations):
    t = _hermitian_coordinates(excitations)[0]
    assert_same_csr(t, coo_coordinates(excitations))


@settings(max_examples=25, deadline=None)
@given(small_systems(), st.integers(-3, 3))
def test_real_system_matches_indexed_product(cfg, shift):
    liou = build_full_liouvillian(cfg)
    t, rows, imag, _even, _unsplit = _hermitian_coordinates(liou.excitations)
    big = float(np.abs(liou.superoperator.data).max())
    unit = math.ldexp(1.0, math.frexp(big)[1] - 1 + shift)
    for g in (liou.superoperator, liou.uncoupled):
        if g is None:
            continue
        r = _real_system(g, t, rows, imag, unit, big / unit)
        assert r.has_canonical_format
        assert_same_csr(r, indexed_real_system(g, t, rows, imag, unit,
                                               big / unit))


@settings(max_examples=25, deadline=None)
@given(small_systems(), st.integers(0, 2**32 - 1))
def test_trace_preservation_defect_matches_row_slice_sum(cfg, seed):
    # on L itself (a defect at rounding) and on L plus a random perturbation
    # of its diagonal rows' entries (a defect of order 1)
    liou = build_full_liouvillian(cfg)
    d = liou.excitations.size
    rng = np.random.default_rng(seed)
    for noise in (0.0, 1.0):
        lsuper = liou.superoperator.copy()
        lsuper.data += noise * (rng.standard_normal(lsuper.nnz)
                                + 1j * rng.standard_normal(lsuper.nnz))
        perturbed = type(liou)(liou.dims, lsuper, liou.excitations)
        want = float(np.abs(lsuper[::d + 1].sum(axis=0)).max())
        got = perturbed.trace_preservation_defect()
        scale = np.abs(lsuper[::d + 1].toarray()).sum(axis=0).max()
        assert abs(got - want) <= 1e-15 * max(want, scale)
