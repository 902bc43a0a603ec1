"""The complex generators L and M of the full model and the real systems R
and R_M taken from them by the Hermitian-coordinate map T: the path that
forms L T over all d^2 rows and keeps Re or Im of the rows R needs.  It is
the bit-for-bit oracle of build_full_liouvillian, which writes R and R_M
straight from the model (conftest.kron_generators stays the physics
oracle), and it turns complex generators drawn by the tests into the
Liouvillian that steady_state_solve takes (real_liouvillian).

The complex generators are written by index arithmetic from the occupation
table, each entry once (_generator): column-stacked,
vec(A X B) = (B^T kron A) vec(X), as QuTiP's spre/spost."""

import numpy as np
import scipy.sparse as sp

from nanomech.lindblad import (Liouvillian, _hamiltonian_parts,
                               _hermitian_coordinates, _lowering, _transpose,
                               chain_rates, transition_rates)

ASSEMBLY_BLOCK = 1 << 16    # slot-table entries per block of rows (_assemble)


def _product(v, rows=slice(None)):
    """The given rows of a slot value v of _assemble: an array broadcasting
    to m x d, or a pair (column, row) of an m x 1 and a 1 x d array, whose
    outer product it is."""
    if isinstance(v, tuple):
        column, row = v
        return column[rows] * row
    return v[rows] if len(v) > 1 else v


def _assemble(slots, m: int, d: int) -> sp.csr_matrix:
    """The (m d) x (m d) CSR matrix whose row p = i + j d holds at column
    p + s the sum of v[j, i] over the slots (s, v) of offset s (v as in
    _product).  Blocks of rows are summed into a table of one column per
    offset, counted, then written backwards from the block still in the
    table, so each CSR array is written once, sorted; adding 0.0 makes -0.0
    parts +0.0."""
    merged = {}
    for s, v in slots:
        merged.setdefault(s, []).append(v)
    offsets, parts = zip(*sorted(merged.items()))
    offsets = np.array(offsets, dtype=np.int32)
    rows = max(1, ASSEMBLY_BLOCK // (d * len(parts)))
    table = np.empty((min(rows, m), d, len(parts)), dtype=complex)
    def fill(j):            # rows j d to (j + rows) d, in the table
        block = table[:min(rows, m - j)]
        for k, vs in enumerate(parts):
            block[..., k] = sum(_product(v, slice(j, j + rows)) for v in vs)
        return block.reshape(-1, len(parts))
    indptr = np.zeros(m * d + 1, dtype=np.int32)
    for j in range(0, m, rows):
        block = fill(j)
        indptr[j * d + 1:][:len(block)] = np.count_nonzero(block, 1)
    np.cumsum(indptr, out=indptr)
    data, indices = np.empty(indptr[-1], complex), np.empty(indptr[-1], np.int32)
    for j in reversed(range(0, m, rows)):
        block = fill(j) if j + rows < m else block
        at = np.flatnonzero(block != 0)
        start, stop = j * d, j * d + len(block)
        span = slice(indptr[start], indptr[stop])
        block.take(at, out=data[span], mode="clip")
        (np.arange(start, stop, dtype=np.int32)[:, None] + offsets).take(
            at, out=indices[span], mode="clip")
    data += 0.0
    return sp.csr_matrix((data, indices, indptr), shape=(m * d, m * d))


def _generator(energy, coupling, jumps) -> sp.csr_matrix:
    """The generator -i[H, .] + sum_c (c . c^dag - {c^dag c, .}/2) of
    H = diag(energy) + the coupling steps, with real jump operators, each a
    list of steps carrying the square root of its rate: column-stacked,
    I kron K + conj(K) kron I + sum_c c kron c, K = -iH - sum_c c^dag c / 2,
    each c^dag c diagonal (no row of c holds two steps).  Row p = i + j d
    holds K[i, i'] at column i' + j d, conj(K[j, j']) at i + j' d and
    c[j, j'] c[i, i'] at i' + j' d: slots at fixed offsets (_assemble), one
    per coupling step, per conjugate coupling step and per pair of steps of
    a jump.  They meet in K[i, i] + conj(K[j, j]); apart from that, slots
    share an offset only across lasers or cavity decays, and then fill
    different entries."""
    d = energy.size
    k = -1j * energy
    for jump in jumps:
        for _s, w in _transpose(jump):
            k = k - 0.5 * w ** 2
    slots = [(0, k + k.conj()[:, None])]
    slots += [(s_i + s_j * d, (w_j[:, None], w_i[None, :]))
              for jump in jumps for s_i, w_i in jump for s_j, w_j in jump]
    for s, w in coupling:
        slots += [(s, -1j * w[None, :]), (s * d, (-1j * w).conj()[:, None])]
    return _assemble(slots, d, d)


def complex_generators(config):
    """The complex column-stacked generators L and M of
    build_full_liouvillian (M None with no drive): the same jumps, written
    by _generator."""
    table, encoded, energy, coupling, b, cavities = _hamiltonian_parts(config)

    def scaled(op, rate):
        return [(s, np.sqrt(rate) * w) for s, w in op]

    cavity_jumps = [scaled(a, config.kappa) for a in cavities]
    mech_jumps = [scaled(b, config.gamma_m * (config.n_bar + 1.0)),
                  _transpose(scaled(b, config.gamma_m * config.n_bar))]
    lsuper = _generator(energy, coupling, cavity_jumps + mech_jumps)
    if not config.lasers:
        return lsuper, None
    up, down = chain_rates(transition_rates(config), config.gamma_m,
                           config.n_bar)
    n = np.arange(1, config.mech_dim)
    chain_jumps = [_lowering(table, encoded, 0, np.sqrt(n * down)),
                   _transpose(_lowering(table, encoded, 0, np.sqrt(n * up)))]
    return lsuper, _generator(energy, [], cavity_jumps + chain_jumps)


def hermitian_map(excitations):
    """The sparse map T from the Hermitian coordinates of
    _hermitian_coordinates to the column-stacked vec, and for each
    coordinate its entry's vec index.  T is written row by row: an
    off-diagonal vec entry holds Re then Im, at 1 and 1j above the diagonal
    and their conjugates below."""
    d = excitations.size
    i, j, imag, _even, _unsplit = _hermitian_coordinates(excitations)
    k, off, value = np.arange(d * d), i != j, np.where(imag, 1j, 1.0)
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(2 - (np.arange(d * d) % (d + 1) == 0), out=indptr[1:])
    at = np.concatenate([indptr[i + j * d] + imag,
                         (indptr[j + i * d] + imag)[off]])
    indices, data = np.empty(at.size, np.int32), np.empty(at.size, complex)
    indices[at] = np.concatenate([k, k[off]])
    data[at] = np.concatenate([value, value[off].conj()])
    return sp.csr_matrix((data, indices, indptr), shape=(d * d, d * d)), i + j * d


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """The positions in a CSR matrix's data and indices of the entries of
    `rows`, row after row, and the indptr of those rows stacked."""
    starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    stacked = np.append(0, np.cumsum(counts)).astype(indptr.dtype)
    at = np.arange(stacked[-1]) + np.repeat(starts - stacked[:-1], counts)
    return at, stacked


def real_system(lsuper, excitations, weight: float, unit: float = 1.0,
                size=None):
    """The real system of a Lindbladian L on the first `size` Hermitian
    coordinates (all if None): row k is Re of row rows[k] of L T / unit, or
    Im where coordinate k is an Im part, over T's first `size` columns, but
    row 0 is the trace row: `weight` on the diagonal coordinates.  Its
    indices are sorted."""
    t, rows = hermitian_map(excitations)
    imag = _hermitian_coordinates(excitations)[2]
    t, rows, imag = t[:, :size], rows[:size], imag[:size]
    d, n = excitations.size, rows.size
    part = sp.csr_matrix(lsuper) @ t
    at, indptr = _row_entries(part.indptr, rows[1:])
    data = np.where(np.repeat(imag[1:], np.diff(indptr)), part.data.imag[at],
                    part.data.real[at]) / unit
    a = sp.csr_matrix((np.insert(data, 0, np.full(d, weight)),
                       np.insert(part.indices[at], 0, np.arange(d)),
                       np.insert(indptr + d, 0, 0)), shape=(n, n))
    a.eliminate_zeros()
    a.sort_indices()
    return a


def real_liouvillian(dims, lsuper, excitations, uncoupled=None, size=None,
                     weight=None) -> Liouvillian:
    """The Liouvillian steady_state_solve takes for complex generators L and
    M (M = L when None), dense or sparse: R and R_M in L's units on the
    first `size` Hermitian coordinates (all if None), each with the trace
    row at `weight` (max|L_ij| if None)."""
    if weight is None:
        weight = float(np.abs(sp.csr_matrix(lsuper).data).max(initial=0.0))
    i, j, imag, even, unsplit = _hermitian_coordinates(excitations)
    coords = (i[:size], j[:size], imag[:size], min(even, i[:size].size),
              unsplit[:size])
    return Liouvillian(dims, real_system(lsuper, excitations, weight,
                                         size=size),
                       excitations, coords,
                       None if uncoupled is None
                       else real_system(uncoupled, excitations, weight,
                                        size=size))


def reference_liouvillian(config, size=None, weight=None) -> Liouvillian:
    """build_full_liouvillian's Liouvillian by way of the complex L and M,
    on the first `size` Hermitian coordinates (all if None; the even block
    where the build writes that alone) with the trace row at `weight`
    (max|L_ij| if None; the build's is the largest over the rows it
    writes)."""
    excitations = _hamiltonian_parts(config)[0].sum(axis=1)
    lsuper, uncoupled = complex_generators(config)
    return real_liouvillian(config.dims(), lsuper, excitations, uncoupled,
                            size, weight)


def trace_weight(liou) -> float:
    """The weight of liou's trace row: its largest entry."""
    return float(liou.superoperator[0].max())


def assert_same_csr(got, want):
    """The two CSR matrices have the same shape and arrays, bit for bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
