"""Lindblad generators for the driven nonlinear optomechanical system:
the full multi-mode master equation and the reduced Fock-resolved
birth-death model, with their steady-state solvers.

The full steady state is solved in the real coordinates of Hermitian
matrices.  The model conserves the parity of N_i + N_j (N the total
excitation number) of each rho_ij, and the steady state lies in the even
block.  Where the model's structure proves the steady state unique (see
below), only the even block is built and solved, its probe judging its own
conditioning; elsewhere both blocks are built, and the uniqueness probe is
solved in each block apart.  Where no block holds more than DIRECT_BLOCK
unknowns, and on every undriven system, each block is solved directly from
its sparse LU (SuperLU: Demmel et al., SIAM J. Matrix Anal. Appl. 20, 720
(1999)).  A larger driven block is solved by restarted
GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 856 (1986)),
preconditioned with an exact sparse LU of the uncoupled generator M (see
_uncoupled_system), so that the reduced model preconditions its own oracle
(iterative steady states as in Nation, arXiv:1504.06768).  Each restart
cycle is an Arnoldi cycle of this module, so a GMRES step costs one
matrix-vector product, one triangular solve pair and four BLAS-2 products.

The basis is the mechanics times one block of cavity states: the photon
configurations (c_1..c_k) with sum_j c_j <= N (cavity_photons), QuTiP's
excitation-number-restricted states (enr_fock, enr_destroy; Johansson,
Nation and Nori, Comput. Phys. Commun. 184, 1234 (2013)).  No complex
superoperator is formed: each generator is written by index arithmetic from
the occupation table straight into the real system the solve takes, in the
real coordinates of Hermitian matrices (_real_generator).

The structural uniqueness certificate (_unique_by_structure): L has one
steady state when b is a jump (gamma_m (n_bar + 1) > 0) and, with lasers,
so is every a_j (kappa > 0).  Proof:
- b and the a_j commute and lower any vector, so every nonzero subspace
  invariant under them holds a nonzero vector they all annihilate, and
  only the vacuum is one;
- the support of a stationary state is invariant under every jump
  (Baumgartner and Narnhofer, J. Phys. A 41, 395303 (2008); Schirmer and
  Wang, PRA 81, 062306 (2010)), so it holds the vacuum;
- the positive and negative parts of a Hermitian X in the null space of L
  are stationary, of orthogonal supports, so one of them is 0.
The null space is closed under the adjoint, so it is spanned by Hermitian
elements, each a multiple of a state, and the difference of two states is
none: it is spanned by one state, which lies in the even block, and the
odd block is nonsingular without being built.

scipy is imported only inside the functions of the full model, so the
reduced model and every command that uses only it run without loading it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .device import transition_frequency
from .fock import DensityMatrix, partial_trace

if TYPE_CHECKING:
    import scipy.sparse as sp

TRACE_PRESERVATION_TOL = 1e-10
# nonzeros of L and M together (_estimate_nnz, a bound over both parity
# blocks, which only a system with gamma_m = 0 or kappa = 0 builds: every
# device config is certified and writes its even block alone, about half):
# a steady state of both blocks peaks at about 92 B per nonzero (fig2 mech
# 32 and 64 with at most 2 photons), so this holds a solve near 3.7 GB; R
# and R_M hold under twice as many, far below 2**31, so their CSR indices
# fit int32
DEFAULT_NNZ_CAP = 40_000_000
# a trace-rowed system whose 1-norm condition estimate exceeds this has a
# null space that is numerically not one-dimensional
CONDITION_LIMIT = 1e12
# GMRES stops at this backward error of the preconditioned system (see
# _gmres); each solve gets at most GMRES_MAX_CYCLES restart cycles of
# GMRES_RESTART iterations
GMRES_TOL = 1e-14
# the probe solves of the uniqueness test stop at this backward error: on a
# near-singular R it stays above about 1/sqrt(n) until GMRES resolves the
# small singular direction (see steady_state_solve)
PROBE_TOL = 1e-6
GMRES_RESTART = 100
EPS = np.finfo(float).eps   # an Arnoldi step below it is exact
GMRES_MAX_CYCLES = 20
# a driven system whose even block holds at most this many unknowns is
# solved directly from the LU of R, not by GMRES preconditioned by the LU
# of R_M: with the even block alone built, a build and solve of fig2 (median
# of 2 x 40 in-process random-order pairs) takes 0.83-0.86 of GMRES's time
# directly at mech 6, 288 unknowns (72 of 80 pairs won), and ties at mech 7,
# 394 unknowns (1.00-1.02, 36 of 80 won); at mech 8, 512, it takes 1.26.
# The bound sits nearer the win than the tie
DIRECT_BLOCK = 320
# seed of the random right-hand side of the uniqueness probe
PROBE_SEED = 0


class SolverError(RuntimeError):
    """Steady-state failure."""


class DegenerateSteadyStateError(SolverError):
    """The generator has a (numerically) non-unique null space."""


class TruncationError(SolverError):
    """Population tail does not decay within the available levels."""


@dataclass(frozen=True)
class LaserParams:
    """Per-laser quantities the generators need."""

    g: complex                  # enhanced coupling, rad/s
    detuning: float             # rad/s


@dataclass(frozen=True)
class SystemConfig:
    """Mode structure and physical rates for generator construction."""

    mech_dim: int
    cavity_photons: int         # N: photons in all cavities together
    omega_m_prime: float
    lam: float
    gamma_m: float
    n_bar: float
    kappa: float
    lasers: tuple[LaserParams, ...]

    def __post_init__(self):
        if self.mech_dim < 3:
            raise ValueError(f"mech truncation must be >= 3, got {self.mech_dim}")
        if self.cavity_photons < 1:
            raise ValueError(
                f"cavity photon number must be >= 1, got {self.cavity_photons}")
        for name in ("gamma_m", "n_bar", "kappa"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)}")

    @classmethod
    def from_derived(cls, derived, mech_dim: int,
                     cavity_photons: int) -> "SystemConfig":
        lasers = tuple(LaserParams(g=l.g, detuning=l.detuning)
                       for l in derived.lasers)
        return cls(mech_dim=mech_dim, cavity_photons=cavity_photons,
                   omega_m_prime=derived.omega_m_prime, lam=derived.lam,
                   gamma_m=derived.gamma_m, n_bar=derived.n_bar,
                   kappa=derived.kappa, lasers=lasers)

    def dims(self) -> tuple[int, ...]:
        """The factor dimensions: the mechanics, then (with lasers) the
        cavity block, one cavity mode per laser (see _occupations)."""
        k = len(self.lasers)
        cavities = (math.comb(self.cavity_photons + k, k),) if k else ()
        return (self.mech_dim, *cavities)


@dataclass(frozen=True)
class Liouvillian:
    """The full generator L and the uncoupled generator M as the real n x n
    systems R and R_M that steady_state_solve solves, in L's units: R's row
    k is Re or Im of L(rho)_ij for Hermitian rho, coordinate k's entry, but
    row 0 is the trace row, max|L_ij| over R's rows on the diagonal (see
    _real_generator).

    Where the model's jumps prove L's steady state unique
    (_unique_by_structure; proof in the module docstring), R and R_M hold
    the even block alone (n = the even coordinates); elsewhere both blocks
    (n = d^2)."""

    dims: tuple[int, ...]
    superoperator: sp.csr_matrix = field(repr=False)
    # the total excitation number of each basis state, whose parity splits
    # the steady-state solve
    excitations: np.ndarray = field(repr=False)
    # the coordinates of R's rows and columns: _hermitian_coordinates of
    # the excitation numbers, or their first `even` (the even block)
    coordinates: tuple = field(repr=False)
    # R_M, whose LU preconditions GMRES (see build_full_liouvillian); None
    # means M = L, and the blocks of R are solved directly from their LU
    uncoupled: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.superoperator.shape[0]


@dataclass(frozen=True)
class SteadyState:
    populations: np.ndarray     # of the mechanics
    residual: float
    method: str
    iterations: int = 0         # GMRES iterations, steady and probe solves
    probe_iterations: int = 0   # of them in the probe solves
    condition: float | None = None  # 1-norm condition estimate (full solve)
    lu_nnz: int | None = None   # nonzeros of the blocks' LUs (full solve)
    rho: DensityMatrix | None = None  # the full state (full solve)
    # what showed the steady state unique (full solve): "structure"
    # (_unique_by_structure) or "probe" (the probe of every block solved)
    uniqueness: str | None = None


@dataclass(frozen=True)
class RateTable:
    """Cavity-induced transition rates A+-^n for n = 1..n_max, summed over
    the lasers."""

    a_plus: np.ndarray          # shape (n_max,)
    a_minus: np.ndarray
    delta: np.ndarray           # shape (n_max,)

    @property
    def n_max(self) -> int:
        return self.a_plus.shape[0]


# ---------------------------------------------------------------------------
# generator construction

# R's rows are written in REAL_BLOCKS blocks of >= REAL_BLOCK_ROWS rho_ij each
REAL_BLOCKS, REAL_BLOCK_ROWS = 32, 1024


def _occupations(config: SystemConfig) -> np.ndarray:
    """The occupation table: row i holds the phonon number and the photon
    numbers c_1..c_k of basis state i.  The cavity states are the
    configurations with sum_j c_j <= cavity_photons in lexicographic order
    (first cavity slowest), and the mechanics is the slowest mode, so the
    rows are sorted."""
    k, top = len(config.lasers), config.cavity_photons
    photons = [c for c in itertools.product(range(top + 1), repeat=k)
               if sum(c) <= top]
    photons = np.array(photons, dtype=int).reshape(len(photons), k)
    return np.column_stack((np.repeat(np.arange(config.mech_dim), len(photons)),
                            np.tile(photons, (config.mech_dim, 1))))


def _encode(table: np.ndarray):
    """One int code per row of the sorted occupation table `table`, in the
    rows' order, and each mode's stride: the state raised by one quantum on
    mode s has code + strides[s] (the codes leave room for it)."""
    dims = tuple(table.max(axis=0) + 2)
    return (np.ravel_multi_index(table.T, dims),
            np.ravel_multi_index(np.eye(len(dims), dtype=int), dims))


def _lowering(table: np.ndarray, encoded, slot: int, weights):
    """sum_n weights[n-1] |..n-1..><..n..| on mode `slot` of the basis whose
    states are the rows of the sorted occupation table `table` (`encoded`
    by _encode), the identity on the other modes and 0 where the raised
    state is not in the basis, as a list of steps (s, w), one per offset s:
    entries [i, i + s] = w[i], 0 on rows with none; weights sqrt(n) give
    the annihilation operator.  The mechanics has one step; a cavity has one
    per distance from a cavity state to its raised state (QuTiP's
    enr_destroy).  Every model operator is diagonal, steps on one mode, or
    the product of a mechanical and a cavity step, whose row weights
    multiply (neither changes the other's occupation)."""
    codes, strides = encoded
    raised = codes + strides[slot]
    target = np.searchsorted(codes, raised)
    found = codes.take(target, mode="clip") == raised
    w = np.where(found, np.append(weights, 0.0)[table[:, slot]], 0.0)
    offsets = target - np.arange(len(table))
    return [(int(s), np.where(offsets == s, w, 0.0))
            for s in np.unique(offsets[found])]


def _transpose(op):
    """The transpose of a real operator given as steps: each weight array
    rolled by its offset (np.roll by slicing; it wraps only zero weights)."""
    return [(-s, np.concatenate((w[-s:], w[:-s]))) for s, w in op]


def _hamiltonian_parts(config: SystemConfig):
    """The full Hamiltonian on the occupation table: the table and its
    codes (_encode), H's diagonal (the anharmonic mechanics
    w_m' n + (lam/2) n (n - 1), detuned cavities), the steps of the
    displaced linear coupling, and the operators b and a_j as steps."""
    table = _occupations(config)
    encoded = _encode(table)
    n = table[:, 0]
    energy = config.omega_m_prime * n + 0.5 * config.lam * n * (n - 1)
    for j, laser in enumerate(config.lasers):
        energy = energy + (-laser.detuning) * table[:, 1 + j]
    b = _lowering(table, encoded, 0, np.sqrt(np.arange(1, config.mech_dim)))
    photons = np.sqrt(np.arange(1, config.cavity_photons + 1))
    cavities = [_lowering(table, encoded, 1 + j, photons)
                for j in range(len(config.lasers))]
    # (g*/2 a_j + g/2 a_j^dag)(b + b^dag): four steps per step of a_j
    position = b + _transpose(b)
    coupling = [(s_a + s_b, (coef * w_a) * w_b)
                for a, laser in zip(cavities, config.lasers, strict=True)
                for op, coef in ((a, np.conj(laser.g) / 2.0),
                                 (_transpose(a), laser.g / 2.0))
                for s_a, w_a in op
                for s_b, w_b in position]
    return table, encoded, energy, coupling, b, cavities


def build_full_hamiltonian(config: SystemConfig) -> sp.csr_matrix:
    """Multi-mode Hamiltonian (in units of hbar): detuned cavities, the
    anharmonic mechanical mode, and the displaced linear coupling."""
    import scipy.sparse as sp
    _table, _encoded, energy, coupling, _b, _cavities = _hamiltonian_parts(
        config)
    d = energy.size
    h = sum((sp.diags(w[max(0, -s):d - max(0, s)], s, (d, d))
             for s, w in coupling), sp.diags(energy + 0j)).tocsr()
    herm_defect = abs(h - h.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, abs(h).max()):
        raise SolverError(f"Hamiltonian not Hermitian, defect {herm_defect:.3e}")
    return h


def _hermitian_coordinates(excitations: np.ndarray):
    """Real coordinates of Hermitian matrices on the basis states whose total
    excitation numbers N are `excitations`: the diagonal entries, then Re
    and Im of the strict-upper entries (np.triu_indices order), stably
    sorted by the parity of N_i + N_j of their entry rho_ij, even first.
    Returns each coordinate's entry (i, j), i <= j, and whether it is an
    Im part; the number of even coordinates; and each one's index before
    the sort."""
    d = excitations.size
    parity = excitations % 2
    i, j = (np.concatenate([np.arange(d), k, k]).astype(np.int32)
            for k in np.triu_indices(d, 1))
    odd = parity[i] != parity[j]
    unsplit = np.argsort(odd, kind="stable")
    return (i[unsplit], j[unsplit], unsplit >= d * (d + 1) // 2,
            i.size - int(odd.sum()), unsplit)


def _real_generator(energy, coupling, jumps, coords, weight=None):
    """R (see Liouvillian), with `weight` (max|L_ij| if None) in the trace
    row, max|L_ij| and the trace defect, the largest column sum of the
    diagonal rows, (0,0) included, of L = -i[H, .] + sum_c (c . c^dag -
    {c^dag c, .}/2): H = diag(energy) + the coupling steps, real jumps.

    With K = -iH - sum_c c^dag c / 2, L(rho)_ij holds K[i, i] + conj(K[j, j])
    at rho_ij, K[i, i'] at rho_i'j and conj(K[j, j']) at rho_ij' per
    coupling step, and c[i, i'] c[j, j'] at rho_i'j' per pair of steps of a
    jump: slots (da, db, x, y) of value v = x[i] y[j] at rho_ab,
    (a, b) = (i + da, j + db), one per entry of L (two cavities never lead
    from one state to the same state).  With rho_ab = p + i s q, p and q the
    coordinates of rho_ab or rho_ba and s = sign(b - a), v rho_ab adds
    v.real p - s v.imag q to the Re row, v.imag p + s v.real q to the Im
    row; rho_ab and rho_ba add up as in L T, T the map from the coordinates
    to vec(rho), and a sum of two terms does not depend on their order: R
    has the bits of L T's rows.  Blocks of rows are written by _real_rows,
    the slots in (da, db) order, so rows off the diagonal come sorted."""
    import scipy.sparse as sp
    i, j, imag, even, _unsplit = coords
    n, d = i.size, energy.size
    # place[a, b] and place[b, a], a <= b: the coordinates of Re and Im rho_ab,
    # -1 where rho_ab is not among the coordinates (see _real_rows)
    place = np.full((d, d), -1, dtype=np.int32)
    place[np.where(imag, j, i), np.where(imag, i, j)] = np.arange(n)
    k = -1j * energy
    for jump in jumps:
        for _s, w in _transpose(jump):
            k = k - 0.5 * w ** 2
    one = np.ones(d)
    slots = [(0, 0, one, one)]    # K's slot, on every rho_ij
    slots += [(s_i, s_j, w_i, w_j)
              for jump in jumps for s_i, w_i in jump for s_j, w_j in jump]
    for s, w in coupling:
        slots += [(s, 0, -1j * w, one), (0, s, one, (-1j * w).conj())]
    order = sorted(range(len(slots)), key=lambda t: slots[t][:2])
    da, db, x, y = zip(*map(slots.__getitem__, order))
    x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
    model = (k, order.index(0), np.array(da, dtype=np.int32),
             np.array(db, dtype=np.int32), x, y, x != 0, y != 0, place)
    kept = np.flatnonzero(~imag)    # the coordinates of each rho_ij itself
    step = max(REAL_BLOCK_ROWS, -(-kept.size // REAL_BLOCKS))
    scale, sums, pieces = 0.0, np.zeros(n), ([], [], [], [])
    for first in range(0, kept.size, step):
        at = kept[first:first + step]
        parts, big = _real_rows(model, i[at], j[at], np.searchsorted(at, even))
        scale = max(scale, big)
        if first < d:   # the diagonal rows, which lead the Re rows
            cut = parts[0][0][:d - first].sum()
            sums += np.bincount(parts[0][1][:cut], parts[0][2][:cut], n)
        for to, part in zip(pieces, parts):
            to.append(part)
    pieces = [part for kind in pieces for part in kind]
    head = pieces[0][0][0]  # the (0,0) row's entries: the trace row's place
    pieces[0] = tuple(a[c:] for a, c in zip(pieces[0], (1, head, head)))
    counts, indices, data = map(list, zip(
        ([d], np.arange(d, dtype=np.int32),
         np.full(d, scale if weight is None else weight)), *pieces))
    del pieces      # each list's arrays are freed as they are joined
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))],
                            dtype=np.int32)
    indices = np.concatenate(indices)
    data = np.concatenate(data)
    return (sp.csr_matrix((data, indices, indptr), shape=(n, n)), scale,
            float(np.abs(sums).max()))


def _real_rows(model, ci, cj, even):
    """R's rows for rho_ij, (i, j) = (ci, cj), the first `even` of them in
    the even block: its Re (or diagonal) rows and Im rows, then the odd
    block's, each as row lengths, indices and values (no Im rows for the
    diagonal rho_ii, which lead); and the largest |L_ij| they hold.  A row
    that reaches an entry of rho outside the coordinates (one of the odd
    block where only the even one is built: a model that breaks the parity)
    raises SolverError."""
    import scipy.sparse as sp
    k, k_slot, da, db, x, y, on_x, on_y, place = model
    m = ci.size
    s, on = np.nonzero(on_x[:, ci] & on_y[:, cj])
    si, sj = ci[on], cj[on]
    v = x[s, si] * y[s, sj]
    run = np.searchsorted(s, k_slot)
    v[run:run + m] = k[ci] + k.conj()[cj]
    a, b = si + da[s], sj + db[s]
    lo, hi, sign = np.minimum(a, b), np.maximum(a, b), np.sign(b - a)
    # the terms at p, then at q, of the Re rows, then the Im rows; scipy
    # sorts the rows and sums their duplicates
    row, col = (np.empty((2, 2, on.size), np.int32) for _ in "rc")
    row[:, 0], row[:, 1] = on, on + m
    col[0], col[1] = place[lo, hi], place[hi, lo]
    if col.min(initial=0) < 0:
        raise SolverError("a generator row reaches an entry of rho outside "
                          "the coordinates built: the model breaks the parity")
    val = np.empty((2, 2, on.size))
    val[0, 0], val[0, 1], val[1, 0], val[1, 1] = (
        v.real, v.imag, -sign * v.imag, sign * v.real)
    block = sp.csr_matrix((val.ravel(), (row.ravel(), col.ravel())),
                          shape=(2 * m, place.size))
    block.eliminate_zeros()
    p, pieces, diagonal = block.indptr, [], np.count_nonzero(ci == cj)
    for lo, hi in ((0, even), (m + diagonal, m + even), (even, m),
                   (m + even, 2 * m)):
        at = slice(p[lo], p[hi])    # copied: the triplets' size is freed
        pieces.append((np.diff(p[lo:hi + 1]), block.indices[at].copy(),
                       block.data[at].copy()))
    return pieces, float(np.abs(v).max(initial=0.0))


def sig3(n: int) -> str:
    """An int to 3 significant digits, as f"{n:.3g}" writes a float, for
    any size of int: the float conversion overflows past 1.8e308, and
    str() refuses more than 4,300 digits."""
    from decimal import Decimal
    return f"{Decimal(n):.3g}"


def _estimate_nnz(config: SystemConfig) -> int:
    """Nonzeros of L and M together at most, over both parity blocks (a
    certified build, as of every device config, writes the even block
    alone, about half): two diagonals; 2 d entries per off-diagonal entry
    of H, 4 (mech - 1) A per laser with A the cavity states that hold a
    photon of that laser's cavity; nnz(c)^2 per jump, mech A for each
    cavity decay (in L and M), (mech - 1) B for the two thermal and the two
    chain jumps, with B the cavity states."""
    k, top, mech = len(config.lasers), config.cavity_photons, config.mech_dim
    block, lit = math.comb(top + k, k), math.comb(top - 1 + k, k)
    d = mech * block
    return (2 * d * d + 8 * k * (mech - 1) * lit * d
            + 2 * k * (mech * lit) ** 2 + 4 * ((mech - 1) * block) ** 2)


def _scaled(op, rate):
    """The steps of op times sqrt(rate): a jump operator of that rate."""
    return [(s, np.sqrt(rate) * w) for s, w in op]


def _unique_by_structure(config: SystemConfig) -> bool:
    """Whether the certificate of the module docstring holds for `config`:
    b is a jump (gamma_m (n_bar + 1) > 0) and, with lasers, so is every a_j
    (kappa > 0).  Then L's steady state is unique."""
    return (config.gamma_m * (config.n_bar + 1.0) > 0
            and (not config.lasers or config.kappa > 0))


def build_full_liouvillian(config: SystemConfig) -> Liouvillian:
    """The full master equation's generator L (coherent part, cavity decay
    and the thermal mechanical dissipator) as its real system R: its even
    block alone where its jumps prove the steady state unique
    (_unique_by_structure), both blocks elsewhere.

    A driven system whose even block (e^2 + o^2 coordinates for e even and
    o odd basis states, never fewer than the odd block's 2 e o) holds more
    than DIRECT_BLOCK unknowns also gets R_M (_uncoupled_system), whose LU
    preconditions GMRES; on every other system uncoupled is None and
    steady_state_solve solves the blocks of R directly from their LU."""
    est = _estimate_nnz(config)
    if est > DEFAULT_NNZ_CAP:
        raise MemoryError(f"estimated superoperator nonzeros {sig3(est)} "
                          f"exceed cap {DEFAULT_NNZ_CAP}")
    parts = _hamiltonian_parts(config)
    table, _encoded, energy, coupling, b, cavities = parts
    excitations = table.sum(axis=1)
    coords = _hermitian_coordinates(excitations)
    # with no drive the chain's jump operators are the thermal dissipator's
    # and there is no coupling, so M = L; the model conserves the parity,
    # so its blocks are those of _hermitian_coordinates
    direct = not config.lasers or coords[3] <= DIRECT_BLOCK
    if _unique_by_structure(config):
        i, j, imag, even, unsplit = coords
        coords = i[:even], j[:even], imag[:even], even, unsplit[:even]
    # the cavity decay, then the thermal bath; a zero rate gives zero
    # weights, which drop out
    jumps = [_scaled(a, config.kappa) for a in cavities]
    jumps += [_scaled(b, config.gamma_m * (config.n_bar + 1.0)),
              _transpose(_scaled(b, config.gamma_m * config.n_bar))]
    lsuper, big, defect = _real_generator(energy, coupling, jumps, coords)
    if defect > TRACE_PRESERVATION_TOL * max(1.0, big):
        raise SolverError(f"generator is not trace preserving: defect {defect:.3e}")
    uncoupled = (None if direct
                 else _uncoupled_system(config, parts, coords, big))
    return Liouvillian(config.dims(), lsuper, excitations, coords, uncoupled)


def _uncoupled_system(config: SystemConfig, parts, coords, weight):
    """R_M, with `weight` (the max|L_ij| of R's trace row) in its trace row,
    of the uncoupled generator M for `config`, whose _hamiltonian_parts
    are `parts`: L with every coupling g_j = 0 and the mechanical bath
    replaced by the reduced chain's jump operators sum_n sqrt(n up_n)
    |n><n-1| and sum_n sqrt(n down_n) |n-1><n| (rates from chain_rates).
    No term of M acts on the mechanics and a cavity together (the chain's
    rates stand in for the cavities' effect on the mechanics), so its LU
    has almost no fill, and M has a unique steady state whenever the chain
    has one, also at gamma_m = 0, where L with g_j = 0 alone would be
    singular."""
    table, encoded, energy, _coupling, _b, cavities = parts
    up, down = chain_rates(transition_rates(config), config.gamma_m,
                           config.n_bar)
    n = np.arange(1, config.mech_dim)
    jumps = [_scaled(a, config.kappa) for a in cavities]
    jumps += [_lowering(table, encoded, 0, np.sqrt(n * down)),
              _transpose(_lowering(table, encoded, 0, np.sqrt(n * up)))]
    return _real_generator(energy, [], jumps, coords, weight)[0]


def transition_rates(config: SystemConfig) -> RateTable:
    """Lorentzian phonon-adding/removing rates
    A+-^n = sum_j |g_j|^2 kappa / [4 (Delta_j -+ delta_n)^2 + kappa^2]
    for n = 1..mech_dim - 1, summed over the lasers once, here."""
    n_max = config.mech_dim - 1
    nj = len(config.lasers)
    a_plus = np.zeros((n_max, nj))
    a_minus = np.zeros((n_max, nj))
    delta = transition_frequency(config.omega_m_prime, config.lam,
                                 np.arange(1, n_max + 1))
    kap = config.kappa
    for j, laser in enumerate(config.lasers):
        g2k = abs(laser.g) ** 2 * kap
        plus = 4.0 * (laser.detuning - delta) ** 2 + kap**2
        minus = 4.0 * (laser.detuning + delta) ** 2 + kap**2
        if kap == 0 and not (plus.all() and minus.all()):
            n = 1 + int(np.argmin(plus * minus))
            raise SolverError(
                f"laser {j + 1} sits exactly on the line delta_{n} "
                f"({n - 1} <-> {n}) with kappa = 0: its rate there is 0 / 0")
        a_plus[:, j] = g2k / plus
        a_minus[:, j] = g2k / minus
    return RateTable(a_plus=a_plus.sum(axis=1), a_minus=a_minus.sum(axis=1),
                     delta=delta)


def chain_rates(rates: RateTable, gamma_m: float, n_bar: float):
    """Per-phonon rates of the population chain for n = 1..n_max:
    up_n = A+^n + gamma n_bar (level n-1 -> n at rate n up_n) and
    down_n = A-^n + gamma (n_bar + 1) (n -> n-1 at rate n down_n)."""
    up = rates.a_plus + gamma_m * n_bar
    down = rates.a_minus + gamma_m * (n_bar + 1.0)
    return up, down


def level_rates(up: np.ndarray, down: np.ndarray):
    """Level rates of the chain with per-phonon rates up_n, down_n: n up_n
    (n-1 -> n) and n down_n (n -> n-1) for n = 1..n_max, and the total rate
    out of level k, out_k = k down_k + (k+1) up_(k+1), for k = 0..n_max."""
    n = np.arange(1, up.size + 1)
    up_w, down_w = n * up, n * down
    return up_w, down_w, np.append(0.0, down_w) + np.append(up_w, 0.0)


def rate_matrix(up: np.ndarray, down: np.ndarray) -> sp.csr_matrix:
    """Tridiagonal rate matrix Q of the chain (dP/dt = Q P, columns sum to
    zero, -Q_kk = out_k)."""
    import scipy.sparse as sp
    up_w, down_w, out = level_rates(up, down)
    return sp.diags([up_w, -out, down_w], [-1, 0, 1], format="csr",
                    dtype=complex)


def build_reduced_generator(config: SystemConfig) -> sp.csr_matrix:
    """Birth-death rate matrix Q on the mechanical populations."""
    return rate_matrix(*chain_rates(transition_rates(config), config.gamma_m,
                                    config.n_bar))


def populations_from_log_ratios(log_ratios) -> np.ndarray:
    """Normalised populations P_0..P_k from log(P_n / P_(n-1)), n = 1..k."""
    log_p = np.concatenate([[0.0], np.cumsum(log_ratios)])
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


# ---------------------------------------------------------------------------
# steady-state solvers

def reduced_steady_populations(config: SystemConfig,
                               tail_check: bool = True) -> SteadyState:
    """Steady populations from the detailed-balance recursion
    P_n / P_(n-1) = up_n / down_n of the chain, accumulated in log space."""
    up, down = chain_rates(transition_rates(config), config.gamma_m,
                           config.n_bar)
    if not down.all():
        n = int(np.argmin(down)) + 1
        raise SolverError(
            f"no phonon-removing rate on line {n} -> {n - 1} (gamma_m = 0 "
            "and no drive removes phonons there): the chain has no steady state")
    # up_n = 0 gives log(0) = -inf on purpose: the levels above n-1 are empty
    with np.errstate(divide="ignore"):
        log_ratios = np.log(up) - np.log(down)
    # persistent growth means the chain has no normalizable tail here
    tail = log_ratios[-3:]
    if tail_check and np.all(tail >= 0):
        raise TruncationError(
            "population ratios do not decay near the truncation; "
            f"last ratios {np.exp(tail)}")
    p = populations_from_log_ratios(log_ratios)
    if tail_check and p[-1] >= 1e-3 * p.max():
        raise TruncationError(
            f"top-level population {p[-1]:.3e} is not negligible "
            f"(max {p.max():.3e}); increase the truncation")
    return SteadyState(populations=p, residual=_chain_residual(up, down, p),
                       method="recursion")


def _chain_residual(up: np.ndarray, down: np.ndarray, p: np.ndarray) -> float:
    """|Q P| for the chain's rate matrix Q (rate_matrix), row k summed in
    complex as Q's sparse product sums it, so the float is the same:
    (k up_k P_(k-1) - out_k P_k) + (k+1) down_(k+1) P_(k+1)."""
    up_w, down_w, out = level_rates(up, down)
    q = p.astype(complex)
    rows = np.append(0.0, up_w * q[:-1]) + (-out) * q
    rows[:-1] += down_w * q[1:]
    return float(np.linalg.norm(rows))


def _parity_blocks(r: sp.csr_matrix, r_m: sp.csr_matrix, even: int):
    """The slices of the coordinates before and after `even`, each with its
    diagonal blocks of R and R_M as CSR views; or all coordinates as one
    block if there is no odd one or R or R_M has an entry across them."""
    import scipy.sparse as sp
    n, halves = r.shape[0], []
    for a in (r,) if r_m is r else (r, r_m):
        cut = a.indptr[even]
        if (even == n or a.indices[:cut].max(initial=0) >= even
                or a.indices[cut:].min(initial=n) < even):
            return [(slice(0, n), r, r_m)]
        halves.append((
            sp.csr_matrix((a.data[:cut], a.indices[:cut], a.indptr[:even + 1]),
                          shape=(even, even)),
            sp.csr_matrix((a.data[cut:], a.indices[cut:] - even,
                           a.indptr[even:] - cut), shape=(n - even, n - even))))
    return list(zip((slice(0, even), slice(even, n)), halves[0], halves[-1]))


def _arnoldi_cycle(apply, b: np.ndarray, atol: float, restart: int):
    """One GMRES cycle from x = 0 on the system apply(x) = b: at most
    min(restart, n) Arnoldi steps, each orthogonalised by classical
    Gram-Schmidt applied twice, with the Hessenberg least-squares problem
    kept triangular by Givens rotations.  Stops when the rotated residual
    is at most atol, or at a happy breakdown: the Krylov space is invariant,
    and the step just taken is exact (|w| fell below eps of |apply(v_j)|)
    or adds nothing (a zero rotation; it is left out).  Returns the
    correction and the number of steps taken."""
    from scipy.linalg import solve_triangular
    steps = min(restart, b.size)
    v = np.empty((steps + 1, b.size))
    tri = np.zeros((steps, steps))
    rotations, used = [], 0
    s = [_norm(b)]
    v[0] = b / s[0]
    for j in range(steps):
        w = apply(v[j])
        size = _norm(w)
        col = v[:j + 1] @ w
        w -= col @ v[:j + 1]
        again = v[:j + 1] @ w
        w -= again @ v[:j + 1]
        col += again
        below = _norm(w)
        breakdown = below <= EPS * size
        if breakdown:
            below = 0.0
        else:
            v[j + 1] = w / below
        col = col.tolist() + [below]
        for i, (cos, sin) in enumerate(rotations):
            col[i], col[i + 1] = (cos * col[i] + sin * col[i + 1],
                                  cos * col[i + 1] - sin * col[i])
        norm = math.hypot(col[j], col[j + 1])
        if norm == 0.0:
            break
        cos, sin = col[j] / norm, col[j + 1] / norm
        rotations.append((cos, sin))
        tri[:j + 1, j] = col[:j] + [norm]
        s[j:] = [cos * s[j], -sin * s[j]]
        used = j + 1
        if abs(s[j + 1]) <= atol or breakdown:
            break
    y = solve_triangular(tri[:used, :used], s[:used])
    return y @ v[:used], j + 1


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a real vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _gmres(r: sp.csr_matrix, abs_r: sp.csr_matrix, lu, b: np.ndarray,
           tol: float):
    """Solve r x = b by GMRES from x = 0, preconditioned on the left by lu,
    the LU of R_M.  Each restart cycle is one _arnoldi_cycle on the
    correction equation lu^-1 r dx = lu^-1 (b - r x), whose right-hand side
    is formed from the unpreconditioned residual (b itself at x = 0, where
    no product is taken).  The loop stops when the backward error
    |lu^-1 (b - r x)| / |lu^-1 (|r| |x| + |b|)| is at most tol (GMRES_TOL
    for the steady state, PROBE_TOL for the uniqueness probe).  The
    denominator is the preconditioned size of the terms summed in b - r x,
    so the test stays a fixed factor above rounding however the rows of r
    are scaled; their entries span about 1 to 1e8 on the reference device,
    where a relative test on |b - r x| is out of reach for even a direct
    solve.  Returns x, the GMRES iteration count and the backward error."""
    x = np.zeros_like(b)
    iterations = 0
    defect, terms = b, np.abs(b)    # b - r x and |r| |x| + |b| at x = 0
    for cycle in range(GMRES_MAX_CYCLES + 1):
        residual = lu.solve(defect)
        scale = _norm(lu.solve(terms))
        error = _norm(residual) / scale
        if error <= tol or cycle == GMRES_MAX_CYCLES:
            return x, iterations, error
        dx, steps = _arnoldi_cycle(lambda v: lu.solve(r @ v), residual,
                                   tol * scale, GMRES_RESTART)
        x = x + dx
        iterations += steps
        defect, terms = b - r @ x, abs_r @ np.abs(x) + np.abs(b)


def steady_state_solve(liou: Liouvillian) -> SteadyState:
    """Null-space steady state of the full generator, solved in the real
    coordinates of Hermitian matrices (see Liouvillian).

    L maps Hermitian matrices to Hermitian ones, so R holds all of it; R
    and R_M (if any) are divided, exactly, by the power of two u at or
    below max|L_ij| (the trace row's weight), so no rate scale overflows.
    Each block of _parity_blocks is solved on its own; the steady state is
    R x = max|L_ij| e_0 on e_0's block.  With no R_M (liou.uncoupled None,
    method "lu"), each block of R is factored by SuperLU after COLAMD and
    solved from its LU.  Otherwise (method "gmres") GMRES, preconditioned
    by the LU of R_M's block in natural order, solves it (see _gmres).

    Uniqueness: L(X^dagger) = L(X)^dagger, so the null space of L is closed
    under the adjoint, and a complex null space of dimension k has a
    Hermitian part of real dimension k.  R of both blocks is therefore
    nonsingular exactly when the null space of L is one-dimensional, that
    is when each block is.  Where the build proved the steady state unique
    from the model's jumps (_unique_by_structure; proof in the module
    docstring), R holds the even block alone and uniqueness is
    "structure": the odd block is nonsingular without a solve, and the
    probe judges the even block's conditioning.  Elsewhere (uniqueness
    "probe") it judges every block.  A solve R_k y_k = b_k per block, b a
    fixed-seed random vector, gives the 1-norm condition estimate
    |R|_1 sum_k |y_k|_1 / |b|_1.  An estimate
    above CONDITION_LIMIT, or an exactly singular block of the factored
    system, raises DegenerateSteadyStateError; a singular R makes b
    inconsistent, so the estimate is judged even when a probe solve did not
    converge.  The GMRES probe solves stop at PROBE_TOL, not GMRES_TOL: for
    a near-singular R, GMRES cannot bring the backward error below b's share
    along the small singular direction, about 1/sqrt(n) (2.8e-3 at n =
    131k), before it resolves that direction, so the estimate still blows
    up; on fig2 it halves the probe's steps (36 -> 18) and moves the
    estimate by 1.6e-6 relative.  The steady solve that misses GMRES_TOL, or
    a probe that misses PROBE_TOL, within its budget raises SolverError.

    Where the steady state was solved in the even block, its odd entries
    are exactly 0, and rho is checked on its two parity blocks: the basis
    states of even and of odd N.  A smallest eigenvalue below -1e-8 raises
    SolverError; a negative one above it is clipped to 0 by eigh, which
    runs only then (fig2's states are positive definite).  The state is
    symmetrised, so rho is exactly Hermitian; the populations are its
    mechanics' (the partial trace).  Its residual is |L vec(rho)|_2 in L's
    units, from R: L(rho)_00 is minus the sum of the other diagonal
    entries, and each upper entry counts for its conjugate (the odd rows of
    L(rho), which R may not hold, are 0 by parity)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    d, n = liou.excitations.size, liou.dim
    i, j, imag, even, unsplit = liou.coordinates
    r = liou.superoperator
    # the trace row's weight, read from the row's stored entries
    big = float(r.data[r.indptr[0]:r.indptr[1]].max(initial=0.0))
    unit = math.ldexp(1.0, math.frexp(big)[1] - 1)
    r, r_m = (a if a is None else sp.csr_matrix(
        (a.data / unit, a.indices, a.indptr), a.shape)
        for a in (r, liou.uncoupled))
    direct = r_m is None
    r_m = r if direct else r_m
    rhs = big / unit * np.eye(1, n)[0]
    # each coordinate's entry of a vector over all d^2 of them, so the even
    # block's probe is the same whichever blocks were built
    probe = np.random.default_rng(PROBE_SEED).standard_normal(d * d)[unsplit]
    solves, lu_nnz = [], 0
    for at, r_k, r_mk in _parity_blocks(r, r_m, even):
        try:
            # natural order suits an M with no mechanics-cavity term (fig2 mech
            # 8: 33k nonzeros, 34k after COLAMD), not R itself (an undriven
            # chain at d = 320: x2.9); narrow supernodes gain nothing from
            # panels of several columns
            lu = spla.splu(r_mk.tocsc(), permc_spec="COLAMD"
                           if direct else "NATURAL", panel_size=1)
        except RuntimeError:
            raise DegenerateSteadyStateError(
                f"trace-constrained {'system' if direct else 'preconditioner'}"
                " is singular; the generator null space is not "
                "one-dimensional") from None
        lu_nnz += lu.nnz
        if direct:
            # an exact solve: no steps, and no backward error to judge
            if not solves:
                solves.append(("steady", GMRES_TOL, lu.solve(rhs[at]), 0, 0.0))
            solves.append(("probe", PROBE_TOL, lu.solve(probe[at]), 0, 0.0))
            continue
        abs_r = sp.csr_matrix((np.abs(r_k.data), r_k.indices, r_k.indptr),
                              shape=r_k.shape)
        if not solves:
            solves.append(("steady", GMRES_TOL,
                           *_gmres(r_k, abs_r, lu, rhs[at], GMRES_TOL)))
        solves.append(("probe", PROBE_TOL,
                       *_gmres(r_k, abs_r, lu, probe[at], PROBE_TOL)))
        del lu, abs_r  # free this block's LU before the next one's
    x, probes = solves[0][2], solves[1:]
    norm_1 = np.bincount(r.indices, np.abs(r.data), n).max()  # |R|_1
    condition = float(norm_1 * sum(np.abs(y).sum() for *_, y, _, _ in probes)
                      / np.abs(probe).sum())
    if not condition <= CONDITION_LIMIT:
        raise DegenerateSteadyStateError(
            f"condition estimate {condition:.3e} of the trace-constrained "
            f"system exceeds {CONDITION_LIMIT:.0e}: null space is not "
            "one-dimensional")
    for name, tol, _, its, error in solves:
        if not error <= tol:
            raise SolverError(
                f"GMRES {name} solve did not converge: backward error "
                f"{error:.3e} (tolerance {tol:.0e}) after {its} "
                "iterations")
    # the states of each parity of N: where the steady state was solved in
    # the even block, rho has no entry across them
    parity = liou.excitations % 2
    states = ([np.flatnonzero(parity == p) for p in (0, 1)]
              if x.size == even else [np.arange(d)])
    blocks = [np.ix_(s, s) for s in states if s.size]
    x = np.pad(x, (0, n - x.size)) + 0.0    # no -0.0, as rho's bits are pinned
    rho = np.zeros((d, d), dtype=complex)
    parts = rho.view(float).reshape(d, d, 2)    # Re and Im of each entry
    parts[j, i, imag.astype(int)] = np.where(imag, 0.0 - x, x)
    parts[i, j, imag.astype(int)] = x
    rho /= np.trace(rho).real
    smallest = min(np.linalg.eigvalsh(rho[at])[0] for at in blocks)
    if smallest < -1e-8:
        raise SolverError(
            f"steady state has negative eigenvalue {smallest:.3e}")
    if smallest < 0:
        for at in blocks:
            w, v = np.linalg.eigh(rho[at])
            rho[at] = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = (rho + rho.conj().T) / np.trace(rho).real / 2
    defect = r @ np.where(imag, rho.imag[i, j], rho.real[i, j])
    defect[0] = -defect[1:d].sum()
    defect[d:] *= math.sqrt(2.0)
    residual = unit * _norm(defect)
    rho = DensityMatrix(liou.dims, rho)
    return SteadyState(populations=partial_trace(rho, 0).populations(),
                       residual=residual, method="lu" if direct else "gmres",
                       iterations=sum(its for *_, its, _ in solves),
                       probe_iterations=sum(its for *_, its, _ in probes),
                       condition=condition, lu_nnz=lu_nnz, rho=rho,
                       uniqueness="structure" if n < d * d else "probe")
