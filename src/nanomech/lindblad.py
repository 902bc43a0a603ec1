"""Lindblad generators for the driven nonlinear optomechanical system:
the full multi-mode master equation and the reduced Fock-resolved
birth-death model, with their steady-state solvers.

The full steady state is solved by restarted GMRES (Saad and Schultz, SIAM
J. Sci. Stat. Comput. 7, 856 (1986)), preconditioned with an exact sparse
LU of the uncoupled generator M (see build_full_liouvillian), so that the
reduced model preconditions its own oracle (iterative steady states as in
Nation, arXiv:1504.06768).  Each restart cycle is an Arnoldi cycle of this
module, so a GMRES step costs one matrix-vector product, one triangular
solve pair and four BLAS-2 products.  The model conserves the parity of
N_i + N_j (N the total excitation number) of each rho_ij: the steady state
is solved in the even block, the uniqueness probe in each block apart.

The basis is the mechanics times one block of cavity states: the photon
configurations (c_1..c_k) with sum_j c_j <= N (cavity_photons), QuTiP's
excitation-number-restricted states (enr_fock, enr_destroy; Johansson,
Nation and Nori, Comput. Phys. Commun. 184, 1234 (2013)).  Both generators
are written by index arithmetic from its occupation table, each entry once
(_generator): column-stacked, vec(A X B) = (B^T kron A) vec(X), as QuTiP's
spre/spost.

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
# nonzeros of L and M together (_estimate_nnz, a bound fig2 meets exactly):
# a full steady state peaks at about 92 B per nonzero (fig2 mech 32 and 64
# with at most 2 photons), so this holds a solve near 3.7 GB; far below
# 2**31, so CSR indices fit int32 (_assemble)
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
GMRES_MAX_CYCLES = 20
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
    dims: tuple[int, ...]
    superoperator: sp.csr_matrix = field(repr=False)
    # the total excitation number of each basis state, whose parity splits
    # the steady-state solve (see _hermitian_coordinates)
    excitations: np.ndarray = field(repr=False)
    # the uncoupled generator M that preconditions the steady-state solve
    # (see build_full_liouvillian); None means M = L
    uncoupled: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.superoperator.shape[0]

    def trace_preservation_defect(self) -> float:
        """Norm of L^dagger applied to the identity (should vanish), up to a
        conjugation the sum of L's rows at the diagonal entries of vec(I)."""
        a, d = self.superoperator, self.excitations.size
        at = _row_entries(a.indptr, np.arange(0, d * d, d + 1))[0]
        sums = (np.bincount(a.indices[at], part[at], a.shape[1])
                for part in (a.data.real, a.data.imag))
        return float(np.hypot(*sums).max())


@dataclass(frozen=True)
class SteadyState:
    populations: np.ndarray     # of the mechanics
    residual: float
    method: str
    iterations: int = 0         # GMRES iterations, steady and probe solves
    probe_iterations: int = 0   # of them in the probe solves
    condition: float | None = None  # 1-norm condition estimate (full solve)
    lu_nnz: int | None = None   # nonzeros of the preconditioner's LUs (full)
    rho: DensityMatrix | None = None  # the full state (full solve)


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

ASSEMBLY_BLOCK = 1 << 16    # slot-table entries per block of rows (_assemble)


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


def _lowering(table: np.ndarray, slot: int, weights):
    """sum_n weights[n-1] |..n-1..><..n..| on mode `slot` of the basis whose
    states are the rows of the sorted occupation table `table`, the identity
    on the other modes and 0 where the raised state is not in the basis, as
    a list of steps (s, w), one per offset s: entries [i, i + s] = w[i], 0
    on rows with none; weights sqrt(n) give the annihilation operator.  The
    mechanics has one step; a cavity has one per distance from a cavity
    state to its raised state (QuTiP's enr_destroy).  Every model operator
    is diagonal, steps on one mode, or the product of a mechanical and a
    cavity step, whose row weights multiply (neither changes the other's
    occupation)."""
    dims = tuple(table.max(axis=0) + 2)     # codes keep the rows' order
    codes = np.ravel_multi_index(table.T, dims)
    raised = table.copy()
    raised[:, slot] += 1
    raised = np.ravel_multi_index(raised.T, dims)
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
    import scipy.sparse as sp
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


def _hamiltonian_parts(config: SystemConfig):
    """The full Hamiltonian on the occupation table: the table, H's diagonal
    (the anharmonic mechanics w_m' n + (lam/2) n (n - 1), detuned
    cavities), the steps of the displaced linear coupling, and the
    operators b and a_j as steps."""
    table = _occupations(config)
    n = table[:, 0]
    energy = config.omega_m_prime * n + 0.5 * config.lam * n * (n - 1)
    for j, laser in enumerate(config.lasers):
        energy = energy + (-laser.detuning) * table[:, 1 + j]
    b = _lowering(table, 0, np.sqrt(np.arange(1, config.mech_dim)))
    photons = np.sqrt(np.arange(1, config.cavity_photons + 1))
    cavities = [_lowering(table, 1 + j, photons)
                for j in range(len(config.lasers))]
    # (g*/2 a_j + g/2 a_j^dag)(b + b^dag): four steps per step of a_j
    position = b + _transpose(b)
    coupling = [(s_a + s_b, (coef * w_a) * w_b)
                for a, laser in zip(cavities, config.lasers, strict=True)
                for op, coef in ((a, np.conj(laser.g) / 2.0),
                                 (_transpose(a), laser.g / 2.0))
                for s_a, w_a in op
                for s_b, w_b in position]
    return table, energy, coupling, b, cavities


def build_full_hamiltonian(config: SystemConfig) -> sp.csr_matrix:
    """Multi-mode Hamiltonian (in units of hbar): detuned cavities, the
    anharmonic mechanical mode, and the displaced linear coupling."""
    table, energy, coupling, _b, _cavities = _hamiltonian_parts(config)
    h = _assemble([(s, w[None, :]) for s, w in [(0, energy)] + coupling], 1,
                  len(table))
    herm_defect = abs(h - h.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, abs(h).max()):
        raise SolverError(f"Hamiltonian not Hermitian, defect {herm_defect:.3e}")
    return h


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
    share an offset only across lasers or cavity decays (a coupling step
    moves two modes, a jump one, and steps of two cavities can be equally
    long), and then fill different entries, as lowering or raising two
    cavities never leads from one state to the same state."""
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


def sig3(n: int) -> str:
    """An int to 3 significant digits, as f"{n:.3g}" writes a float, for
    any size of int: the float conversion overflows past 1.8e308, and
    str() refuses more than 4,300 digits."""
    from decimal import Decimal
    return f"{Decimal(n):.3g}"


def _estimate_nnz(config: SystemConfig) -> int:
    """Nonzeros of L and M together at most: two diagonals; 2 d entries per
    off-diagonal entry of H, 4 (mech - 1) A per laser with A the cavity
    states that hold a photon of that laser's cavity; nnz(c)^2 per jump,
    mech A for each cavity decay (in L and M), (mech - 1) B for the two
    thermal and the two chain jumps, with B the cavity states."""
    k, top, mech = len(config.lasers), config.cavity_photons, config.mech_dim
    block, lit = math.comb(top + k, k), math.comb(top - 1 + k, k)
    d = mech * block
    return (2 * d * d + 8 * k * (mech - 1) * lit * d
            + 2 * k * (mech * lit) ** 2 + 4 * ((mech - 1) * block) ** 2)


def build_full_liouvillian(config: SystemConfig) -> Liouvillian:
    """Sparse superoperator L for the full master equation: coherent part plus
    cavity decay and the thermal mechanical dissipator.

    The same pass assembles the uncoupled generator M that preconditions the
    steady-state solve: L with every coupling g_j = 0 and the mechanical
    bath replaced by the reduced chain's jump operators
    sum_n sqrt(n up_n) |n><n-1| and sum_n sqrt(n down_n) |n-1><n| (rates
    from chain_rates).  No term of M acts on the mechanics and a cavity
    together (the chain's rates stand in for the cavities' effect on the
    mechanics), so its LU has almost no fill, and M has a unique steady
    state whenever the chain has one, also at gamma_m = 0, where L with
    g_j = 0 alone would be singular."""
    est = _estimate_nnz(config)
    if est > DEFAULT_NNZ_CAP:
        raise MemoryError(f"estimated superoperator nonzeros {sig3(est)} "
                          f"exceed cap {DEFAULT_NNZ_CAP}")
    table, energy, coupling, b, cavities = _hamiltonian_parts(config)

    def scaled(op, rate):
        return [(s, np.sqrt(rate) * w) for s, w in op]

    # the jumps L and M share: the cavity decay
    cavity_jumps = [scaled(a, config.kappa) for a in cavities]
    # the thermal bath; a zero rate gives zero weights, which drop out
    mech_jumps = [scaled(b, config.gamma_m * (config.n_bar + 1.0)),
                  _transpose(scaled(b, config.gamma_m * config.n_bar))]
    lsuper = _generator(energy, coupling, cavity_jumps + mech_jumps)

    # with no drive the chain's jump operators are the thermal dissipator's
    # and there is no coupling, so M = L
    uncoupled = None
    if config.lasers:
        up, down = chain_rates(transition_rates(config), config.gamma_m,
                               config.n_bar)
        n = np.arange(1, config.mech_dim)
        chain_jumps = [_lowering(table, 0, np.sqrt(n * down)),
                       _transpose(_lowering(table, 0, np.sqrt(n * up)))]
        uncoupled = _generator(energy, [], cavity_jumps + chain_jumps)

    liou = Liouvillian(config.dims(), lsuper, table.sum(axis=1), uncoupled)
    defect = liou.trace_preservation_defect()
    scale = np.abs(lsuper.data).max(initial=1.0)
    if defect > TRACE_PRESERVATION_TOL * scale:
        raise SolverError(f"generator is not trace preserving: defect {defect:.3e}")
    return liou


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
        a_plus[:, j] = g2k / (4.0 * (laser.detuning - delta) ** 2 + kap**2)
        a_minus[:, j] = g2k / (4.0 * (laser.detuning + delta) ** 2 + kap**2)
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


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """The positions in a CSR matrix's data and indices of the entries of
    `rows`, row after row, and the indptr of those rows stacked."""
    starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    stacked = np.append(0, np.cumsum(counts)).astype(indptr.dtype)
    at = np.arange(stacked[-1]) + np.repeat(starts - stacked[:-1], counts)
    return at, stacked


def _hermitian_coordinates(excitations: np.ndarray):
    """Real coordinates of Hermitian matrices on the basis states whose total
    excitation numbers N are `excitations`: the diagonal entries, then Re
    and Im of the strict-upper entries (np.triu_indices order), stably
    sorted by the parity of N_i + N_j of their entry rho_ij, even first.
    Returns the sparse map T from coordinates to the column-stacked vec; for
    each coordinate its entry's vec index and whether it is an Im part; the
    number of even coordinates; and for each coordinate its index before
    the sort.  T is written row by row: an off-diagonal vec entry holds Re
    then Im, at 1 and 1j above the diagonal and their conjugates below."""
    import scipy.sparse as sp
    d = excitations.size
    parity = excitations % 2
    i, j = (np.concatenate([np.arange(d), k, k]) for k in np.triu_indices(d, 1))
    odd = parity[i] != parity[j]
    unsplit = np.argsort(odd, kind="stable")
    i, j, imag = i[unsplit], j[unsplit], unsplit >= d * (d + 1) // 2
    k, off, value = np.arange(d * d), i != j, np.where(imag, 1j, 1.0)
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(2 - (np.arange(d * d) % (d + 1) == 0), out=indptr[1:])
    at = np.concatenate([indptr[i + j * d] + imag,
                         (indptr[j + i * d] + imag)[off]])
    indices, data = np.empty(at.size, np.int32), np.empty(at.size, complex)
    indices[at] = np.concatenate([k, k[off]])
    data[at] = np.concatenate([value, value[off].conj()])
    t = sp.csr_matrix((data, indices, indptr), shape=(d * d, d * d))
    return t, i + j * d, imag, d * d - int(odd.sum()), unsplit


def _real_system(lsuper: sp.spmatrix, t, rows, imag, unit: float,
                 weight: float) -> sp.csr_matrix:
    """The real n x n system of a Lindbladian L in Hermitian coordinates (see
    _hermitian_coordinates): row k is Re of row rows[k] of L T / unit, or Im
    where imag[k], but row 0 is the trace row: `weight` on the diagonal.
    Its indices are sorted (the order of GMRES's row sums)."""
    import scipy.sparse as sp
    d = math.isqrt(rows.size)
    part = lsuper @ t
    at, indptr = _row_entries(part.indptr, rows[1:])
    data = np.where(np.repeat(imag[1:], np.diff(indptr)), part.data.imag[at],
                    part.data.real[at]) / unit
    a = sp.csr_matrix((np.insert(data, 0, np.full(d, weight)),
                       np.insert(part.indices[at], 0, np.arange(d)),
                       np.insert(indptr + d, 0, 0)), shape=t.shape)
    a.eliminate_zeros()
    a.sort_indices()
    return a


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
        breakdown = below <= np.finfo(float).eps * size
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
    coordinates r of Hermitian matrices (x = T r, see _hermitian_coordinates).

    A Lindbladian maps Hermitian matrices to Hermitian ones, so L T has real
    diagonal rows and its upper rows fix the lower ones: the real n x n
    system R stacks Re of the diagonal rows of L T on Re and Im of its upper
    rows, with a trace row in place of the (0,0) row, in units of u, the
    power of two at or below max|L_ij| (so that no rate scale overflows);
    R_M likewise from M (liou.uncoupled, or L when that is None).  GMRES,
    preconditioned by the LU of R_M's block (natural order, or COLAMD when
    M = L), solves each block of _parity_blocks on its own (see _gmres); the
    steady state is R r = (max|L_ij| / u) e_0 on the block that holds e_0.

    Uniqueness: L(X^dagger) = L(X)^dagger, so the null space of L is closed
    under the adjoint, and a complex null space of dimension k has a
    Hermitian part of real dimension k.  R is therefore nonsingular exactly
    when the null space of L is one-dimensional, that is when each block is.
    A GMRES solve R_k y_k = b_k per block, b a fixed-seed random vector,
    gives the 1-norm condition estimate |R|_1 sum_k |y_k|_1 / |b|_1.  An
    estimate above CONDITION_LIMIT, or a singular block of R_M, raises
    DegenerateSteadyStateError; a singular R makes b inconsistent, so the
    estimate is judged even when a probe solve did not converge.  The probe
    solves stop at PROBE_TOL, not GMRES_TOL: for a near-singular R, GMRES
    cannot bring the backward error below b's share along the small
    singular direction, about 1/sqrt(n) (2.8e-3 at n = 131k), before it
    resolves that direction, so the estimate still blows up; on fig2 it
    halves the probe's steps (36 -> 18) and moves the estimate by 1.6e-6
    relative.  The steady solve that misses GMRES_TOL, or a probe that
    misses PROBE_TOL, within its budget raises SolverError.  The
    solution is read back through T.  A smallest eigenvalue below -1e-8
    raises SolverError; a negative one above it is clipped to 0 by eigh,
    which runs only then (fig2's states are positive definite).  The state
    is symmetrised, so rho is exactly Hermitian; its residual is in L's
    units, and the populations are its mechanics' (the partial trace)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    d, n = liou.excitations.size, liou.dim
    t, rows, imag, even, unsplit = _hermitian_coordinates(liou.excitations)
    big = float(np.abs(liou.superoperator.data).max(initial=0.0))
    unit = math.ldexp(1.0, math.frexp(big)[1] - 1)
    r = _real_system(liou.superoperator, t, rows, imag, unit, big / unit)
    r_m = r if liou.uncoupled is None else _real_system(
        liou.uncoupled, t, rows, imag, unit, big / unit)
    rhs = big / unit * np.eye(1, n)[0]
    probe = np.random.default_rng(PROBE_SEED).standard_normal(n)[unsplit]
    solves, lu_nnz = [], 0
    for at, r_k, r_mk in _parity_blocks(r, r_m, even):
        try:
            # natural order suits an M with no mechanics-cavity term (fig2 mech
            # 8: 33k nonzeros, 34k after COLAMD), not M = L (d = 320: x2.9);
            # narrow supernodes gain nothing from panels of several columns
            lu = spla.splu(r_mk.tocsc(), permc_spec="COLAMD"
                           if liou.uncoupled is None else "NATURAL",
                           panel_size=1)
        except RuntimeError:
            raise DegenerateSteadyStateError(
                "trace-constrained preconditioner is singular; the generator "
                "null space is not one-dimensional") from None
        lu_nnz += lu.nnz
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
    rho = (t @ np.pad(x, (0, n - x.size))).reshape((d, d), order="F")
    rho /= np.trace(rho).real
    smallest = np.linalg.eigvalsh(rho)[0]
    if smallest < -1e-8:
        raise SolverError(
            f"steady state has negative eigenvalue {smallest:.3e}")
    if smallest < 0:
        w, v = np.linalg.eigh(rho)
        rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = (rho + rho.conj().T) / np.trace(rho).real / 2
    defect = liou.superoperator @ rho.reshape(-1, order="F")
    residual = unit * float(np.linalg.norm(defect / unit))
    rho = DensityMatrix(liou.dims, rho)
    return SteadyState(populations=partial_trace(rho, 0).populations(),
                       residual=residual, method="gmres",
                       iterations=sum(its for *_, its, _ in solves),
                       probe_iterations=sum(its for *_, its, _ in probes),
                       condition=condition, lu_nnz=lu_nnz, rho=rho)
