"""Lindblad generators for the driven nonlinear optomechanical system:
the full multi-mode master equation and the reduced Fock-resolved
birth-death model, with their steady-state solvers.

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .device import transition_frequency
from .fock import (CompositeSpace, DensityMatrix, FockOperator, FockSpace,
                   annihilation, lift, number)

TRACE_PRESERVATION_TOL = 1e-10
DEFAULT_NNZ_CAP = 200_000_000
PIVOT_RATIO = 1e-12


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
    cavity_dims: tuple[int, ...]
    omega_m_prime: float
    lam: float
    gamma_m: float
    n_bar: float
    kappa: float
    lasers: tuple[LaserParams, ...]

    def __post_init__(self):
        if self.mech_dim < 3:
            raise ValueError(f"mech truncation must be >= 3, got {self.mech_dim}")
        if any(d < 2 for d in self.cavity_dims):
            raise ValueError("cavity truncations must be >= 2")
        if self.cavity_dims and len(self.cavity_dims) != len(self.lasers):
            raise ValueError("one cavity mode per laser required")

    @classmethod
    def from_derived(cls, derived, mech_dim: int,
                     cavity_dim: int = 2) -> "SystemConfig":
        lasers = tuple(LaserParams(g=l.g, detuning=l.detuning)
                       for l in derived.lasers)
        return cls(mech_dim=mech_dim,
                   cavity_dims=(cavity_dim,) * len(lasers),
                   omega_m_prime=derived.omega_m_prime, lam=derived.lam,
                   gamma_m=derived.gamma_m, n_bar=derived.n_bar,
                   kappa=derived.kappa, lasers=lasers)

    def space(self) -> CompositeSpace:
        factors = [FockSpace(self.mech_dim, "mech")]
        factors += [FockSpace(d, f"cav{j}") for j, d in enumerate(self.cavity_dims)]
        return CompositeSpace(tuple(factors))


@dataclass(frozen=True)
class Liouvillian:
    space: CompositeSpace
    superoperator: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.superoperator.shape[0]

    def trace_preservation_defect(self) -> float:
        """Norm of L^dagger applied to the identity (should vanish)."""
        d = self.space.total_dim
        vec_id = np.eye(d, dtype=complex).reshape(-1, order="F")
        defect = self.superoperator.conj().T @ vec_id
        return float(np.max(np.abs(defect)))


@dataclass(frozen=True)
class SteadyState:
    rho: DensityMatrix | None
    populations: np.ndarray | None
    residual: float
    method: str
    iterations: int = 0         # 0 for the direct solve


@dataclass(frozen=True)
class RateTable:
    """Cavity-induced transition rates A+-[n][j] for n = 1..n_max."""

    a_plus: np.ndarray          # shape (n_max, n_lasers)
    a_minus: np.ndarray
    delta: np.ndarray           # shape (n_max,)

    @property
    def n_max(self) -> int:
        return self.a_plus.shape[0]


# ---------------------------------------------------------------------------
# generator construction

def mechanical_hamiltonian(config: SystemConfig) -> sp.csr_matrix:
    """Single-mode anharmonic part w_m' n + (lam/2) n (n - 1), diagonal."""
    n = np.arange(config.mech_dim, dtype=float)
    diag = config.omega_m_prime * n + 0.5 * config.lam * n * (n - 1)
    return sp.diags(diag.astype(complex), format="csr")


def build_full_hamiltonian(config: SystemConfig) -> FockOperator:
    """Multi-mode Hamiltonian (in units of hbar): detuned cavities, the
    anharmonic mechanical mode, and the displaced linear coupling."""
    space = config.space()
    mech = space.factors[0]
    b = lift(annihilation(mech), space, 0)
    x = b + b.dagger()
    h = FockOperator(space, sp.csr_matrix(
        (space.total_dim, space.total_dim), dtype=complex))
    h = h + lift(FockOperator(mech, mechanical_hamiltonian(config)), space, 0)
    for j, laser in enumerate(config.lasers):
        cav = space.factors[1 + j]
        a = lift(annihilation(cav), space, 1 + j)
        h = h + (-laser.detuning) * lift(number(cav), space, 1 + j)
        coupling = (np.conj(laser.g) / 2.0) * a + (laser.g / 2.0) * a.dagger()
        h = h + coupling @ x
    herm_defect = abs(h.matrix - h.matrix.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, abs(h.matrix).max()):
        raise SolverError(f"Hamiltonian not Hermitian, defect {herm_defect:.3e}")
    return h


def _dissipator_super(c: sp.spmatrix, rate: float) -> sp.csr_matrix:
    """rate * [c . c^dag - (c^dag c . + . c^dag c)/2] in column-stacked form."""
    d = c.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    cdc = (c.conj().T @ c).tocsr()
    out = sp.kron(c.conj(), c, format="csr")
    out = out - 0.5 * sp.kron(eye, cdc, format="csr")
    out = out - 0.5 * sp.kron(cdc.T, eye, format="csr")
    return (rate * out).tocsr()


def _estimate_nnz(config: SystemConfig) -> int:
    d = config.space().total_dim
    # commutator and dissipator terms each contribute O(d * nnz_per_row * d)
    return 8 * d * d * (2 + len(config.cavity_dims))


def build_full_liouvillian(config: SystemConfig,
                           nnz_cap: int = DEFAULT_NNZ_CAP) -> Liouvillian:
    """Sparse superoperator for the full master equation: coherent part plus
    cavity decay and the thermal mechanical dissipator."""
    est = _estimate_nnz(config)
    if est > nnz_cap:
        raise MemoryError(
            f"estimated superoperator nonzeros {est} exceed cap {nnz_cap}")
    space = config.space()
    d = space.total_dim
    h = build_full_hamiltonian(config).matrix
    eye = sp.identity(d, dtype=complex, format="csr")
    lsuper = -1j * (sp.kron(eye, h, format="csr") - sp.kron(h.T, eye, format="csr"))

    for j in range(len(config.cavity_dims)):
        a = lift(annihilation(space.factors[1 + j]), space, 1 + j).matrix
        lsuper = lsuper + _dissipator_super(a, config.kappa)

    b = lift(annihilation(space.factors[0]), space, 0).matrix
    if config.gamma_m > 0:
        lsuper = lsuper + _dissipator_super(b, config.gamma_m * (config.n_bar + 1.0))
        if config.n_bar > 0:
            lsuper = lsuper + _dissipator_super(
                b.conj().T.tocsr(), config.gamma_m * config.n_bar)

    liou = Liouvillian(space, lsuper.tocsr())
    defect = liou.trace_preservation_defect()
    scale = max(abs(lsuper).max(), 1.0)
    if defect > TRACE_PRESERVATION_TOL * scale:
        raise SolverError(f"generator is not trace preserving: defect {defect:.3e}")
    return liou


def transition_rates(config: SystemConfig) -> RateTable:
    """Lorentzian phonon-adding/removing rates
    A+-[n][j] = |g_j|^2 kappa / [4 (Delta_j -+ delta_n)^2 + kappa^2]
    for n = 1..mech_dim - 1."""
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
    return RateTable(a_plus=a_plus, a_minus=a_minus, delta=delta)


def chain_rates(rates: RateTable, gamma_m: float, n_bar: float):
    """Per-phonon rates of the population chain for n = 1..n_max:
    up_n = sum_j A+^n + gamma n_bar (level n-1 -> n at rate n up_n) and
    down_n = sum_j A-^n + gamma (n_bar + 1) (n -> n-1 at rate n down_n)."""
    up = rates.a_plus.sum(axis=1) + gamma_m * n_bar
    down = rates.a_minus.sum(axis=1) + gamma_m * (n_bar + 1.0)
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
    residual = float(np.linalg.norm(rate_matrix(up, down) @ p.astype(complex)))
    return SteadyState(rho=None, populations=p, residual=residual,
                       method="recursion")


def _hermitian_coordinates(d: int):
    """Real coordinates of Hermitian d x d matrices: the d diagonal entries,
    then Re and Im of the d(d-1)/2 strict-upper entries (np.triu_indices
    order).  Returns the sparse map T from coordinates to the column-stacked
    vec, and the vec indices of the diagonal and of the strict upper
    triangle."""
    i, j = np.triu_indices(d, 1)
    m = i.size
    diag = np.arange(d) * (d + 1)
    upper, lower = i + j * d, j + i * d
    re, im = d + np.arange(m), d + m + np.arange(m)
    t = sp.csr_matrix(
        (np.concatenate([np.ones(d + 2 * m), np.full(m, 1j), np.full(m, -1j)]),
         (np.concatenate([diag, upper, lower, upper, lower]),
          np.concatenate([np.arange(d), re, re, im, im]))),
        shape=(d * d, d * d))
    return t, diag, upper


def steady_state_solve(liou: Liouvillian) -> SteadyState:
    """Null-space steady state of the full generator, solved in the real
    coordinates r of Hermitian matrices (x = T r, see _hermitian_coordinates).

    A Lindbladian maps Hermitian matrices to Hermitian ones, so L T has real
    diagonal rows and its upper rows fix the lower ones: the real n x n
    system R stacks Re of the diagonal rows of L T on Re and Im of its upper
    rows, with the trace row in place of the (0,0) row.  SuperLU (`splu`,
    COLAMD column ordering) factorises R, about half the work of the complex
    system.  The uniqueness test is the same as for the complex L:
    L(X^dagger) = L(X)^dagger, so the null space of L is closed under the
    adjoint, and a complex null space of dimension k has a Hermitian part of
    real dimension k.  R with the trace row is therefore nonsingular exactly
    when the null space of L is one-dimensional; a pivot below PIVOT_RATIO
    times the largest one, or a singular factorisation, raises
    DegenerateSteadyStateError.  The solution and the eigenvalue-clipped
    state are read back through T, so rho is exactly Hermitian."""
    d = liou.space.total_dim
    lsuper = liou.superoperator
    t, diag, upper = _hermitian_coordinates(d)
    lt = (lsuper @ t).tocsr()
    upper_rows = lt[upper]
    trace_row = sp.csr_matrix(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d))), shape=(1, d * d))
    a = sp.vstack([trace_row, lt[diag[1:]].real, upper_rows.real,
                   upper_rows.imag], format="csc")
    a.eliminate_zeros()
    try:
        lu = spla.splu(a)
    except RuntimeError:
        raise DegenerateSteadyStateError(
            "trace-constrained system is singular; the generator null "
            "space is not one-dimensional") from None
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() < PIVOT_RATIO * pivots.max():
        raise DegenerateSteadyStateError(
            f"smallest LU pivot {pivots.min():.3e} (largest {pivots.max():.3e}): "
            "null space is not one-dimensional")
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    rho = (t @ lu.solve(rhs)).reshape((d, d), order="F")

    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    if w.min() < -1e-8:
        raise SolverError(
            f"steady state has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    vec = ((v * w) @ v.conj().T).reshape(-1, order="F")
    rho = (t @ np.concatenate([vec[diag].real, vec[upper].real,
                               vec[upper].imag])).reshape((d, d), order="F")
    rho /= np.trace(rho).real
    residual = float(np.linalg.norm(lsuper @ rho.reshape(-1, order="F")))
    dm = DensityMatrix(liou.space, rho)
    return SteadyState(rho=dm, populations=None, residual=residual,
                       method="sparse_lu")
