"""Lindblad generators for the driven nonlinear optomechanical system:
the full multi-mode master equation and the reduced Fock-resolved
birth-death model, with steady-state solvers and time evolution.

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .fock import (CompositeSpace, DensityMatrix, FockOperator, FockSpace,
                   annihilation, lift, number)

TRACE_PRESERVATION_TOL = 1e-10
DEFAULT_NNZ_CAP = 200_000_000
PIVOT_RATIO = 1e-12


class SolverError(RuntimeError):
    """Steady-state or time-evolution failure."""


class DegenerateSteadyStateError(SolverError):
    """The generator has a (numerically) non-unique null space."""


class TruncationError(SolverError):
    """Population tail does not decay within the available levels."""


class StiffnessError(SolverError):
    """Explicit integrator underflowed; use the steady-state solver."""


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

    def delta_n(self, n: int) -> float:
        return self.omega_m_prime + self.lam * (n - 1)


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

    def total_plus(self, n: int) -> float:
        return float(self.a_plus[n - 1].sum())

    def total_minus(self, n: int) -> float:
        return float(self.a_minus[n - 1].sum())


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


def transition_rates(config: SystemConfig, n_max: int | None = None) -> RateTable:
    """Lorentzian phonon-adding/removing rates
    A+-[n][j] = |g_j|^2 kappa / [4 (Delta_j -+ delta_n)^2 + kappa^2]."""
    if n_max is None:
        n_max = config.mech_dim - 1
    nj = len(config.lasers)
    a_plus = np.zeros((n_max, nj))
    a_minus = np.zeros((n_max, nj))
    delta = np.array([config.delta_n(n) for n in range(1, n_max + 1)])
    kap = config.kappa
    for j, laser in enumerate(config.lasers):
        g2k = abs(laser.g) ** 2 * kap
        a_plus[:, j] = g2k / (4.0 * (laser.detuning - delta) ** 2 + kap**2)
        a_minus[:, j] = g2k / (4.0 * (laser.detuning + delta) ** 2 + kap**2)
    return RateTable(a_plus=a_plus, a_minus=a_minus, delta=delta)


def birth_death_rates(config: SystemConfig, n_max: int | None = None):
    """Up/down rates of the population chain: the n -> n+1 rate is
    (n+1) [sum_j A+^(n+1) + gamma n_bar], the n -> n-1 rate is
    n [sum_j A-^n + gamma (n_bar + 1)]."""
    if n_max is None:
        n_max = config.mech_dim - 1
    rates = transition_rates(config, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    up = n * (rates.a_plus.sum(axis=1) + config.gamma_m * config.n_bar)
    down = n * (rates.a_minus.sum(axis=1) + config.gamma_m * (config.n_bar + 1.0))
    return up, down, rates


def build_reduced_generator(config: SystemConfig) -> sp.csr_matrix:
    """Tridiagonal birth-death rate matrix Q on the mechanical populations
    (dP/dt = Q P, columns sum to zero)."""
    nm = config.mech_dim
    up, down, _ = birth_death_rates(config, nm - 1)
    q = np.zeros((nm, nm))
    for n in range(1, nm):
        q[n, n - 1] += up[n - 1]       # n-1 -> n
        q[n - 1, n - 1] -= up[n - 1]
        q[n - 1, n] += down[n - 1]     # n -> n-1
        q[n, n] -= down[n - 1]
    return sp.csr_matrix(q, dtype=complex)


# ---------------------------------------------------------------------------
# steady-state solvers

def reduced_steady_populations(config: SystemConfig, n_cut: int | None = None,
                               tail_check: bool = True) -> SteadyState:
    """Steady populations from the detailed-balance recursion
    P_n / P_(n-1) = [sum_j A+^n + gamma n_bar] / [sum_j A-^n + gamma (n_bar+1)],
    accumulated in log space and normalized."""
    if n_cut is None:
        n_cut = config.mech_dim - 1
    if n_cut > config.mech_dim - 1:
        raise ValueError("n_cut exceeds available truncation")
    rates = transition_rates(config, n_cut)
    gam = config.gamma_m
    up = rates.a_plus.sum(axis=1) + gam * config.n_bar
    down = rates.a_minus.sum(axis=1) + gam * (config.n_bar + 1.0)
    log_ratios = np.log(up) - np.log(down)
    # persistent growth means the chain has no normalizable tail here
    tail = log_ratios[max(0, n_cut - 3):]
    if tail_check and np.all(tail >= 0):
        raise TruncationError(
            "population ratios do not decay near the truncation; "
            f"last ratios {np.exp(tail)}")
    log_p = np.concatenate([[0.0], np.cumsum(log_ratios)])
    log_p -= log_p.max()
    p = np.exp(log_p)
    p /= p.sum()
    if tail_check and p[n_cut] >= 1e-3 * p.max():
        raise TruncationError(
            f"top-level population {p[n_cut]:.3e} is not negligible "
            f"(max {p.max():.3e}); increase the truncation")
    q = build_reduced_generator(config)
    residual = float(np.linalg.norm(q @ p.astype(complex)))
    return SteadyState(rho=None, populations=p, residual=residual,
                       method="recursion")


def steady_state_solve(liou: Liouvillian) -> SteadyState:
    """Null-space steady state of the full generator: solve L x = 0 with the
    trace constraint replacing row 0, by sparse LU (SuperLU, COLAMD column
    ordering).  A pivot below PIVOT_RATIO times the largest one means the
    null space is not one-dimensional."""
    d = liou.space.total_dim
    lsuper = liou.superoperator
    trace_row = sp.csr_matrix(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(0, d * d, d + 1))),
        shape=(1, d * d))
    a = sp.vstack([trace_row, lsuper[1:]], format="csc")
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
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    x = lu.solve(rhs)

    rho = x.reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    if w.min() < -1e-8:
        raise SolverError(
            f"steady state has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    rho /= np.trace(rho).real
    vec = rho.reshape(-1, order="F")
    residual = float(np.linalg.norm(lsuper @ vec))
    dm = DensityMatrix(liou.space, rho)
    return SteadyState(rho=dm, populations=None, residual=residual,
                       method="sparse_lu")


# ---------------------------------------------------------------------------
# time evolution

def time_evolve(liou: Liouvillian, rho0: DensityMatrix, t_final: float,
                tolerance: float = 1e-10, n_samples: int = 20):
    """Adaptive integration of the vectorized master equation; returns
    (times, [DensityMatrix]).  Trace drift beyond 1e-8 raises."""
    d = liou.space.total_dim
    lsuper = liou.superoperator
    y0 = rho0.matrix.reshape(-1, order="F")

    def rhs(_t, y):
        return lsuper @ y

    t_eval = np.linspace(0.0, t_final, n_samples)
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="RK45",
                    t_eval=t_eval, rtol=tolerance, atol=tolerance * 1e-2)
    if not sol.success:
        raise StiffnessError(
            f"integrator failed ({sol.message}); the generator is likely stiff, "
            "use steady_state_solve instead")
    states = []
    for k in range(sol.y.shape[1]):
        m = sol.y[:, k].reshape((d, d), order="F")
        drift = abs(np.trace(m).real - 1.0)
        if drift > 1e-8:
            raise SolverError(f"trace drift {drift:.3e} during evolution")
        states.append(DensityMatrix(liou.space, m))
    return sol.t, states
