"""Lindblad generators for the driven nonlinear optomechanical system:
the full multi-mode master equation and the reduced Fock-resolved
birth-death model, with their steady-state solvers.

The full steady state is solved by restarted GMRES (Saad and Schultz, SIAM
J. Sci. Stat. Comput. 7, 856 (1986)), preconditioned with an exact sparse
LU of the uncoupled generator: the full generator with every coupling g_j
set to 0 and the mechanical bath replaced by the reduced chain, so that the
reduced model preconditions its own oracle (iterative steady states as in
Nation, arXiv:1504.06768).  The LU keeps the natural order of the Hermitian
coordinates, which already suits a generator with no mechanics-cavity term;
each restart cycle is an Arnoldi cycle of this module, so a GMRES step
costs one matrix-vector product, one triangular solve pair and four BLAS-2
products.

Both generators come from one formula, -i[H, .] plus one dissipator per
jump operator (_lindblad_super).

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .device import transition_frequency
from .fock import CompositeSpace, DensityMatrix, FockSpace

TRACE_PRESERVATION_TOL = 1e-10
DEFAULT_NNZ_CAP = 200_000_000
# a trace-rowed system whose 1-norm condition estimate exceeds this has a
# null space that is numerically not one-dimensional
CONDITION_LIMIT = 1e12
# GMRES stops at this backward error of the preconditioned system (see
# _gmres); each solve gets at most GMRES_MAX_CYCLES restart cycles of
# GMRES_RESTART iterations
GMRES_TOL = 1e-14
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
        if len(self.cavity_dims) != len(self.lasers):
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
    # the uncoupled generator M that preconditions the steady-state solve
    # (see build_full_liouvillian); None means M = L
    uncoupled: sp.csr_matrix | None = field(default=None, repr=False)

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
    iterations: int = 0         # GMRES iterations, steady and probe solve
    condition: float | None = None  # 1-norm condition estimate (full solve)


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

def _lowering(dims: tuple[int, ...], slot: int, weights) -> sp.csr_matrix:
    """sum_n weights[n-1] |..n-1..><..n..| on factor `slot` of the product
    space with factor dimensions `dims` (first factor slowest), the identity
    on the others; weights sqrt(n) give the factor's annihilation operator."""
    d = math.prod(dims)
    stride = math.prod(dims[slot + 1:])
    cols = np.arange(d)
    n = cols // stride % dims[slot]
    cols, n = cols[n > 0], n[n > 0]
    return sp.csr_matrix((np.asarray(weights)[n - 1], (cols - stride, cols)),
                         shape=(d, d), dtype=complex)


def _hamiltonian_parts(config: SystemConfig):
    """The full Hamiltonian built on the occupation table of the space: the
    space, the diagonal uncoupled part H0 (the anharmonic mechanics
    w_m' n + (lam/2) n (n - 1) and the detuned cavities), H = H0 plus the
    displaced linear coupling, and the ladder operators b and a_j as CSR
    matrices."""
    space = config.space()
    dims = space.dims
    occupations = np.unravel_index(np.arange(space.total_dim), dims)
    n = occupations[0]
    energy = config.omega_m_prime * n + 0.5 * config.lam * n * (n - 1)
    for j, laser in enumerate(config.lasers):
        energy = energy + (-laser.detuning) * occupations[1 + j]
    h0 = sp.diags(energy, format="csr")
    # the ladder operators are real, so their transposes are the creators
    b = _lowering(dims, 0, np.sqrt(np.arange(1, dims[0])))
    x = b + b.T
    cavities = [_lowering(dims, 1 + j, np.sqrt(np.arange(1, dim)))
                for j, dim in enumerate(dims[1:])]
    coupling = sp.csr_matrix((space.total_dim, space.total_dim), dtype=complex)
    for a, laser in zip(cavities, config.lasers, strict=True):
        coupling = coupling + (
            (np.conj(laser.g) / 2.0) * a + (laser.g / 2.0) * a.T) @ x
    h = h0 + coupling
    herm_defect = abs(h - h.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, abs(h).max()):
        raise SolverError(f"Hamiltonian not Hermitian, defect {herm_defect:.3e}")
    return space, h0, h, b, cavities


def build_full_hamiltonian(config: SystemConfig) -> sp.csr_matrix:
    """Multi-mode Hamiltonian (in units of hbar): detuned cavities, the
    anharmonic mechanical mode, and the displaced linear coupling."""
    return _hamiltonian_parts(config)[2]


def _lindblad_super(h: sp.spmatrix, jumps) -> sp.csr_matrix:
    """The generator -i[h, .] + sum_c (c . c^dag - {c^dag c, .}/2) in
    column-stacked form, I kron K + conj(K) kron I + sum_c conj(c) kron c
    with K = -ih - sum_c c^dag c / 2; each jump c carries the square root
    of its rate."""
    k = -1j * h
    for c in jumps:
        k = k - 0.5 * (c.conj().T @ c)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    out = sp.kron(eye, k, format="csr") + sp.kron(k.conj(), eye, format="csr")
    for c in jumps:
        out = out + sp.kron(c.conj(), c, format="csr")
    return out.tocsr()


def _estimate_nnz(config: SystemConfig) -> int:
    d = config.space().total_dim
    # the no-jump and jump terms each contribute O(d * nnz_per_row * d)
    return 8 * d * d * (2 + len(config.cavity_dims))


def build_full_liouvillian(config: SystemConfig,
                           nnz_cap: int = DEFAULT_NNZ_CAP) -> Liouvillian:
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
    if est > nnz_cap:
        raise MemoryError(
            f"estimated superoperator nonzeros {est} exceed cap {nnz_cap}")
    space, h0, h, b, cavities = _hamiltonian_parts(config)
    # the jumps L and M share: the cavity decay
    cavity_jumps = [np.sqrt(config.kappa) * a for a in cavities]
    mech_jumps = []
    if config.gamma_m > 0:
        mech_jumps.append(np.sqrt(config.gamma_m * (config.n_bar + 1.0)) * b)
        if config.n_bar > 0:
            mech_jumps.append(np.sqrt(config.gamma_m * config.n_bar)
                              * b.conj().T.tocsr())
    lsuper = _lindblad_super(h, cavity_jumps + mech_jumps)

    # with no drive the chain's jump operators are the thermal dissipator's
    # and there is no coupling, so M = L
    uncoupled = None
    if config.lasers:
        up, down = chain_rates(transition_rates(config), config.gamma_m,
                               config.n_bar)
        n = np.arange(1, config.mech_dim)
        chain_jumps = [_lowering(space.dims, 0, np.sqrt(n * down)),
                       _lowering(space.dims, 0, np.sqrt(n * up)).T.tocsr()]
        uncoupled = _lindblad_super(h0, cavity_jumps + chain_jumps)

    liou = Liouvillian(space, lsuper, uncoupled)
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


def _real_system(lsuper: sp.spmatrix, t, diag, upper,
                 weight: float) -> sp.csr_matrix:
    """The real n x n system of a Lindbladian in Hermitian coordinates: Re of
    the diagonal rows of L T, with the trace row (every entry `weight`) in
    place of the (0,0) row, stacked on Re and Im of its upper rows."""
    d = diag.size
    lt = (lsuper @ t).tocsr()
    upper_rows = lt[upper]
    trace_row = sp.csr_matrix(
        (np.full(d, weight), (np.zeros(d, dtype=int), np.arange(d))),
        shape=(1, d * d))
    a = sp.vstack([trace_row, lt[diag[1:]].real, upper_rows.real,
                   upper_rows.imag], format="csr")
    a.eliminate_zeros()
    return a


def _arnoldi_cycle(apply, b: np.ndarray, atol: float, restart: int):
    """One GMRES cycle from x = 0 on the system apply(x) = b: at most
    min(restart, n) Arnoldi steps, each orthogonalised by classical
    Gram-Schmidt applied twice, with the Hessenberg least-squares problem
    kept triangular by Givens rotations.  Stops when the rotated residual
    is at most atol, or at a happy breakdown: the Krylov space is invariant,
    and the step just taken is exact (|w| fell below eps of |apply(v_j)|)
    or adds nothing (a zero rotation; it is left out).  Returns the
    correction and the number of steps taken."""
    steps = min(restart, b.size)
    v = np.empty((steps + 1, b.size))
    tri = np.zeros((steps, steps))
    rotations, used = [], 0
    s = [float(np.linalg.norm(b))]
    v[0] = b / s[0]
    for j in range(steps):
        w = apply(v[j])
        size = np.linalg.norm(w)
        col = np.zeros(j + 1)
        for _pass in range(2):
            c = v[:j + 1] @ w
            w -= c @ v[:j + 1]
            col += c
        below = float(np.linalg.norm(w))
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


def _gmres(r: sp.csr_matrix, abs_r: sp.csr_matrix, lu, b: np.ndarray):
    """Solve r x = b by GMRES from x = 0, preconditioned on the left by lu,
    the LU of R_M.  Each restart cycle is one _arnoldi_cycle on the
    correction equation lu^-1 r dx = lu^-1 (b - r x), whose right-hand side
    is formed from the unpreconditioned residual.  The loop stops when the
    backward error |lu^-1 (b - r x)| / |lu^-1 (|r| |x| + |b|)| is at most
    GMRES_TOL.  The denominator is the preconditioned size of the terms
    summed in b - r x, so the test stays a fixed factor above rounding
    however the rows of r are scaled; their entries span about 1 to 1e8 on
    the reference device, where a relative test on |b - r x| is out of
    reach for even a direct solve.  Returns x, the GMRES iteration count
    and the backward error."""
    x = np.zeros_like(b)
    iterations = 0
    for cycle in range(GMRES_MAX_CYCLES + 1):
        residual = lu.solve(b - r @ x)
        scale = np.linalg.norm(lu.solve(abs_r @ np.abs(x) + np.abs(b)))
        error = np.linalg.norm(residual) / scale
        if error <= GMRES_TOL or cycle == GMRES_MAX_CYCLES:
            return x, iterations, error
        dx, steps = _arnoldi_cycle(lambda v: lu.solve(r @ v), residual,
                                   GMRES_TOL * scale, GMRES_RESTART)
        x = x + dx
        iterations += steps


def steady_state_solve(liou: Liouvillian) -> SteadyState:
    """Null-space steady state of the full generator, solved in the real
    coordinates r of Hermitian matrices (x = T r, see _hermitian_coordinates).

    A Lindbladian maps Hermitian matrices to Hermitian ones, so L T has real
    diagonal rows and its upper rows fix the lower ones: the real n x n
    system R stacks Re of the diagonal rows of L T on Re and Im of its upper
    rows, with the trace row, weighted with max|L_ij|, in place of the (0,0)
    row.  R_M is built from the uncoupled generator M (liou.uncoupled, or L
    itself when that is None) in the same way.  Its sparse LU (`splu` in
    natural order) preconditions restarted GMRES on R r = max|L_ij| e_0
    (see _gmres for the stopping test).

    Uniqueness: L(X^dagger) = L(X)^dagger, so the null space of L is closed
    under the adjoint, and a complex null space of dimension k has a
    Hermitian part of real dimension k.  R is therefore nonsingular exactly
    when the null space of L is one-dimensional.  A second GMRES solve
    R y = b, with b a fixed-seed random vector, gives the 1-norm condition
    estimate |R|_1 |y|_1 / |b|_1.  An estimate above CONDITION_LIMIT, or a
    singular R_M, raises DegenerateSteadyStateError.  A singular R makes b
    inconsistent, so the estimate is judged even when that solve did not
    converge.  A steady or probe solve that misses GMRES_TOL within its
    budget raises SolverError; no unconverged rho is returned.  The
    solution and the eigenvalue-clipped state are read back through T, so
    rho is exactly Hermitian."""
    d = liou.space.total_dim
    lsuper = liou.superoperator
    t, diag, upper = _hermitian_coordinates(d)
    # the trace row is weighted with the largest entry of L, so that R, and
    # the condition estimate, do not depend on the units of the rates
    weight = float(np.abs(lsuper.data).max(initial=0.0))
    r = _real_system(lsuper, t, diag, upper, weight)
    r_m = r if liou.uncoupled is None else _real_system(liou.uncoupled, t,
                                                         diag, upper, weight)
    try:
        # the Hermitian-coordinate order already suits M: at fig2 mech 8 its
        # LU has 33k nonzeros against 34k after COLAMD, and solves 2-3x
        # faster.  With no drive (M = L) it fills more, the more the hotter
        # the bath (d = 320: +15% at n_bar 0.5, x2.9 at n_bar 50)
        lu = spla.splu(r_m.tocsc(), permc_spec="NATURAL")
    except RuntimeError:
        raise DegenerateSteadyStateError(
            "trace-constrained preconditioner is singular; the generator "
            "null space is not one-dimensional") from None
    abs_r = abs(r)
    rhs = np.zeros(d * d)
    rhs[0] = weight
    x, steady_its, steady_error = _gmres(r, abs_r, lu, rhs)
    probe = np.random.default_rng(PROBE_SEED).standard_normal(d * d)
    y, probe_its, probe_error = _gmres(r, abs_r, lu, probe)
    condition = float(spla.norm(r, 1) * np.abs(y).sum() / np.abs(probe).sum())
    if not condition <= CONDITION_LIMIT:
        raise DegenerateSteadyStateError(
            f"condition estimate {condition:.3e} of the trace-constrained "
            f"system exceeds {CONDITION_LIMIT:.0e}: null space is not "
            "one-dimensional")
    for name, its, error in (("steady", steady_its, steady_error),
                             ("probe", probe_its, probe_error)):
        if not error <= GMRES_TOL:
            raise SolverError(
                f"GMRES {name} solve did not converge: backward error "
                f"{error:.3e} (tolerance {GMRES_TOL:.0e}) after {its} "
                "iterations")
    rho = (t @ x).reshape((d, d), order="F")

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
                       method="gmres", iterations=steady_its + probe_its,
                       condition=condition)
