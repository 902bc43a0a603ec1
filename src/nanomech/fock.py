"""Truncated Fock-space operator algebra on tensor products of bosonic modes.

Operators are stored as sparse complex matrices (CSR) tagged with the space
they act on.  Basis ordering is lexicographic with the first tensor factor
varying slowest, i.e. the composite basis index of occupations (n_0, ..., n_k)
is n_0 * (d_1*...*d_k) + n_1 * (d_2*...*d_k) + ... + n_k.  This matches the
ordering produced by chained Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# magnitude below which matrix entries are dropped as structural zeros
ZERO_DROP = 1e-15

# validation tolerances for density matrices coming out of solvers
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIG_TOL = 1e-8


class FockError(ValueError):
    """Dimension/slot mismatch or invalid operator construction."""


@dataclass(frozen=True)
class FockSpace:
    """A single truncated bosonic mode with states |0>..|dim-1>."""

    dim: int
    label: str = "mode"

    def __post_init__(self):
        if self.dim < 2:
            raise FockError(f"FockSpace dim must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of FockSpaces; order is fixed for a model."""

    factors: tuple[FockSpace, ...]

    def __post_init__(self):
        if not self.factors:
            raise FockError("CompositeSpace needs at least one factor")
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise FockError(f"duplicate factor labels: {labels}")

    @property
    def total_dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)


def _as_composite(space) -> CompositeSpace:
    if isinstance(space, FockSpace):
        return CompositeSpace((space,))
    return space


@dataclass(frozen=True)
class FockOperator:
    """Sparse complex operator tagged with the space it acts on."""

    space: CompositeSpace
    matrix: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "space", _as_composite(self.space))
        m = sp.csr_matrix(self.matrix, dtype=complex)
        if m.shape != (self.space.total_dim, self.space.total_dim):
            raise FockError(
                f"matrix shape {m.shape} does not match space dim "
                f"{self.space.total_dim}")
        mask = np.abs(m.data) > ZERO_DROP
        if not mask.all():
            m.data[~mask] = 0.0
            m.eliminate_zeros()
        object.__setattr__(self, "matrix", m)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.space, self.matrix.conj().T.tocsr())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _check_same_space(self, other: "FockOperator"):
        if self.space.dims != other.space.dims:
            raise FockError(
                f"operator spaces differ: {self.space.dims} vs {other.space.dims}")

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check_same_space(other)
        return FockOperator(self.space, (self.matrix @ other.matrix).tocsr())

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check_same_space(other)
        return FockOperator(self.space, (self.matrix + other.matrix).tocsr())

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._check_same_space(other)
        return FockOperator(self.space, (self.matrix - other.matrix).tocsr())

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.space, (self.matrix * complex(scalar)).tocsr())

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return self * (-1.0)

    def dump_coo(self, path):
        """Debug dump as a coordinate-list text file: row col re im."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write("# row col re im\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


@dataclass(frozen=True)
class DensityMatrix:
    """Complex square matrix on a (composite) Fock space."""

    space: CompositeSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "space", _as_composite(self.space))
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise FockError(f"density matrix shape {m.shape}, expected {(d, d)}")
        object.__setattr__(self, "matrix", m)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    def validate(self, trace_tol=TRACE_TOL, herm_tol=HERM_TOL, eig_tol=EIG_TOL):
        """Raise FockError unless Hermitian, unit trace, and near-positive."""
        m = self.matrix
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise FockError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        nrm = np.linalg.norm(m)
        if nrm > 0 and np.linalg.norm(m - m.conj().T) / nrm > herm_tol:
            raise FockError("density matrix is not Hermitian to tolerance")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w.min() < -eig_tol:
            raise FockError(f"negative eigenvalue {w.min():.3e}")


# ---------------------------------------------------------------------------
# constructors

def annihilation(space: FockSpace) -> FockOperator:
    """Ladder operator with <n-1|b|n> = sqrt(n)."""
    d = space.dim
    data = np.sqrt(np.arange(1, d))
    m = sp.diags(data, offsets=1, shape=(d, d), format="csr", dtype=complex)
    return FockOperator(space, m)


def creation(space: FockSpace) -> FockOperator:
    return annihilation(space).dagger()


def number(space: FockSpace) -> FockOperator:
    m = sp.diags(np.arange(space.dim, dtype=float), format="csr", dtype=complex)
    return FockOperator(space, m)


def identity(space) -> FockOperator:
    comp = _as_composite(space)
    return FockOperator(comp, sp.identity(comp.total_dim, dtype=complex, format="csr"))


def fock_transition(space: FockSpace, n: int) -> FockOperator:
    """The operator sqrt(n) |n-1><n| on a single mode."""
    if not 1 <= n <= space.dim - 1:
        raise FockError(f"transition index n={n} outside 1..{space.dim - 1}")
    m = sp.csr_matrix(
        (np.array([np.sqrt(n)], dtype=complex),
         (np.array([n - 1]), np.array([n]))),
        shape=(space.dim, space.dim))
    return FockOperator(space, m)


def fock_state(space, occupations) -> DensityMatrix:
    """Pure product Fock state |n_0, n_1, ...><...| on the given space."""
    comp = _as_composite(space)
    occ = [occupations] if isinstance(occupations, int) else list(occupations)
    if len(occ) != len(comp.factors):
        raise FockError("one occupation per factor required")
    idx = 0
    for n, f in zip(occ, comp.factors):
        if not 0 <= n < f.dim:
            raise FockError(f"occupation {n} outside space of dim {f.dim}")
        idx = idx * f.dim + n
    m = np.zeros((comp.total_dim, comp.total_dim), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(comp, m)


def diagonal_density(space: FockSpace, populations) -> DensityMatrix:
    p = np.asarray(populations, dtype=float)
    if p.shape != (space.dim,):
        raise FockError("population vector length must equal dim")
    return DensityMatrix(space, np.diag(p.astype(complex)))


# ---------------------------------------------------------------------------
# composition and reduction

def lift(op: FockOperator, composite: CompositeSpace, slot: int) -> FockOperator:
    """Embed a single-factor operator as id x ... x op x ... x id."""
    if not 0 <= slot < len(composite.factors):
        raise FockError(f"slot {slot} out of range for {len(composite.factors)} factors")
    target = composite.factors[slot]
    if op.space.total_dim != target.dim:
        raise FockError(
            f"operator dim {op.space.total_dim} does not match factor dim {target.dim}")
    left = sp.identity(math.prod(composite.dims[:slot]), dtype=complex)
    right = sp.identity(math.prod(composite.dims[slot + 1:]), dtype=complex)
    return FockOperator(composite, sp.kron(sp.kron(left, op.matrix), right,
                                           format="csr"))


def tensor_density(*rhos: DensityMatrix) -> DensityMatrix:
    """Tensor product of density matrices, in factor order."""
    factors = []
    m = np.array([[1.0 + 0j]])
    for rho in rhos:
        factors.extend(rho.space.factors)
        m = np.kron(m, rho.matrix)
    return DensityMatrix(CompositeSpace(tuple(factors)), m)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Trace out all factors except the one at index ``keep``."""
    dims = rho.space.dims
    if not 0 <= keep < len(dims):
        raise FockError(f"keep slot {keep} out of range")
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract every pair of (bra, ket) axes except the kept one
    for ax in range(n - 1, -1, -1):
        if ax == keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + (t.ndim // 2))
    return DensityMatrix(rho.space.factors[keep], t)


def expectation(rho: DensityMatrix, op: FockOperator) -> complex:
    """Tr(rho * op)."""
    if rho.space.dims != op.space.dims:
        raise FockError("expectation: spaces do not match")
    return complex((op.matrix @ rho.matrix).diagonal().sum())
