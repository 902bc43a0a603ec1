"""Truncated Fock spaces of bosonic modes and their tensor products, density
matrices on them, and the partial trace.

Basis ordering is lexicographic with the first tensor factor varying
slowest, i.e. the composite basis index of occupations (n_0, ..., n_k) is
n_0 * (d_1*...*d_k) + n_1 * (d_2*...*d_k) + ... + n_k.  This matches the
ordering produced by chained Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class FockError(ValueError):
    """Invalid space, density-matrix shape or factor slot."""


@dataclass(frozen=True)
class FockSpace:
    """A single truncated bosonic mode with states |0>..|dim-1>, or one
    block of the states of several modes taken as one factor (the cavity
    block of the full model, see lindblad.SystemConfig.space)."""

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

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


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
