"""Density matrices on tensor products of truncated Fock spaces, and the
partial trace.

A space is its tuple of factor dimensions, as QuTiP's dims.  Basis ordering
is lexicographic with the first tensor factor varying slowest, i.e. the
composite basis index of occupations (n_0, ..., n_k) is
n_0 * (d_1*...*d_k) + n_1 * (d_2*...*d_k) + ... + n_k.  This matches the
ordering produced by chained Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DensityMatrix:
    """Complex square matrix on the tensor product of factors of dimensions
    `dims`."""

    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = math.prod(self.dims)
        if m.shape != (d, d):
            raise ValueError(f"density matrix shape {m.shape}, expected {(d, d)}")
        object.__setattr__(self, "matrix", m)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Trace out all factors except the one at index ``keep``."""
    dims = rho.dims
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep slot {keep} out of range")
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract every pair of (bra, ket) axes except the kept one
    for ax in range(n - 1, -1, -1):
        if ax == keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + (t.ndim // 2))
    return DensityMatrix(dims[keep:keep + 1], t)
