"""Property tests of the Wigner kernel: the bound |W| <= 2/pi, the origin
identity, the normalisation of Fock mixtures up to 400 levels, the
population path's quarter grid against the series on the whole grid, and
the density-matrix path against an independent displaced-parity oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from nanomech import observables
from nanomech.fock import DensityMatrix
from nanomech.observables import (WIGNER_BOUND, _wigner_series, symmetric_grid,
                                  wigner_from_density_matrix,
                                  wigner_from_populations, wigner_origin)


@st.composite
def populations(draw, max_levels):
    """A normalised Fock mixture; sparse draws put weight on high levels."""
    levels = draw(st.integers(1, max_levels))
    weights = np.zeros(levels)
    for n in draw(st.lists(st.integers(0, levels - 1), min_size=1,
                           max_size=6)):
        weights[n] += draw(st.floats(0.01, 1.0))
    return weights / weights.sum()


@st.composite
def density_matrices(draw, max_dim):
    """A random density matrix A A^+ / Tr(A A^+) of random rank."""
    d = draw(st.integers(2, max_dim))
    parts = draw(arrays(float, (2, d, draw(st.integers(1, d))),
                        elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    if trace < 1e-6:
        rho, trace = np.eye(d, dtype=complex), d
    return DensityMatrix((d,), rho / trace)


def oracle(rho, alpha, pad=40):
    """(2/pi) Tr[rho D(alpha) P D(alpha)^+] with the parity P = (-1)^(b+ b)
    and D = exp(alpha b^+ - alpha* b) by expm in a truncation d + pad."""
    d = rho.matrix.shape[0]
    n = d + pad
    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    disp = expm(alpha * b.T - np.conj(alpha) * b)
    parity = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    big = np.zeros((n, n), dtype=complex)
    big[:d, :d] = rho.matrix
    return WIGNER_BOUND * np.trace(big @ (disp * parity) @ disp.conj().T).real


@settings(max_examples=30, deadline=None)
@given(density_matrices(12))
def test_wigner_bound(rho):
    x = np.linspace(-6.0, 6.0, 41)
    w = wigner_from_density_matrix(rho, x, x).values
    assert np.max(np.abs(w)) <= WIGNER_BOUND * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(populations(400), density_matrices(12))
def test_origin_is_alternating_sum(pn, rho):
    origin = np.zeros(1)
    alternating = WIGNER_BOUND * sum((-1) ** n * v for n, v in enumerate(pn))
    w = wigner_from_populations(pn, origin, origin)
    assert w.values[0, 0] == pytest.approx(alternating, abs=1e-12)
    assert wigner_origin(pn) == pytest.approx(alternating, abs=1e-12)
    diag = np.real(np.diag(rho.matrix))
    w = wigner_from_density_matrix(rho, origin, origin)
    assert w.values[0, 0] == pytest.approx(
        WIGNER_BOUND * sum((-1) ** n * v for n, v in enumerate(diag)),
        abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(populations(400))
@example(np.eye(400)[399])
@example(np.full(400, 1.0 / 400))
def test_fock_mixture_normalisation_and_bound(pn):
    # W is radial, so its integral over the plane is 2 pi int r W(r, 0) dr;
    # the grid steps 0.005, about 1/16 of the shortest fringe at 400 levels,
    # and reaches 6 beyond the classical radius sqrt(n)
    r = np.arange(0.0, np.sqrt(pn.size) + 6.0, 0.005)
    w = wigner_from_populations(pn, r, np.zeros(1)).values[0]
    assert 2.0 * np.pi * np.trapezoid(r * w, r) == pytest.approx(1.0, abs=1e-3)
    assert np.max(np.abs(w)) <= WIGNER_BOUND * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(density_matrices(8),
       st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2 * np.pi)),
                min_size=1, max_size=3))
def test_density_path_matches_displaced_parity(rho, points):
    for radius, angle in points:
        alpha = radius * np.exp(1j * angle)
        w = wigner_from_density_matrix(rho, [alpha.real], [alpha.imag])
        assert w.values[0, 0] == pytest.approx(oracle(rho, alpha), abs=1e-10)


@st.composite
def grids(draw):
    """A symmetric grid, with or without 0, or any sorted or unsorted set of
    coordinates, with repeats and signed zeros."""
    points = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return symmetric_grid(draw(st.floats(0.1, 8.0)), points)
    pool = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    pool += draw(st.sampled_from([[], [0.0], [-0.0, 0.0]]))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=points)))


def assert_quarter_matches_whole_grid(pn, x, p):
    wig = wigner_from_populations(pn, x, p)
    whole = _wigner_series([pn], x, p)
    assert np.array_equal(wig.values.view(np.int64), whole.view(np.int64))
    cells, rows, cols = wig.cells
    assert np.array_equal(cells[np.ix_(rows, cols)], wig.values)
    assert cells.size <= wig.values.size


@settings(max_examples=60, deadline=None)
@given(populations(60), grids(), grids())
def test_population_quarter_grid_matches_whole_grid(pn, x, p):
    # W is a function of x^2 + p^2: the series on the distinct |x| and |p|,
    # expanded, is the series on the whole grid bit for bit
    assert_quarter_matches_whole_grid(pn, x, p)


@pytest.mark.parametrize("levels", [240, 320, 1000])
def test_population_quarter_grid_matches_after_rescaling(monkeypatch, levels):
    # the default grid reaches 4 + sqrt(levels), where the recurrence passes
    # LIMIT and rescales; without the rescaling it overflows to NaN
    pn = np.random.default_rng(levels).random(levels)
    pn /= pn.sum()
    x = symmetric_grid(4.0 + np.sqrt(levels), 15)
    assert_quarter_matches_whole_grid(pn, x, x[2:9])
    monkeypatch.setattr(observables, "LIMIT", np.inf)
    with np.errstate(all="ignore"):
        assert not np.isfinite(_wigner_series([pn], x, x)).all()
