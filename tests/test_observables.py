import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from nanomech.fock import DensityMatrix
from nanomech.lindblad import (RateTable, SystemConfig, LaserParams,
                               reduced_steady_populations, transition_rates)
from nanomech.observables import (WIGNER_BOUND, SpectrumInversionError,
                                  _interp_peak, _window, default_grid,
                                  linewidths,
                                  populations_from_spectrum, power_spectrum,
                                  sideband_grid, sideband_lines,
                                  wigner_from_density_matrix,
                                  wigner_from_populations, wigner_origin)

from conftest import GAMMA_M, N_BAR, quoted_system

TWO_PI = 2 * np.pi


def grid(half=5.0, pts=161):
    x = np.linspace(-half, half, pts)
    return x, x.copy()


# ---------------------------------------------------------------------------
# Wigner functions

def test_vacuum_origin_and_profile():
    x, p = grid()
    w = wigner_from_populations([1.0], x, p)
    assert w.origin_value == pytest.approx(WIGNER_BOUND, rel=1e-12)
    # Gaussian profile (2/pi) e^(-2 r^2)
    r2 = x[None, :] ** 2 + p[:, None] ** 2
    np.testing.assert_allclose(w.values, WIGNER_BOUND * np.exp(-2 * r2),
                               atol=1e-12)
    assert w.grid_integral() == pytest.approx(1.0, abs=1e-6)


def test_single_phonon_origin():
    x, p = grid()
    w = wigner_from_populations([0.0, 1.0], x, p)
    assert w.origin_value == pytest.approx(-WIGNER_BOUND, rel=1e-12)
    assert w.min_value == pytest.approx(-WIGNER_BOUND, rel=1e-6)
    assert w.grid_integral() == pytest.approx(1.0, abs=1e-6)


def test_origin_equals_alternating_sum():
    pn = np.array([0.3, 0.4, 0.2, 0.07, 0.03])
    x, p = grid()
    w = wigner_from_populations(pn, x, p)
    alt = WIGNER_BOUND * np.sum((-1.0) ** np.arange(5) * pn)
    assert w.origin_value == pytest.approx(alt, abs=1e-12)
    assert wigner_origin(pn) == pytest.approx(alt, abs=1e-15)
    # the grid value at the origin agrees with the closed form
    i0 = len(p) // 2
    assert w.values[i0, i0] == pytest.approx(alt, abs=1e-12)


def test_wigner_bound_and_normalization_high_levels():
    pn = np.ones(12) / 12.0
    x, p = grid(half=8.0, pts=201)
    w = wigner_from_populations(pn, x, p)
    assert np.max(np.abs(w.values)) <= WIGNER_BOUND + 1e-9
    assert w.grid_integral() == pytest.approx(1.0, abs=1e-4)


@settings(max_examples=20, deadline=None)
@given(arrays(float, st.integers(2, 12), elements=st.floats(0.0, 1.0)))
@example(np.array([0.35, 0.30, 0.20, 0.10, 0.04, 0.01]))
def test_density_matrix_path_matches_population_path(weights):
    assume(weights.sum() > 1e-3)
    pn = weights / weights.sum()
    x, p = grid()
    w_pop = wigner_from_populations(pn, x, p)
    w_rho = wigner_from_density_matrix(
        DensityMatrix((pn.size,), np.diag(pn)), x, p)
    np.testing.assert_allclose(w_rho.values, w_pop.values, atol=1e-12)


def test_displaced_vacuum_gaussian():
    # coherent state |alpha>: Gaussian of the same shape centered at alpha
    alpha = 0.9 + 0.4j
    b = np.diag(np.sqrt(np.arange(1.0, 25.0)), 1)
    disp = expm(alpha * b.conj().T - np.conj(alpha) * b)
    vac = np.zeros((25, 25), dtype=complex)
    vac[0, 0] = 1.0
    rho = DensityMatrix((25,), disp @ vac @ disp.conj().T)
    x, p = grid(half=4.0, pts=121)
    w = wigner_from_density_matrix(rho, x, p)
    expected = WIGNER_BOUND * np.exp(
        -2.0 * ((x[None, :] - alpha.real) ** 2 + (p[:, None] - alpha.imag) ** 2))
    np.testing.assert_allclose(w.values, expected, atol=1e-8)


def test_superposition_interference_fringes():
    # (|0> + |2>)/sqrt(2) has off-diagonal structure a population-only
    # calculation cannot see
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[2] = 1.0 / np.sqrt(2.0)
    rho = DensityMatrix((4,), np.outer(vec, vec.conj()))
    x, p = grid()
    w_rho = wigner_from_density_matrix(rho, x, p)
    w_pop = wigner_from_populations([0.5, 0.0, 0.5, 0.0], x, p)
    assert np.max(np.abs(w_rho.values - w_pop.values)) > 0.01
    assert w_rho.grid_integral() == pytest.approx(1.0, abs=1e-6)


def test_phase_space_orientation():
    # (|0> + i|1>)/sqrt(2) has <b> = i/2, so its peak sits on the +p axis
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0 / np.sqrt(2.0)
    vec[1] = 1j / np.sqrt(2.0)
    rho = DensityMatrix((4,), np.outer(vec, vec.conj()))
    x, p = grid(half=4.0, pts=121)
    w = wigner_from_density_matrix(rho, x, p)
    i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
    assert x[j] == pytest.approx(0.0, abs=0.1)
    assert p[i] > 0.3


def test_non_hermitian_rejected():
    m = np.diag([0.6, 0.4, 0.0]).astype(complex)
    m[0, 1] = 0.3
    with pytest.raises(ValueError):
        wigner_from_density_matrix(DensityMatrix((3,), m), *grid())


def test_multimode_rejected():
    with pytest.raises(ValueError):
        wigner_from_density_matrix(
            DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0])), *grid())




def test_default_grid_scales_with_truncation():
    x8 = default_grid(8, 121)
    x32 = default_grid(32, 121)
    assert x8[-1] == pytest.approx(4.0 + np.sqrt(8.0))
    assert x32[-1] > x8[-1]


# ---------------------------------------------------------------------------
# sideband spectra

def probe_system(power_scale=1.0, mech_dim=8):
    base = quoted_system(mech_dim=mech_dim)
    probe_g = 2.0e2 * np.sqrt(power_scale)
    return base, SystemConfig(
        mech_dim=mech_dim, cavity_photons=1,
        omega_m_prime=base.omega_m_prime, lam=base.lam,
        gamma_m=base.gamma_m, n_bar=base.n_bar, kappa=base.kappa,
        lasers=(LaserParams(g=probe_g, detuning=0.0),))


def spectrum_grid(cfg, n_lines=4, points=40001):
    span = 2.0 * (transition_rates(cfg).delta[n_lines - 1] + 3.0 * cfg.lam)
    return np.linspace(-span / 2.0, span / 2.0, points)


def spectrum_lines(drive, probe, n_levels):
    """The line table of the spectrum of n_levels populations."""
    return sideband_lines(transition_rates(drive), transition_rates(probe),
                          GAMMA_M, N_BAR, n_levels)


def readout_ratios(drive, probe, n_lines):
    """The splitting over 3 max Gamma_n of the first n_lines lines, and the
    largest |A+ - A-| / (A+ + A-) of the probe over them."""
    probe_rates = transition_rates(probe)
    gam = linewidths(transition_rates(drive), GAMMA_M, N_BAR, n_max=n_lines,
                     probe_rates=probe_rates)
    ap = probe_rates.a_plus[:n_lines]
    am = probe_rates.a_minus[:n_lines]
    return (drive.lam / (3.0 * gam.max()),
            float(np.max(np.abs(ap - am) / (ap + am))))


def test_linewidth_thermal_only():
    # no lasers at all: Gamma_n = gamma [n (2 n_bar + 1) + (n-1)(n_bar+1)
    # + (n+1) n_bar]
    zeros = np.zeros(6)
    rates = RateTable(a_plus=zeros, a_minus=zeros.copy(),
                      delta=np.arange(1.0, 7.0))
    gam = linewidths(rates, gamma_m=2.0, n_bar=0.0, n_max=5)
    np.testing.assert_allclose(gam, 2.0 * (2 * np.arange(1, 6) - 1))


def test_linewidth_single_rate():
    # only A-^1 nonzero: Gamma_1 = A-^1 plus the thermal floor
    a_minus = np.zeros(3)
    a_minus[0] = 7.0
    rates = RateTable(a_plus=np.zeros(3), a_minus=a_minus,
                      delta=np.arange(1.0, 4.0))
    gam = linewidths(rates, gamma_m=0.0, n_bar=0.0, n_max=2)
    assert gam[0] == pytest.approx(7.0)
    assert gam[1] == pytest.approx(7.0)      # the (n-1) feeding term at n=2


def test_linewidth_requires_covering_table():
    rates = RateTable(a_plus=np.zeros(3), a_minus=np.zeros(3),
                      delta=np.arange(1.0, 4.0))
    with pytest.raises(ValueError):
        linewidths(rates, 1.0, 0.0, n_max=3)


def test_spectrum_peak_positions_and_pairing():
    drive, probe = probe_system()
    pn = reduced_steady_populations(drive).populations
    freqs = spectrum_grid(drive)
    # a readable line table is not refused: its splitting clears 3 max
    # Gamma_n and its probe is resonant
    lines = spectrum_lines(drive, probe, pn.size)
    resolution, asymmetry = readout_ratios(drive, probe, lines.width.size)
    assert resolution >= 1.0 and asymmetry < 0.01
    spec = power_spectrum(pn, lines, freqs)
    # the 0 <-> 1 line sits at delta_1 = w_m'
    assert lines.delta[0] == pytest.approx(drive.omega_m_prime)
    # and its pair is drawn at -+delta_1: S there tops S a tenth of a
    # width to either side
    d, g = lines.delta[0], lines.width[0]
    s = power_spectrum(pn, lines, [-d - g / 10, -d, -d + g / 10,
                                   d - g / 10, d, d + g / 10]).values
    assert s[1] > max(s[0], s[2]) and s[4] > max(s[3], s[5])
    # neighbouring lines are split by lam
    assert lines.delta[1] - lines.delta[0] == pytest.approx(drive.lam)
    # the dominant upper sideband reflects the inverted n=1 population
    assert spec.heights[0, 0] > spec.heights[0, 1]


def test_spectrum_resonant_ratio_equals_population_ratio():
    drive, probe = probe_system()
    pn = np.array([0.15, 0.60, 0.25])
    freqs = spectrum_grid(drive)
    spec = power_spectrum(pn, spectrum_lines(drive, probe, pn.size), freqs)
    # isolated-line heights: n Gamma A- P_n vs n Gamma A+ P_(n-1) with
    # A+ = A- for the resonant probe
    plus, minus = spec.heights[0]
    assert plus / minus == pytest.approx(pn[1] / pn[0], rel=1e-9)


def test_spectrum_linearity_in_populations():
    drive, probe = probe_system(mech_dim=6)
    freqs = spectrum_grid(drive, n_lines=3, points=8001)
    p1 = np.array([0.7, 0.2, 0.1, 0.0, 0.0, 0.0])
    p2 = np.array([0.1, 0.3, 0.4, 0.15, 0.05, 0.0])
    lines = spectrum_lines(drive, probe, p1.size)
    s1 = power_spectrum(p1, lines, freqs).values
    s2 = power_spectrum(p2, lines, freqs).values
    s12 = power_spectrum(0.5 * (p1 + p2), lines, freqs).values
    np.testing.assert_allclose(s12, 0.5 * (s1 + s2), rtol=1e-12)


def test_lorentzian_peak_area():
    # each line integrates to ~ 2 pi * its weight n A P when well resolved:
    # here n = 1, A = A-^1 of the probe and P = P_1 = 1
    drive, probe = probe_system()
    pn = np.array([0.0, 1.0, 0.0])
    freqs = spectrum_grid(drive, n_lines=2, points=200001)
    lines = spectrum_lines(drive, probe, pn.size)
    spec = power_spectrum(pn, lines, freqs)
    mask = np.abs(freqs - lines.delta[0]) < 60.0 * lines.width[0]
    area = np.trapezoid(spec.values[mask], freqs[mask])
    weight = transition_rates(probe).a_minus[0]
    assert area == pytest.approx(TWO_PI * weight, rel=0.02)


def test_overlapping_lines_flagged():
    drive, probe = probe_system()
    # shrink the anharmonic splitting far below the linewidths
    squeezed = SystemConfig(
        mech_dim=drive.mech_dim, cavity_photons=drive.cavity_photons,
        omega_m_prime=drive.omega_m_prime, lam=drive.lam * 1e-3,
        gamma_m=drive.gamma_m, n_bar=drive.n_bar, kappa=drive.kappa,
        lasers=drive.lasers)
    pn = np.array([0.2, 0.6, 0.2])
    resolution, asymmetry = readout_ratios(squeezed, probe, n_lines=2)
    assert resolution < 1.0 and asymmetry < 0.01
    # the line table is refused, so nothing can be sampled; the refusal
    # names the spacing's ratio to 3 max Gamma_n and its limit
    with pytest.raises(SpectrumInversionError,
                       match=rf"not resolved: .* {resolution:.3g} \(limit 1\)"):
        spectrum_lines(squeezed, probe, pn.size)


def test_detuned_probe_flagged():
    drive, _ = probe_system()
    detuned_probe = SystemConfig(
        mech_dim=drive.mech_dim, cavity_photons=1,
        omega_m_prime=drive.omega_m_prime, lam=drive.lam,
        gamma_m=drive.gamma_m, n_bar=drive.n_bar, kappa=drive.kappa,
        lasers=(LaserParams(g=2.0e2, detuning=3.0 * drive.kappa),))
    pn = np.array([0.2, 0.6, 0.2])
    resolution, asymmetry = readout_ratios(drive, detuned_probe, n_lines=2)
    assert resolution >= 1.0 and asymmetry >= 0.01
    with pytest.raises(SpectrumInversionError,
                       match=rf"asymmetry {asymmetry:.3f} \(limit 0.01\)"):
        spectrum_lines(drive, detuned_probe, pn.size)
    # the probe is judged first, also when the lines overlap as well
    squeezed = dataclasses.replace(drive, lam=drive.lam * 1e-3)
    assert readout_ratios(squeezed, detuned_probe, n_lines=2)[0] < 1.0
    with pytest.raises(SpectrumInversionError,
                       match=rf"asymmetry {asymmetry:.3f} \(limit 0.01\)"):
        spectrum_lines(squeezed, detuned_probe, pn.size)


@pytest.mark.parametrize("pn", [
    [0.05, 0.90, 0.05],
    [0.60, 0.25, 0.10, 0.05],
    [0.25, 0.25, 0.25, 0.25],
])
def test_population_round_trip(pn):
    pn = np.array(pn)
    drive, probe = probe_system()
    freqs = spectrum_grid(drive)
    spec = power_spectrum(pn, spectrum_lines(drive, probe, pn.size), freqs)
    rec, sig = populations_from_spectrum(spec)
    np.testing.assert_allclose(rec, pn, atol=0.02)
    assert np.all(sig >= 0)


def test_ground_state_spectrum_has_only_lower_sidebands():
    drive, probe = probe_system()
    pn = np.array([1.0, 0.0])
    freqs = spectrum_grid(drive, n_lines=2, points=10001)
    spec = power_spectrum(pn, spectrum_lines(drive, probe, pn.size), freqs)
    assert spec.heights.shape == (1, 2)
    assert spec.heights[0, 0] == 0.0
    assert spec.heights[0, 1] > 0.0
    rec, _ = populations_from_spectrum(spec)
    assert rec[0] == pytest.approx(1.0, abs=1e-6)


def test_interp_peak_needs_grid_points():
    drive, probe = probe_system()
    pn = np.array([0.5, 0.5, 0.0])
    # absurdly coarse grid: no samples fall within a half linewidth
    delta_2 = transition_rates(drive).delta[1]
    freqs = np.linspace(-2.0 * delta_2, 2.0 * delta_2, 41)
    spec = power_spectrum(pn, spectrum_lines(drive, probe, pn.size), freqs)
    with pytest.raises(SpectrumInversionError):
        populations_from_spectrum(spec)


@st.composite
def grids_and_windows(draw):
    """A sorted grid of distinct floats at a drawn scale, a center and a
    halfwidth from about an ulp of the center to the scale, with the
    rounded window edges center -+ halfwidth, their neighbouring floats and
    the center among the grid points."""
    scale = 10.0 ** draw(st.integers(-3, 12))
    grid = draw(arrays(float, st.integers(0, 40),
                       elements=st.floats(-1.0, 1.0)))
    center = scale * draw(st.floats(-1.0, 1.0))
    halfwidth = (scale * 10.0 ** draw(st.integers(-17, 0))
                 * draw(st.floats(0.01, 1.0)))
    edges = np.array([center - halfwidth, center + halfwidth])
    freqs = np.unique(np.concatenate([
        scale * grid, edges, np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf), [center]]))
    return freqs, center, halfwidth


@settings(max_examples=300, deadline=None)
@given(grids_and_windows())
def test_window_selects_the_points_of_the_whole_grid_mask(case):
    # the slice of the sorted grid within twice the halfwidth holds every
    # point the test |f - c| <= h admits, rounding edges included
    freqs, center, halfwidth = case
    np.testing.assert_array_equal(
        _window(freqs, center, halfwidth),
        np.flatnonzero(np.abs(freqs - center) <= halfwidth))


# ---------------------------------------------------------------------------
# the sideband frequency grid

EPS = np.finfo(float).eps


@st.composite
def line_sets(draw):
    """Lines in random order, each at least 1.25 of the wider width from its
    neighbour (so many +-4 Gamma windows overlap), with heights over six
    decades, and a span whose edge falls within a few widths of one line."""
    n = draw(st.integers(1, 8))
    widths = np.array(draw(st.lists(st.floats(1.0, 1e5), min_size=n,
                                    max_size=n)))
    mult = draw(st.lists(st.floats(1.25, 12.0), min_size=n - 1,
                         max_size=n - 1))
    gaps = np.array(mult) * np.maximum(widths[:-1], widths[1:])
    centers = draw(st.floats(-1e7, 1e7)) + np.concatenate([[0.0],
                                                          np.cumsum(gaps)])
    heights = 10.0 ** np.array(draw(st.lists(st.floats(0.0, 6.0),
                                             min_size=n, max_size=n)))
    edge = draw(st.integers(0, n - 1))
    half = abs(centers[edge]) + draw(st.floats(-2.0, 3.0)) * widths[edge]
    # a span narrower than a line leaves that line too few points anyway
    assume(2.0 * half >= widths.max())
    order = draw(st.permutations(range(n)))
    return (centers[order], widths[order], heights[order], 2.0 * half,
            draw(st.integers(3, 500)))


@settings(max_examples=200, deadline=None)
@given(line_sets())
def test_sideband_grid_properties(lines):
    centers, widths, heights, span, points = lines
    f = sideband_grid(centers, widths, span, points)
    assert np.all(np.diff(f) > 0)
    assert f[0] >= -span / 2 and f[-1] <= span / 2
    values = sum(h * (g / 2) ** 2 / ((f - c) ** 2 + (g / 2) ** 2)
                 for c, g, h in zip(centers, widths, heights))
    for c, g in zip(centers, widths):
        step = g / 10
        tol = 8 * EPS * (abs(c) + g)
        # evenly spaced over Gamma/2 and one step beyond, on both sides
        near = f[np.abs(f - c) <= g / 2 + step + tol]
        assert np.all(np.abs(np.diff(near) - step) <= tol)
        if abs(c) > span / 2:
            continue
        inside = np.flatnonzero(np.abs(f - c) <= g / 2)
        assert inside.size >= 3
        # the masked maximum, at the centre or pulled to the edge of the
        # Gamma/2 mask by a taller neighbour, has evenly spaced neighbours
        k = inside[np.argmax(values[inside])]
        if 0 < k < f.size - 1:
            assert abs(f[k + 1] - f[k] - step) <= tol
            assert abs(f[k] - f[k - 1] - step) <= tol


def test_sideband_grid_peak_at_clipped_window_edge():
    # a weak line at 0 (Gamma 1) and a line 1e6 times taller 1.3 away
    # (Gamma 0.9): both windows are clipped to +-0.65, so the weak line's
    # points stop at 0.6 and the tall one's start at 0.67, and S rises
    # across the weak line's whole Gamma/2 mask
    centers, widths = np.array([0.0, 1.3]), np.array([1.0, 0.9])
    f = sideband_grid(centers, widths, span=10.0, points=11)
    values = (0.25 / (f ** 2 + 0.25)
              + 1e6 * 0.2025 / ((f - 1.3) ** 2 + 0.2025))
    inside = np.flatnonzero(np.abs(f) <= 0.5)
    k = inside[np.argmax(values[inside])]
    assert f[k] == pytest.approx(0.5)
    # the maximum's right neighbour is the clipped window's last point
    np.testing.assert_allclose(f[k - 1:k + 3] - f[k],
                               [-0.1, 0.0, 0.1, 1.3 - 7 * 0.09 - 0.5],
                               atol=1e-12)
    # the three evenly spaced values lie on the tall line's convex tail, so
    # the readout keeps the sampled maximum rather than extrapolating
    y0, y1, y2 = values[k - 1:k + 2]
    assert y0 - 2 * y1 + y2 > 0
    assert _interp_peak(f, values, 0.0, 0.5) == y1


def test_sideband_grid_from_the_spectrum_lines():
    # one window per line power_spectrum draws, with its widths
    drive, probe = probe_system()
    pn = reduced_steady_populations(drive).populations
    lines = spectrum_lines(drive, probe, pn.size)
    span = 2.0 * (lines.delta[-1] + 3.0 * drive.lam)
    f = sideband_grid(np.concatenate([-lines.delta, lines.delta]),
                      np.tile(lines.width, 2), span, 2001)
    spec = power_spectrum(pn, lines, f)
    assert spec.lines is lines
    assert spec.heights.shape == (lines.delta.size, 2)
    for d, g in zip(lines.delta, lines.width):
        for position in (d, -d):
            assert np.sum(np.abs(f - position) <= g / 2) >= 9
