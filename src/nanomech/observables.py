"""Wigner functions, probe sideband spectra, and the spectrum-to-population
inversion.

Wigner convention: phase-space coordinates (x, p) are the real and imaginary
parts of the coherent amplitude, so the vacuum gives W(0,0) = 2/pi and
|W| <= 2/pi everywhere; the grid integral of W over dx dp is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix
from .lindblad import (RateTable, SolverError, chain_rates, level_rates,
                       populations_from_log_ratios)

WIGNER_BOUND = 2.0 / np.pi


class SpectrumInversionError(RuntimeError):
    """Peaks too broad or overlapping for the population readout."""


@dataclass(frozen=True)
class WignerData:
    x: np.ndarray
    p: np.ndarray
    values: np.ndarray          # shape (len(p), len(x))
    origin_value: float
    min_value: float
    # values as cells[rows][:, cols]: W on fewer rows and columns, and the
    # index into them of each row and column of values; None for values
    # itself
    cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def grid_integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.x, axis=1), self.p))


@dataclass(frozen=True)
class SidebandLines:
    """The readable sideband lines n = 1..N of a probe spectrum, made by
    sideband_lines only: offsets delta_n from the probe, widths Gamma_n,
    and the probe's A-^n and A+^n."""
    delta: np.ndarray
    width: np.ndarray
    a_minus: np.ndarray
    a_plus: np.ndarray


@dataclass(frozen=True)
class SpectrumData:
    frequencies: np.ndarray
    values: np.ndarray
    lines: SidebandLines
    # isolated-line heights of the lines drawn, 1..n: row n - 1 holds those
    # at +delta_n and -delta_n
    heights: np.ndarray         # shape (n, 2)


# ---------------------------------------------------------------------------
# Wigner functions

# |g_m| past which _wigner_series rescales: far below overflow, far above
# the largest growth in one step of its recurrence (about z)
LIMIT = 2.0 ** 500


def wigner_origin(populations) -> float:
    """Alternating-sum origin value (2/pi) sum_n (-1)^n P_n."""
    p = np.asarray(populations, dtype=float)
    signs = np.where(np.arange(p.size) % 2 == 0, 1.0, -1.0)
    return float(WIGNER_BOUND * np.dot(signs, p))


def _wigner_series(diagonals, x, p) -> np.ndarray:
    """W(x + ip) = (2/pi) sum_k c_k Re[u^k S_k] for diagonals[k][m] =
    rho_{m+k,m}, with c_0 = 1, c_k = 2, u = (x - ip)/|x + ip| and
    S_k = sum_m (-1)^m rho_{m+k,m} f_m^k(z), z = 4(x^2 + p^2).  The
    f_m^k(z) = sqrt(m!/(m+k)!) z^(k/2) e^(-z/2) L_m^k(z) = |<m+k|D(beta)|m>|,
    |beta|^2 = z, are bounded by 1; f_m^k = g_m e^scale runs their upward
    recurrence from g_0 = 1, and powers of two move from g and S_k into
    scale, so no factor leaves the float range.  A non-finite z gives NaN."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = 4.0 * (x[None, :] ** 2 + p[:, None] ** 2)
        if len(diagonals) > 1:
            log_z = np.log(z)
            unit = np.exp(-1j * np.arctan2(p[:, None], x[None, :]))
        w, phase = np.zeros(z.shape), 1.0
        for k, coefs in enumerate(diagonals):
            scale = -0.5 * z - 0.5 * math.lgamma(k + 1)
            if k:
                scale += 0.5 * k * log_z
                phase = phase * unit
            g_prev, g, tmp = np.zeros(z.shape), np.ones(z.shape), np.empty(z.shape)
            s = coefs[0] * g
            for m, c in enumerate(coefs[1:]):
                # g_(m+1) = [(2m+1+k-z) g_m - sqrt(m(m+k)) g_(m-1)]
                #           / sqrt((m+1)(m+k+1)), in place
                np.subtract(2 * m + 1 + k, z, out=tmp)
                tmp *= g
                g_prev *= -np.sqrt(m * (m + k))
                g_prev += tmp
                g_prev /= np.sqrt((m + 1) * (m + k + 1))
                g_prev, g = g, g_prev
                s += (c if m % 2 else -c) * g
                if g.max() > LIMIT or g.min() < -LIMIT:
                    shift = np.where(np.abs(g) > LIMIT, np.frexp(g)[1], 0)
                    factor = np.ldexp(1.0, -shift)
                    g, g_prev, s = g * factor, g_prev * factor, s * factor
                    scale += shift * np.log(2.0)
            w += (2.0 if k else 1.0) * (phase * s * np.exp(scale)).real
    return WIGNER_BOUND * w


def _wigner_data(w, x, p, populations, cells=None) -> WignerData:
    """W on the grid, refused when not finite."""
    if not np.isfinite(w).all():
        raise SolverError(f"Wigner series overflows at {np.sum(~np.isfinite(w))}"
                          f" of {w.size} grid points")
    return WignerData(x=x, p=p, values=w,
                      origin_value=wigner_origin(populations),
                      min_value=float(w.min()), cells=cells)


def wigner_from_populations(populations, x, p) -> WignerData:
    """Wigner function of a diagonal (Fock-mixture) state:
    W(r) = (2/pi) e^(-2 r^2) sum_n P_n (-1)^n L_n(4 r^2), radially symmetric.
    It depends on x^2 and p^2 alone, so the series runs on the distinct |x|
    and |p|, and `cells` keeps that quarter of the grid.  Each point's z is
    the same double there, and the recurrence and its rescaling test see the
    same set of values, so W is the full grid's bit for bit."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    populations = np.asarray(populations, dtype=float)
    ax, cols = np.unique(np.abs(x), return_inverse=True)
    ap, rows = np.unique(np.abs(p), return_inverse=True)
    quarter = _wigner_series([populations], ax, ap)
    return _wigner_data(quarter[np.ix_(rows, cols)], x, p, populations,
                        cells=(quarter, rows, cols))


def wigner_from_density_matrix(rho: DensityMatrix, x, p) -> WignerData:
    """Wigner function of a general single-mode state,
    W(alpha) = (2/pi) Tr[rho D(alpha) (-1)^(b+ b) D(alpha)^+]; agrees with
    the population path for diagonal states."""
    if len(rho.dims) != 1:
        raise ValueError("single-mode density matrix required")
    m = rho.matrix
    nrm = np.linalg.norm(m)
    if nrm > 0 and np.linalg.norm(m - m.conj().T) / nrm > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    diagonals = [np.real(np.diagonal(m))]
    diagonals += [np.diagonal(m, -k) for k in range(1, len(m))]
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return _wigner_data(_wigner_series(diagonals, x, p), x, p, diagonals[0])


def symmetric_grid(half_width: float, points: int) -> np.ndarray:
    """`points` values from -half_width to half_width, evenly spaced and
    exactly antisymmetric: x[::-1] == -x bit for bit, with 0.0 in the middle
    of an odd grid.  W from populations, a function of x^2 + p^2, then has
    the grid's 8-fold symmetry bit for bit.  Halving before subtracting
    keeps the ends finite for any half_width that linspace can span."""
    x = np.linspace(-half_width, half_width, points)
    return x / 2 - x[::-1] / 2


def default_grid(mech_dim: int, points: int) -> np.ndarray:
    """Antisymmetric quadrature grid (see symmetric_grid) for x and p alike,
    wide enough for the normalization check."""
    return symmetric_grid(4.0 + np.sqrt(mech_dim), points)


# ---------------------------------------------------------------------------
# spectra

def linewidths(rates: RateTable, gamma_m: float, n_bar: float, n_max: int,
               probe_rates: RateTable | None = None) -> np.ndarray:
    """Sideband linewidths Gamma_n for n = 1..n_max:
    Gamma_n = n [A-^n + A+^n + gamma (2 n_bar + 1)]
            + (n-1) [A-^(n-1) + gamma (n_bar + 1)]
            + (n+1) [A+^(n+1) + gamma n_bar]
    with A the drives' rates (plus the probe's when supplied), i.e. the
    sum of the chain's total rates out of levels n and n-1."""
    if n_max + 1 > rates.n_max:
        raise ValueError("rate table must cover n_max + 1")
    k = n_max + 1
    up, down = chain_rates(rates, gamma_m, n_bar)
    if probe_rates is not None:
        up[:k] += probe_rates.a_plus[:k]
        down[:k] += probe_rates.a_minus[:k]
    out = level_rates(up[:k], down[:k])[2]
    return out[1:k] + out[:n_max]


def sideband_lines(drive_rates: RateTable, probe_rates: RateTable,
                   gamma_m: float, n_bar: float,
                   n_levels: int) -> SidebandLines:
    """The sideband lines n = 1..N of the spectrum of n_levels populations,
    N = min(n_levels - 1, probe n_max, drive n_max - 1).  Lines that cannot
    be read out raise SpectrumInversionError: a probe that is not resonant,
    then a mean line spacing lam < 3 max Gamma_n."""
    n_lines = min(n_levels - 1, probe_rates.n_max, drive_rates.n_max - 1)
    gam = linewidths(drive_rates, gamma_m, n_bar, n_max=n_lines,
                     probe_rates=probe_rates)
    # a resonant probe has A+^n = A-^n; grade resonance by the actual
    # asymmetry of the probe rate table rather than the raw detuning
    ap = probe_rates.a_plus[:n_lines]
    am = probe_rates.a_minus[:n_lines]
    asym = float(np.max(np.abs(ap - am) / (ap + am + 1e-300)))
    if not asym < 0.01:
        raise SpectrumInversionError(
            f"probe is not resonant: probe rate asymmetry {asym:.3f}"
            " (limit 0.01); peak ratios no longer equal P_n/P_(n-1)")
    lam = np.diff(drive_rates.delta).mean() if drive_rates.delta.size > 1 else np.inf
    if not lam >= 3.0 * gam.max():
        raise SpectrumInversionError(
            "sideband lines are not resolved: line spacing over 3 max linewidth "
            f"{lam / (3.0 * gam.max()):.3g} (limit 1); refusing the inversion")
    return SidebandLines(delta=drive_rates.delta[:n_lines], width=gam,
                         a_minus=am, a_plus=ap)


def sideband_grid(centers, widths, span: float, points: int) -> np.ndarray:
    """Frequency grid for Lorentzian lines at `centers` with widths Gamma:
    `points` evenly spaced background values over [-span/2, span/2], and
    around each line a window spaced Gamma/10 over +-min(4 Gamma, half the
    distance to the nearest other centre), clipped to the span.  Background
    values inside a window are dropped, so every window stays evenly spaced,
    as _interp_peak's three-point formula assumes, and no two windows
    overlap.  A line inside the span whose neighbours are at least
    1.2 Gamma away has its Gamma/2 readout window, and one step beyond it,
    inside its own window.  Returns the sorted union without duplicates."""
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    half = span / 2.0
    reach = 4.0 * widths
    if centers.size > 1:
        order = np.argsort(centers)
        gaps = np.diff(centers[order])
        nearest = np.empty_like(centers)
        nearest[order] = np.minimum(np.append(np.inf, gaps),
                                    np.append(gaps, np.inf))
        reach = np.minimum(reach, nearest / 2.0)
    background = np.linspace(-half, half, points)
    keep = np.ones(points, dtype=bool)
    pieces = []
    for c, r, step in zip(centers, reach, widths / 10.0):
        keep[np.searchsorted(background, c - r):
             np.searchsorted(background, c + r, side="right")] = False
        k = np.floor(r / step)
        window = c + step * np.arange(-k, k + 1)
        pieces.append(window[np.abs(window) <= half])
    return np.unique(np.concatenate([background[keep], *pieces]))


def power_spectrum(populations, lines: SidebandLines,
                   frequencies: np.ndarray) -> SpectrumData:
    """Probe output sideband spectrum, at frequencies measured from the probe
    laser w_L: a Lorentzian pair at w_n+- = +-delta_n per phonon line
    n = 1..min(N, len(populations) - 1) of the N in `lines`,
    S(w) = sum_n n Gamma_n [A-^n P_n / ((w - w_n+)^2 + Gamma_n^2/4)
                          + A+^n P_(n-1) / ((w - w_n-)^2 + Gamma_n^2/4)].
    The probe's own rates broaden the lines.  The overall scale is
    arbitrary; only ratios are physical."""
    pn = np.asarray(populations, dtype=float)
    freqs = np.asarray(frequencies, dtype=float)
    heights = np.empty((min(lines.delta.size, pn.size - 1), 2))
    values = np.zeros_like(freqs)
    for n in range(1, len(heights) + 1):
        g_n, w_n = lines.width[n - 1], lines.delta[n - 1]
        up = n * g_n * lines.a_minus[n - 1] * pn[n]
        lo = n * g_n * lines.a_plus[n - 1] * pn[n - 1]
        values += up / ((freqs - w_n) ** 2 + g_n**2 / 4.0)
        values += lo / ((freqs + w_n) ** 2 + g_n**2 / 4.0)
        heights[n - 1] = 4.0 * up / g_n**2, 4.0 * lo / g_n**2
    return SpectrumData(frequencies=freqs, values=values, lines=lines,
                        heights=heights)


def _window(freqs: np.ndarray, center: float, halfwidth: float) -> np.ndarray:
    """The indices of the points f of the sorted grid with |f - center| <=
    halfwidth: that test, on the slice of the grid within twice halfwidth,
    so the same points as on the whole grid, also at the rounding edges."""
    lo = np.searchsorted(freqs, center - 2.0 * halfwidth)
    hi = np.searchsorted(freqs, center + 2.0 * halfwidth, side="right")
    return lo + np.flatnonzero(np.abs(freqs[lo:hi] - center) <= halfwidth)


def _interp_peak(freqs: np.ndarray, values: np.ndarray, center: float,
                 halfwidth: float) -> float:
    """Peak height by quadratic interpolation around the grid maximum inside
    a window centered at the predicted position."""
    idx = _window(freqs, center, halfwidth)
    if idx.size < 3:
        raise SpectrumInversionError(
            f"fewer than 3 grid points within {halfwidth:.3e} of predicted "
            f"peak at {center:.6e}; refine the frequency grid")
    k = idx[np.argmax(values[idx])]
    if k == 0 or k == freqs.size - 1:
        return float(values[k])
    y0, y1, y2 = values[k - 1], values[k], values[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0:
        return float(y1)
    return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)


def populations_from_spectrum(spectrum: SpectrumData):
    """Recover populations from resonant-probe peak-height ratios
    S(w_n+)/S(w_n-) ~ P_n / P_(n-1) of the lines drawn, assuming negligible
    occupation above the highest of them.  Returns (P, uncertainty)."""
    lines = spectrum.lines
    log_ratios = []
    uncertainties = []
    for i, (iso_plus, iso_minus) in enumerate(spectrum.heights):
        half = lines.width[i] / 2.0
        h_plus = _interp_peak(spectrum.frequencies, spectrum.values,
                              lines.delta[i], half)
        h_minus = _interp_peak(spectrum.frequencies, spectrum.values,
                               -lines.delta[i], half)
        if h_minus <= 0:
            raise SpectrumInversionError(f"vanishing red peak for n={i + 1}")
        ratio = h_plus / h_minus
        # leakage of neighbouring lines sets the systematic error of a
        # peak-height readout; estimate it from the isolated-line heights
        leak_p = abs(h_plus - iso_plus) / max(iso_plus, 1e-300)
        leak_m = abs(h_minus - iso_minus) / max(iso_minus, 1e-300)
        log_ratios.append(np.log(max(ratio, 1e-300)))
        uncertainties.append(leak_p + leak_m)
    p = populations_from_log_ratios(log_ratios)
    sig = p * np.concatenate([[0.0], np.cumsum(uncertainties)])
    sig = np.maximum(sig, np.full_like(p, 1e-12))
    return p, sig
