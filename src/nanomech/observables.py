"""Wigner functions, probe sideband spectra, and the spectrum-to-population
inversion.

Wigner convention: phase-space coordinates (x, p) are the real and imaginary
parts of the coherent amplitude, so the vacuum gives W(0,0) = 2/pi and
|W| <= 2/pi everywhere; the grid integral of W over dx dp is 1.
"""

from __future__ import annotations

import math
import warnings
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
    min_location: tuple[float, float]

    def grid_integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.x, axis=1), self.p))


@dataclass(frozen=True)
class SpectrumPeak:
    n: int
    side: str                   # "+" (at w_L + delta_n) or "-"
    position: float
    height: float
    linewidth: float
    weight: float               # n * A * P (area / 2 pi)


@dataclass(frozen=True)
class SpectrumData:
    frequencies: np.ndarray
    values: np.ndarray
    peaks: tuple[SpectrumPeak, ...]
    omega_probe: float
    resolvable: bool
    probe_resonant: bool = True

    def peak(self, n: int, side: str) -> SpectrumPeak:
        for pk in self.peaks:
            if pk.n == n and pk.side == side:
                return pk
        raise KeyError((n, side))


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


def _wigner_data(diagonals, x, p, check_norm) -> WignerData:
    """_wigner_series on the grid, refused when not finite."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    w = _wigner_series(diagonals, x, p)
    if not np.isfinite(w).all():
        raise SolverError(f"Wigner series overflows at {np.sum(~np.isfinite(w))}"
                          f" of {w.size} grid points")
    idx = np.unravel_index(np.argmin(w), w.shape)
    data = WignerData(
        x=x, p=p, values=w, origin_value=wigner_origin(diagonals[0]),
        min_value=float(w[idx]),
        min_location=(float(x[idx[1]]), float(p[idx[0]])))
    if check_norm:
        norm = data.grid_integral()
        if abs(norm - 1.0) > 1e-3:
            warnings.warn(
                f"Wigner grid integral {norm:.6f} deviates from 1; "
                "the grid may be too coarse or too small", stacklevel=3)
    return data


def wigner_from_populations(populations, x, p, check_norm=True) -> WignerData:
    """Wigner function of a diagonal (Fock-mixture) state:
    W(r) = (2/pi) e^(-2 r^2) sum_n P_n (-1)^n L_n(4 r^2), radially symmetric.
    """
    return _wigner_data([np.asarray(populations, dtype=float)], x, p,
                        check_norm)


def wigner_from_density_matrix(rho: DensityMatrix, x, p,
                               check_norm=True) -> WignerData:
    """Wigner function of a general single-mode state,
    W(alpha) = (2/pi) Tr[rho D(alpha) (-1)^(b+ b) D(alpha)^+]; agrees with
    the population path for diagonal states."""
    if len(rho.space.factors) != 1:
        raise ValueError("single-mode density matrix required")
    m = rho.matrix
    nrm = np.linalg.norm(m)
    if nrm > 0 and np.linalg.norm(m - m.conj().T) / nrm > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    diagonals = [np.real(np.diagonal(m))]
    diagonals += [np.diagonal(m, -k) for k in range(1, len(m))]
    return _wigner_data(diagonals, x, p, check_norm)


def symmetric_grid(half_width: float, points: int) -> np.ndarray:
    """`points` values from -half_width to half_width, evenly spaced and
    exactly antisymmetric: x[::-1] == -x bit for bit, with 0.0 in the middle
    of an odd grid.  W from populations, a function of x^2 + p^2, then has
    the grid's 8-fold symmetry bit for bit.  Halving before subtracting
    keeps the ends finite for any half_width that linspace can span."""
    x = np.linspace(-half_width, half_width, points)
    return x / 2 - x[::-1] / 2


def default_grid(mech_dim: int, points: int = 121):
    """Antisymmetric quadrature grid (see symmetric_grid) wide enough for the
    normalization check; x and p are equal."""
    x = symmetric_grid(4.0 + np.sqrt(mech_dim), points)
    return x, x.copy()


# ---------------------------------------------------------------------------
# spectra

def linewidths(rates: RateTable, gamma_m: float, n_bar: float,
               n_max: int | None = None,
               probe_rates: RateTable | None = None) -> np.ndarray:
    """Sideband linewidths Gamma_n for n = 1..n_max:
    Gamma_n = n [A-^n + A+^n + gamma (2 n_bar + 1)]
            + (n-1) [A-^(n-1) + gamma (n_bar + 1)]
            + (n+1) [A+^(n+1) + gamma n_bar]
    with A summed over all lasers (and the probe when supplied), i.e. the
    sum of the chain's total rates out of levels n and n-1."""
    if n_max is None:
        n_max = rates.n_max - 1
    if n_max + 1 > rates.n_max:
        raise ValueError("rate table must cover n_max + 1")
    k = n_max + 1
    up, down = chain_rates(rates, gamma_m, n_bar)
    if probe_rates is not None:
        up[:k] += probe_rates.a_plus[:k].sum(axis=1)
        down[:k] += probe_rates.a_minus[:k].sum(axis=1)
    out = level_rates(up[:k], down[:k])[2]
    return out[1:k] + out[:n_max]


def power_spectrum(populations, drive_rates: RateTable,
                   probe_rates: RateTable, omega_probe: float,
                   frequencies: np.ndarray, gamma_m: float,
                   n_bar: float) -> SpectrumData:
    """Probe output sideband spectrum: a Lorentzian pair at w_L +- delta_n per
    phonon line,
    S(w) = sum_n n Gamma_n [A-^n P_n / ((w - w_n+)^2 + Gamma_n^2/4)
                          + A+^n P_(n-1) / ((w - w_n-)^2 + Gamma_n^2/4)].
    The probe's own rates broaden the lines.  The overall scale is
    arbitrary; only ratios are physical."""
    pn = np.asarray(populations, dtype=float)
    n_lines = min(pn.size - 1, probe_rates.n_max, drive_rates.n_max - 1)
    freqs = np.asarray(frequencies, dtype=float)
    gam = linewidths(drive_rates, gamma_m, n_bar, n_max=n_lines,
                     probe_rates=probe_rates)
    a_plus, a_minus = (probe_rates.a_plus.sum(axis=1),
                       probe_rates.a_minus.sum(axis=1))
    values = np.zeros_like(freqs)
    peaks = []
    for n in range(1, n_lines + 1):
        g_n = gam[n - 1]
        w_plus = omega_probe + drive_rates.delta[n - 1]
        w_minus = omega_probe - drive_rates.delta[n - 1]
        up = n * g_n * a_minus[n - 1] * pn[n]
        lo = n * g_n * a_plus[n - 1] * pn[n - 1]
        values += up / ((freqs - w_plus) ** 2 + g_n**2 / 4.0)
        values += lo / ((freqs - w_minus) ** 2 + g_n**2 / 4.0)
        peaks.append(SpectrumPeak(
            n=n, side="+", position=w_plus, height=4.0 * up / g_n**2,
            linewidth=g_n, weight=n * a_minus[n - 1] * pn[n]))
        peaks.append(SpectrumPeak(
            n=n, side="-", position=w_minus, height=4.0 * lo / g_n**2,
            linewidth=g_n, weight=n * a_plus[n - 1] * pn[n - 1]))
    lam = np.diff(drive_rates.delta).mean() if drive_rates.delta.size > 1 else np.inf
    resolvable = bool(lam >= 3.0 * gam.max())
    if not resolvable:
        warnings.warn("sideband lines overlap (lam < 3 max Gamma_n); "
                      "population inversion will be unreliable", stacklevel=2)
    # a resonant probe has A+^n = A-^n; grade resonance by the actual
    # asymmetry of the probe rate table rather than the raw detuning
    ap, am = a_plus[:n_lines], a_minus[:n_lines]
    asym = float(np.max(np.abs(ap - am) / (ap + am + 1e-300)))
    resonant = asym < 0.01
    if not resonant:
        warnings.warn(f"probe rate asymmetry {asym:.3f}: probe is not "
                      "resonant, peak ratios are biased", stacklevel=2)
    return SpectrumData(frequencies=freqs, values=values, peaks=tuple(peaks),
                        omega_probe=omega_probe, resolvable=resolvable,
                        probe_resonant=resonant)


def _interp_peak(freqs: np.ndarray, values: np.ndarray, center: float,
                 halfwidth: float) -> float:
    """Peak height by quadratic interpolation around the grid maximum inside
    a window centered at the predicted position."""
    mask = np.abs(freqs - center) <= halfwidth
    if mask.sum() < 3:
        raise SpectrumInversionError(
            f"fewer than 3 grid points within {halfwidth:.3e} of predicted "
            f"peak at {center:.6e}; refine the frequency grid")
    idx = np.flatnonzero(mask)
    k = idx[np.argmax(values[idx])]
    if k == 0 or k == freqs.size - 1:
        return float(values[k])
    y0, y1, y2 = values[k - 1], values[k], values[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0:
        return float(y1)
    return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)


def populations_from_spectrum(spectrum: SpectrumData,
                              n_levels: int | None = None):
    """Recover populations from resonant-probe peak-height ratios
    S(w_n+)/S(w_n-) ~ P_n / P_(n-1), assuming negligible occupation above the
    highest detected line.  Returns (P, uncertainty)."""
    if not spectrum.probe_resonant:
        raise SpectrumInversionError(
            "probe is not resonant; peak ratios no longer equal P_n/P_(n-1)")
    if not spectrum.resolvable:
        raise SpectrumInversionError(
            "sideband lines are not resolved; refusing the inversion")
    ns = sorted({pk.n for pk in spectrum.peaks})
    if n_levels is not None:
        ns = [n for n in ns if n <= n_levels]
    log_ratios = []
    uncertainties = []
    for n in ns:
        plus = spectrum.peak(n, "+")
        minus = spectrum.peak(n, "-")
        h_plus = _interp_peak(spectrum.frequencies, spectrum.values,
                              plus.position, plus.linewidth / 2.0)
        h_minus = _interp_peak(spectrum.frequencies, spectrum.values,
                               minus.position, minus.linewidth / 2.0)
        if h_minus <= 0:
            raise SpectrumInversionError(f"vanishing red peak for n={n}")
        ratio = h_plus / h_minus
        # leakage of neighbouring lines sets the systematic error of a
        # peak-height readout; estimate it from the isolated-line heights
        leak_p = abs(h_plus - plus.height) / max(plus.height, 1e-300)
        leak_m = abs(h_minus - minus.height) / max(minus.height, 1e-300)
        log_ratios.append(np.log(max(ratio, 1e-300)))
        uncertainties.append(leak_p + leak_m)
    p = populations_from_log_ratios(log_ratios)
    sig = p * np.concatenate([[0.0], np.cumsum(uncertainties)])
    sig = np.maximum(sig, np.full_like(p, 1e-12))
    return p, sig
