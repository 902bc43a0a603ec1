"""Device model: from raw beam/electrostatic/cavity/laser inputs to every
derived parameter of the master equations, plus regime validity checks.

All frequencies are angular (rad/s) internally.  The clamped-clamped
fundamental mode is used throughout, with wavenumber 4.73/L and the mode
shape normalized to unit midpoint deflection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2 * np.pi

# CODATA 2022 in SI units, the floats of scipy.constants (written out so that
# the device model loads without scipy); all but epsilon_0 are exact
C_LIGHT = 299792458.0                   # m/s
epsilon_0 = 8.8541878188e-12            # F/m
hbar = 6.62607015e-34 / TWO_PI          # J s
K_B = 1.380649e-23                      # J/K

# clamped-clamped fundamental: k*L for the first root of cos(kL)cosh(kL)=1
CC_WAVENUMBER = 4.73

# integral of phi0^2 dy / L for the fundamental normalized to unit midpoint
# deflection (computed once numerically, frozen here; see mode_shape_integral)
MODE_SHAPE_MASS_FACTOR = 0.3965

# polarizability quoted as multiples of 4*pi*eps0*Angstrom^2, read per unit
# length (C m / V per multiple)
POLARIZABILITY_UNIT = 4 * np.pi * epsilon_0 * 1e-20


class DeviceError(ValueError):
    """Invalid or inconsistent device specification."""


class BucklingError(DeviceError):
    """Electrostatic softening at or beyond the buckling instability."""

    def __init__(self, v2_abs, v2_critical):
        self.v2_abs = v2_abs
        self.v2_critical = v2_critical
        super().__init__(
            f"|V_es,2| = {v2_abs:.6e} N/m reaches the buckling value "
            f"{v2_critical:.6e} N/m; the beam is unstable")


class QuadratureError(DeviceError):
    """Quadrature failed to converge within the refinement cap."""


def _square_in_range(v: float) -> bool:
    """Whether v * v is a positive finite double: the model squares lengths
    and frequencies, and a float's ** raises past the range."""
    return 0.0 < v * v < math.inf


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class BeamSpec:
    """Doubly clamped beam. For a nanotube the transverse scale is R/sqrt(2)."""

    length: float                      # m
    kappa_tilde: float                 # m
    sound_speed: float                 # m/s
    quality_factor: float
    linear_mass_density: float         # kg/m

    def __post_init__(self):
        for name in ("length", "kappa_tilde", "sound_speed", "quality_factor",
                     "linear_mass_density"):
            if getattr(self, name) <= 0:
                raise DeviceError(f"BeamSpec.{name} must be positive")
        if self.quality_factor < 0.5:
            raise DeviceError("BeamSpec.quality_factor must be at least 1/2: "
                              "below it the beam is overdamped")
        # in Python floats, whose products overflow to inf without a warning
        c_s, kt = float(self.sound_speed), float(self.kappa_tilde)
        k = CC_WAVENUMBER / float(self.length)
        if not all(map(_square_in_range, (k, kt, c_s * kt * k * k))):
            raise DeviceError(
                "BeamSpec.length, kappa_tilde and sound_speed put the mode "
                "frequency c_s kappa_tilde (4.73/L)^2 or a square of them "
                "outside the float range")

    @property
    def mass(self) -> float:
        """Effective mass of the fundamental mode, 0.3965 rho L."""
        return MODE_SHAPE_MASS_FACTOR * self.linear_mass_density * self.length


@dataclass(frozen=True)
class SofteningSpec:
    """Either a direct softening factor zeta >= 1 or an electrostatic field
    model with polarizabilities (per unit length, C m / V)."""

    zeta: float | None = None
    field_model: object | None = None
    alpha_par: float | None = None
    alpha_perp: float = 0.0

    def __post_init__(self):
        if (self.zeta is None) == (self.field_model is None):
            raise DeviceError("give exactly one of zeta or field_model")
        if self.zeta is not None and self.zeta < 1.0:
            raise DeviceError(f"softening factor must be >= 1, got {self.zeta}")
        if self.field_model is not None and self.alpha_par is None:
            raise DeviceError("field_model requires alpha_par")


@dataclass(frozen=True)
class CavitySpec:
    bare_finesse: float
    round_trip_length: float           # m
    refractive_index: float
    wavelength: float                  # m
    waist: float                       # m (effective waist 2*a_c; this is a_c)
    surface_field_ratio: float         # xi
    gap: float                         # m, chip-to-toroid distance d
    external_coupling_fraction: float  # kappa_ex / kappa

    def __post_init__(self):
        for name in ("bare_finesse", "round_trip_length", "wavelength",
                     "waist", "surface_field_ratio", "gap"):
            if getattr(self, name) <= 0:
                raise DeviceError(f"CavitySpec.{name} must be positive")
        if self.refractive_index <= 1:
            # the evanescent decay constant is k sqrt(n^2 - 1) (kappa_perp)
            raise DeviceError("CavitySpec.refractive_index must exceed 1")
        for name in ("refractive_index", "surface_field_ratio"):
            if not _square_in_range(float(getattr(self, name))):
                raise DeviceError(f"CavitySpec.{name}: its square overflows")
        # the coupling divides by eps0 times the mode volume pi waist^2 L
        waist = float(self.waist)
        if not (_square_in_range(waist) and 0.0 < epsilon_0 * math.pi * waist
                * waist * float(self.round_trip_length) < math.inf):
            raise DeviceError("CavitySpec.waist and round_trip_length put the "
                              "mode volume pi waist^2 L outside the float "
                              "range")
        if not 0 < self.external_coupling_fraction <= 1:
            raise DeviceError("external_coupling_fraction must be in (0, 1]")
        # the rates square kappa = 2 pi c / (n L F) (cavity_linewidth), and
        # divide 0/0 at a resonant drive if the square underflows
        nlf = (float(self.refractive_index) * float(self.round_trip_length)
               * float(self.bare_finesse))
        if not (nlf > 0.0 and _square_in_range(TWO_PI * C_LIGHT / nlf)):
            raise DeviceError("CavitySpec.bare_finesse, round_trip_length and "
                              "refractive_index put kappa = 2 pi c / (n L F) "
                              "or its square outside the float range")

    @property
    def kappa_perp(self) -> float:
        """Evanescent decay constant k sqrt(n^2 - 1) of the guided mode."""
        return (TWO_PI / self.wavelength) * np.sqrt(self.refractive_index**2 - 1.0)

    @property
    def mode_volume(self) -> float:
        return np.pi * self.waist**2 * self.round_trip_length

    @property
    def resonance_frequency(self) -> float:
        return TWO_PI * C_LIGHT / self.wavelength


@dataclass(frozen=True)
class DriveSpec:
    """One laser drive, at the cavity resonance omega_L. Detuning may be a
    number (rad/s) or a symbolic "+delta_n" / "-delta_n" string resolved
    after the nonlinearity is known."""

    input_power: float                 # W
    detuning: float | str

    def __post_init__(self):
        if self.input_power < 0:
            raise DeviceError("input_power must be >= 0")


@dataclass(frozen=True)
class ElectrodeSpec:
    diameter: float                    # m
    conductivity_2d: float             # 1/Ohm
    misalignment: float                # rad

    def __post_init__(self):
        for name in ("diameter", "conductivity_2d", "misalignment"):
            if getattr(self, name) < 0:
                raise DeviceError(f"ElectrodeSpec.{name} must be >= 0")


# ---------------------------------------------------------------------------
# beam mechanics

def base_frequency(beam: BeamSpec) -> float:
    """Unsoftened fundamental frequency c_s * kappa_tilde * (4.73/L)^2."""
    return beam.sound_speed * beam.kappa_tilde * (CC_WAVENUMBER / beam.length) ** 2


def mode_shape(beam: BeamSpec):
    """Clamped-clamped fundamental phi0(y), unit midpoint deflection."""
    L = beam.length
    kL = CC_WAVENUMBER
    sigma = (np.cosh(kL) - np.cos(kL)) / (np.sinh(kL) - np.sin(kL))

    def raw(y):
        u = kL * np.asarray(y) / L
        return (np.cosh(u) - np.cos(u)) - sigma * (np.sinh(u) - np.sin(u))

    mid = raw(L / 2)

    def phi(y):
        return raw(y) / mid

    return phi


def mode_shape_integral(beam: BeamSpec) -> float:
    """integral phi0^2 dy / L, ~0.3965 for unit midpoint normalization."""
    phi = mode_shape(beam)
    y = np.linspace(0.0, beam.length, 4001)
    return float(np.trapezoid(phi(y) ** 2, y) / beam.length)


def duffing_coefficient(beam: BeamSpec) -> float:
    """Geometric stretching nonlinearity beta = 0.060 m* w_m0^2 / kappa_tilde^2."""
    return 0.060 * beam.mass * base_frequency(beam) ** 2 / beam.kappa_tilde**2


def zero_point_motion(mass: float, omega_m: float) -> float:
    return np.sqrt(hbar / (2.0 * mass * omega_m))


def nonlinearity_per_phonon(beam: BeamSpec, omega_m: float) -> float:
    """Per-phonon Kerr strength 3*beta*x_zpm^4/hbar = 0.045 hbar w_m0^2 /
    (m* kappa_tilde^2 w_m^2); scales as 1/w_m^2."""
    if omega_m <= 0:
        raise DeviceError("omega_m must be positive")
    w0 = base_frequency(beam)
    return 0.045 * hbar * w0**2 / (beam.mass * beam.kappa_tilde**2 * omega_m**2)


def transition_frequency(omega_m_prime: float, lam: float, n):
    """delta_n = w_m' + lam (n - 1), the |n-1> <-> |n> frequency (n: array ok)."""
    return omega_m_prime + lam * (n - 1)


# ---------------------------------------------------------------------------
# electrostatic softening

# refining trapezoid: starting intervals, doublings, relative tolerance
QUAD_INTERVALS = 64
QUAD_DOUBLINGS = 16
QUAD_REL_TOL = 1e-8


def _refining_trapz(f, a, b):
    """Trapezoid quadrature with interval doubling until the relative change
    drops below QUAD_REL_TOL."""
    n = QUAD_INTERVALS
    y = np.linspace(a, b, n + 1)
    last = np.trapezoid(f(y), y)
    for _ in range(QUAD_DOUBLINGS):
        n *= 2
        y = np.linspace(a, b, n + 1)
        cur = np.trapezoid(f(y), y)
        scale = max(abs(cur), abs(last), 1e-300)
        if abs(cur - last) / scale <= QUAD_REL_TOL:
            return cur
        last = cur
    raise QuadratureError(f"quadrature did not converge to rel {QUAD_REL_TOL} "
                          f"within {QUAD_DOUBLINGS} refinements")


def electrostatic_quadratic(field_model, beam: BeamSpec,
                            alpha_par: float, alpha_perp: float) -> float:
    """Quadratic electrostatic coefficient V_es,2 [N/m] of the dielectric
    energy expanded in the midpoint deflection, integrated against the
    fundamental mode shape. (The linear term V_es,1 only shifts the
    equilibrium and enters no derived parameter.)

    The field model must provide d2W_dx2(y): the second transverse
    derivative of the energy line density
    W = -(alpha_par E_par^2 + alpha_perp E_perp^2)/2 on the beam axis.
    """
    phi = mode_shape(beam)
    d2W = field_model.energy_curvature(alpha_par, alpha_perp)
    return float(0.5 * _refining_trapz(lambda y: d2W(y) * phi(y) ** 2,
                                       0.0, beam.length))


@dataclass(frozen=True, kw_only=True)
class GaussianTipField:
    """Parametric tip-electrode field: Gaussian lobe along the beam axis with
    exponential transverse growth toward the electrodes,
    E(x, y) = E_peak * exp(-(y - y0)^2 / (2 w^2)) * exp(x / gradient_scale).
    """

    e_par_peak: float                  # V/m
    center: float                      # m
    width: float                       # m
    gradient_scale: float              # m
    e_perp_peak: float = 0.0           # V/m

    def __post_init__(self):
        if self.width <= 0 or self.gradient_scale <= 0:
            raise DeviceError("GaussianTipField width and gradient_scale must be > 0")

    def energy_curvature(self, alpha_par, alpha_perp):
        amp = (alpha_par * self.e_par_peak * self.e_par_peak
               + alpha_perp * self.e_perp_peak * self.e_perp_peak)
        if not np.isfinite(amp):
            raise DeviceError("field energy amplitude alpha E^2 is not finite")

        def d2W(y):
            # E^2 grows as exp(2x/gradient_scale); this is d2W/dx2 at x = 0
            env2 = np.exp(-((np.asarray(y, dtype=float) - self.center) ** 2)
                          / self.width**2)
            return -2.0 * amp * env2 / self.gradient_scale**2

        return d2W


def buckling_threshold(beam: BeamSpec) -> float:
    """Critical |V_es,2| = m* w_m0^2 / 2 at which the beam buckles."""
    return 0.5 * beam.mass * base_frequency(beam) ** 2


def softened_frequency(beam: BeamSpec, softening: SofteningSpec) -> float:
    """Softened frequency w_m, from zeta directly or from the quadratic
    electrostatic coefficient via w_m^2 = w_m0^2 - (2/m*)|V_es,2|."""
    w0 = base_frequency(beam)
    if softening.zeta is not None:
        return w0 / softening.zeta
    v2_abs = abs(electrostatic_quadratic(
        softening.field_model, beam, softening.alpha_par, softening.alpha_perp))
    crit = buckling_threshold(beam)
    if v2_abs >= crit:
        raise BucklingError(v2_abs, crit)
    return np.sqrt(w0**2 - 2.0 * v2_abs / beam.mass)


# ---------------------------------------------------------------------------
# cavity and drives

def cavity_linewidth(cavity: CavitySpec) -> float:
    """Total cavity bandwidth kappa = 2 pi c / (n_r L_c F)."""
    return TWO_PI * C_LIGHT / (
        cavity.refractive_index * cavity.round_trip_length * cavity.bare_finesse)


def coupling_G0(cavity: CavitySpec, alpha_par: float, beam_length: float,
                omega_j: float) -> float:
    """Dispersive frequency pull per deflection (order-of-magnitude estimate)
    for a dielectric beam in the evanescent field of a whispering-gallery
    mode driven at omega_j, including the TE-mode placement correction."""
    kp = cavity.kappa_perp
    correction = 0.17 / np.sqrt(kp * (cavity.gap + cavity.waist))
    return (omega_j
            * (alpha_par * beam_length / (epsilon_0 * cavity.mode_volume))
            * cavity.surface_field_ratio**2
            * kp * np.exp(-2.0 * kp * cavity.gap)
            * correction)


def cavity_amplitude(drive: DriveSpec, detuning: float, kappa: float,
                     external_fraction: float, omega_L: float) -> complex:
    """Displaced steady-state field amplitude alpha_j."""
    kappa_ex = external_fraction * kappa
    return (np.sqrt(drive.input_power * kappa_ex / (hbar * omega_L))
            / (detuning + 1j * kappa / 2.0))


def enhanced_coupling(g0: float, alpha: complex, x_zpm: float) -> complex:
    """Drive-enhanced coupling g = 2 alpha x_zpm G0."""
    return 2.0 * alpha * x_zpm * g0


def degraded_finesse(cavity: CavitySpec, electrode: ElectrodeSpec,
                     omega_L: float, photon_number: float = 0.0):
    """Finesse after electrode absorption.

    Returns (finesse, absorption_ratio Pa/Pc, absorbed_power) where the
    absorbed power uses circulating power Pc = n_cav hbar w_L c / (n_r L_c).
    """
    kp = cavity.kappa_perp
    ratio = (np.pi * electrode.conductivity_2d * electrode.diameter
             * cavity.surface_field_ratio**2 / (C_LIGHT * epsilon_0 * cavity.waist)
             * np.sqrt(np.pi / (kp * cavity.waist))
             * np.exp(-2.0 * kp * cavity.gap)
             * np.sin(electrode.misalignment))
    finesse = 1.0 / (1.0 / cavity.bare_finesse + ratio / 2.0)
    circulating = photon_number * hbar * omega_L * C_LIGHT / (
        cavity.refractive_index * cavity.round_trip_length)
    return finesse, ratio, ratio * circulating


def thermal_occupancy(temperature: float, omega: float) -> float:
    """Bose-Einstein occupancy at the (shifted) mechanical frequency."""
    if temperature < 0:
        raise DeviceError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    # k_B T underflowing to 0, or hbar w / k_B T past expm1's range, gives
    # inf here and the exact limit 0 below
    with np.errstate(divide="ignore", over="ignore"):
        boltzmann = np.expm1(np.divide(hbar * omega, K_B * temperature))
    return 1.0 / boltzmann


# ---------------------------------------------------------------------------
# aggregate derivation

@dataclass(frozen=True)
class LaserDerived:
    input_power: float
    omega_L: float
    detuning: float            # rad/s, resolved
    detuning_spec: float | str
    alpha: complex
    photon_number: float       # |alpha|^2
    g0: float
    g: complex                 # enhanced coupling


@dataclass(frozen=True)
class DerivedParams:
    omega_m0: float
    omega_m: float
    omega_m_prime: float
    lam: float
    beta: float
    gamma_m: float
    kappa: float
    x_zpm: float
    n_bar: float
    temperature: float
    lasers: tuple[LaserDerived, ...] = ()

    @property
    def g_abs_max(self) -> float:
        return max((abs(l.g) for l in self.lasers), default=0.0)


def symbolic_detuning(spec: str) -> tuple[float, int]:
    """The sign and the line n >= 1 of a "+delta_n"/"-delta_n" string."""
    s = spec.strip().replace(" ", "")
    sign = -1.0 if s.startswith("-") else 1.0
    if s.startswith(("+", "-")):
        s = s[1:]
    head, _, digits = s.partition("delta_")
    if head or not digits.isdecimal():
        raise DeviceError(f"cannot parse symbolic detuning {spec!r}")
    n = int(digits)
    if n < 1:
        raise DeviceError(f"symbolic detuning {spec!r}: delta_n defined for "
                          "n >= 1")
    return sign, n


def derive_parameters(beam: BeamSpec, softening: SofteningSpec,
                      cavity: CavitySpec, drives: list[DriveSpec],
                      temperature: float) -> DerivedParams:
    """Full device -> master-equation parameter map.  Inputs that put a
    parameter or its square out of the float range are refused, naming the
    first such parameter (the model squares its rates and frequencies, as
    in the Lorentzians of transition_rates); numpy's warnings of the
    overflow are left out, as the refusal says it."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        derived = _derive(beam, softening, cavity, drives, temperature)
    lasers = [(l, f"lasers[{j}].") for j, l in enumerate(derived.lasers)]
    for owner, prefix in [(derived, ""), *lasers]:
        for name, value in vars(owner).items():
            if name in ("lasers", "detuning_spec"):
                continue
            z = complex(value)  # Python arithmetic: inf or nan, no warning
            if not cmath.isfinite(z * z):
                raise DeviceError(
                    f"derived parameter {prefix}{name} is {value}: the "
                    "device inputs put it or its square outside the float "
                    "range")
    return derived


def _derive(beam: BeamSpec, softening: SofteningSpec, cavity: CavitySpec,
            drives: list[DriveSpec], temperature: float) -> DerivedParams:
    """derive_parameters, unchecked."""
    wm = softened_frequency(beam, softening)
    lam = nonlinearity_per_phonon(beam, wm)
    kappa = cavity_linewidth(cavity)
    x_zpm = zero_point_motion(beam.mass, wm)
    n_bar = thermal_occupancy(temperature, wm + lam)

    alpha_par = softening.alpha_par
    if alpha_par is None:
        # direct-zeta configs still need a coupling; fall back to the
        # paper-style nanotube value unless drives are absent
        alpha_par = 142 * POLARIZABILITY_UNIT

    # every laser drives the cavity at its resonance
    omega_L = cavity.resonance_frequency
    g0 = coupling_G0(cavity, alpha_par, beam.length, omega_L)
    lasers = []
    for d in drives:
        if isinstance(d.detuning, str):
            sign, n = symbolic_detuning(d.detuning)
            det = sign * transition_frequency(wm + lam, lam, n)
        else:
            det = float(d.detuning)
        alpha = cavity_amplitude(d, det, kappa,
                                 cavity.external_coupling_fraction, omega_L)
        lasers.append(LaserDerived(
            input_power=d.input_power, omega_L=omega_L, detuning=det,
            detuning_spec=d.detuning, alpha=alpha,
            photon_number=float(abs(alpha) ** 2), g0=g0,
            g=enhanced_coupling(g0, alpha, x_zpm)))
    return DerivedParams(
        omega_m0=base_frequency(beam), omega_m=wm, omega_m_prime=wm + lam,
        lam=lam, beta=duffing_coefficient(beam),
        gamma_m=wm / beam.quality_factor, kappa=kappa, x_zpm=x_zpm,
        n_bar=n_bar, temperature=temperature, lasers=tuple(lasers))


# ---------------------------------------------------------------------------
# regime validation

# the grades of every check: see regime_check
PASS_RATIO = 0.1
WARN_RATIO = 0.5


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    description: str
    ratio: float
    status: str                # "pass" | "warn" | "fail"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[RegimeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "thresholds": {"pass": PASS_RATIO, "warn": WARN_RATIO},
            "ok": self.ok,
            "checks": [
                {"name": c.name, "description": c.description,
                 "ratio": c.ratio, "status": c.status}
                for c in self.checks
            ],
        }


def regime_check(derived: DerivedParams, n_max: int) -> ValidationReport:
    """Evaluate the validity inequalities of the model; each 'much less than'
    is graded by the ratio of the two sides (<= PASS_RATIO passes,
    <= WARN_RATIO warns, above fails)."""
    g = derived.g_abs_max
    g2k = g**2 / derived.kappa if derived.kappa > 0 else 0.0

    def grade(r):
        if r <= PASS_RATIO:
            return "pass"
        if r <= WARN_RATIO:
            return "warn"
        return "fail"

    entries = [
        ("rwa", f"n^2 lam << 6 w_m at n = {n_max}",
         n_max**2 * derived.lam / (6.0 * derived.omega_m)),
        ("resolved_sideband", "kappa << w_m",
         derived.kappa / derived.omega_m),
        ("backaction_dominance", "n_bar gamma_m << |g|^2/kappa",
         derived.n_bar * derived.gamma_m / g2k if g2k > 0 else np.inf),
        ("adiabatic_elimination", "|g| << kappa",
         g / derived.kappa),
        ("strong_nonlinearity", "|g|^2/kappa << lam",
         g2k / derived.lam if derived.lam > 0 else np.inf),
    ]
    checks = tuple(
        RegimeCheck(name, desc, float(r), grade(r)) for name, desc, r in entries)
    return ValidationReport(checks)
