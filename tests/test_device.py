import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar, k as kB

from nanomech import device
from nanomech.device import (POLARIZABILITY_UNIT, BeamSpec, BucklingError,
                             CavitySpec, DeviceError, DriveSpec,
                             ElectrodeSpec, GaussianTipField, SofteningSpec,
                             base_frequency, buckling_threshold,
                             cavity_amplitude, cavity_linewidth,
                             coupling_G0, degraded_finesse, derive_parameters,
                             duffing_coefficient, electrostatic_quadratic,
                             enhanced_coupling, mode_shape,
                             mode_shape_integral, nonlinearity_per_phonon,
                             regime_check, softened_frequency,
                             symbolic_detuning, thermal_occupancy,
                             transition_frequency, zero_point_motion)

from conftest import QuadraticTestPotential

TWO_PI = 2 * np.pi


def cnt_beam(length=1.0e-6, radius=0.39e-9):
    return BeamSpec(length=length, kappa_tilde=radius / np.sqrt(2.0),
                    sound_speed=21000.0, quality_factor=5e6,
                    linear_mass_density=1.8623e-15)


def toroid_cavity(**overrides):
    kwargs = dict(bare_finesse=3e6, round_trip_length=1.35e-3,
                  refractive_index=1.44, wavelength=1.1e-6, waist=1.4e-6,
                  surface_field_ratio=0.4, gap=50e-9,
                  external_coupling_fraction=0.1)
    kwargs.update(overrides)
    return CavitySpec(**kwargs)


def test_constants_are_scipy_codata():
    # the literals stand in for scipy.constants and must be the same floats
    assert device.C_LIGHT == scipy.constants.c
    assert device.epsilon_0 == scipy.constants.epsilon_0
    assert device.hbar == scipy.constants.hbar
    assert device.K_B == scipy.constants.k


# ---------------------------------------------------------------------------
# beam mechanics

def test_base_frequency_reference_device():
    assert base_frequency(cnt_beam()) / TWO_PI == pytest.approx(20.62e6, rel=0.01)


def test_base_frequency_length_scaling():
    assert base_frequency(cnt_beam(length=2e-6)) == pytest.approx(
        base_frequency(cnt_beam()) / 4.0)


def test_base_frequency_longer_device():
    # 1.7 um beam, otherwise identical
    assert base_frequency(cnt_beam(length=1.7e-6)) / TWO_PI == pytest.approx(
        20.62e6 / 1.7**2, rel=0.01)


def test_mode_shape_boundary_and_midpoint():
    beam = cnt_beam()
    phi = mode_shape(beam)
    assert phi(0.0) == pytest.approx(0.0, abs=1e-10)
    assert phi(beam.length) == pytest.approx(0.0, abs=1e-6)
    assert phi(beam.length / 2) == pytest.approx(1.0)


def test_mode_shape_integral_matches_frozen_mass_factor():
    assert mode_shape_integral(cnt_beam()) == pytest.approx(0.3965, abs=5e-4)


@pytest.mark.parametrize("name", ["linear_mass_density"])
@pytest.mark.parametrize("value", [0.0, -1e-15])
def test_beam_mass_fields_must_be_positive(name, value):
    with pytest.raises(DeviceError, match=f"BeamSpec.{name} must be positive"):
        BeamSpec(length=1.0e-6, kappa_tilde=2.76e-10, sound_speed=21000.0,
                 quality_factor=5e6, **{name: value})


def test_duffing_coefficient_scaling():
    beam = cnt_beam()
    expected = 0.060 * beam.mass * base_frequency(beam) ** 2 / beam.kappa_tilde**2
    assert duffing_coefficient(beam) == pytest.approx(expected)


def test_nonlinearity_reference_device():
    beam = cnt_beam()
    softening = SofteningSpec(zeta=4.0)
    wm = softened_frequency(beam, softening)
    lam = nonlinearity_per_phonon(beam, wm)
    assert lam / TWO_PI == pytest.approx(209e3, rel=0.10)
    # value frozen from the closed form 0.045 hbar w0^2 / (m kt^2 wm^2)
    assert lam / TWO_PI == pytest.approx(215.2e3, rel=1e-3)


def test_nonlinearity_zeta_scaling():
    beam = cnt_beam()
    w0 = base_frequency(beam)
    lam1 = nonlinearity_per_phonon(beam, w0)
    lam4 = nonlinearity_per_phonon(beam, w0 / 4.0)
    assert lam4 / lam1 == pytest.approx(16.0)


def test_nonlinearity_second_device_formula_value():
    # longer, more moderate device; the closed form gives ~86 kHz here
    beam = cnt_beam(length=1.7e-6)
    wm = softened_frequency(beam, SofteningSpec(zeta=3.3))
    assert wm / TWO_PI == pytest.approx(2.13e6, rel=0.02)
    lam = nonlinearity_per_phonon(beam, wm)
    assert lam / TWO_PI == pytest.approx(86.2e3, rel=1e-2)


def test_nonlinearity_kerr_consistency():
    # lam equals 3 beta x_zpm^4 / hbar with the softened frequency
    beam = cnt_beam()
    wm = base_frequency(beam) / 4.0
    x = zero_point_motion(beam.mass, wm)
    direct = 3.0 * duffing_coefficient(beam) * x**4 / hbar
    assert nonlinearity_per_phonon(beam, wm) == pytest.approx(direct, rel=1e-12)


def test_nonlinearity_rejects_nonpositive_frequency():
    with pytest.raises(DeviceError):
        nonlinearity_per_phonon(cnt_beam(), 0.0)


# ---------------------------------------------------------------------------
# electrostatic softening

def test_quadratic_test_potential_closed_form():
    # W = -c x^2 along the whole beam: V2 = -c * integral(phi^2) exactly
    beam = cnt_beam()
    c = 1.7e-4
    v2 = electrostatic_quadratic(QuadraticTestPotential(c), beam, 0.0, 0.0)
    expected = -c * mode_shape_integral(beam) * beam.length
    assert v2 == pytest.approx(expected, rel=1e-6)


def test_gaussian_tip_field_derivatives():
    # d2W/dx2 of the model against a central difference of its energy line
    # density W = -(a_par E_par^2 + a_perp E_perp^2)/2, with
    # E = E_peak exp(-(y - y0)^2 / (2 w^2)) exp(x / gradient_scale), at x = 0
    e_par, e_perp, y0, w, xs = 1.2e7, 2.35e6, 0.5e-6, 0.2e-6, 20e-9
    model = GaussianTipField(e_par_peak=e_par, e_perp_peak=e_perp, center=y0,
                             width=w, gradient_scale=xs)
    ap, aperp = 142 * POLARIZABILITY_UNIT, 10.9 * POLARIZABILITY_UNIT
    y = np.linspace(0.0, 1e-6, 101)

    def energy(x):
        env = np.exp(-((y - y0) ** 2) / (2 * w**2) + x / xs)
        return -(ap * (e_par * env) ** 2 + aperp * (e_perp * env) ** 2) / 2

    h = 1e-3 * xs
    np.testing.assert_allclose(
        model.energy_curvature(ap, aperp)(y),
        (energy(h) - 2 * energy(0.0) + energy(-h)) / h**2, rtol=1e-5)


def test_softened_frequency_from_zeta():
    beam = cnt_beam()
    assert softened_frequency(beam, SofteningSpec(zeta=4.0)) == pytest.approx(
        base_frequency(beam) / 4.0)
    assert softened_frequency(beam, SofteningSpec(zeta=4.0)) / TWO_PI == \
        pytest.approx(5.23e6, rel=0.05)


def test_softened_frequency_from_quadratic_coefficient():
    # choose the test-potential curvature so |V2| = (3/4) of buckling,
    # which softens by exactly a factor 2
    beam = cnt_beam()
    target = 0.75 * buckling_threshold(beam)
    c = target / (mode_shape_integral(beam) * beam.length)
    soft = SofteningSpec(field_model=QuadraticTestPotential(c),
                         alpha_par=142 * POLARIZABILITY_UNIT)
    wm = softened_frequency(beam, soft)
    assert wm == pytest.approx(base_frequency(beam) / 2.0, rel=1e-6)


def test_buckling_rejected():
    beam = cnt_beam()
    c = 1.01 * buckling_threshold(beam) / (mode_shape_integral(beam) * beam.length)
    soft = SofteningSpec(field_model=QuadraticTestPotential(c),
                         alpha_par=142 * POLARIZABILITY_UNIT)
    with pytest.raises(BucklingError):
        softened_frequency(beam, soft)


def test_softening_spec_validation():
    with pytest.raises(DeviceError):
        SofteningSpec()
    with pytest.raises(DeviceError):
        SofteningSpec(zeta=2.0, field_model=QuadraticTestPotential(0.0))
    with pytest.raises(DeviceError):
        SofteningSpec(zeta=0.5)
    with pytest.raises(DeviceError):
        SofteningSpec(field_model=QuadraticTestPotential(0.0))  # no alpha_par


# ---------------------------------------------------------------------------
# cavity and drives

@pytest.mark.parametrize("index", [1.0, 0.5])
def test_refractive_index_must_exceed_one(index):
    # kappa_perp = k sqrt(n^2 - 1) needs n > 1
    with pytest.raises(DeviceError, match="refractive_index must exceed 1"):
        toroid_cavity(refractive_index=index)


def test_cavity_linewidth_reference():
    assert cavity_linewidth(toroid_cavity()) / TWO_PI == pytest.approx(
        52.3e3, rel=0.05)
    # frozen closed-form value with the index-corrected free spectral range
    assert cavity_linewidth(toroid_cavity()) / TWO_PI == pytest.approx(
        51.40e3, rel=1e-3)


def test_cavity_linewidth_second_device():
    cav = toroid_cavity(bare_finesse=2e6, round_trip_length=1.80e-3)
    assert cavity_linewidth(cav) / TWO_PI == pytest.approx(57.87e3, rel=1e-3)


def test_cavity_linewidth_finesse_scaling():
    assert cavity_linewidth(toroid_cavity(bare_finesse=1.5e6)) == pytest.approx(
        2.0 * cavity_linewidth(toroid_cavity()))


def test_coupling_vanishes_far_from_surface():
    cav = toroid_cavity()
    wl = cav.resonance_frequency
    near = coupling_G0(cav, 142 * POLARIZABILITY_UNIT, 1e-6, wl)
    far = coupling_G0(toroid_cavity(gap=1e-6), 142 * POLARIZABILITY_UNIT,
                      1e-6, wl)
    assert near > 0
    # exp(-2 kappa_perp d) suppression: ~5 orders of magnitude over ~1 um
    assert far < 1e-4 * near


def test_enhanced_coupling_reference_magnitude():
    # order-of-magnitude coupling estimate: |g|/2pi should come out within
    # a factor ~1.5 of the quoted 21 kHz operating point
    cav = toroid_cavity()
    beam = cnt_beam()
    wm = base_frequency(beam) / 4.0
    x = zero_point_motion(beam.mass, wm)
    g0 = coupling_G0(cav, 142 * POLARIZABILITY_UNIT, beam.length,
                     cav.resonance_frequency)
    drive = DriveSpec(input_power=1.2, detuning=0.0)
    alpha = cavity_amplitude(drive, wm, cavity_linewidth(cav), 0.1,
                             cav.resonance_frequency)
    g = enhanced_coupling(g0, alpha, x)
    assert 14e3 < abs(g) / TWO_PI < 32e3
    assert abs(alpha) > 0


def test_enhanced_coupling_power_scaling():
    cav = toroid_cavity()
    kap = cavity_linewidth(cav)
    wl = cav.resonance_frequency
    g0 = coupling_G0(cav, 142 * POLARIZABILITY_UNIT, 1e-6, wl)
    a1 = cavity_amplitude(DriveSpec(1.0, 0.0), 1e6, kap, 0.1, wl)
    a4 = cavity_amplitude(DriveSpec(4.0, 0.0), 1e6, kap, 0.1, wl)
    g1, g4 = (enhanced_coupling(g0, a, 1e-12) for a in (a1, a4))
    assert abs(g4) == pytest.approx(2.0 * abs(g1))
    assert abs(a4) ** 2 == pytest.approx(4.0 * abs(a1) ** 2)


def test_cavity_photon_number_on_resonance():
    cav = toroid_cavity()
    kap = cavity_linewidth(cav)
    wl = cav.resonance_frequency
    nphot = abs(cavity_amplitude(DriveSpec(1e-3, 0.0), 0.0, kap, 0.1, wl)) ** 2
    expected = 1e-3 * 0.1 * kap / (hbar * wl) / (kap / 2.0) ** 2
    assert nphot == pytest.approx(expected, rel=1e-12)


def test_degraded_finesse_limits():
    cav = toroid_cavity()
    clean = ElectrodeSpec(diameter=10e-9, conductivity_2d=0.0, misalignment=0.0)
    f_clean, ratio, _ = degraded_finesse(cav, clean, cav.resonance_frequency)
    assert f_clean == pytest.approx(cav.bare_finesse)
    assert ratio == 0.0
    lossy = ElectrodeSpec(diameter=10e-9, conductivity_2d=2e-5,
                          misalignment=np.pi / 180.0)
    f_lossy, ratio_l, absorbed = degraded_finesse(
        cav, lossy, cav.resonance_frequency, photon_number=1e9)
    assert 0 < f_lossy <= cav.bare_finesse
    assert ratio_l > 0
    assert absorbed > 0
    # the evanescent suppression should keep the electrode loss small
    # compared to the bare round-trip loss at this gap
    assert ratio_l / 2.0 < 1.0 / cav.bare_finesse


def test_thermal_occupancy():
    w = TWO_PI * 5.44e6
    assert thermal_occupancy(0.0, w) == 0.0
    t_ln2 = hbar * w / (kB * np.log(2.0))
    assert thermal_occupancy(t_ln2, w) == pytest.approx(1.0, rel=1e-12)
    assert thermal_occupancy(0.020, w) == pytest.approx(76.1, abs=0.5)
    with pytest.raises(DeviceError):
        thermal_occupancy(-1.0, w)


# k_B T underflows to 0 (1e-303 K) or expm1(hbar w / k_B T) overflows
# (1e-7 K): n_bar is its limit 0, with no RuntimeWarning
@pytest.mark.parametrize("temperature", [1e-303, 1e-7])
@pytest.mark.parametrize("w", [TWO_PI * 5.44e6, np.float64(TWO_PI * 5.44e6)],
                         ids=["float", "float64"])
def test_thermal_occupancy_vanishing_limit(temperature, w):
    assert thermal_occupancy(temperature, w) == 0.0


def test_thermal_occupancy_classical_limit():
    w = TWO_PI * 1e6
    t = 100.0 * hbar * w / kB
    classical = kB * t / (hbar * w)
    assert thermal_occupancy(t, w) == pytest.approx(classical - 0.5, rel=1e-2)


def test_resolve_detuning():
    assert symbolic_detuning("+delta_1") == (1.0, 1)
    assert symbolic_detuning("-delta_3") == (-1.0, 3)
    assert symbolic_detuning("delta_2") == (1.0, 2)
    for spec in ("+delta_x", "gamma_1", "delta_0", "-delta_-1"):
        with pytest.raises(DeviceError):
            symbolic_detuning(spec)


# ---------------------------------------------------------------------------
# aggregate derivation and regime checks

@pytest.fixture(scope="module")
def reference_derived():
    beam = cnt_beam()
    soft = SofteningSpec(zeta=4.0, alpha_par=142 * POLARIZABILITY_UNIT,
                         alpha_perp=10.9 * POLARIZABILITY_UNIT)
    drives = [DriveSpec(1.2, "+delta_1"), DriveSpec(1.2, "-delta_2"),
              DriveSpec(1.2, "-delta_3")]
    return derive_parameters(beam, soft, toroid_cavity(), drives, 0.020)


def test_derived_reference_numbers(reference_derived):
    d = reference_derived
    assert d.omega_m / TWO_PI == pytest.approx(5.23e6, rel=0.05)
    assert d.lam / TWO_PI == pytest.approx(209e3, rel=0.10)
    assert d.kappa / TWO_PI == pytest.approx(52.3e3, rel=0.05)
    assert d.n_bar == pytest.approx(77.1, abs=0.5)
    assert d.gamma_m == pytest.approx(d.omega_m / 5e6)
    assert d.omega_m_prime == pytest.approx(d.omega_m + d.lam)


def test_derived_detunings_follow_the_ladder(reference_derived):
    d = reference_derived
    delta = transition_frequency(d.omega_m_prime, d.lam, np.arange(1, 6))
    # the drives' resolved detunings are the same floats as delta_n
    assert [l.detuning for l in d.lasers] == [delta[0], -delta[1], -delta[2]]
    np.testing.assert_allclose(np.diff(delta), d.lam)


def check(report, name):
    """The regime check of `report` called `name`."""
    return next(c for c in report.checks if c.name == name)


def test_regime_report_reference_point(reference_derived):
    report = regime_check(reference_derived, n_max=8)
    assert report.ok
    assert not check(report, "resolved_sideband").status == "fail"
    assert check(report, "resolved_sideband").ratio == pytest.approx(
        0.00997, rel=0.02)
    assert check(report, "backaction_dominance").status == "pass"
    assert check(report, "strong_nonlinearity").status == "pass"


def test_regime_report_truncation_dependence(reference_derived):
    # the rotating-wave ratio grows as n^2; a generous truncation pushes it
    # past the failure threshold
    assert check(regime_check(reference_derived, n_max=6),
                 "rwa").ratio == pytest.approx(0.25, abs=0.02)
    assert check(regime_check(reference_derived, n_max=12),
                 "rwa").status == "fail"


def test_regime_check_thresholds(reference_derived, monkeypatch):
    monkeypatch.setattr(device, "PASS_RATIO", 1e-6)
    monkeypatch.setattr(device, "WARN_RATIO", 2e-6)
    strict = regime_check(reference_derived, n_max=8)
    assert not strict.ok
    assert strict.to_dict()["thresholds"] == {"pass": 1e-6, "warn": 2e-6}
    monkeypatch.setattr(device, "PASS_RATIO", 10.0)
    monkeypatch.setattr(device, "WARN_RATIO", 20.0)
    lax = regime_check(reference_derived, n_max=8)
    assert all(c.status == "pass" for c in lax.checks)


def test_report_serialization(reference_derived):
    d = regime_check(reference_derived, n_max=8).to_dict()
    assert set(c["name"] for c in d["checks"]) == {
        "rwa", "resolved_sideband", "backaction_dominance",
        "adiabatic_elimination", "strong_nonlinearity"}
    assert d["ok"] is True
    assert d["thresholds"] == {"pass": 0.1, "warn": 0.5}
