"""End-to-end acceptance gate.

Each test exercises one headline capability at a pinned tolerance and prints
a single PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from nanomech.config import parse_config
from nanomech.device import (BucklingError, SofteningSpec,
                             buckling_threshold, mode_shape_integral,
                             regime_check, softened_frequency)
from nanomech.fock import DensityMatrix, FockSpace, partial_trace
from nanomech.lindblad import (SystemConfig, build_full_liouvillian,
                               reduced_steady_populations,
                               steady_state_solve, transition_rates)
from nanomech.observables import (WIGNER_BOUND, linewidths,
                                  populations_from_spectrum, power_spectrum,
                                  wigner_from_density_matrix,
                                  wigner_from_populations, wigner_origin)

from conftest import (CONFIG_PATH, GAMMA_M, N_BAR, QuadraticTestPotential,
                      quoted_system)
from test_device import cnt_beam
from test_observables import probe_system, spectrum_grid

TWO_PI = 2 * np.pi


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def fig2_derived():
    from nanomech.cli import run_device
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    return run_device(cfg)


def derived_system(derived, mech_dim=8, g_scale=1.0):
    sysc = SystemConfig.from_derived(derived, mech_dim=mech_dim, cavity_dim=2)
    if g_scale != 1.0:
        lasers = tuple(dataclasses.replace(l, g=g_scale * l.g)
                       for l in sysc.lasers)
        sysc = dataclasses.replace(sysc, lasers=lasers)
    return sysc


def full_mech_populations(sysc):
    ss = steady_state_solve(build_full_liouvillian(sysc))
    return partial_trace(ss.rho, 0).populations()


def test_criterion_1_thermal_fixed_point():
    n_bar = 0.5
    cfg = SystemConfig(mech_dim=30, cavity_dims=(), omega_m_prime=1.0e6,
                       lam=0.0, gamma_m=100.0, n_bar=n_bar, kappa=0.0,
                       lasers=())
    t0 = time.perf_counter()
    ss = steady_state_solve(build_full_liouvillian(cfg))
    elapsed = time.perf_counter() - t0
    pops = np.real(np.diag(ss.rho.matrix))
    bose = (n_bar / (n_bar + 1.0)) ** np.arange(30)
    bose /= bose.sum()
    rel = np.max(np.abs(pops - bose) / bose)
    ok = rel < 1e-6 and elapsed < 10.0
    report(1, "thermal fixed point", ok,
           f"max relative error {rel:.3e} (tol 1e-6), {elapsed:.1f} s")


def test_criterion_2_reduced_vs_full_equivalence():
    derived, _ = fig2_derived()
    t0 = time.perf_counter()

    def discrepancy(g_scale):
        sysc = derived_system(derived, mech_dim=8, g_scale=g_scale)
        full_p = full_mech_populations(sysc)
        red_p = reduced_steady_populations(sysc, tail_check=False).populations
        return float(np.max(np.abs(full_p - red_p)))

    d_full = discrepancy(1.0)
    d_weak = discrepancy(0.25)
    elapsed = time.perf_counter() - t0
    ok = d_full < 0.05 and d_weak < d_full and elapsed < 600.0
    report(2, "reduced-vs-full equivalence", ok,
           f"max |dP| {d_full:.4f} (tol 0.05), at g/4 {d_weak:.4f} "
           f"(must shrink), {elapsed:.0f} s")


def test_criterion_3_fock_state_preparation():
    t0 = time.perf_counter()
    p = reduced_steady_populations(quoted_system(mech_dim=8)).populations
    w00 = wigner_origin(p)
    elapsed = time.perf_counter() - t0
    ok = abs(p[1] - 0.91) <= 0.05 and w00 <= -0.45 and elapsed < 1.0
    report(3, "Fock-state preparation", ok,
           f"P1 = {p[1]:.4f} (0.91 +- 0.05), W(0,0) = {w00:.4f} "
           f"(<= -0.45), {elapsed * 1e3:.0f} ms")


def test_criterion_4_derived_device_numbers():
    t0 = time.perf_counter()
    derived, _ = fig2_derived()
    elapsed = time.perf_counter() - t0
    wm = derived.omega_m / TWO_PI
    lam = derived.lam / TWO_PI
    kap = derived.kappa / TWO_PI
    ok = (abs(wm / 5.23e6 - 1) < 0.05 and abs(lam / 209e3 - 1) < 0.10
          and abs(kap / 52.3e3 - 1) < 0.05 and elapsed < 1.0)
    report(4, "derived device numbers", ok,
           f"w_m/2pi = {wm / 1e6:.3f} MHz (5.23 +- 5%), "
           f"lam/2pi = {lam / 1e3:.1f} kHz (209 +- 10%), "
           f"kappa/2pi = {kap / 1e3:.2f} kHz (52.3 +- 5%)")


def test_criterion_5_wigner_identities():
    x = np.linspace(-6.0, 6.0, 161)
    vac = wigner_from_populations([1.0], x, x)
    one = wigner_from_populations([0.0, 1.0], x, x)
    pn = np.array([0.2, 0.5, 0.2, 0.07, 0.03])
    mixed = wigner_from_populations(pn, x, x)
    rho_path = wigner_from_density_matrix(
        DensityMatrix(FockSpace(5, "m"), np.diag(pn)), x, x)
    alt = WIGNER_BOUND * np.sum((-1.0) ** np.arange(5) * pn)
    checks = {
        "vacuum origin": abs(vac.origin_value - WIGNER_BOUND) < 1e-12,
        "|1> origin": abs(one.origin_value + WIGNER_BOUND) < 1e-12,
        "normalization": all(abs(w.grid_integral() - 1.0) < 1e-3
                             for w in (vac, one, mixed)),
        "alternating sum": (abs(mixed.origin_value - alt) < 1e-12
                            and abs(rho_path.origin_value - alt) < 1e-12),
    }
    ok = all(checks.values())
    report(5, "Wigner identities", ok,
           "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_6_spectrum_round_trip():
    drive, probe = probe_system(mech_dim=8)
    drive_rates = transition_rates(drive)
    probe_rates = transition_rates(probe)
    gam = linewidths(drive_rates, GAMMA_M, N_BAR, n_max=4,
                     probe_rates=probe_rates)
    resolvable = drive.lam >= 3.0 * gam.max()
    freqs = spectrum_grid(drive)
    worst = 0.0
    for pn in ([0.05, 0.90, 0.05], [0.6, 0.25, 0.1, 0.05],
               [0.1, 0.3, 0.35, 0.15, 0.1]):
        pn = np.array(pn)
        spec = power_spectrum(pn, drive_rates, probe_rates, 0.0, freqs,
                              GAMMA_M, N_BAR)
        rec, _ = populations_from_spectrum(spec, n_levels=pn.size - 1)
        worst = max(worst, float(np.max(np.abs(rec - pn))))
    ok = resolvable and worst < 0.02
    report(6, "spectrum round trip", ok,
           f"lam/(3 max Gamma) = {drive.lam / (3 * gam.max()):.1f} (>= 1), "
           f"worst per-level error {worst:.4f} (tol 0.02)")


def test_criterion_7_softening_boundary():
    beam = cnt_beam()
    crit = buckling_threshold(beam)
    shape = mode_shape_integral(beam) * beam.length
    fractions = np.array([0.9, 0.99, 0.999, 0.9999])
    freqs = []
    for f in fractions:
        soft = SofteningSpec(field_model=QuadraticTestPotential(
            f * crit / shape), alpha_par=1.0)
        freqs.append(softened_frequency(beam, soft))
    freqs = np.array(freqs)
    # continuous square-root approach to zero
    w0 = softened_frequency(beam, SofteningSpec(zeta=1.0))
    continuous = np.allclose(freqs, w0 * np.sqrt(1.0 - fractions), rtol=1e-4)
    monotone = bool(np.all(np.diff(freqs) < 0) and freqs[-1] < 0.02 * w0)
    try:
        softened_frequency(beam, SofteningSpec(
            field_model=QuadraticTestPotential(1.001 * crit / shape),
            alpha_par=1.0))
        rejected = False
    except BucklingError:
        rejected = True
    ok = continuous and monotone and rejected
    report(7, "softening boundary", ok,
           f"sqrt approach to zero: {continuous}, monotone: {bool(monotone)}, "
           f"super-critical rejected: {rejected}")


def test_criterion_8_regime_validator():
    derived, _ = fig2_derived()
    base = regime_check(derived, n_max=8)

    def mutate(**kwargs):
        lasers = derived.lasers
        if "g_abs" in kwargs:
            scale = kwargs.pop("g_abs") / derived.g_abs_max
            lasers = tuple(dataclasses.replace(l, g=scale * l.g)
                           for l in lasers)
        return regime_check(dataclasses.replace(derived, lasers=lasers,
                                                **kwargs), n_max=8)

    failing = lambda rep: {c.name for c in rep.checks if c.status == "fail"}
    rep_kappa = mutate(kappa=derived.omega_m)
    rep_g = mutate(g_abs=derived.kappa)
    rep_lam = mutate(lam=derived.g_abs_max**2 / derived.kappa)

    baseline_ok = base.ok
    # the kappa mutation degrades |g|^2/kappa as well, so the backaction
    # check may legitimately trip with it
    kappa_ok = ("resolved_sideband" in failing(rep_kappa)
                and failing(rep_kappa) <= {"resolved_sideband",
                                           "backaction_dominance"})
    g_ok = failing(rep_g) == {"adiabatic_elimination"}
    lam_ok = failing(rep_lam) == {"strong_nonlinearity"}
    ok = baseline_ok and kappa_ok and g_ok and lam_ok
    report(8, "regime validator", ok,
           f"baseline ok: {baseline_ok}; kappa=w_m trips {failing(rep_kappa)}; "
           f"|g|=kappa trips {failing(rep_g)}; "
           f"lam=g^2/kappa trips {failing(rep_lam)}")
