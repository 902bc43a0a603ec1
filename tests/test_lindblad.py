import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from nanomech.cli import run_device
from nanomech.config import parse_config
from nanomech.fock import (CompositeSpace, FockSpace, diagonal_density,
                           fock_state, lift, number, partial_trace,
                           tensor_density)
from nanomech.lindblad import (DegenerateSteadyStateError, LaserParams,
                               Liouvillian, SolverError, SystemConfig,
                               TruncationError, birth_death_rates,
                               build_full_hamiltonian, build_full_liouvillian,
                               build_reduced_generator, mechanical_hamiltonian,
                               reduced_steady_populations, steady_state_solve,
                               time_evolve, transition_rates)

from conftest import (CONFIG_PATH, GAMMA_M, KAPPA, LAMBDA, N_BAR,
                      OMEGA_M_PRIME, quoted_system)

TWO_PI = 2 * np.pi


def mech_only(mech_dim=5, omega=1.0e6, lam=0.0, gamma_m=1.0e3, n_bar=0.0):
    return SystemConfig(mech_dim=mech_dim, cavity_dims=(),
                        omega_m_prime=omega, lam=lam, gamma_m=gamma_m,
                        n_bar=n_bar, kappa=0.0, lasers=())


def small_driven(mech_dim=4, g=2.0e3, detuning=None, kappa=5.0e4,
                 lam=2.0e5, gamma_m=1.0, n_bar=0.1, cavity_dim=2):
    omega = 5.0e6
    if detuning is None:
        detuning = -(omega + lam)     # red drive on the 1 -> 0 line
    return SystemConfig(mech_dim=mech_dim, cavity_dims=(cavity_dim,),
                        omega_m_prime=omega, lam=lam, gamma_m=gamma_m,
                        n_bar=n_bar, kappa=kappa,
                        lasers=(LaserParams(g=g, detuning=detuning),))


# ---------------------------------------------------------------------------
# configuration and generator structure

def test_config_validation():
    with pytest.raises(ValueError):
        mech_only(mech_dim=2)
    with pytest.raises(ValueError):
        SystemConfig(mech_dim=4, cavity_dims=(2, 2), omega_m_prime=1.0,
                     lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                     lasers=(LaserParams(1.0, 0.0),))
    with pytest.raises(ValueError):
        SystemConfig(mech_dim=4, cavity_dims=(1,), omega_m_prime=1.0,
                     lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                     lasers=(LaserParams(1.0, 0.0),))


def test_space_layout():
    cfg = quoted_system(mech_dim=6, cavity_dim=3)
    space = cfg.space()
    assert space.dims == (6, 3, 3, 3)
    assert space.factors[0].label == "mech"
    assert cfg.delta_n(1) == pytest.approx(OMEGA_M_PRIME)
    assert cfg.delta_n(3) == pytest.approx(OMEGA_M_PRIME + 2 * LAMBDA)


def test_mechanical_hamiltonian_spectrum():
    cfg = mech_only(mech_dim=5, omega=2.0, lam=0.5)
    diag = np.real(mechanical_hamiltonian(cfg).diagonal())
    expected = [2.0 * n + 0.25 * n * (n - 1) for n in range(5)]
    np.testing.assert_allclose(diag, expected)
    # level spacings grow linearly: delta_n = w' + lam (n - 1)
    np.testing.assert_allclose(np.diff(diag), [cfg.delta_n(n) for n in range(1, 5)])


def test_full_hamiltonian_against_hand_built_matrix():
    # one cavity of dim 2, mech dim 3, real coupling: build the 6x6 matrix
    # by hand in the same lexicographic ordering and compare
    g, det, omega, lam = 700.0, 1.3e4, 1.0e5, 4.0e3
    cfg = SystemConfig(mech_dim=3, cavity_dims=(2,), omega_m_prime=omega,
                       lam=lam, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                       lasers=(LaserParams(g=g, detuning=det),))
    h = build_full_hamiltonian(cfg).to_dense()

    dim = 6   # |n_mech, n_cav> with mech slowest
    ref = np.zeros((dim, dim), dtype=complex)

    def idx(nm, nc):
        return nm * 2 + nc

    for nm in range(3):
        for nc in range(2):
            ref[idx(nm, nc), idx(nm, nc)] = (
                omega * nm + lam / 2.0 * nm * (nm - 1) - det * nc)
    # (g/2)(a + a^dag)(b + b^dag) for real g
    for nm in range(3):
        for nc in range(2):
            for nm2, amp_m in ((nm - 1, np.sqrt(nm)), (nm + 1, np.sqrt(nm + 1))):
                if not 0 <= nm2 < 3:
                    continue
                for nc2, amp_c in ((nc - 1, np.sqrt(nc)), (nc + 1, np.sqrt(nc + 1))):
                    if not 0 <= nc2 < 2:
                        continue
                    ref[idx(nm2, nc2), idx(nm, nc)] += g / 2.0 * amp_m * amp_c
    np.testing.assert_allclose(h, ref, atol=1e-9)


def test_full_hamiltonian_hermitian_with_complex_coupling():
    cfg = small_driven(g=1.0e3 * np.exp(0.7j))
    h = build_full_hamiltonian(cfg).to_dense()
    np.testing.assert_allclose(h, h.conj().T, atol=1e-9)


def test_liouvillian_trace_preservation():
    cfg = quoted_system(mech_dim=4, cavity_dim=2)
    liou = build_full_liouvillian(cfg)
    scale = abs(liou.superoperator).max()
    assert liou.trace_preservation_defect() <= 1e-10 * scale


def test_liouvillian_preserves_hermiticity(rng):
    cfg = small_driven()
    liou = build_full_liouvillian(cfg)
    d = liou.space.total_dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m + m.conj().T
    dm = (liou.superoperator @ m.reshape(-1, order="F")).reshape((d, d), order="F")
    np.testing.assert_allclose(dm, dm.conj().T, atol=1e-6 * abs(dm).max())


def test_liouvillian_memory_guard():
    cfg = quoted_system(mech_dim=8, cavity_dim=2)
    with pytest.raises(MemoryError):
        build_full_liouvillian(cfg, nnz_cap=1000)


def test_closed_system_spectrum_is_imaginary():
    # no dissipation at all: the generator is -i [H, .], eigenvalues purely
    # imaginary
    cfg = SystemConfig(mech_dim=3, cavity_dims=(2,), omega_m_prime=1.0e5,
                       lam=3.0e3, gamma_m=0.0, n_bar=0.0, kappa=0.0,
                       lasers=(LaserParams(g=500.0, detuning=9.0e4),))
    liou = build_full_liouvillian(cfg)
    ev = np.linalg.eigvals(liou.superoperator.toarray())
    assert np.max(np.abs(ev.real)) < 1e-8 * np.max(np.abs(ev.imag))


# ---------------------------------------------------------------------------
# transition rates and the reduced model

def test_transition_rates_lorentzian_values():
    cfg = quoted_system(mech_dim=8)
    rates = transition_rates(cfg)
    g2 = abs(cfg.lasers[0].g) ** 2
    # laser 1 sits exactly on the 0 -> 1 line: A+^1 = |g|^2 / kappa
    assert rates.a_plus[0, 0] == pytest.approx(g2 / KAPPA)
    # laser 2 is resonant with the 2 -> 1 removal line
    assert rates.a_minus[1, 1] == pytest.approx(g2 / KAPPA)
    # one rung away the same laser is suppressed by kappa^2/(4 lam^2 + kappa^2)
    expected_ratio = KAPPA**2 / (4.0 * LAMBDA**2 + KAPPA**2)
    assert rates.a_minus[0, 1] / rates.a_minus[1, 1] == pytest.approx(
        expected_ratio)
    assert expected_ratio == pytest.approx(1.0 / 65.0, rel=0.02)


def test_birth_death_rates_structure():
    cfg = quoted_system(mech_dim=6)
    up, down, rates = birth_death_rates(cfg)
    n = np.arange(1, 6)
    np.testing.assert_allclose(
        up, n * (rates.a_plus.sum(axis=1) + GAMMA_M * N_BAR))
    np.testing.assert_allclose(
        down, n * (rates.a_minus.sum(axis=1) + GAMMA_M * (N_BAR + 1.0)))


def test_reduced_generator_columns_sum_to_zero():
    q = build_reduced_generator(quoted_system(mech_dim=8))
    colsum = np.asarray(q.sum(axis=0)).ravel()
    assert np.max(np.abs(colsum)) < 1e-9 * abs(q).max()


def test_reduced_recursion_matches_null_space():
    # exact oracle: the null space of the dense rate matrix
    cfg = quoted_system(mech_dim=8)
    rec = reduced_steady_populations(cfg)
    q = build_reduced_generator(cfg).toarray().real
    ns = scipy.linalg.null_space(q)
    assert ns.shape == (8, 1)
    np.testing.assert_allclose(rec.populations, ns[:, 0] / ns[:, 0].sum(),
                               atol=1e-10)
    assert rec.residual < 1e-6 * abs(q).max()


def test_reduced_thermal_limit():
    # all lasers off: detailed balance gives the geometric Bose weights
    cfg = mech_only(mech_dim=12, n_bar=1.0, gamma_m=10.0)
    p = reduced_steady_populations(cfg, tail_check=False).populations
    expected = 0.5 ** np.arange(1, 13)
    expected /= expected.sum()
    np.testing.assert_allclose(p, expected, rtol=1e-10)


def test_reduced_ground_state_cooling():
    # a single strong red drive on the 1 -> 0 line empties the oscillator
    cfg = small_driven(mech_dim=6, g=5.0e3, kappa=5.0e4, n_bar=0.05,
                       gamma_m=0.5)
    p = reduced_steady_populations(cfg).populations
    assert p[0] > 0.99


def test_reduced_fock_targeting():
    p = reduced_steady_populations(quoted_system(mech_dim=8)).populations
    assert p[1] == pytest.approx(0.949, abs=0.002)
    assert p.argmax() == 1


def test_reduced_chain_without_down_rate_rejected():
    # no bath and no drive: nothing removes phonons, and the recursion would
    # divide by zero
    with pytest.raises(SolverError, match=r"line 1 -> 0"):
        reduced_steady_populations(mech_only(gamma_m=0.0), tail_check=False)


def test_reduced_truncation_error_thermal_tail():
    cfg = mech_only(mech_dim=10, n_bar=77.0, gamma_m=10.0)
    with pytest.raises(TruncationError):
        reduced_steady_populations(cfg)


# ---------------------------------------------------------------------------
# steady-state solvers

def test_thermal_fixed_point_small():
    # decoupled mech + cavity: Gibbs state for the mechanics, vacuum cavity
    n_bar = 0.4
    cfg = SystemConfig(mech_dim=7, cavity_dims=(2,), omega_m_prime=1.0e6,
                       lam=0.0, gamma_m=100.0, n_bar=n_bar, kappa=1.0e5,
                       lasers=(LaserParams(g=0.0, detuning=5.0e5),))
    ss = steady_state_solve(build_full_liouvillian(cfg))
    pops = partial_trace(ss.rho, 0).populations()
    ratio = n_bar / (n_bar + 1.0)
    expected = ratio ** np.arange(7)
    expected /= expected.sum()
    np.testing.assert_allclose(pops, expected, rtol=1e-6)
    cav = partial_trace(ss.rho, 1).populations()
    assert cav[0] == pytest.approx(1.0, abs=1e-8)


def fig2_system(mech_dim):
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    derived, _report = run_device(cfg)
    return SystemConfig.from_derived(derived, mech_dim,
                                     cfg.simulation.cavity_truncation)


@pytest.mark.parametrize("make", [
    lambda: small_driven(mech_dim=4, g=3.0e3, n_bar=0.2),
    lambda: fig2_system(4),
], ids=["small_driven", "fig2_mech4"])
def test_full_solve_matches_null_space(make):
    # exact oracle: the null space of the dense generator
    liou = build_full_liouvillian(make())
    d = liou.space.total_dim
    ns = scipy.linalg.null_space(liou.superoperator.toarray())
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)
    ss = steady_state_solve(liou)
    np.testing.assert_allclose(ss.rho.matrix, oracle, atol=1e-10)
    assert ss.method == "sparse_lu"
    assert ss.iterations == 0


def test_steady_state_residual_and_validity():
    cfg = small_driven(mech_dim=5, g=4.0e3, n_bar=0.3)
    liou = build_full_liouvillian(cfg)
    ss = steady_state_solve(liou)
    ss.rho.validate()
    scale = abs(liou.superoperator).max()
    assert ss.residual <= 1e-9 * scale


@pytest.mark.parametrize("liou", [
    # every population of a 3-level system is conserved separately
    Liouvillian(CompositeSpace((FockSpace(3, "mech"),)),
                sp.csr_matrix((9, 9), dtype=complex)),
    # closed system: every Fock projector is stationary
    build_full_liouvillian(mech_only(mech_dim=4, lam=2.0e5, gamma_m=0.0)),
    # the mechanics barely touches its bath and not the cavity
    build_full_liouvillian(small_driven(g=0.0, gamma_m=1e-9)),
], ids=["zero", "closed", "weak_bath"])
def test_degenerate_generator_detected(liou):
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_solve(liou)


def test_thermal_chain_at_zero_kelvin_not_degenerate():
    # the chain of acceptance criterion 1 with its bath at 0 K: weakly damped
    # and decoupled, so its LU pivots span a wide range yet stay far above
    # the degeneracy threshold
    cfg = mech_only(mech_dim=30, gamma_m=100.0, n_bar=0.0)
    ss = steady_state_solve(build_full_liouvillian(cfg))
    assert ss.rho.populations()[0] == pytest.approx(1.0, abs=1e-10)


def test_cavity_relabeling_covariance():
    # swapping the two drive lasers permutes the cavity factors but cannot
    # change the mechanical steady state
    base = dict(mech_dim=4, cavity_dims=(2, 2), omega_m_prime=5.0e6,
                lam=2.0e5, gamma_m=5.0, n_bar=0.3, kappa=5.0e4)
    l1 = LaserParams(g=2.0e3, detuning=5.2e6)
    l2 = LaserParams(g=1.5e3, detuning=-5.4e6)
    ss12 = steady_state_solve(build_full_liouvillian(
        SystemConfig(lasers=(l1, l2), **base)))
    ss21 = steady_state_solve(build_full_liouvillian(
        SystemConfig(lasers=(l2, l1), **base)))
    np.testing.assert_allclose(partial_trace(ss12.rho, 0).matrix,
                               partial_trace(ss21.rho, 0).matrix, atol=1e-9)


@pytest.mark.parametrize("g_frac,tol", [(0.04, 0.05), (0.01, 0.004)])
def test_adiabatic_limit_agreement(g_frac, tol):
    # the population recursion becomes exact as |g|/kappa -> 0
    kappa = 5.0e4
    cfg = small_driven(mech_dim=5, g=g_frac * kappa, kappa=kappa,
                       lam=2.0e5, gamma_m=0.01, n_bar=0.2)
    full = steady_state_solve(build_full_liouvillian(cfg))
    full_p = partial_trace(full.rho, 0).populations()
    red_p = reduced_steady_populations(cfg, tail_check=False).populations
    assert np.max(np.abs(full_p - red_p)) < tol


# ---------------------------------------------------------------------------
# time evolution

def test_time_evolve_cavity_decay():
    # g = 0, gamma_m = 0: photon number decays as e^(-kappa t)
    kappa = 1.0e4
    cfg = SystemConfig(mech_dim=3, cavity_dims=(3,), omega_m_prime=1.0e5,
                       lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=kappa,
                       lasers=(LaserParams(g=0.0, detuning=0.0),))
    liou = build_full_liouvillian(cfg)
    space = liou.space
    rho0 = tensor_density(fock_state(space.factors[0], 0),
                          fock_state(space.factors[1], 1))
    t_final = 3.0 / kappa
    n_cav = lift(number(space.factors[1]), space, 1)
    times, states = time_evolve(liou, rho0, t_final, n_samples=7)
    occupations = [np.real(np.trace(n_cav.to_dense() @ s.matrix))
                   for s in states]
    np.testing.assert_allclose(occupations, np.exp(-kappa * times),
                               atol=1e-6)


def test_time_evolve_approaches_steady_state():
    # fast-relaxing toy system: the distance to the steady state must
    # shrink substantially over a few relaxation times
    cfg = SystemConfig(mech_dim=4, cavity_dims=(2,), omega_m_prime=1.0e5,
                       lam=3.0e4, gamma_m=400.0, n_bar=0.2, kappa=3.0e4,
                       lasers=(LaserParams(g=6.0e3, detuning=-1.0e5),))
    liou = build_full_liouvillian(cfg)
    target = steady_state_solve(liou).rho.matrix
    space = liou.space
    rho0 = tensor_density(
        diagonal_density(space.factors[0], [0.4, 0.3, 0.2, 0.1]),
        fock_state(space.factors[1], 0))
    t_final = 3.0 / (cfg.gamma_m * (2.0 * cfg.n_bar + 1.0))
    _, states = time_evolve(liou, rho0, t_final, n_samples=4)
    d0 = np.max(np.abs(rho0.matrix - target))
    d1 = np.max(np.abs(states[-1].matrix - target))
    assert d1 < d0 / 3.0
