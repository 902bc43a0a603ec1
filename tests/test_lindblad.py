import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply, splu

from nanomech.cli import run_device
from nanomech.config import parse_config
from nanomech.fock import CompositeSpace, FockSpace, partial_trace
from nanomech import lindblad
from nanomech.lindblad import (CONDITION_LIMIT, DegenerateSteadyStateError,
                               LaserParams, Liouvillian, SolverError,
                               SystemConfig, TruncationError,
                               _hermitian_coordinates, _lowering, _transpose,
                               build_full_hamiltonian, build_full_liouvillian,
                               build_reduced_generator, chain_rates,
                               level_rates, reduced_steady_populations,
                               steady_state_solve,
                               transition_rates)

from conftest import (CONFIG_PATH, GAMMA_M, KAPPA, LAMBDA, N_BAR,
                      OMEGA_M_PRIME, dense_generator, kron_generators,
                      kron_lift, quoted_system)

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
    # a laser needs its cavity mode also when there are no cavities at all
    with pytest.raises(ValueError, match="one cavity mode per laser"):
        SystemConfig(mech_dim=4, cavity_dims=(), omega_m_prime=1.0,
                     lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                     lasers=(LaserParams(1.0, 0.0),))


def test_space_layout():
    cfg = quoted_system(mech_dim=6, cavity_dim=3)
    space = cfg.space()
    assert space.dims == (6, 3, 3, 3)
    assert space.factors[0].label == "mech"
    delta = transition_rates(cfg).delta
    assert delta[0] == pytest.approx(OMEGA_M_PRIME)
    assert delta[2] == pytest.approx(OMEGA_M_PRIME + 2 * LAMBDA)


def test_mechanical_hamiltonian_spectrum():
    cfg = mech_only(mech_dim=5, omega=2.0, lam=0.5)
    diag = np.real(build_full_hamiltonian(cfg).diagonal())
    expected = [2.0 * n + 0.25 * n * (n - 1) for n in range(5)]
    np.testing.assert_allclose(diag, expected)
    # level spacings are the rate table's delta_n = w' + lam (n - 1)
    delta = transition_rates(cfg).delta
    np.testing.assert_allclose(delta, [2.0, 2.5, 3.0, 3.5])
    np.testing.assert_allclose(np.diff(diag), delta)


def test_full_hamiltonian_against_hand_built_matrix():
    # one cavity of dim 2, mech dim 3, real coupling: build the 6x6 matrix
    # by hand in the same lexicographic ordering and compare
    g, det, omega, lam = 700.0, 1.3e4, 1.0e5, 4.0e3
    cfg = SystemConfig(mech_dim=3, cavity_dims=(2,), omega_m_prime=omega,
                       lam=lam, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                       lasers=(LaserParams(g=g, detuning=det),))
    h = build_full_hamiltonian(cfg).toarray()

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
    h = build_full_hamiltonian(cfg).toarray()
    np.testing.assert_allclose(h, h.conj().T, atol=1e-9)


def test_liouvillian_trace_preservation():
    cfg = quoted_system(mech_dim=4, cavity_dim=2)
    liou = build_full_liouvillian(cfg)
    scale = abs(liou.superoperator).max()
    assert liou.trace_preservation_defect() <= 1e-10 * scale


def step_matrix(stride, w):
    """The CSR matrix of a step: entries [i, i + stride] = w[i] where w[i]
    is nonzero."""
    rows = np.flatnonzero(w)
    return sp.csr_matrix((w[rows].astype(complex), (rows, rows + stride)),
                         shape=(w.size, w.size))


@pytest.mark.parametrize("slot", range(4))
def test_lowering_matches_kron_per_factor(slot, rng):
    # reference: one Kronecker product per factor, identities elsewhere, for
    # the annihilation weights sqrt(n) and for positive weights like those
    # of the chain jumps; the transposed step is the creation operator
    dims = (4, 2, 3, 2)
    n = np.arange(1, dims[slot])
    for weights in (np.sqrt(n), rng.uniform(0.1, 10.0, n.size)):
        ref = kron_lift(sp.diags(weights, 1, dtype=complex), slot, dims)
        step = _lowering(dims, slot, weights)
        for m, r in ((step_matrix(*step), ref),
                     (step_matrix(*_transpose(*step)), ref.T.tocsr())):
            np.testing.assert_array_equal(m.indptr, r.indptr)
            np.testing.assert_array_equal(m.indices, r.indices)
            np.testing.assert_array_equal(m.data, r.data)


def closed_system():
    # no dissipation at all: the generator is -i [H, .]
    return SystemConfig(mech_dim=3, cavity_dims=(2,), omega_m_prime=1.0e5,
                        lam=3.0e3, gamma_m=0.0, n_bar=0.0, kappa=0.0,
                        lasers=(LaserParams(g=500.0, detuning=9.0e4),))


@pytest.mark.parametrize("block", [lindblad.ASSEMBLY_BLOCK, 1],
                         ids=["blocks", "rows"])
@pytest.mark.parametrize("make", [
    lambda: fig2_system(4),
    lambda: fig2_system(8),
    lambda: fig2_scaled(4, 0.0),
    # its diagonal entries K_ii + conj(K_ii) are exact zeros and dropped
    closed_system,
    lambda: small_driven(mech_dim=4, g=1.0e3 * np.exp(0.7j), cavity_dim=3),
    lambda: mech_only(mech_dim=30, gamma_m=100.0, n_bar=0.5),
    lambda: small_driven(g=0.0, gamma_m=0.0),
], ids=["fig2_mech4", "fig2_mech8", "fig2_mech4_g0", "closed",
        "complex_g_3_levels", "chain30", "cavity_decay_gamma0"])
def test_liouvillian_assembly_matches_kron_sums(make, block, monkeypatch):
    # L and M against the sparse Kronecker sums of conftest.kron_generators:
    # the same sparsity (the sums drop exact zeros), int32 indices in
    # canonical form and data within 1e-12 max|L|, also when the slot table
    # is written one row j at a time
    monkeypatch.setattr(lindblad, "ASSEMBLY_BLOCK", block)
    cfg = make()
    liou = build_full_liouvillian(cfg)
    ref_l, ref_m = kron_generators(cfg)
    assert (liou.uncoupled is None) == (ref_m is None) == (not cfg.lasers)
    scale = abs(ref_l).max()
    for m, ref in ((liou.superoperator, ref_l), (liou.uncoupled, ref_m)):
        if ref is None:
            continue
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.has_canonical_format
        np.testing.assert_array_equal(m.indptr, ref.indptr)
        np.testing.assert_array_equal(m.indices, ref.indices)
        np.testing.assert_allclose(m.data, ref.data, rtol=0,
                                   atol=1e-12 * scale)


def test_liouvillian_build_memory_stays_flat():
    # the assembly writes each CSR array once: at fig2 mech 32 the build's
    # allocation peak is about 1.3 times the bytes of the L and M it
    # returns, where one that gathered unsorted int64 triplets read 3.25
    cfg = fig2_system(32)
    tracemalloc.start()
    try:
        liou = build_full_liouvillian(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                   for m in (liou.superoperator, liou.uncoupled))
    assert peak <= 2 * returned


@st.composite
def small_systems(draw):
    """Systems of mech 3-12 and 0-3 cavities of 2-3 levels, with and without
    coupling, mechanical damping and thermal occupation."""
    cavity_dims = tuple(draw(st.lists(st.integers(2, 3), max_size=3)))
    lasers = tuple(LaserParams(g=draw(st.sampled_from([0.0, 2.0e3, 3.0e3j])),
                               detuning=draw(st.sampled_from([-5.2e6, 5.4e6])))
                   for _ in cavity_dims)
    return SystemConfig(
        mech_dim=draw(st.integers(3, 12)), cavity_dims=cavity_dims,
        omega_m_prime=5.0e6, lam=2.0e5,
        gamma_m=draw(st.sampled_from([0.0, 5.0])),
        n_bar=draw(st.sampled_from([0.0, 0.3])), kappa=5.0e4, lasers=lasers)


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_nnz_estimate_bounds_both_generators(cfg):
    # the memory guard must never be optimistic; with no drive M = L, and
    # the solver holds L's real system twice
    liou = build_full_liouvillian(cfg)
    m = liou.superoperator if liou.uncoupled is None else liou.uncoupled
    assert lindblad._estimate_nnz(cfg) >= liou.superoperator.nnz + m.nnz


def test_liouvillian_assembly_matches_dense_kronecker_sums():
    # L and the uncoupled generator M against -i[H, .] plus one dissipator
    # per jump, written out as dense Kronecker sums: L has H and the thermal
    # jumps sqrt(gamma (n_bar + 1)) b and sqrt(gamma n_bar) b^dag, M has H at
    # g_j = 0 and the reduced chain's jumps sum_n sqrt(n down_n) |n-1><n| and
    # sum_n sqrt(n up_n) |n><n-1|; both have the cavity decays sqrt(kappa) a_j.
    # Inputs: fig2 at mech 4 (n = 1,024), and one driven 3-level cavity
    # (d = 9), whose ladder has the entry sqrt(2)
    def lifted(op, slot):
        out = np.ones((1, 1))
        for k, dim in enumerate(dims):
            out = np.kron(out, op if k == slot else np.eye(dim))
        return out

    for cfg in (fig2_system(4), small_driven(mech_dim=3, cavity_dim=3)):
        liou = build_full_liouvillian(cfg)
        dims = liou.space.dims
        n = np.arange(1, cfg.mech_dim)
        b = lifted(np.diag(np.sqrt(n), 1), 0)
        cavities = [np.sqrt(cfg.kappa) * lifted(np.diag(np.sqrt(
            np.arange(1, dim)), 1), 1 + j) for j, dim in enumerate(dims[1:])]
        h = build_full_hamiltonian(cfg).toarray()
        h0 = build_full_hamiltonian(dataclasses.replace(cfg, lasers=tuple(
            dataclasses.replace(l, g=0.0) for l in cfg.lasers))).toarray()
        up, down = chain_rates(transition_rates(cfg), cfg.gamma_m, cfg.n_bar)
        thermal = [np.sqrt(cfg.gamma_m * (cfg.n_bar + 1.0)) * b,
                   np.sqrt(cfg.gamma_m * cfg.n_bar) * b.conj().T]
        chain = [lifted(np.diag(np.sqrt(n * down), 1), 0),
                 lifted(np.diag(np.sqrt(n * up), -1), 0)]
        lsuper = dense_generator(h, cavities + thermal)
        scale = np.abs(lsuper).max()
        np.testing.assert_allclose(liou.superoperator.toarray(), lsuper,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(liou.uncoupled.toarray(),
                                   dense_generator(h0, cavities + chain),
                                   rtol=0, atol=1e-12 * scale)


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
    # the eigenvalues of -i [H, .] are purely imaginary
    liou = build_full_liouvillian(closed_system())
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
    rates = transition_rates(cfg)
    up, down, _ = level_rates(*chain_rates(rates, GAMMA_M, N_BAR))
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


def fig2_scaled(mech_dim, g_scale):
    sysc = fig2_system(mech_dim)
    return dataclasses.replace(sysc, lasers=tuple(
        dataclasses.replace(l, g=g_scale * l.g) for l in sysc.lasers))


@pytest.mark.parametrize("make", [
    lambda: small_driven(mech_dim=4, g=3.0e3, n_bar=0.2),
    lambda: fig2_system(4),
    # no mechanical bath: L with g_j = 0 would be singular here, the
    # uncoupled generator with the chain's rates is not
    lambda: small_driven(gamma_m=0.0),
], ids=["small_driven", "fig2_mech4", "small_driven_no_bath"])
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
    assert ss.method == "gmres"
    assert ss.iterations >= 2
    assert 1.0 <= ss.condition <= CONDITION_LIMIT


@pytest.mark.parametrize("g_scale", [1.0, 4.0], ids=["g", "4g"])
def test_full_solve_matches_direct_lu(g_scale):
    # fig2 at mech 8, at its coupling and at 4g (|g|/kappa ~ 1.8, past the
    # regime validator's fail line): the direct sparse LU of the same real
    # trace-rowed system is the reference
    liou = build_full_liouvillian(fig2_scaled(8, g_scale))
    d = liou.space.total_dim
    t, diag, upper = _hermitian_coordinates(d)
    lt = (liou.superoperator @ t).tocsr()
    rows = lt[upper]
    trace_row = sp.csr_matrix(np.ones((1, d))) @ t[diag].real
    a = sp.vstack([trace_row, lt[diag[1:]].real, rows.real, rows.imag],
                  format="csc")
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    ref = (t @ splu(a).solve(rhs)).reshape((d, d), order="F")
    ref /= np.trace(ref).real
    ss = steady_state_solve(liou)
    np.testing.assert_allclose(ss.rho.matrix, ref, rtol=0, atol=1e-12)


def test_uncoupled_generator_holds_the_reduced_chain():
    # M has no coupling, so its steady state is the cavity vacuum times the
    # reduced chain's populations
    cfg = fig2_system(6)
    liou = build_full_liouvillian(cfg)
    ss = steady_state_solve(Liouvillian(liou.space, liou.uncoupled))
    np.testing.assert_allclose(
        partial_trace(ss.rho, 0).populations(),
        reduced_steady_populations(cfg, tail_check=False).populations,
        rtol=0, atol=1e-10)
    for cavity in (1, 2, 3):
        assert partial_trace(ss.rho, cavity).populations()[0] == \
            pytest.approx(1.0, abs=1e-12)


def test_gmres_budget_overrun_is_a_solver_error(monkeypatch):
    # a well-posed system that needs more iterations than the budget allows
    # is a convergence failure, not a degenerate null space
    monkeypatch.setattr(lindblad, "GMRES_RESTART", 5)
    monkeypatch.setattr(lindblad, "GMRES_MAX_CYCLES", 1)
    with pytest.raises(SolverError, match=r"after 5 iterations") as err:
        steady_state_solve(build_full_liouvillian(fig2_system(4)))
    assert not isinstance(err.value, DegenerateSteadyStateError)


def test_steady_state_residual_and_validity():
    cfg = small_driven(mech_dim=5, g=4.0e3, n_bar=0.3)
    liou = build_full_liouvillian(cfg)
    ss = steady_state_solve(liou)
    rho = ss.rho.matrix
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() >= -1e-8
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


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_steady_state_does_not_depend_on_rate_units(scale):
    # a change of the unit of time rescales L (and M); neither the solution
    # nor the uniqueness test may depend on it
    liou = build_full_liouvillian(small_driven(mech_dim=4, g=3.0e3, n_bar=0.2))
    scaled = Liouvillian(liou.space, scale * liou.superoperator,
                         scale * liou.uncoupled)
    np.testing.assert_allclose(steady_state_solve(scaled).rho.matrix,
                               steady_state_solve(liou).rho.matrix,
                               rtol=0, atol=1e-12)
    weak = build_full_liouvillian(small_driven(g=0.0, gamma_m=1e-9))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_solve(Liouvillian(weak.space, scale * weak.superoperator,
                                       scale * weak.uncoupled))


def test_thermal_chain_at_zero_kelvin_not_degenerate():
    # the chain of acceptance criterion 1 with its bath at 0 K: weakly damped
    # and decoupled, so its condition estimate (about 1e4) is large yet far
    # below the degeneracy threshold
    cfg = mech_only(mech_dim=30, gamma_m=100.0, n_bar=0.0)
    ss = steady_state_solve(build_full_liouvillian(cfg))
    assert ss.rho.populations()[0] == pytest.approx(1.0, abs=1e-10)


def test_undriven_chain_preconditioner_fill_is_bounded():
    # with no drive M = L, which is factored after COLAMD: on this hot chain
    # (d = 320, n_bar = 50) natural order stores 1.85M LU nonzeros, COLAMD
    # about 0.65M
    cfg = mech_only(mech_dim=320, omega=1.0e6, gamma_m=1.0e3, n_bar=50.0)
    ss = steady_state_solve(build_full_liouvillian(cfg))
    assert ss.lu_nnz <= 1_000_000
    np.testing.assert_allclose(
        ss.rho.populations(),
        reduced_steady_populations(cfg, tail_check=False).populations,
        rtol=0, atol=1e-10)


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
# time evolution, with scipy's expm_multiply as an independent oracle

def evolve(liou, rho0, times):
    """rho(t) = exp(t L) rho0 at evenly spaced times, each of unit trace."""
    d = liou.space.total_dim
    vecs = expm_multiply(liou.superoperator, rho0.reshape(-1, order="F"),
                         start=times[0], stop=times[-1], num=len(times),
                         endpoint=True)
    states = [v.reshape((d, d), order="F") for v in vecs]
    for m in states:
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-8)
    return states


def test_time_evolve_cavity_decay():
    # g = 0, gamma_m = 0: photon number decays as e^(-kappa t)
    kappa = 1.0e4
    cfg = SystemConfig(mech_dim=3, cavity_dims=(3,), omega_m_prime=1.0e5,
                       lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=kappa,
                       lasers=(LaserParams(g=0.0, detuning=0.0),))
    liou = build_full_liouvillian(cfg)
    space = liou.space
    rho0 = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    rho0[1, 1] = 1.0              # |0, 1>: no phonon, one photon
    times = np.linspace(0.0, 3.0 / kappa, 7)
    n_cav = np.kron(np.eye(3), np.diag(np.arange(3.0)))
    occupations = [np.real(np.trace(n_cav @ m))
                   for m in evolve(liou, rho0, times)]
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
    rho0 = np.kron(np.diag([0.4, 0.3, 0.2, 0.1]),
                   np.diag([1.0, 0.0])).astype(complex)
    t_final = 3.0 / (cfg.gamma_m * (2.0 * cfg.n_bar + 1.0))
    final = evolve(liou, rho0, [0.0, t_final])[-1]
    d0 = np.max(np.abs(rho0 - target))
    d1 = np.max(np.abs(final - target))
    assert d1 < d0 / 3.0
