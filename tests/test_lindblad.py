import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply, splu

from nanomech.cli import run_device
from nanomech.config import parse_config
from nanomech.fock import partial_trace
from nanomech import lindblad
from nanomech.lindblad import (CONDITION_LIMIT, DegenerateSteadyStateError,
                               LaserParams, SolverError,
                               SystemConfig, TruncationError,
                               _encode, _hamiltonian_parts,
                               _hermitian_coordinates, _lowering,
                               _occupations, _parity_blocks,
                               _real_generator, _transpose,
                               _unique_by_structure,
                               build_full_hamiltonian, build_full_liouvillian,
                               build_reduced_generator, chain_rates,
                               level_rates, reduced_steady_populations,
                               steady_state_solve,
                               transition_rates)

import reference_path
from reference_path import (assert_same_csr,
                            complex_generators as reference_generators,
                            hermitian_map, real_liouvillian, real_system,
                            reference_liouvillian, trace_weight)
from conftest import (CONFIG_PATH, GAMMA_M, KAPPA, LAMBDA, N_BAR,
                      OMEGA_M_PRIME, dense_generator, kron_generators,
                      kron_ladders, kron_lift, kron_liouvillian,
                      parity_block_count, product_excitations, quoted_system,
                      with_uncoupled)

TWO_PI = 2 * np.pi


def mech_only(mech_dim=5, omega=1.0e6, lam=0.0, gamma_m=1.0e3, n_bar=0.0):
    return SystemConfig(mech_dim=mech_dim, cavity_photons=1,
                        omega_m_prime=omega, lam=lam, gamma_m=gamma_m,
                        n_bar=n_bar, kappa=0.0, lasers=())


def small_driven(mech_dim=4, g=2.0e3, detuning=None, kappa=5.0e4,
                 lam=2.0e5, gamma_m=1.0, n_bar=0.1, cavity_photons=1):
    omega = 5.0e6
    if detuning is None:
        detuning = -(omega + lam)     # red drive on the 1 -> 0 line
    return SystemConfig(mech_dim=mech_dim, cavity_photons=cavity_photons,
                        omega_m_prime=omega, lam=lam, gamma_m=gamma_m,
                        n_bar=n_bar, kappa=kappa,
                        lasers=(LaserParams(g=g, detuning=detuning),))


def complex_lasers(k):
    """k lasers of complex couplings, alternately red and blue detuned."""
    return tuple(LaserParams(g=2.0e3 * np.exp(0.4j * (j + 1)),
                             detuning=(-1) ** j * (5.0e6 + 2.0e5 * j))
                 for j in range(k))


def two_cavities(photons=1, mech_dim=4):
    return SystemConfig(mech_dim=mech_dim, cavity_photons=photons,
                        omega_m_prime=5.0e6, lam=2.0e5, gamma_m=5.0,
                        n_bar=0.3, kappa=5.0e4, lasers=complex_lasers(2))


# ---------------------------------------------------------------------------
# configuration and generator structure

def test_config_validation():
    with pytest.raises(ValueError):
        mech_only(mech_dim=2)
    # a negative, infinite or NaN rate or occupation is refused before any
    # build (a negative n_bar used to reach np.sqrt of a negative jump rate,
    # an infinite one inf - inf)
    for name in ("gamma_m", "n_bar", "kappa"):
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_driven(**{name: bad})
    # the cavity block holds at least the one-photon states, also with no
    # laser at all
    for lasers in ((LaserParams(1.0, 0.0),), ()):
        with pytest.raises(ValueError, match="cavity photon number"):
            SystemConfig(mech_dim=4, cavity_photons=0, omega_m_prime=1.0,
                         lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=1.0,
                         lasers=lasers)


def test_space_layout():
    # the mechanics, then the photon configurations of the three cavities
    # with at most two photons in all
    cfg = quoted_system(mech_dim=6, cavity_photons=2)
    assert cfg.dims() == (6, 10)
    assert mech_only().dims() == (5,)
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
    cfg = SystemConfig(mech_dim=3, cavity_photons=1, omega_m_prime=omega,
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


@settings(max_examples=30, deadline=None)
@given(mech_dim=st.integers(3, 8), photons=st.integers(1, 3),
       couplings=st.lists(st.tuples(st.floats(1.0e2, 1.0e4),
                                    st.floats(-np.pi, np.pi)),
                          min_size=1, max_size=3))
def test_full_hamiltonian_hermitian_on_drawn_systems(mech_dim, photons,
                                                     couplings):
    # complex couplings of any phase, 1-3 cavities, 1-3 photons in all
    lasers = tuple(LaserParams(g=mag * np.exp(1j * phase),
                               detuning=(-1) ** j * (5.0e6 + 2.0e5 * j))
                   for j, (mag, phase) in enumerate(couplings))
    cfg = SystemConfig(mech_dim=mech_dim, cavity_photons=photons,
                       omega_m_prime=5.0e6, lam=2.0e5, gamma_m=1.0,
                       n_bar=0.1, kappa=5.0e4, lasers=lasers)
    h = build_full_hamiltonian(cfg).toarray()
    assert np.abs(h - h.conj().T).max() <= 1e-12 * np.abs(h).max()


def test_liouvillian_trace_preservation():
    # L^dagger(I) = 0, on the complex L and as the column sums of R's
    # diagonal rows that the build judges; a non-Hermitian H (energies of
    # imaginary part -kappa) breaks it
    cfg = quoted_system(mech_dim=4)
    lsuper = reference_generators(cfg)[0]
    d = cfg.dims()[0] * cfg.dims()[1]
    scale = abs(lsuper).max()
    assert np.abs(lsuper[::d + 1].sum(axis=0)).max() <= 1e-10 * scale
    table, _encoded, energy, coupling, b, cavities = _hamiltonian_parts(cfg)
    coords = _hermitian_coordinates(table.sum(axis=1))
    jumps = [[(s, np.sqrt(KAPPA) * w) for s, w in a] for a in cavities]
    _r, big, defect = _real_generator(energy, coupling, jumps, coords)
    assert defect <= 1e-10 * big
    lossy = energy - 1j * KAPPA
    assert _real_generator(lossy, coupling, jumps, coords)[2] > 1e-3 * big
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_real_generator", lambda *args: (
            *_real_generator(*args)[:2], 2e-10 * big))
        with pytest.raises(SolverError, match="not trace preserving"):
            build_full_liouvillian(cfg)


def step_matrix(stride, w):
    """The CSR matrix of a step: entries [i, i + stride] = w[i] where w[i]
    is nonzero."""
    rows = np.flatnonzero(w)
    return sp.csr_matrix((w[rows].astype(complex), (rows, rows + stride)),
                         shape=(w.size, w.size))


@pytest.mark.parametrize("slot", range(4))
def test_lowering_matches_kron_per_factor(slot, rng):
    # reference: one Kronecker product per mode on the product space of mech
    # 4 and 3 levels per cavity, identities elsewhere, sliced to the states
    # with at most 2 photons in all, for the annihilation weights sqrt(n)
    # and for positive weights like those of the chain jumps; the transposed
    # steps are the creation operator.  On three cavities a_1 has the steps
    # 3, 5 and 6, a_2 the steps 2 and 3 and a_3 the step 1.
    cfg = quoted_system(mech_dim=4, cavity_photons=2)
    _b, _cavities, lowering, table = kron_ladders(cfg)
    np.testing.assert_array_equal(_occupations(cfg), table)
    n = np.arange(1, 4 if slot == 0 else 3)
    for weights in (np.sqrt(n), rng.uniform(0.1, 10.0, n.size)):
        ref = lowering(slot, weights)
        op = _lowering(table, _encode(table), slot, weights)
        assert [s for s, _w in op] == [[10], [3, 5, 6], [2, 3], [1]][slot]
        for m, r in ((sum(step_matrix(*step) for step in op), ref),
                     (sum(step_matrix(*step) for step in _transpose(op)),
                      ref.T.tocsr())):
            m.sort_indices()
            np.testing.assert_array_equal(m.indptr, r.indptr)
            np.testing.assert_array_equal(m.indices, r.indices)
            np.testing.assert_array_equal(m.data, r.data)


def closed_system():
    # no dissipation at all: the generator is -i [H, .]
    return SystemConfig(mech_dim=3, cavity_photons=1, omega_m_prime=1.0e5,
                        lam=3.0e3, gamma_m=0.0, n_bar=0.0, kappa=0.0,
                        lasers=(LaserParams(g=500.0, detuning=9.0e4),))


@pytest.mark.parametrize("block", [reference_path.ASSEMBLY_BLOCK, 1],
                         ids=["blocks", "rows"])
@pytest.mark.parametrize("make", [
    lambda: fig2_system(4),
    lambda: fig2_system(8),
    lambda: fig2_scaled(4, 0.0),
    # three cavities with at most 2 or 3 photons: steps of different lasers
    # and step pairs of different cavity decays share offsets
    lambda: fig2_system(4, photons=2),
    lambda: fig2_system(3, photons=3),
    lambda: dataclasses.replace(quoted_system(mech_dim=3, cavity_photons=2),
                                lasers=complex_lasers(3)),
    lambda: two_cavities(photons=2),
    # its diagonal entries K_ii + conj(K_ii) are exact zeros and dropped
    closed_system,
    # one cavity: at most M photons are M + 1 levels
    lambda: small_driven(mech_dim=4, g=1.0e3 * np.exp(0.7j), cavity_photons=2),
    lambda: small_driven(mech_dim=3, g=1.0e3j, cavity_photons=4),
    lambda: mech_only(mech_dim=30, gamma_m=100.0, n_bar=0.5),
    lambda: small_driven(g=0.0, gamma_m=0.0),
], ids=["fig2_mech4", "fig2_mech8", "fig2_mech4_g0", "fig2_mech4_N2",
        "fig2_mech3_N3", "three_cavities_complex_g_N2", "two_cavities_N2",
        "closed", "complex_g_3_levels", "one_cavity_5_levels", "chain30",
        "cavity_decay_gamma0"])
def test_liouvillian_assembly_matches_kron_sums(make, block, monkeypatch):
    # the reference path's complex L and M (tests/reference_path.py)
    # against the sparse Kronecker sums of conftest.kron_generators (N + 1
    # levels per cavity, every operator sliced to the states with at most N
    # photons in all): the same sparsity (the sums drop exact zeros), int32
    # indices in canonical form and data within 1e-12 max|L|, also when the
    # slot table is written one row j at a time; and the R and R_M that
    # build_full_liouvillian writes straight from the model (R_M by
    # _uncoupled_system where the build solves directly) are those of that
    # L and M, bit for bit: their even block alone where the model's
    # structure proves the steady state unique, with the build's trace-row
    # weight
    monkeypatch.setattr(reference_path, "ASSEMBLY_BLOCK", block)
    cfg = make()
    liou = with_uncoupled(cfg)
    dims, excitations, ref_l, ref_m = kron_generators(cfg)
    lsuper, uncoupled = reference_generators(cfg)
    assert liou.dims == dims
    np.testing.assert_array_equal(liou.excitations, excitations)
    assert (uncoupled is None) == (ref_m is None) == (not cfg.lasers)
    scale = abs(ref_l).max()
    for m, r in ((lsuper, ref_l), (uncoupled, ref_m)):
        if r is None:
            continue
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.has_canonical_format
        np.testing.assert_array_equal(m.indptr, r.indptr)
        np.testing.assert_array_equal(m.indices, r.indices)
        np.testing.assert_allclose(m.data, r.data, rtol=0,
                                   atol=1e-12 * scale)
    even = _hermitian_coordinates(excitations)[3]
    assert liou.dim == (even if _unique_by_structure(cfg)
                        else excitations.size ** 2)
    ref = reference_liouvillian(cfg, liou.dim, trace_weight(liou))
    for m, r in ((liou.superoperator, ref.superoperator),
                 (liou.uncoupled, ref.uncoupled)):
        if r is not None:
            assert_same_csr(m, r)


def test_liouvillian_build_memory_stays_flat():
    # R is written in blocks of rows whose pieces are joined once, array by
    # array: at fig2 mech 32 the build's allocation peak is about 1.9 times
    # the bytes of the R and R_M it returns (a block of at least
    # REAL_BLOCK_ROWS rows is a quarter of the even block there; 1.6 at
    # mech 128), where one that gathered the triplets of each parity block
    # at once read 2.75
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
    """Systems of mech 3-12 and 0-3 cavities with at most 1-3 photons in
    all, with and without (real or imaginary) coupling, mechanical damping
    and thermal occupation."""
    lasers = tuple(LaserParams(g=draw(st.sampled_from([0.0, 2.0e3, 3.0e3j])),
                               detuning=draw(st.sampled_from([-5.2e6, 5.4e6])))
                   for _ in range(draw(st.integers(0, 3))))
    return SystemConfig(
        mech_dim=draw(st.integers(3, 12)),
        cavity_photons=draw(st.integers(1, 3)),
        omega_m_prime=5.0e6, lam=2.0e5,
        gamma_m=draw(st.sampled_from([0.0, 5.0])),
        n_bar=draw(st.sampled_from([0.0, 0.3])), kappa=5.0e4, lasers=lasers)


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_nnz_estimate_bounds_both_generators(cfg):
    # the memory guard's estimate must never be optimistic about the
    # nonzeros of the complex L and M; with no drive M = L
    lsuper, uncoupled = reference_generators(cfg)
    m = lsuper if uncoupled is None else uncoupled
    assert lindblad._estimate_nnz(cfg) >= lsuper.nnz + m.nnz


def test_liouvillian_assembly_matches_dense_kronecker_sums():
    # L and the uncoupled generator M against -i[H, .] plus one dissipator
    # per jump, written out as dense Kronecker sums: L has H and the thermal
    # jumps sqrt(gamma (n_bar + 1)) b and sqrt(gamma n_bar) b^dag, M has H at
    # g_j = 0 and the reduced chain's jumps sum_n sqrt(n down_n) |n-1><n| and
    # sum_n sqrt(n up_n) |n><n-1|; both have the cavity decays sqrt(kappa) a_j.
    # The ladder operators are conftest's, sliced to the states with at most
    # N photons in all.  Inputs: fig2 at mech 4 (n = 256), fig2 at mech 3
    # with N <= 2 (n = 900), and one driven cavity with N <= 2 (d = 9), whose
    # ladder has the entry sqrt(2)
    # The R of the build and the R_M of _uncoupled_system are those of the
    # dense L and M, in Hermitian coordinates (the even block, as the build
    # writes these), to rounding.
    for cfg in (fig2_system(4), fig2_system(3, photons=2),
                small_driven(mech_dim=3, cavity_photons=2)):
        liou = with_uncoupled(cfg)
        generators = reference_generators(cfg)
        n = np.arange(1, cfg.mech_dim)
        b, cavities, lowering, _table = kron_ladders(cfg)
        b = b.toarray()
        cavities = [np.sqrt(cfg.kappa) * a.toarray() for a in cavities]
        h = build_full_hamiltonian(cfg).toarray()
        h0 = build_full_hamiltonian(dataclasses.replace(cfg, lasers=tuple(
            dataclasses.replace(l, g=0.0) for l in cfg.lasers))).toarray()
        up, down = chain_rates(transition_rates(cfg), cfg.gamma_m, cfg.n_bar)
        thermal = [np.sqrt(cfg.gamma_m * (cfg.n_bar + 1.0)) * b,
                   np.sqrt(cfg.gamma_m * cfg.n_bar) * b.conj().T]
        chain = [lowering(0, np.sqrt(n * down)).toarray(),
                 lowering(0, np.sqrt(n * up)).T.toarray()]
        lsuper = dense_generator(h, cavities + thermal)
        uncoupled = dense_generator(h0, cavities + chain)
        scale, weight = np.abs(lsuper).max(), trace_weight(liou)
        for got, want in ((generators[0], lsuper),
                          (generators[1], uncoupled),
                          (liou.superoperator,
                           real_system(lsuper, liou.excitations, weight,
                                       size=liou.dim)),
                          (liou.uncoupled,
                           real_system(uncoupled, liou.excitations, weight,
                                       size=liou.dim))):
            np.testing.assert_allclose(got.toarray(), want.toarray()
                                       if sp.issparse(want) else want,
                                       rtol=0, atol=1e-12 * scale)


def test_liouvillian_preserves_hermiticity(rng):
    # of the complex L whose Hermitian coordinates R holds
    lsuper = reference_generators(small_driven())[0]
    d = math.isqrt(lsuper.shape[0])
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m + m.conj().T
    dm = (lsuper @ m.reshape(-1, order="F")).reshape((d, d), order="F")
    np.testing.assert_allclose(dm, dm.conj().T, atol=1e-6 * abs(dm).max())


def test_liouvillian_memory_guard(monkeypatch):
    # steady --full --converge can reach fig2 at 256 levels and 2 photons:
    # 1.1e8 nonzeros, about 10 GB, is refused up front; 128 levels (2.7e7,
    # about 2.5 GB) is not
    cap = lindblad.DEFAULT_NNZ_CAP
    assert lindblad._estimate_nnz(quoted_system(256, cavity_photons=2)) > cap
    assert lindblad._estimate_nnz(quoted_system(128, cavity_photons=2)) <= cap
    # the cap is read when the Liouvillian is built
    monkeypatch.setattr(lindblad, "DEFAULT_NNZ_CAP", 1000)
    with pytest.raises(MemoryError, match="exceed cap 1000"):
        build_full_liouvillian(quoted_system(mech_dim=8))


def test_closed_system_spectrum_is_imaginary():
    # the eigenvalues of -i [H, .] are purely imaginary
    lsuper = reference_generators(closed_system())[0]
    ev = np.linalg.eigvals(lsuper.toarray())
    assert np.max(np.abs(ev.real)) < 1e-8 * np.max(np.abs(ev.imag))


# ---------------------------------------------------------------------------
# transition rates and the reduced model

def test_transition_rates_lorentzian_values():
    cfg = quoted_system(mech_dim=8)
    first, second = (
        transition_rates(dataclasses.replace(cfg, lasers=(laser,)))
        for laser in cfg.lasers[:2])
    g2 = abs(cfg.lasers[0].g) ** 2
    # laser 1 sits exactly on the 0 -> 1 line: A+^1 = |g|^2 / kappa
    assert first.a_plus[0] == pytest.approx(g2 / KAPPA)
    # laser 2 is resonant with the 2 -> 1 removal line
    assert second.a_minus[1] == pytest.approx(g2 / KAPPA)
    # one rung away the same laser is suppressed by kappa^2/(4 lam^2 + kappa^2)
    expected_ratio = KAPPA**2 / (4.0 * LAMBDA**2 + KAPPA**2)
    assert second.a_minus[0] / second.a_minus[1] == pytest.approx(
        expected_ratio)
    assert expected_ratio == pytest.approx(1.0 / 65.0, rel=0.02)


def test_transition_rates_sum_the_lasers_bit_for_bit():
    # A+- are summed over the lasers once, as numpy sums the stacked
    # single-laser tables, so the chain rates of M and of the reduced model
    # keep their bits
    cfg = fig2_system(40)
    assert len(cfg.lasers) == 3
    rates = transition_rates(cfg)
    single = [transition_rates(dataclasses.replace(cfg, lasers=(laser,)))
              for laser in cfg.lasers]
    for name in ("a_plus", "a_minus"):
        stacked = np.stack([getattr(table, name) for table in single], axis=1)
        assert getattr(rates, name).tobytes() == stacked.sum(axis=1).tobytes()
    assert rates.delta.tobytes() == single[0].delta.tobytes()


@pytest.mark.parametrize("detuning, line", [(-5.2e6, 2), (5.0e6, 1)],
                         ids=["red_on_line_2", "blue_on_line_1"])
def test_transition_rates_refuse_a_laser_on_a_line_without_kappa(detuning,
                                                                 line):
    # with kappa = 0 a laser exactly on a line delta_n has the rate 0 / 0
    # there: refused, naming the laser and the line, before any division
    # (a RuntimeWarning is an error here); off the lines the rates are 0
    cfg = SystemConfig(mech_dim=4, cavity_photons=2, omega_m_prime=5.0e6,
                       lam=2.0e5, gamma_m=0.0, n_bar=0.0, kappa=0.0,
                       lasers=(LaserParams(0.0, -5.1e6),
                               LaserParams(0.0, detuning)))
    with pytest.raises(SolverError, match=rf"laser 2 .* line delta_{line} "):
        transition_rates(cfg)
    off = transition_rates(dataclasses.replace(cfg, lasers=cfg.lasers[:1]))
    assert not off.a_plus.any() and not off.a_minus.any()


def test_birth_death_rates_structure():
    cfg = quoted_system(mech_dim=6)
    rates = transition_rates(cfg)
    up, down, _ = level_rates(*chain_rates(rates, GAMMA_M, N_BAR))
    n = np.arange(1, 6)
    np.testing.assert_allclose(up, n * (rates.a_plus + GAMMA_M * N_BAR))
    np.testing.assert_allclose(
        down, n * (rates.a_minus + GAMMA_M * (N_BAR + 1.0)))


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
    cfg = SystemConfig(mech_dim=7, cavity_photons=1, omega_m_prime=1.0e6,
                       lam=0.0, gamma_m=100.0, n_bar=n_bar, kappa=1.0e5,
                       lasers=(LaserParams(g=0.0, detuning=5.0e5),))
    ss = steady_state_solve(build_full_liouvillian(cfg))
    pops = ss.populations
    ratio = n_bar / (n_bar + 1.0)
    expected = ratio ** np.arange(7)
    expected /= expected.sum()
    np.testing.assert_allclose(pops, expected, rtol=1e-6)
    cav = partial_trace(ss.rho, 1).populations()
    assert cav[0] == pytest.approx(1.0, abs=1e-8)


def fig2_system(mech_dim, photons=None):
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    derived, _report = run_device(cfg)
    return SystemConfig.from_derived(
        derived, mech_dim, photons or cfg.simulation.cavity_photons)


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
    # exact oracle: the null space of the dense generator, for GMRES
    # preconditioned by the LU of R_M (which these small blocks would be
    # solved without); with no mechanical bath, b is no jump and the
    # steady state is unique only through the cavities, so the build holds
    # both blocks and the probe of both shows it
    cfg = make()
    liou = with_uncoupled(cfg)
    d = liou.excitations.size
    probed = cfg.gamma_m == 0
    assert (liou.dim == d * d) == probed
    ns = scipy.linalg.null_space(reference_generators(cfg)[0].toarray())
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)
    ss = steady_state_solve(liou)
    np.testing.assert_allclose(ss.rho.matrix, oracle, atol=1e-10)
    assert ss.method == "gmres"
    assert ss.uniqueness == ("probe" if probed else "structure")
    assert ss.iterations >= 2
    assert 1.0 <= ss.condition <= CONDITION_LIMIT


def test_build_writes_uncoupled_only_for_large_driven_blocks():
    # fig2 at mech 6 has an even block of 288 unknowns, at most
    # DIRECT_BLOCK, and is solved directly from R's LU; at mech 7 it holds
    # 394, and GMRES takes the LU of R_M; an undriven chain is solved
    # directly at any size.  The build writes the even block alone.
    small, large = (build_full_liouvillian(fig2_system(m)) for m in (6, 7))
    assert (small.coordinates[3], small.dim, small.excitations.size) == (
        288, 288, 24)
    assert (large.coordinates[3], large.dim, large.excitations.size) == (
        394, 394, 28)
    assert lindblad.DIRECT_BLOCK == 320
    assert small.uncoupled is None and large.uncoupled is not None
    ss = steady_state_solve(small)
    assert (ss.method, ss.iterations, ss.probe_iterations) == ("lu", 0, 0)
    assert steady_state_solve(large).method == "gmres"
    chain = build_full_liouvillian(mech_only(mech_dim=30, n_bar=0.5))
    assert chain.dim > lindblad.DIRECT_BLOCK and chain.uncoupled is None


def solve_verdict(liou):
    """steady_state_solve's verdict on liou, its condition estimate and
    populations: ("unique", estimate, populations), or ("degenerate" or
    "unconverged", None, None)."""
    try:
        ss = steady_state_solve(liou)
    except DegenerateSteadyStateError:
        return "degenerate", None, None
    except SolverError:
        return "unconverged", None, None
    return "unique", ss.condition, ss.populations


@st.composite
def directly_solved_systems(draw):
    """Systems the build leaves without R_M, to be solved from R's LU, each
    with the tolerance to which its populations by GMRES must agree: fig2
    at mech 3-6 and undriven chains of up to 40 levels, 1e-12; drawn small
    systems (small_systems) whose parity blocks hold at most DIRECT_BLOCK
    unknowns, None (see test_direct_solve_matches_gmres)."""
    kind = draw(st.sampled_from(["drawn", "fig2", "chain"]))
    if kind == "fig2":
        return fig2_system(draw(st.integers(3, 6))), 1e-12
    if kind == "chain":
        return mech_only(mech_dim=draw(st.integers(3, 40)),
                         lam=draw(st.sampled_from([0.0, 2.0e5])),
                         gamma_m=draw(st.sampled_from([1.0, 1.0e3])),
                         n_bar=draw(st.sampled_from([0.0, 0.5, 5.0]))), 1e-12
    cfg = draw(small_systems())
    assume(build_full_liouvillian(cfg).uncoupled is None)
    return cfg, None


@settings(max_examples=40, deadline=None)
@given(directly_solved_systems())
def test_direct_solve_matches_gmres(system):
    # the same R solved from its LU and by GMRES, preconditioned by the LU
    # of R_M (M = L with no drive): the same verdict at the default
    # tolerances; with the probe at GMRES_TOL, condition estimates within
    # 1e-5 relative (at PROBE_TOL GMRES's estimate is off by up to 1e-3 at
    # estimates near 1e6) and populations within the system's tolerance or,
    # for a drawn system, within max(1e-12, the estimate times GMRES_TOL),
    # GMRES's forward error bound (6e-11 apart at an estimate of 6e6, a
    # weakly driven chain with no mechanical bath)
    cfg, atol = system
    direct = build_full_liouvillian(cfg)
    gmres = (with_uncoupled(cfg) if cfg.lasers else
             dataclasses.replace(direct, uncoupled=direct.superoperator))
    verdict, condition, populations = solve_verdict(direct)
    assert solve_verdict(gmres)[0] == verdict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "PROBE_TOL", lindblad.GMRES_TOL)
        tight = solve_verdict(gmres)
    assert tight[0] == verdict
    if verdict == "unique":
        assert condition == pytest.approx(tight[1], rel=1e-5)
        np.testing.assert_allclose(
            populations, tight[2], rtol=0,
            atol=atol or max(1e-12, condition * lindblad.GMRES_TOL))


@pytest.mark.parametrize("g_scale", [1.0, 4.0], ids=["g", "4g"])
def test_full_solve_matches_direct_lu(g_scale):
    # fig2 at mech 8, at its coupling and at 4g (|g|/kappa ~ 1.8, past the
    # regime validator's fail line): the direct sparse LU of the same real
    # trace-rowed system is the reference
    cfg = fig2_scaled(8, g_scale)
    liou = build_full_liouvillian(cfg)
    d = liou.excitations.size
    t = hermitian_map(liou.excitations)[0]
    i, j = np.triu_indices(d, 1)
    diag, upper = np.arange(d) * (d + 1), i + j * d
    lt = (reference_generators(cfg)[0] @ t).tocsr()
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
    liou = with_uncoupled(cfg)
    ss = steady_state_solve(dataclasses.replace(
        liou, superoperator=liou.uncoupled, uncoupled=None))
    np.testing.assert_allclose(
        ss.populations,
        reduced_steady_populations(cfg, tail_check=False).populations,
        rtol=0, atol=1e-10)
    # the first cavity state is the vacuum of all three
    assert partial_trace(ss.rho, 1).populations()[0] == \
        pytest.approx(1.0, abs=1e-12)


def test_gmres_budget_overrun_is_a_solver_error(monkeypatch):
    # a well-posed system that needs more iterations than the budget allows
    # is a convergence failure, not a degenerate null space
    monkeypatch.setattr(lindblad, "GMRES_RESTART", 5)
    monkeypatch.setattr(lindblad, "GMRES_MAX_CYCLES", 1)
    with pytest.raises(SolverError, match=r"after 5 iterations") as err:
        steady_state_solve(with_uncoupled(fig2_system(4)))
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
    real_liouvillian((3,), sp.csr_matrix((9, 9), dtype=complex),
                     np.arange(3)),
    # closed system: every Fock projector is stationary
    build_full_liouvillian(mech_only(mech_dim=4, lam=2.0e5, gamma_m=0.0)),
    # the mechanics barely touches its bath and not the cavity
    build_full_liouvillian(small_driven(g=0.0, gamma_m=1e-9)),
], ids=["zero", "closed", "weak_bath"])
def test_degenerate_generator_detected(liou):
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_solve(liou)


@st.composite
def certificate_systems(draw):
    """Systems of mech 3-5 and 1-2 cavities with at most 1-2 photons in
    all, with gamma_m, n_bar, kappa and each g zero or not, and the two
    detunings equal or distinct: _unique_by_structure tells them apart by
    gamma_m and kappa alone."""
    # off the lines delta_n, where kappa = 0 makes transition_rates refuse
    detunings = (-5.1e6, draw(st.sampled_from([-5.1e6, 5.3e6])))
    lasers = tuple(
        LaserParams(g=draw(st.sampled_from([0.0, 2.0e3, 3.0e3j, -1.5e3])),
                    detuning=detunings[j])
        for j in range(draw(st.integers(1, 2))))
    return SystemConfig(
        mech_dim=draw(st.integers(3, 5)),
        cavity_photons=draw(st.integers(1, 2)),
        omega_m_prime=5.0e6, lam=2.0e5,
        gamma_m=draw(st.sampled_from([0.0, 5.0, 50.0])),
        n_bar=draw(st.sampled_from([0.0, 0.3, 2.0])),
        kappa=draw(st.sampled_from([0.0, 5.0e4, 2.0e5])), lasers=lasers)


@settings(max_examples=200, deadline=None)
@given(certificate_systems())
def test_structural_uniqueness_certificate(cfg):
    # a certified system is built and solved in the even block alone, and
    # the probe of both blocks (the reference path's R, at the build's
    # trace-row weight) finds its odd block nonsingular and the same state,
    # also at n_bar = 0, g_j = 0 or equal detunings; a rejected one is
    # built in both blocks, to be probed in both
    liou = build_full_liouvillian(cfg)
    d = liou.excitations.size
    # the hypotheses on these draws (all driven): b and every a_j are jumps
    certified = cfg.gamma_m * (cfg.n_bar + 1.0) > 0 and cfg.kappa > 0
    assert _unique_by_structure(cfg) == certified
    if not certified:
        assert liou.dim == d * d
        event("rejected")
        return
    event("certified")
    assert liou.dim == _hermitian_coordinates(liou.excitations)[3] < d * d
    ss = steady_state_solve(liou)
    assert ss.uniqueness == "structure"
    both = reference_liouvillian(cfg, weight=trace_weight(liou))
    assert parity_block_count(both.excitations,
                              reference_generators(cfg)[0]) == 2
    # a singular or ill-conditioned odd block raises here; the reference
    # carries R_M, so GMRES solves it where the build may solve directly,
    # to GMRES's forward error bound (see test_direct_solve_matches_gmres)
    probed = steady_state_solve(both)
    assert probed.uniqueness == "probe"
    np.testing.assert_allclose(
        ss.populations, probed.populations, rtol=0,
        atol=max(1e-12, probed.condition * lindblad.GMRES_TOL))


def test_certified_build_refuses_a_row_outside_its_block(monkeypatch):
    # a model term that breaks the parity (a linear mechanical drive
    # F (b + b^dag)) makes an even row reach an odd entry of rho, which a
    # build of the even block alone does not hold: a SolverError, not a read
    # of an unset coordinate; built in both blocks (gamma_m = 0), it is held
    def with_drive(config):
        table, encoded, energy, coupling, b, cavities = _hamiltonian_parts(
            config)
        drive = [(s, 2.0e5 * w) for s, w in b + _transpose(b)]
        return table, encoded, energy, coupling + drive, b, cavities
    monkeypatch.setattr(lindblad, "_hamiltonian_parts", with_drive)
    cfg = fig2_system(4)
    with pytest.raises(SolverError, match="breaks the parity"):
        build_full_liouvillian(cfg)
    liou = build_full_liouvillian(dataclasses.replace(cfg, gamma_m=0.0))
    assert liou.dim == liou.excitations.size ** 2


@pytest.mark.parametrize("smallest", [None, -1e-9, -2e-8])
def test_positivity_is_checked_on_the_parity_blocks(smallest, monkeypatch):
    # a state solved in the even block has no entry between states of
    # opposite parity of N, so eigvalsh runs on its two parity blocks (fig2
    # mech 4: 8 states each); an eigenvalue in [-1e-8, 0) makes eigh clip
    # each block, which moves a positive definite state by rounding, and
    # one below -1e-8 is refused
    liou = build_full_liouvillian(fig2_system(4))
    parity = liou.excitations % 2
    want = steady_state_solve(liou).rho.matrix
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def spy(a):
        shapes.append(a.shape)
        w = eigvalsh(a)
        return w if smallest is None else np.append(smallest, w)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    if smallest is not None and smallest < -1e-8:
        with pytest.raises(SolverError, match="negative eigenvalue"):
            steady_state_solve(liou)
        return
    rho = steady_state_solve(liou).rho.matrix
    assert shapes == [(8, 8), (8, 8)]
    assert not rho[np.ix_(parity == 0, parity == 1)].any()
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_steady_state_does_not_depend_on_rate_units(scale):
    # a change of the unit of time rescales L (and M); neither the solution
    # nor the uniqueness test may depend on it, by GMRES or solved directly
    def rescaled(liou):
        return dataclasses.replace(
            liou, superoperator=scale * liou.superoperator,
            uncoupled=None if liou.uncoupled is None
            else scale * liou.uncoupled)
    for build in (with_uncoupled, build_full_liouvillian):
        liou = build(small_driven(mech_dim=4, g=3.0e3, n_bar=0.2))
        np.testing.assert_allclose(steady_state_solve(rescaled(liou)).rho.matrix,
                                   steady_state_solve(liou).rho.matrix,
                                   rtol=0, atol=1e-12)
        weak = build(small_driven(g=0.0, gamma_m=1e-9))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_solve(rescaled(weak))


def decay_generator(scale):
    """The decay |1> -> |0> of a two-level system at rate `scale`."""
    lsuper = np.zeros((4, 4), dtype=complex)
    lsuper[0, 3], lsuper[1, 1], lsuper[2, 2], lsuper[3, 3] = 1, -0.5, -0.5, -1
    return real_liouvillian((2,), scale * lsuper, np.arange(2))


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e200])
def test_steady_state_solve_at_extreme_rate_scales(scale):
    # the solve runs in units of max|L_ij|: its probe solution and its
    # backward-error norms neither overflow nor underflow (a RuntimeWarning
    # fails the test) at any rate scale
    ss = steady_state_solve(decay_generator(scale))
    np.testing.assert_array_equal(ss.rho.matrix, [[1, 0], [0, 0]])
    assert ss.condition == pytest.approx(
        steady_state_solve(decay_generator(1.0)).condition, rel=1e-14)
    assert ss.residual <= 1e-15 * scale


@pytest.mark.parametrize("dims", [(4,), (3, 2, 2)])
def test_hermitian_coordinates_layout(dims):
    # coordinate k of a Hermitian X is Re, or Im where imag[k], of its
    # entry X[i[k], j[k]], i <= j; the reference path's T maps the
    # coordinates back to vec(X); the even coordinates come first, the
    # diagonal first of all, and unsplit[k] is k's index in the order
    # diagonal, Re and Im of the upper triangle (np.triu_indices)
    d = int(np.prod(dims))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x += x.conj().T
    vec = x.reshape(-1, order="F")
    n = product_excitations(dims)
    i, j, imag, even, unsplit = _hermitian_coordinates(n)
    coords = np.where(imag, x[i, j].imag, x[i, j].real)
    t, rows = hermitian_map(n)
    np.testing.assert_array_equal(rows, i + j * d)
    np.testing.assert_array_equal(t @ coords, vec)
    upper_i, upper_j = np.triu_indices(d, 1)
    unsplit_coords = np.concatenate([x.diagonal().real,
                                     x[upper_i, upper_j].real,
                                     x[upper_i, upper_j].imag])
    np.testing.assert_array_equal(coords, unsplit_coords[unsplit])
    parity = (n[i] + n[j]) % 2
    assert not parity[:even].any() and parity[even:].all()
    assert (i <= j).all() and not imag[i == j].any()
    np.testing.assert_array_equal(i[:d], np.arange(d))
    np.testing.assert_array_equal(j[:d], np.arange(d))


def assert_splits_by_parity(cfg):
    """The reference path's R and R_M of cfg over both blocks, at the
    build's trace-row weight, have no entry across the even and the odd
    block, _parity_blocks splits both into them, and their even blocks are
    the R and R_M of the build (R_M by _uncoupled_system where the build
    solves directly), bit for bit."""
    liou = with_uncoupled(cfg)
    ref = reference_liouvillian(cfg, weight=trace_weight(liou))
    n, r, r_m = ref.dim, ref.superoperator, ref.uncoupled
    even = ref.coordinates[3]
    assert liou.dim == even < n
    blocks = _parity_blocks(r, r_m, even)
    assert [block[0] for block in blocks] == [slice(0, even), slice(even, n)]
    for k, (a, built) in enumerate(((r, liou.superoperator),
                                    (r_m, liou.uncoupled))):
        assert a[:even, even:].nnz == 0 and a[even:, :even].nnz == 0
        assert a[:even, :even].nnz > 0 and a[even:, even:].nnz > 0
        split = sp.block_diag([block[1 + k] for block in blocks])
        assert (split != a).nnz == 0
        assert_same_csr(built, blocks[0][1 + k])


def test_fig2_real_systems_split_by_parity():
    # L and M conserve the parity of N_i + N_j (N = phonons + photons)
    assert_splits_by_parity(fig2_system(4))


def test_fig2_real_systems_split_by_parity_with_two_photons():
    # also where a cavity ladder has several steps (three cavities with at
    # most two photons in all)
    assert_splits_by_parity(fig2_system(4, photons=2))


def test_parity_breaking_drive_is_solved_as_one_block():
    # a linear mechanical drive F (b + b^dag) changes the phonon number by
    # one and so breaks the parity L and M conserve: R mixes the blocks and
    # is solved as one, with the parity-conserving M as its preconditioner
    cfg = small_driven(mech_dim=4, g=3.0e3, n_bar=0.2)
    dims, excitations = cfg.dims(), build_full_liouvillian(cfg).excitations
    d = excitations.size
    lsuper, uncoupled = reference_generators(cfg)
    b = kron_lift(sp.diags(np.sqrt(np.arange(1.0, 4.0)), 1), 0, dims)
    drive = 2.0e5 * (b + b.T).toarray()
    lsuper = lsuper + sp.csr_matrix(dense_generator(drive, []))
    assert parity_block_count(excitations, lsuper, uncoupled) == 1
    ns = scipy.linalg.null_space(lsuper.toarray())
    assert ns.shape == (d * d, 1)
    oracle = ns[:, 0].reshape((d, d), order="F")
    oracle /= np.trace(oracle)
    ss = steady_state_solve(real_liouvillian(dims, lsuper, excitations,
                                             uncoupled))
    np.testing.assert_allclose(ss.rho.matrix, oracle, rtol=0, atol=1e-10)
    # the drive fills the odd block: <b> = tr(b rho) is not small
    assert abs(np.trace(b @ ss.rho.matrix)) > 1e-3


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
    base = dict(mech_dim=4, cavity_photons=1, omega_m_prime=5.0e6,
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
    full_p = full.populations
    red_p = reduced_steady_populations(cfg, tail_check=False).populations
    assert np.max(np.abs(full_p - red_p)) < tol


COUPLING = st.floats(-4.0e3, 4.0e3)


@settings(max_examples=20, deadline=None)
@given(mech_dim=st.integers(3, 5), photons=st.integers(1, 2),
       couplings=st.lists(st.builds(complex, COUPLING, COUPLING),
                          min_size=1, max_size=2),
       n_bar=st.floats(0.0, 0.5))
def test_steady_state_populations_are_the_mechanics(mech_dim, photons,
                                                    couplings, n_bar):
    # both solvers return the mechanical populations; only the full one
    # carries the state they come from
    cfg = SystemConfig(
        mech_dim=mech_dim, cavity_photons=photons, omega_m_prime=5.0e6,
        lam=2.0e5, gamma_m=1.0, n_bar=n_bar, kappa=5.0e4,
        lasers=tuple(LaserParams(g=g, detuning=(-1) ** j * (5.0e6 + 2.0e5 * j))
                     for j, g in enumerate(couplings)))
    ss = steady_state_solve(build_full_liouvillian(cfg))
    diagonal = ss.rho.matrix.diagonal().real
    traced = diagonal.reshape(ss.rho.dims[0], -1).sum(axis=1)
    np.testing.assert_allclose(ss.populations, traced, rtol=0, atol=1e-15)
    assert ss.populations.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
    assert reduced_steady_populations(cfg, tail_check=False).rho is None


# ---------------------------------------------------------------------------
# time evolution, with scipy's expm_multiply as an independent oracle

def evolve(lsuper, rho0, times):
    """rho(t) = exp(t L) rho0 at evenly spaced times, each of unit trace."""
    d = rho0.shape[0]
    vecs = expm_multiply(lsuper, rho0.reshape(-1, order="F"),
                         start=times[0], stop=times[-1], num=len(times),
                         endpoint=True)
    states = [v.reshape((d, d), order="F") for v in vecs]
    for m in states:
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-8)
    return states


def test_time_evolve_cavity_decay():
    # g = 0, gamma_m = 0: photon number decays as e^(-kappa t)
    kappa = 1.0e4
    cfg = SystemConfig(mech_dim=3, cavity_photons=2, omega_m_prime=1.0e5,
                       lam=0.0, gamma_m=0.0, n_bar=0.0, kappa=kappa,
                       lasers=(LaserParams(g=0.0, detuning=0.0),))
    lsuper = reference_generators(cfg)[0]
    d = math.isqrt(lsuper.shape[0])
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[1, 1] = 1.0              # |0, 1>: no phonon, one photon
    times = np.linspace(0.0, 3.0 / kappa, 7)
    n_cav = np.kron(np.eye(3), np.diag(np.arange(3.0)))
    occupations = [np.real(np.trace(n_cav @ m))
                   for m in evolve(lsuper, rho0, times)]
    np.testing.assert_allclose(occupations, np.exp(-kappa * times),
                               atol=1e-6)


def test_time_evolve_approaches_steady_state():
    # fast-relaxing toy system: the distance to the steady state must
    # shrink substantially over a few relaxation times
    cfg = SystemConfig(mech_dim=4, cavity_photons=1, omega_m_prime=1.0e5,
                       lam=3.0e4, gamma_m=400.0, n_bar=0.2, kappa=3.0e4,
                       lasers=(LaserParams(g=6.0e3, detuning=-1.0e5),))
    liou = build_full_liouvillian(cfg)
    target = steady_state_solve(liou).rho.matrix
    rho0 = np.kron(np.diag([0.4, 0.3, 0.2, 0.1]),
                   np.diag([1.0, 0.0])).astype(complex)
    t_final = 3.0 / (cfg.gamma_m * (2.0 * cfg.n_bar + 1.0))
    final = evolve(reference_generators(cfg)[0], rho0, [0.0, t_final])[-1]
    d0 = np.max(np.abs(rho0 - target))
    d1 = np.max(np.abs(final - target))
    assert d1 < d0 / 3.0


def test_two_photons_match_three_levels_per_cavity():
    # fig2 at mech 4: the three cavities with at most two photons in all (10
    # states) against three levels each (27 states, conftest's product
    # space) agree in the mechanical populations
    cfg = fig2_system(4, photons=2)
    enr = steady_state_solve(build_full_liouvillian(cfg))
    product = steady_state_solve(kron_liouvillian(cfg, levels=3))
    assert product.rho.matrix.shape == (4 * 27, 4 * 27)
    p, q = enr.populations, product.populations
    assert np.max(np.abs(p - q)) < 1e-4
