"""Property tests of the reduced birth-death chain over random rate tables:
the recursion, the rate matrix Q and the sideband linewidths all read the
same per-phonon chain rates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanomech import lindblad
from nanomech.lindblad import (RateTable, SystemConfig, _chain_residual,
                               build_reduced_generator, rate_matrix,
                               reduced_steady_populations)
from nanomech.observables import linewidths

RATE = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@st.composite
def rate_tables(draw, n_max):
    return RateTable(a_plus=draw(arrays(float, n_max, elements=RATE)),
                     a_minus=draw(arrays(float, n_max, elements=RATE)),
                     delta=np.arange(1.0, n_max + 1))


@st.composite
def chains(draw):
    """A random rate table with gamma_m > 0 and n_bar >= 0."""
    table = draw(rate_tables(draw(st.integers(2, 12))))
    gamma_m = draw(st.floats(1e-2, 1e2))
    n_bar = draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)))
    return table, gamma_m, n_bar


def solve_chain(table, gamma_m, n_bar):
    """The reduced model's recursion and Q for a given rate table."""
    cfg = SystemConfig(mech_dim=table.n_max + 1, cavity_photons=1,
                       omega_m_prime=1.0, lam=1.0, gamma_m=gamma_m,
                       n_bar=n_bar, kappa=1.0, lasers=())
    with mock.patch.object(lindblad, "transition_rates", return_value=table):
        ss = reduced_steady_populations(cfg, tail_check=False)
        q = build_reduced_generator(cfg).toarray().real
    return ss, q


# a vanishing up rate (n_bar = 0, no blue drive) empties the levels above it
@settings(max_examples=40, deadline=None)
@given(chains())
def test_recursion_detailed_balance(chain):
    table, gamma_m, n_bar = chain
    ss, _ = solve_chain(table, gamma_m, n_bar)
    p = ss.populations
    up = table.a_plus + gamma_m * n_bar
    down = table.a_minus + gamma_m * (n_bar + 1.0)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(up * p[:-1], down * p[1:], rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(chains())
def test_rate_matrix_annihilates_recursion(chain):
    ss, q = solve_chain(*chain)
    scale = np.abs(q).max()
    assert np.linalg.norm(q @ ss.populations) <= 1e-12 * scale
    assert ss.residual <= 1e-12 * scale
    assert np.all(np.abs(q.sum(axis=0)) <= 1e-12 * scale)


# the residual is summed without scipy but must stay the same float as |Q P|
# from the sparse rate matrix, on the recursion's P and on any P
@settings(max_examples=60, deadline=None)
@given(chains(), st.data())
def test_chain_residual_is_rate_matrix_product_bit_for_bit(chain, data):
    table, gamma_m, n_bar = chain
    up = table.a_plus + gamma_m * n_bar
    down = table.a_minus + gamma_m * (n_bar + 1.0)
    ss, _ = solve_chain(*chain)
    other = data.draw(arrays(float, up.size + 1, elements=st.one_of(
        st.just(0.0), st.floats(1e-300, 1e3))))
    for p in (ss.populations, other):
        expected = np.linalg.norm(rate_matrix(up, down) @ p.astype(complex))
        assert _chain_residual(up, down, p).hex() == float(expected).hex()
    assert ss.residual == _chain_residual(up, down, ss.populations)


def three_term_linewidths(table, gamma_m, n_bar, probe=None):
    """Gamma_n as the linewidths docstring writes it, term by term."""
    def tot(a, pa, n):
        if n < 1:
            return 0.0
        return a[n - 1] + (0.0 if pa is None else pa[n - 1])

    pp = None if probe is None else probe.a_plus
    pm = None if probe is None else probe.a_minus
    out = []
    for n in range(1, table.n_max):
        out.append(
            n * (tot(table.a_minus, pm, n) + tot(table.a_plus, pp, n)
                 + gamma_m * (2 * n_bar + 1))
            + (n - 1) * (tot(table.a_minus, pm, n - 1) + gamma_m * (n_bar + 1))
            + (n + 1) * (tot(table.a_plus, pp, n + 1) + gamma_m * n_bar))
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(chains(), st.data())
def test_linewidths_match_three_term_formula(chain, data):
    table, gamma_m, n_bar = chain
    probe = data.draw(rate_tables(table.n_max))
    n_max = table.n_max - 1
    np.testing.assert_allclose(linewidths(table, gamma_m, n_bar, n_max),
                               three_term_linewidths(table, gamma_m, n_bar),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        linewidths(table, gamma_m, n_bar, n_max, probe_rates=probe),
        three_term_linewidths(table, gamma_m, n_bar, probe), rtol=1e-12,
        atol=0)
