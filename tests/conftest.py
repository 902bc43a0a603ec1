import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.constants import hbar, k as kB

from nanomech.config import parse_config
from nanomech.lindblad import (LaserParams, SystemConfig,
                               _hamiltonian_parts, _hermitian_coordinates,
                               _parity_blocks, _uncoupled_system,
                               build_full_liouvillian, chain_rates,
                               transition_rates)

from reference_path import real_liouvillian, real_system, trace_weight

TWO_PI = 2 * np.pi

# headline operating point quoted for the main worked example:
# |g|/2pi = 21 kHz, kappa/2pi = 52.3 kHz, lambda/2pi = 209 kHz,
# w_m/2pi = 5.23 MHz, Q_m = 5e6, T = 20 mK, one blue drive on the 0->1
# line and red drives on the 2->1 and 3->2 lines
G_ABS = TWO_PI * 21e3
KAPPA = TWO_PI * 52.3e3
LAMBDA = TWO_PI * 209e3
OMEGA_M = TWO_PI * 5.23e6
OMEGA_M_PRIME = OMEGA_M + LAMBDA
GAMMA_M = OMEGA_M / 5e6
N_BAR = 1.0 / np.expm1(hbar * OMEGA_M_PRIME / (kB * 0.020))

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "fig2.json"


def dense_generator(h, jumps):
    """Dense column-stacked generator of a Hermitian H and jump operators,
    written out with Kronecker products."""
    d = h.shape[0]
    eye = np.eye(d)
    lsuper = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in jumps:
        cdc = c.conj().T @ c
        lsuper += (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                   - 0.5 * np.kron(cdc.T, eye))
    return lsuper


def product_excitations(dims):
    """The total excitation number of each state of the product space with
    factor dimensions `dims` (first factor slowest)."""
    return sum(np.unravel_index(np.arange(math.prod(dims)), dims))


def parity_block_count(excitations, lsuper, uncoupled=None):
    """How many blocks steady_state_solve factors and solves for the
    generators L and M (M = L when None) on basis states of total excitation
    numbers `excitations`."""
    even = _hermitian_coordinates(excitations)[3]
    r, r_m = (None if g is None else real_system(g, excitations, 1.0)
              for g in (lsuper, uncoupled))
    return len(_parity_blocks(r, r if r_m is None else r_m, even))


def with_uncoupled(cfg):
    """build_full_liouvillian(cfg) with R_M, written by _uncoupled_system
    where the build leaves it out on a driven system, so that
    steady_state_solve runs GMRES preconditioned by its LU; with no drive
    M = L and uncoupled stays None."""
    liou = build_full_liouvillian(cfg)
    if not cfg.lasers or liou.uncoupled is not None:
        return liou
    return dataclasses.replace(liou, uncoupled=_uncoupled_system(
        cfg, _hamiltonian_parts(cfg), liou.coordinates, trace_weight(liou)))


class QuadraticTestPotential:
    """Synthetic energy line density W = -c x^2 (uniform along the beam)."""

    def __init__(self, curvature_coefficient):
        self.c = curvature_coefficient

    def energy_curvature(self, alpha_par, alpha_perp):
        return lambda y: np.full_like(np.asarray(y, dtype=float), -2.0 * self.c)


def kron_lift(block, slot, dims):
    """The sparse matrix `block` on factor `slot` of the product space with
    factor dimensions `dims` (first factor slowest), the identity on the
    others, as chained Kronecker products."""
    out = sp.identity(1, dtype=complex, format="csr")
    for k, dim in enumerate(dims):
        out = sp.kron(out, block if k == slot else
                      sp.identity(dim, dtype=complex), format="csr")
    return out


def kron_generator(h, jumps):
    """The sparse column-stacked generator of H and jump operators as
    Kronecker sums: I kron K + conj(K) kron I + sum_c conj(c) kron c with
    K = -iH - sum_c c^dag c / 2; each jump carries the square root of its
    rate."""
    k = -1j * h
    for c in jumps:
        k = k - 0.5 * (c.conj().T @ c)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    out = sp.kron(eye, k, format="csr") + sp.kron(k.conj(), eye, format="csr")
    for c in jumps:
        out = out + sp.kron(c.conj(), c, format="csr")
    return out.tocsr()


def kron_ladders(cfg, levels=None):
    """The sparse b and a_j of cfg on the product space of the mechanics and
    `levels` levels per cavity (first factor slowest), and the occupation
    table of its states.  With levels None: N + 1 levels per cavity (N =
    cfg.cavity_photons), every operator sliced to the states with at most N
    photons in all, the basis of build_full_liouvillian."""
    top = cfg.cavity_photons
    dims = (cfg.mech_dim,) + (levels or top + 1,) * len(cfg.lasers)
    table = np.array(np.unravel_index(np.arange(math.prod(dims)), dims)).T
    keep = (np.flatnonzero(table[:, 1:].sum(axis=1) <= top) if levels is None
            else np.arange(len(table)))

    def lowering(slot, weights):
        op = kron_lift(sp.diags(weights, 1, dtype=complex), slot, dims)
        return op[keep][:, keep]

    b, *cavities = [lowering(slot, np.sqrt(np.arange(1, dim)))
                    for slot, dim in enumerate(dims)]
    return b, cavities, lowering, table[keep]


def kron_generators(cfg, levels=None):
    """The complex generators L and M of build_full_liouvillian (M is None
    with no drive) on the space of kron_ladders, each from its sparse ladder
    operators, the Hamiltonian built from their products and
    kron_generator; with the space's factor dimensions and the total
    excitation number of each of its states: (dims, excitations, L, M)."""
    b, cavities, lowering, table = kron_ladders(cfg, levels)
    n = table[:, 0]
    energy = cfg.omega_m_prime * n + 0.5 * cfg.lam * n * (n - 1)
    for j, laser in enumerate(cfg.lasers):
        energy = energy + (-laser.detuning) * table[:, 1 + j]
    h0 = sp.diags(energy, format="csr")
    h = h0
    for a, laser in zip(cavities, cfg.lasers, strict=True):
        h = h + ((np.conj(laser.g) / 2.0) * a
                 + (laser.g / 2.0) * a.T) @ (b + b.T)
    decay = [np.sqrt(cfg.kappa) * a for a in cavities]
    thermal = []
    if cfg.gamma_m > 0:
        thermal.append(np.sqrt(cfg.gamma_m * (cfg.n_bar + 1.0)) * b)
        if cfg.n_bar > 0:
            thermal.append(np.sqrt(cfg.gamma_m * cfg.n_bar) * b.T.tocsr())
    dims = (cfg.mech_dim,) + ((len(table) // cfg.mech_dim,) if cfg.lasers
                              else ())
    lsuper = kron_generator(h, decay + thermal)
    if not cfg.lasers:
        return dims, table.sum(axis=1), lsuper, None
    up, down = chain_rates(transition_rates(cfg), cfg.gamma_m, cfg.n_bar)
    level = np.arange(1, cfg.mech_dim)
    chain = [lowering(0, np.sqrt(level * down)),
             lowering(0, np.sqrt(level * up)).T.tocsr()]
    return (dims, table.sum(axis=1), lsuper,
            kron_generator(h0, decay + chain))


def kron_liouvillian(cfg, levels=None):
    """kron_generators' L and M as the Liouvillian steady_state_solve
    takes (reference_path.real_liouvillian)."""
    dims, excitations, lsuper, uncoupled = kron_generators(cfg, levels)
    return real_liouvillian(dims, lsuper, excitations, uncoupled)


def quoted_system(mech_dim=8, cavity_photons=1, g_scale=1.0):
    def delta(n):
        return OMEGA_M_PRIME + LAMBDA * (n - 1)

    lasers = (
        LaserParams(g=g_scale * G_ABS, detuning=delta(1)),
        LaserParams(g=g_scale * G_ABS, detuning=-delta(2)),
        LaserParams(g=g_scale * G_ABS, detuning=-delta(3)),
    )
    return SystemConfig(
        mech_dim=mech_dim, cavity_photons=cavity_photons,
        omega_m_prime=OMEGA_M_PRIME, lam=LAMBDA, gamma_m=GAMMA_M,
        n_bar=N_BAR, kappa=KAPPA, lasers=lasers)


@pytest.fixture(scope="session")
def headline_system():
    return quoted_system()


@pytest.fixture(scope="session")
def headline_config_dict():
    with open(CONFIG_PATH) as fh:
        return json.load(fh)


@pytest.fixture()
def headline_config(headline_config_dict):
    return parse_config(json.loads(json.dumps(headline_config_dict)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
