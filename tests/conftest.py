import json
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import hbar, k as kB

from nanomech.config import parse_config
from nanomech.lindblad import LaserParams, SystemConfig

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


def quoted_system(mech_dim=8, cavity_dim=2, g_scale=1.0):
    def delta(n):
        return OMEGA_M_PRIME + LAMBDA * (n - 1)

    lasers = (
        LaserParams(g=g_scale * G_ABS, detuning=delta(1)),
        LaserParams(g=g_scale * G_ABS, detuning=-delta(2)),
        LaserParams(g=g_scale * G_ABS, detuning=-delta(3)),
    )
    return SystemConfig(
        mech_dim=mech_dim, cavity_dims=(cavity_dim,) * 3,
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
