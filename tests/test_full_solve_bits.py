"""The full solve's bits, pinned beyond README's fig2 run at mech 8: the
SHA-256 of `populations.json` and of the manifest's `solver` block (as
`canonical_json` writes it) for `steady --full` at fig2 mech 5, at fig2
mech 8 with at most 2 photons, and on criterion 1's thermal chain (mech
30, no drives, n_bar about 0.5).  A change to the full model's assembly,
real system, factorization or GMRES that moves one bit of the populations,
the residual, the step counts, the LU's nonzeros or the condition estimate
fails here.  A change that moves them on purpose regenerates the digests,
from the repository root, with

    PYTHONPATH=src python tests/test_full_solve_bits.py

and says in CHANGES.md what moved.  Like `reference_outputs.json`, the
digests depend on numpy's, scipy's and the C library's arithmetic."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nanomech.cli import EXIT_OK, canonical_json, main

from conftest import CONFIG_PATH


def _mech5(raw):
    raw["simulation"]["mech_truncation"] = 5


def _two_photons(raw):
    raw["simulation"]["cavity_photons"] = 2


def _thermal_chain(raw):
    raw["device"]["drives"] = []
    raw["device"]["temperature"] = "0.25 mK"
    raw["simulation"]["mech_truncation"] = 30


CASES = {"fig2_mech5": _mech5, "fig2_mech8_two_photons": _two_photons,
         "thermal_chain_mech30": _thermal_chain}

DIGESTS = {
    "fig2_mech5": (
        "8a4e2eeaedd156e4e65630076b5cc50b8a2d73b9568d9830fb8daba344989acb",
        "0308e036d15023e56c74dca81085146c93ba7bad30f0aa11f84a17671d4b18b3"),
    "fig2_mech8_two_photons": (
        "4b2064d1fd7865e1fc92f50daeabdf01e3149aeb88deeed262ed26f269930e69",
        "0be3e202788591574dfdc7493e2b949e96fe7d0fde7d321dc679c3371edec553"),
    "thermal_chain_mech30": (
        "2d87370a226f720d99db9c85cf322be1f561e497122e09deeb7b0ae57cfe0be5",
        "dfb2d9c63a8527125626a46ccd08b70e08d8d87bf2bb915064259e6c914eb115"),
}


def full_solve_digests(name, where: Path) -> tuple[str, str]:
    """The digests of `populations.json` and of the manifest's solver block
    that `steady --full` writes for case `name`, run in `where`."""
    raw = json.loads(CONFIG_PATH.read_text())
    CASES[name](raw)
    path = where / f"{name}.json"
    path.write_text(json.dumps(raw))
    out = where / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["steady", "--full", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    return (hashlib.sha256((out / "populations.json").read_bytes()).hexdigest(),
            hashlib.sha256(canonical_json(solver).encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_solve_keeps_its_bits(name, tmp_path):
    assert full_solve_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            pops, solver = full_solve_digests(name, Path(tmp))
            print(f'    "{name}": (\n        "{pops}",\n        "{solver}"),')
