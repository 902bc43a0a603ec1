"""The full solve's bits, pinned beyond README's fig2 run at mech 8: the
SHA-256 of `populations.json` and of the manifest's `solver` block (as
`canonical_json` writes it) for `steady --full` at fig2 mech 5 and 32, at
fig2 mech 8 with at most 2 photons, and on criterion 1's thermal chain
(mech 30, no drives, n_bar about 0.5).  A change to the full model's
assembly, real system, factorization or GMRES that moves one bit of the
populations, the residual, the step counts, the LU's nonzeros or the
condition estimate fails here.  A change that moves them on purpose regenerates the digests,
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


def _mech32(raw):
    # R's rows are written in several blocks per parity block here
    raw["simulation"]["mech_truncation"] = 32


def _two_photons(raw):
    raw["simulation"]["cavity_photons"] = 2


def _thermal_chain(raw):
    raw["device"]["drives"] = []
    raw["device"]["temperature"] = "0.25 mK"
    raw["simulation"]["mech_truncation"] = 30


CASES = {"fig2_mech5": _mech5, "fig2_mech32": _mech32,
         "fig2_mech8_two_photons": _two_photons,
         "thermal_chain_mech30": _thermal_chain}

DIGESTS = {
    "fig2_mech5": (
        "8a4e2eeaedd156e4e65630076b5cc50b8a2d73b9568d9830fb8daba344989acb",
        "32b558c314beadefe48003588b00551fcc3020350530232bf52ac35b9465f0fd"),
    "fig2_mech32": (
        "b3f8ea088e57ddae84f068202d9cb3ddd7f6449a361eea41231ec662e225cbb0",
        "e6173a1c7f707674dd96702928c4f3f0dbd06ed840bf3e513f00c69d329b56cb"),
    "fig2_mech8_two_photons": (
        "4b2064d1fd7865e1fc92f50daeabdf01e3149aeb88deeed262ed26f269930e69",
        "4250f5a50500a0bb1a056427c2acc353a0929e82f1868fda845e5c380ae7817b"),
    "thermal_chain_mech30": (
        "2d87370a226f720d99db9c85cf322be1f561e497122e09deeb7b0ae57cfe0be5",
        "c42a50b80b07dd1cffdf3ddcb9468cf585b7921d4c49346ed3b1215bb8e00eba"),
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
