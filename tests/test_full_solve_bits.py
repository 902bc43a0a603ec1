"""The full solve's bits, pinned beyond README's fig2 run at mech 8: the
SHA-256 of `populations.json` and of the manifest's `solver` block (as
`canonical_json` writes it) for `steady --full` at fig2 mech 5 and 32, at
fig2 mech 8 with at most 2 photons, and on criterion 1's thermal chain
(mech 30, no drives, n_bar about 0.5).  Fig2 at mech 5 and the chain are
solved directly from the LU of R, the other two cases by GMRES.  A change
to the full model's assembly, real system, factorization, direct solve or
GMRES that moves one bit of the populations, the residual, the step
counts, the LU's nonzeros or the condition estimate fails here.  A change
that moves them on purpose regenerates the digests, from the repository
root, with

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
        "27db9cd1a605e6a72798ebe981eb6fc3b18a103298a6467643bd34367b51abd5",
        "b90b968a1df7f4a1d83c6b1a66d2ee8f91453cf45471d9584ba665f07defa42a"),
    "fig2_mech32": (
        "99bbd45a43f80340b8b30cd4e812e2768bd6cb65674ce5aeb750f5e44324106a",
        "c2ccbb250222c573936e469da5ebdc4e01393e4b181b537b2f763a76e73cf0b9"),
    "fig2_mech8_two_photons": (
        "fde024778aab14e40887ba8410dcecf88438a15cab3815556218418bfe31783a",
        "4e2a9ceb86f72bf63c438a2274e3a98de40148f01699385d511d6334643fd280"),
    "thermal_chain_mech30": (
        "5e384de5a97e64e101d4914a871b944e5f604bea90cdfbd1a35b82692611b373",
        "e7b3852091c0c083889b2d0d2de5d6984a00d13a20c709a5e870d86b5a91cec4"),
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
