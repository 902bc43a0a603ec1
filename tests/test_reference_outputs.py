"""fig2's outputs, pinned: every file and the stdout that each command of
README's "Command line" block writes, against the digests in
`reference_outputs.json`, with the manifest's `timestamp_utc` blanked.

Per output the file holds its SHA-256, its line count and a digest of each
run of CHUNK_LINES lines, so a mismatch names the first run of lines that
moved and prints it.  A change that moves an output regenerates the file,
from the repository root, with

    PYTHONPATH=src python tests/test_reference_outputs.py

and lists in CHANGES.md each output that moved and by how much.  The bytes
depend on numpy's and the C library's arithmetic: after an upgrade that
changes them, regenerate the file and say so in CHANGES.md."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nanomech.cli import EXIT_OK, main

from test_readme import ROOT, TIMESTAMP, readme_commands

REFERENCE = Path(__file__).with_name("reference_outputs.json")
CHUNK_LINES = 32
CHUNK_HEX = 10          # hex digits kept of each chunk's SHA-256
STDOUT = "<stdout>"


def command_outputs(args, where: Path) -> dict[str, bytes]:
    """Run one README command with its outputs in `where`: the stdout and
    every file written, timestamps blanked."""
    argv = list(args[1:])
    for flag, base in (("--config", ROOT), ("--out", where)):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(base / argv[i])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    files = {str(f.relative_to(where)):
             TIMESTAMP.sub(b'"timestamp_utc": ""', f.read_bytes())
             for f in sorted(where.rglob("*")) if f.is_file()}
    return {STDOUT: out.getvalue().encode(), **files}


def digest(data: bytes) -> dict:
    lines = data.split(b"\n")
    chunks = (b"\n".join(lines[k:k + CHUNK_LINES])
              for k in range(0, len(lines), CHUNK_LINES))
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": len(lines),
            "chunks": "".join(hashlib.sha256(c).hexdigest()[:CHUNK_HEX]
                              for c in chunks)}


def first_difference(name: str, data: bytes, want: dict) -> str:
    """Where `data` first departs from the digest `want`, with the text of
    that run of lines as it now reads."""
    got = digest(data)
    lines = data.split(b"\n")
    for k in range(0, max(got["lines"], want["lines"]), CHUNK_LINES):
        at = k // CHUNK_LINES * CHUNK_HEX
        if got["chunks"][at:at + CHUNK_HEX] != want["chunks"][at:at + CHUNK_HEX]:
            text = b"\n".join(lines[k:k + CHUNK_LINES]).decode(errors="replace")
            return (f"{name}: lines {k + 1}-{k + CHUNK_LINES} differ from the "
                    f"reference ({got['lines']} lines now, {want['lines']} "
                    f"then); they now read:\n{text}")
    return f"{name}: differs from the reference"


def command_key(args) -> str:
    return " ".join(args[1:])


@pytest.mark.parametrize("args", readme_commands(), ids=command_key)
def test_outputs_match_reference(tmp_path, args):
    want = json.loads(REFERENCE.read_text())[command_key(args)]
    got = command_outputs(args, tmp_path)
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        if hashlib.sha256(data).hexdigest() != want[name]["sha256"]:
            pytest.fail(f"{command_key(args)}: "
                        f"{first_difference(name, data, want[name])}")


def test_reference_names_every_readme_command():
    assert sorted(json.loads(REFERENCE.read_text())) == sorted(
        map(command_key, readme_commands()))


def test_first_difference_names_the_moved_line():
    data = b"".join(b"%d,0.5\n" % k for k in range(100))
    moved = data.replace(b"70,0.5", b"70,0.50000000000000011")
    assert first_difference("t.csv", moved, digest(data)).startswith(
        "t.csv: lines 65-96 differ")


if __name__ == "__main__":
    reference = {}
    for args in readme_commands():
        with tempfile.TemporaryDirectory() as where:
            reference[command_key(args)] = {
                name: digest(data)
                for name, data in command_outputs(args, Path(where)).items()}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(reference)} commands)", file=sys.stderr)
