"""Every command of the README's "Command line" block runs, exits 0 and
repeats itself byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from nanomech.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
# the one output README declares volatile
TIMESTAMP = re.compile(rb'"timestamp_utc": "[^"]*"')


def readme_commands():
    """The argument lists of the `nanomech` lines of the fenced sh block
    under README's "Command line" heading, continuations joined and
    comments dropped."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_block_lists_every_command():
    commands = {args[1] for args in readme_commands()}
    assert commands == {"device", "validate", "steady", "spectrum", "sweep",
                        "--print-schema"}
    assert all(args[0] == "nanomech" for args in readme_commands())


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, capsys, args):
    # configs are read from the repository; each of two runs writes into its
    # own directory, and both print and write the same bytes apart from the
    # manifest's timestamp
    runs = []
    for run in ("first", "second"):
        where = tmp_path / run
        where.mkdir()
        monkeypatch.chdir(where)
        argv = list(args[1:])
        for flag, base in (("--config", ROOT), ("--out", where)):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = str(base / argv[i])
        assert main(argv) == EXIT_OK
        files = {str(f.relative_to(where)):
                 TIMESTAMP.sub(b'"timestamp_utc": ""', f.read_bytes())
                 for f in where.rglob("*") if f.is_file()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert runs[0][0]
