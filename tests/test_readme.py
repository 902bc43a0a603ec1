"""Every command of the README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from nanomech.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


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
def test_readme_command_runs(tmp_path, monkeypatch, args):
    # configs are read from the repository; outputs land in tmp_path
    monkeypatch.chdir(tmp_path)
    args = list(args[1:])
    for flag, where in (("--config", ROOT), ("--out", tmp_path)):
        if flag in args:
            i = args.index(flag) + 1
            args[i] = str(where / args[i])
    assert main(args) == EXIT_OK
