"""The exit-code contract under mutated configs: each leaf of
configs/fig2.json is removed, nulled, set to {}, given the wrong type, or
set to 0, a negative, a tiny, a huge and a NaN value in its own unit, and
`device`, `validate`, `steady`, `spectrum --selftest` and a one-point
`sweep` run on every mutation, `steady --full` and `steady --converge` on a
fixed sample of them.  A command either succeeds without writing a
non-finite value, or refuses with its exit code and one stderr line (a
sweep whose point fails records the refusal in its row instead); no stderr
line is longer than 200 characters, no numpy RuntimeWarning reaches
stderr, and a success warns of nothing but a Wigner grid integral off 1."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import nanomech
from nanomech.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION,
                          EXIT_REGIME, EXIT_SOLVER, ERRORS, main)

from conftest import CONFIG_PATH

COMMANDS = [["device"], ["validate"], ["steady"], ["spectrum", "--selftest"],
            ["sweep", "--param", "device.softening.zeta", "--values", "4.0"]]
# the solves of steady --full and --converge run on this sample only, to
# keep the test within seconds (over all mutations --full took about 1 s):
# every mutation of the truncations they read, mutations that reach them
# and succeed or exit 4, and the regressions at the end of the table
SOLVER_COMMANDS = [["steady", "--full"], ["steady", "--converge"]]
SOLVER_SAMPLE = (
    *(f"simulation.{leaf}:{kind}"
      for leaf in ("mech_truncation", "cavity_photons")
      for kind in ("missing", "null", "object", "wrong_type", "zero",
                   "negative", "tiny", "huge", "nan")),
    "simulation.wigner_grid.half_width:tiny",
    "simulation.wigner_grid.half_width:huge",
    "device.beam.quality_factor:huge",
    "device.softening.alpha_par:zero",
    "device.cavity.external_coupling_fraction:tiny",
    "device.drives.0.power:zero",
    "device.drives.0.detuning:zero",
    "device.drives.1.power:zero",
    "device.temperature:zero",
    "probe_off_resonance",
    "drives_at_1200_W",
    "drives_at_120_W",
    "linewidth_square_underflows",
    "twelve_drives_at_1e300_photons",
)
# the message prefixes of each exit code but 0
PREFIXES = {code: tuple(prefix for _cls, c, prefix in ERRORS if c == code)
            for _cls, code, _prefix in ERRORS}
# a non-finite float as format_float writes it, in JSON and CSV alike
NON_FINITE = re.compile(r'"(nan|inf|-inf)"')
# the one warning a command prints, on success only: its line and source line
GRID_WARNING = re.compile(r".*: UserWarning: Wigner grid integral -?[0-9.]+ "
                          r"deviates from 1; the grid may be too coarse or "
                          r"too small\n.*\n")
# the longest stderr line a run may print; the longest over all mutations
# is 165 characters
MAX_LINE = 200
MISSING = object()


def _leaves(node, path=()):
    """The path and value of every leaf of a JSON config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def _values(key, value):
    """The mutations of one leaf: missing, null, an empty object, a wrong
    type, and for a number or a quantity "<number> <unit>" 0, a negative, a
    tiny, a huge and a NaN value in its unit (a symbolic detuning in Hz)."""
    out = {"missing": MISSING, "null": None, "object": {}}
    if isinstance(value, str):
        out["wrong_type"] = 1.0
        number, _, unit = value.partition(" ")
        if key == "detuning" and not unit:
            unit = "Hz"
        elif not unit:
            return out
        out.update(zero=f"0 {unit}", negative=f"-{number.lstrip('+-')} {unit}",
                   tiny=f"1e-300 {unit}", huge=f"1e300 {unit}",
                   nan=f"nan {unit}")
    else:
        out.update(wrong_type="abc", zero=0, negative=-value, tiny=1e-300,
                   huge=1e300, nan=float("nan"))
    return out


def _setter(path, value):
    def mutate(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is MISSING:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return mutate


def _drives(power):
    def mutate(raw):
        for drive in raw["device"]["drives"]:
            drive["power"] = power
    return mutate


def _twelve_drives_at_1e300_photons(raw):
    raw["simulation"]["cavity_photons"] = 1e300
    raw["device"]["drives"] = raw["device"]["drives"] * 4


def mutations():
    raw = json.loads(CONFIG_PATH.read_text())
    table = [(".".join(map(str, path)) + ":" + kind, _setter(path, value))
             for path, leaf in _leaves(raw)
             for kind, value in _values(path[-1], leaf).items()]
    # regressions: each printed a warning before its refusal, reached the
    # solver with a NaN rate, or printed its superoperator size as an exact
    # integer (with 12 drives, more digits than str() gives an int)
    return table + [
        ("probe_off_resonance", _setter(("device", "probe", "detuning"),
                                        "1 MHz")),
        ("drives_at_1200_W", _drives("1200 W")),
        ("drives_at_120_W", _drives("120 W")),
        ("linewidth_square_underflows",
         _setter(("device", "cavity", "bare_finesse"), 1e300)),
        ("twelve_drives_at_1e300_photons", _twelve_drives_at_1e300_photons),
    ]


def _show(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning as an interpreter without filters has it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def run_cli(argv):
    """main(argv) as the command line runs it: its exit code, stdout and
    stderr, warnings shown once per place on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = _show
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def failed_sweep_point(outdir):
    """The error of the first failed row of the sweep.csv in `outdir`, or
    None."""
    path = outdir / "sweep.csv"
    if not path.exists():
        return None
    with path.open(newline="") as f:
        next(f)                 # the schema comment
        return next((r["error"] for r in csv.DictReader(f) if r["error"]),
                    None)


def contract_breaches(code, err, outdir, command="device"):
    """What a run of `command` with exit code `code`, stderr `err` and output
    directory `outdir` does against the contract.  A sweep whose point
    fails records the refusal in its row and exits with its code, writing
    nothing to stderr."""
    lines = err.splitlines()
    if type(code) is not int or not EXIT_OK <= code <= EXIT_SOLVER:
        return [f"exit code {code!r}"]
    if command == "sweep" and code != EXIT_OK and not err:
        return ([] if failed_sweep_point(outdir) else
                [f"sweep exit {code} with no failed row"])
    breaches = [f"stderr line of {len(line)} characters: {line[:80]!r}..."
                for line in lines if len(line) > MAX_LINE]
    if "RuntimeWarning" in err:
        breaches.append(f"RuntimeWarning: {err!r}")
    if code in (EXIT_CONFIG, EXIT_PRECONDITION, EXIT_SOLVER) and not (
            len(lines) == 1 and lines[0].startswith(
                tuple(p + ": " for p in PREFIXES[code]))):
        breaches.append(f"exit {code} with stderr {err!r}")
    if code == EXIT_REGIME and not (
            lines == [] or len(lines) == 1
            and lines[0].startswith("regime error: ")):
        breaches.append(f"exit 2 with stderr {err!r}")
    if code == EXIT_OK and err and not GRID_WARNING.fullmatch(err):
        breaches.append(f"exit 0 with stderr {err!r}")
    if code == EXIT_OK:
        for f in sorted(outdir.iterdir()):
            if NON_FINITE.search(f.read_text()):
                breaches.append(f"{f.name} holds a non-finite value")
    return breaches


def test_mutated_configs_keep_the_exit_code_contract(tmp_path):
    breaches, codes, text = [], {}, CONFIG_PATH.read_text()
    table = mutations()
    assert set(SOLVER_SAMPLE) <= {name for name, _mutate in table}
    for k, (name, mutate) in enumerate(table):
        raw = json.loads(text)
        mutate(raw)
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(raw))
        runs = [(command[0], command) for command in COMMANDS]
        if name in SOLVER_SAMPLE:
            runs += [(" ".join(command), command) for command in SOLVER_COMMANDS]
        for j, (label, command) in enumerate(runs):
            outdir = tmp_path / f"{k}-{j}"
            code, _out, err = run_cli([*command, "--config", str(path),
                                       "--out", str(outdir)])
            codes.setdefault(label, set()).add(code)
            breaches += [f"{name} {label}: {b}"
                         for b in contract_breaches(code, err, outdir,
                                                    command[0])]
    assert breaches == []
    # the table reaches every exit code, and the sample every code that
    # the solves give
    assert set().union(*codes.values()) == {0, 1, 2, 3, 4}
    assert codes["steady --full"] == codes["steady --converge"] == {0, 1, 4}


def test_refused_spectrum_prints_one_line(tmp_path):
    # in a fresh interpreter, where warnings print as they do for a user:
    # the off-resonance probe is refused once, with no warning before it
    raw = json.loads(CONFIG_PATH.read_text())
    raw["device"]["probe"]["detuning"] = "1 MHz"
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=str(Path(nanomech.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-m", "nanomech.cli", "spectrum",
                          "--selftest", "--config", str(path),
                          "--out", str(tmp_path / "out")],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_PRECONDITION
    assert run.stderr.splitlines() == [
        "analysis precondition: probe is not resonant: probe rate "
        "asymmetry 0.360 (limit 0.01); peak ratios no longer equal "
        "P_n/P_(n-1)"]
