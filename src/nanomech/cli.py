"""Command-line front end: device reports, regime validation, steady states,
probe spectra, and parameter sweeps, with reproducible file outputs.

Exit codes: 0 success, 1 config or usage error, 2 regime failure, 3 analysis
precondition failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CONFIG_SCHEMA, ConfigError, RunConfig, load_config,
                     parse_config)
from .device import (POLARIZABILITY_UNIT, BucklingError, DeviceError,
                     derive_parameters, regime_check)
from .lindblad import (LaserParams, SolverError, SystemConfig,
                       TruncationError, build_full_liouvillian,
                       reduced_steady_populations, sig3,
                       steady_state_solve, transition_rates)
from .observables import (SpectrumInversionError, default_grid,
                          populations_from_spectrum, power_spectrum,
                          sideband_grid, sideband_lines, symmetric_grid,
                          wigner_from_populations, wigner_origin)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4

# steady --converge doubles the mechanical truncation, up to 320 levels,
# until no population moves by 1e-3 or more; with --full it then raises the
# cavity photon number by one, up to 3, until no full population does
CONVERGE_LEVELS, CONVERGE_PHOTONS, CONVERGE_DRIFT = 320, 3, 1e-3

# exception class -> exit code and message prefix; the first match wins, so
# BucklingError precedes its base DeviceError
ERRORS = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (BucklingError, EXIT_REGIME, "regime error"),
    (DeviceError, EXIT_CONFIG, "config error"),
    (SpectrumInversionError, EXIT_PRECONDITION, "analysis precondition"),
    (SolverError, EXIT_SOLVER, "solver error"),
    (MemoryError, EXIT_SOLVER, "solver error"),
)
# what a command refuses with an exit code; any other exception is a bug
REFUSALS = tuple(cls for cls, _code, _prefix in ERRORS)


def classify_error(exc: BaseException) -> tuple[int, str]:
    """Exit code and message prefix of a refusal (an instance of REFUSALS)."""
    return next((code, prefix) for cls, code, prefix in ERRORS
                if isinstance(exc, cls))


SCHEMA_VERSION = "nanomech-files-1"


# ---------------------------------------------------------------------------
# deterministic serialization

_quote = json.encoder.encode_basestring_ascii     # what json.dumps(str) runs


def _append_json(obj, newline: str, out: list[str]):
    """Append the canonical JSON text of `obj` to `out`, its nested lines
    starting with `newline` (a line break and the indent of `obj`): dicts
    with sorted keys, floats by `format_float`, complex as {"re", "im"} and
    other objects as their quoted str.  The exact types that fill the
    written files are tested first; other dicts and sequences are copied
    to them."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for k in sorted(obj):
            out += (sep, inner, _quote(str(k)), ": ")
            _append_json(obj[k], inner, out)
            sep = ","
        out += (newline, "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for v in obj:
            out += (sep, inner)
            _append_json(v, inner, out)
            sep = ","
        out += (newline, "]")
    elif kind is str:
        out.append(_quote(obj))
    elif kind is float:
        out.append(format_float(obj))
    elif kind is np.float64:
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        _append_json(dict(obj), newline, out)
    elif isinstance(obj, (list, tuple)):
        _append_json(list(obj), newline, out)
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, complex):
        _append_json({"re": obj.real, "im": obj.imag}, newline, out)
    else:
        out.append(_quote(str(obj)))


def format_float(v: float) -> str:
    """Fixed 17-significant-digit float formatting for byte-stable outputs;
    NaN and the infinities as the JSON strings "nan", "inf" and "-inf"."""
    if v - v == 0.0:                    # finite
        return f"{v:.17g}"
    return '"nan"' if v != v else '"inf"' if v > 0 else '"-inf"'


# format_floats writes "%.17g" in numpy.  For a = |v| in FLOAT_RANGE it finds
# the decimal exponent k, 10^k <= a < 10^(k+1), and N = round(a 10^(16-k)) in
# [10^16, 10^17]; the text is N's digits and k as "%g" lays them out.  A power
# of ten is a pair hi + lo of doubles, hi the nearest to 10^e and lo the
# nearest to the rest, so |hi + lo - 10^e| <= 2^-106 10^e.  a 10^(16-k) is
# Dekker's exact product a hi = p + err (Numer. Math. 18, 224 (1971)) plus
# a lo: p >= 2^53 is an integer, and the low part err + a lo, below 20 in
# size, is within 4e-15 of exact (2^-106 of 10^17, plus the roundings of
# a lo and of the sum).  Where its fraction lies within TIE_MARGIN of 1/2 the
# rounding may be a tie, and the value goes to format_float, as do 0.0,
# non-finite values and values outside FLOAT_RANGE.
FLOAT_RANGE = (1e-280, 1e280)
TIE_MARGIN = 2.0 ** -40
_POW_MIN = -300           # the power table holds 10^e for e in [-300, 300]
_SPLIT = 2.0 ** 27 + 1    # Veltkamp's constant: splits a double in two halves
_FLOAT_WIDTH = 25         # "-1.2345678901234567e-100" and a space
# a source row of format_floats, 28 bytes: N as 20 digits ("000" and N's
# 17), the exponent's sign and 2-3 digits padded to 4, then "-.e "; byte 0
# always holds "0"
_MINUS, _POINT, _E, _SPACE = 24, 25, 26, 27
# layouts per sign: 17 (one per s) for each x in -4..16 and for e-notation
# with 2 and with 3 exponent digits
_LAYOUTS = 23 * 17


def _float_layout(neg: bool, x: int, s: int) -> list[int]:
    """Source-row positions of the "%.17g" text of a value of sign `neg`,
    decimal exponent x (after rounding) and s significant digits, padded
    with spaces to _FLOAT_WIDTH: fixed notation for -4 <= x < 17, else
    e-notation with at least two exponent digits."""
    digits = list(range(3, 20))
    out = [_MINUS] if neg else []
    if 0 <= x < 17:
        out += digits[:x + 1]
        if s > x + 1:
            out += [_POINT, *digits[x + 1:s]]
    elif -4 <= x < 0:
        out += [0, _POINT, *[0] * (-x - 1), *digits[:s]]
    else:
        out += digits[:1] + ([_POINT, *digits[1:s]] if s > 1 else [])
        out += [_E, 20, 21, 22] + ([23] if abs(x) >= 100 else [])
    return out + [_SPACE] * (_FLOAT_WIDTH - len(out))


@functools.cache
def _float_tables():
    """The tables of format_floats, built on its first call: 10^e for e in
    [-300, 300] as hi and lo, the least double at or above it, and hi's two
    halves; the text of 0000..9999 as uint32 and its digits before trailing
    zeros; the exponent texts as uint32; the four marks "-.e "; and the
    layouts of _float_layout as void rows of intp, with the layout of each
    exponent and digit count."""
    hi, lo = [], []
    for e in range(_POW_MIN, 1 - _POW_MIN):
        h = float(10 ** e) if e >= 0 else 1 / 10 ** -e
        num, den = h.as_integer_ratio()
        ten = 10 ** abs(e)
        hi.append(h)               # 10^e - h, rounded once
        lo.append((ten * den - num) / den if e >= 0
                  else (den - num * ten) / (den * ten))
    hi, lo = np.array(hi), np.array(lo)
    t = _SPLIT * hi
    high = t - (t - hi)
    chunk = np.arange(10000)
    text = (chunk[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    sig = np.where(chunk > 0, 4 - (text[:, ::-1] != ord("0")).argmax(axis=1), 0)
    exps = "".join(f"{x:+03d}".ljust(4) for x in range(_POW_MIN, 1 - _POW_MIN))
    layouts = np.array([_float_layout(neg, x, s) for neg in (False, True)
                        for x in (*range(-4, 17), -5, -100)
                        for s in range(1, 18)], dtype=np.intp)
    # the layout of x - _POW_MIN and s, at 18 (x - _POW_MIN) + s
    x = np.arange(_POW_MIN, 1 - _POW_MIN)[:, None]
    layout_of = (np.where((x >= -4) & (x < 17), x + 4, 21 + (abs(x) >= 100))
                 * 17 + np.arange(-1, 17)).ravel()
    return (hi, lo, np.where(lo > 0, np.nextafter(hi, np.inf), hi), high,
            hi - high, text.view(np.uint32).ravel(), sig,
            np.frombuffer(exps.encode(), np.uint32),
            np.frombuffer(b"-.e ", np.uint32)[0], layout_of,
            layouts.view(f"V{layouts.itemsize * _FLOAT_WIDTH}").ravel())


def format_floats(values: np.ndarray) -> list[str]:
    """format_float of each value of a 1-D float64 array, computed in numpy
    CSV_BLOCK_ROWS values at a time, so that its temporaries (about 0.5 kB
    per value) stay bounded (see the comment above FLOAT_RANGE)."""
    text = []
    for start in range(0, values.size, CSV_BLOCK_ROWS):
        text += _format_block(values[start:start + CSV_BLOCK_ROWS])
    return text


def _format_block(values: np.ndarray) -> list[str]:
    """format_floats of one block."""
    (hi, lo, least, high, low_half, chunks, sig, exps, marks, layout_of,
     layouts) = _float_tables()
    m = values.size
    a = np.abs(values)
    fast = (a >= FLOAT_RANGE[0]) & (a < FLOAT_RANGE[1])
    a[~fast] = 1.0
    # k - _POW_MIN: log10 is within one of k, and comparisons with the
    # least double at or above 10^e settle it exactly
    k0 = np.floor(np.log10(a)).astype(np.intp) - _POW_MIN
    k = k0 - 1 + (a >= least.take(k0)) + (a >= least.take(k0 + 1))
    q = 16 - 2 * _POW_MIN - k          # the index of 10^(16 - k)
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    bh, bl = high.take(q), low_half.take(q)
    p = a * hi.take(q)
    low = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo.take(q)
    whole = np.floor(low)
    low -= whole
    slow = ~fast | (np.abs(low - 0.5) <= TIE_MARGIN)
    n = p.astype(np.int64) + whole.astype(np.int64) + (low > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry                         # x - _POW_MIN, x the "%g" exponent
    top, bottom = np.divmod(n, 10 ** 8)
    d0, rest = np.divmod(top.astype(np.int32), 10 ** 8)
    c1, c2 = np.divmod(rest, 10 ** 4)
    c3, c4 = np.divmod(bottom.astype(np.int32), 10 ** 4)
    src = np.empty((m, 7), np.uint32)
    for j, c in enumerate((d0, c1, c2, c3, c4)):
        src[:, j] = chunks.take(c)
    src[:, 5] = exps.take(k)
    src[:, 6] = marks
    # s, the significant digits: the last nonzero 4-digit chunk decides
    s = np.where(c4, 13 + sig.take(c4), np.where(
        c3, 9 + sig.take(c3), np.where(c2, 5 + sig.take(c2),
                                       1 + sig.take(c1))))
    layout = layout_of.take(k * 18 + s) + _LAYOUTS * np.signbit(values)
    at = layouts.take(layout).view(np.intp).reshape(m, _FLOAT_WIDTH)
    at += np.arange(0, src.nbytes, src.strides[0])[:, None]
    text = src.view(np.uint8).ravel().take(at).tobytes().decode().split()
    for i in np.flatnonzero(slow):
        text[i] = format_float(float(values[i]))
    return text


def canonical_json(obj) -> str:
    out = []
    _append_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def write_json(path: Path, obj):
    path.write_text(canonical_json(obj))


# ---------------------------------------------------------------------------
# reports

def derived_to_dict(derived) -> dict:
    twopi = 2 * np.pi

    def freq(v):
        return {"value": v, "unit": "rad/s", "ordinary_hz": v / twopi}

    lasers = []
    for l in derived.lasers:
        lasers.append({
            "input_power": {"value": l.input_power, "unit": "W"},
            "laser_frequency": freq(l.omega_L),
            "detuning": freq(l.detuning),
            "detuning_spec": str(l.detuning_spec),
            "alpha": {"re": l.alpha.real, "im": l.alpha.imag},
            "photon_number": {"value": l.photon_number, "unit": "1"},
            "G0": {"value": l.g0, "unit": "rad/s/m",
                   "note": "order-of-magnitude estimate"},
            "g": {"re": l.g.real, "im": l.g.imag, "unit": "rad/s",
                  "abs_over_2pi_hz": abs(l.g) / twopi},
        })
    return {
        "omega_m0": freq(derived.omega_m0),
        "omega_m": freq(derived.omega_m),
        "omega_m_prime": freq(derived.omega_m_prime),
        "lambda": freq(derived.lam),
        "beta": {"value": derived.beta, "unit": "N/m^3"},
        "gamma_m": freq(derived.gamma_m),
        "kappa": freq(derived.kappa),
        "x_zpm": {"value": derived.x_zpm, "unit": "m"},
        "n_bar": {"value": derived.n_bar, "unit": "1"},
        "temperature": {"value": derived.temperature, "unit": "K"},
        "lasers": lasers,
    }


def config_hash(cfg: RunConfig) -> str:
    text = json.dumps(cfg.raw, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def build_manifest(cfg: RunConfig, derived, report, diagnostics: dict) -> dict:
    return {
        "tool": "nanomech",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config_sha256": config_hash(cfg),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "polarizability_unit_factor": {
            "value": POLARIZABILITY_UNIT,
            "note": "C*m/V per quoted 4*pi*eps0*Angstrom^2 (per unit length)"},
        "derived": derived_to_dict(derived),
        "regime_report": report.to_dict(),
        "solver": diagnostics,
    }


# rows per block of write_csv: bounds the writer's transient text (about
# 1.5 MB for two float columns), however long the file
CSV_BLOCK_ROWS = 4096


def _csv_text(cell: str) -> str:
    """A text cell, quoted as RFC 4180 says when it holds a comma, a double
    quote or a line break."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_cells(column) -> list[str]:
    """The text of every cell of one column block or table of values: a
    float64 array by `format_floats`, other columns cell by cell, floats by
    `format_float` and anything else as quoted text."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return format_floats(column)
    return [format_float(float(v)) if isinstance(v, (float, np.floating))
            else _csv_text(str(v)) for v in column]


def write_csv(path: Path, header: list[str], columns):
    """Write a `# schema:` comment line, the header, then one row per index
    of `columns`, which holds one equally long column per header name;
    columns of unequal length raise ValueError before the file is opened.

    A column is an array or list of cells, or a pair (values, index): a
    float64 array and one index in [0, len(values)) into it per row.  The
    values of all pairs are formatted in one call per file, each cell with
    the separator that follows it; other columns are formatted block by
    block.  Float cells have the 17 significant digits of `format_float`,
    as in the JSON files; text cells are quoted per RFC 4180 when needed.
    Rows are written in blocks of CSV_BLOCK_ROWS."""
    lengths = {len(c[1]) if isinstance(c, tuple) else len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)} rows")
    (rows,) = lengths
    tables, blocks, seps = [], [], []
    for j, c in enumerate(columns):
        if isinstance(c, tuple):     # its index, shifted to its values' place
            blocks.append((True, sum(map(len, tables)) + np.asarray(c[1])))
            tables.append(c[0])
            seps += ["\n" if j == len(columns) - 1 else ","] * len(c[0])
        else:
            blocks.append((False, c))
    text = np.array(_csv_cells(np.concatenate(tables)) if tables else [],
                    dtype=object) + np.array(seps, dtype=object)
    # a paired cell is one entry of a row's list, any other cell two
    width = sum(1 if paired else 2 for paired, _ in blocks)
    with path.open("w") as f:
        f.write(f"# schema: {SCHEMA_VERSION}\n{','.join(header)}\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            flat = [","] * (width * (min(stop, rows) - start))
            at = 0
            for paired, c in blocks:
                flat[at::width] = (text[c[start:stop]].tolist() if paired
                                   else _csv_cells(c[start:stop]))
                at += 1 if paired else 2
            if not blocks[-1][0]:
                flat[width - 1::width] = ["\n"] * (len(flat) // width)
            f.write("".join(flat))       # one string per block


# ---------------------------------------------------------------------------
# pipelines (shared by the CLI and the test suite)

def run_device(cfg: RunConfig):
    derived = derive_parameters(cfg.beam, cfg.softening, cfg.cavity,
                                list(cfg.drives), cfg.temperature)
    return derived, regime_check(derived, cfg.simulation.mech_truncation)


def _system_config(cfg: RunConfig, derived, mech_dim=None) -> SystemConfig:
    return SystemConfig.from_derived(
        derived, mech_dim or cfg.simulation.mech_truncation,
        cfg.simulation.cavity_photons)


def run_steady(cfg: RunConfig, full=False, compare=False, converge=False):
    derived, report = run_device(cfg)
    mech_dim = cfg.simulation.mech_truncation
    sysc = _system_config(cfg, derived, mech_dim)
    # a drift needs a larger truncation to compare with
    if converge and 2 * mech_dim > CONVERGE_LEVELS:
        raise TruncationError(
            f"mech_truncation {mech_dim} leaves --converge no larger "
            f"truncation within the cap of {CONVERGE_LEVELS} levels")
    reduced = reduced_steady_populations(sysc, tail_check=not converge)
    if converge:
        drift = np.inf
        while drift >= CONVERGE_DRIFT:
            if 2 * mech_dim > CONVERGE_LEVELS:
                raise TruncationError(
                    f"populations have not settled within {CONVERGE_LEVELS} "
                    f"levels: drift {drift:.3e} at mech_truncation {mech_dim}")
            smaller = reduced.populations
            mech_dim *= 2
            sysc = _system_config(cfg, derived, mech_dim)
            reduced = reduced_steady_populations(sysc, tail_check=False)
            drift = np.max(np.abs(reduced.populations[:smaller.size] - smaller))
        # only the final truncation has to pass the tail check, and the
        # regime is graded at the truncation the result comes from
        reduced = reduced_steady_populations(sysc)
        report = regime_check(derived, mech_dim)
    half, points = cfg.simulation.wigner_half_width, cfg.simulation.wigner_points
    x = (default_grid(mech_dim, points) if half is None
         else symmetric_grid(half, points))
    wig = wigner_from_populations(reduced.populations, x, x)
    result = {
        "derived": derived, "report": report, "system": sysc,
        "reduced": reduced, "wigner": wig, "mech_dim": mech_dim,
    }
    if full:
        # a drift needs a larger photon number to compare with
        if converge and sysc.lasers and sysc.cavity_photons >= CONVERGE_PHOTONS:
            raise TruncationError(
                f"cavity_photons {sig3(sysc.cavity_photons)} leaves --converge "
                f"no larger photon number within the cap of {CONVERGE_PHOTONS}")
        ss = steady_state_solve(build_full_liouvillian(sysc))
        if converge:
            # with no laser there is no cavity
            drift = np.inf if sysc.lasers else 0.0
            while drift >= CONVERGE_DRIFT:
                if sysc.cavity_photons >= CONVERGE_PHOTONS:
                    raise TruncationError(
                        "full populations have not settled within "
                        f"{CONVERGE_PHOTONS} cavity photons: drift "
                        f"{drift:.3e} at cavity_photons {sysc.cavity_photons}")
                sysc = dataclasses.replace(
                    sysc, cavity_photons=sysc.cavity_photons + 1)
                smaller = ss.populations
                ss = steady_state_solve(build_full_liouvillian(sysc))
                drift = float(np.max(np.abs(ss.populations - smaller)))
            result["cavity_drift"] = drift
        result["system"] = sysc
        result["full"] = ss
        if compare:
            result["compare"] = np.abs(ss.populations - reduced.populations)
    return result


# the evenly spaced background points of the spectrum's frequency grid
SPECTRUM_BACKGROUND = 2001


def run_spectrum(cfg: RunConfig, selftest=False):
    if cfg.probe is None:
        raise ConfigError("device.probe", "spectrum command requires a probe laser")
    # the probe goes through the same coupling pipeline as the drives, in
    # one pass; the derived parameters and the regime checks keep the drives
    both = derive_parameters(cfg.beam, cfg.softening, cfg.cavity,
                             [*cfg.drives, cfg.probe], cfg.temperature)
    *drives, probe = both.lasers
    derived = dataclasses.replace(both, lasers=tuple(drives))
    report = regime_check(derived, cfg.simulation.mech_truncation)
    sysc = _system_config(cfg, derived)
    reduced = reduced_steady_populations(sysc)
    probe_sys = dataclasses.replace(
        sysc, lasers=(LaserParams(g=probe.g, detuning=probe.detuning),))
    drive_rates = transition_rates(sysc)
    probe_rates = transition_rates(probe_sys)
    # refuses lines that cannot be read out before any of them is sampled
    lines = sideband_lines(drive_rates, probe_rates, sysc.gamma_m,
                           sysc.n_bar, reduced.populations.size)
    delta = lines.delta
    # every line the readout reads, and 3 splittings beyond the outermost
    span = 2.0 * (np.abs(delta).max() + 3.0 * abs(sysc.lam))
    freqs = sideband_grid(np.concatenate([-delta, delta]),
                          np.tile(lines.width, 2), span, SPECTRUM_BACKGROUND)
    spec = power_spectrum(reduced.populations, lines, freqs)
    recovered, sigma = populations_from_spectrum(spec)
    result = {
        "derived": derived, "report": report, "system": sysc,
        "reduced": reduced, "spectrum": spec,
        "recovered": recovered, "recovered_sigma": sigma,
        "recovered_origin": wigner_origin(recovered),
    }
    if selftest:
        p_test = np.array([0.05, 0.9, 0.05])
        rec_t, _ = populations_from_spectrum(
            power_spectrum(p_test, lines, freqs))
        result["selftest_error"] = float(np.max(np.abs(rec_t - p_test)))
    return result


def set_config_path(raw: dict, dotted: str, value):
    """Set a dotted-path entry (lists indexed numerically) in a config dict;
    only the last key may be new to its section."""
    keys = dotted.split(".")
    node = raw
    for depth, key in enumerate(keys):
        last = depth == len(keys) - 1
        if isinstance(node, list) and key.isdecimal() and int(key) < len(node):
            key = int(key)
        elif not isinstance(node, dict) or not (last or key in node):
            holder = ".".join(keys[:depth]) or "the config"
            raise ConfigError(dotted, f"{holder} holds no section or list "
                                      f"entry {key!r}")
        if not last:
            node = node[key]
    node[key] = value
    return raw


def run_sweep(cfg: RunConfig, param: str, values):
    rows = []
    for value in values:
        try:
            raw = copy.deepcopy(cfg.raw)
            set_config_path(raw, param, value)
            point = parse_config(raw)
            derived, _report = run_device(point)
            p = reduced_steady_populations(
                _system_config(point, derived)).populations
        except REFUSALS as exc:               # recorded in-row, sweep continues
            rows.append({"value": value,
                         "error": f"{type(exc).__name__}: {exc}",
                         "exit_code": classify_error(exc)[0]})
            continue
        rows.append({
            "value": value,
            "omega_m": derived.omega_m, "lambda": derived.lam,
            "kappa": derived.kappa, "n_bar": derived.n_bar,
            "P0": p[0], "P1": p[1], "P2": p[2],
            "W00": wigner_origin(p),
        })
    return rows


# ---------------------------------------------------------------------------
# commands

def _outdir(cfg: RunConfig, args, make=True) -> Path:
    """The output directory, made if `make`; refused, before anything is
    made, if it or an ancestor is a file."""
    out = Path(args.out) if args.out else Path(cfg.output.directory)
    for at in (out, *out.parents):
        if at.exists() and not at.is_dir():
            raise ConfigError("--out" if args.out else "output.directory",
                              f"{at} is not a directory")
    if make:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_manifest(out: Path, cfg, derived, report, diagnostics):
    write_json(out / "manifest.json", build_manifest(cfg, derived, report,
                                                     diagnostics))


def cmd_device(cfg: RunConfig, args) -> int:
    derived, report = run_device(cfg)
    out = _outdir(cfg, args)
    write_json(out / "derived.json", derived_to_dict(derived))
    _emit_manifest(out, cfg, derived, report, {"command": "device"})
    twopi = 2 * np.pi
    print(f"omega_m/2pi  = {derived.omega_m / twopi / 1e6:.4f} MHz")
    print(f"lambda/2pi   = {derived.lam / twopi / 1e3:.2f} kHz")
    print(f"kappa/2pi    = {derived.kappa / twopi / 1e3:.2f} kHz")
    print(f"n_bar        = {derived.n_bar:.2f}")
    for j, l in enumerate(derived.lasers):
        print(f"|g_{j}|/2pi  = {abs(l.g) / twopi / 1e3:.3f} kHz "
              f"(n_cav = {l.photon_number:.3e})")
    for c in report.checks:
        print(f"[{c.status:>4}] {c.name}: ratio {c.ratio:.4f} ({c.description})")
    return EXIT_OK if report.ok else EXIT_REGIME


def cmd_validate(cfg: RunConfig, args) -> int:
    derived, report = run_device(cfg)
    out = _outdir(cfg, args)
    write_json(out / "regime.json", report.to_dict())
    _emit_manifest(out, cfg, derived, report, {"command": "validate"})
    for c in report.checks:
        print(f"[{c.status:>4}] {c.name}: ratio {c.ratio:.4f}")
    return EXIT_OK if report.ok else EXIT_REGIME


def _wigner_columns(wig):
    """The x, p and W columns of wigner.csv as (values, index) pairs,
    p-major: row k is (x[k % nx], p[k // nx], W[k // nx, k % nx]).  W's
    table holds the distinct values of `wig.cells`, when given."""
    cells, rows, cols = wig.cells or (wig.values, np.arange(wig.p.size),
                                      np.arange(wig.x.size))
    bits, inverse = np.unique(cells.ravel().view(np.int64),
                              return_inverse=True)
    index = inverse.reshape(cells.shape)[np.ix_(rows, cols)].ravel()
    return [(wig.x, np.tile(np.arange(wig.x.size), wig.p.size)),
            (wig.p, np.repeat(np.arange(wig.p.size), wig.x.size)),
            (bits.view(np.float64), index)]


def cmd_steady(cfg: RunConfig, args) -> int:
    if args.compare and not args.full:
        raise ConfigError("--compare", "needs --full")
    res = run_steady(cfg, full=args.full, compare=args.compare,
                     converge=args.converge)
    # judged once every solve has succeeded, so that a refusal is one line
    wig = res["wigner"]
    norm = wig.grid_integral()
    if abs(norm - 1.0) > 1e-3:
        warnings.warn(f"Wigner grid integral {norm:.6f} deviates from 1; "
                      "the grid may be too coarse or too small")
    out = _outdir(cfg, args)
    pops = {"reduced": list(res["reduced"].populations),
            "mech_truncation": res["mech_dim"],
            "wigner_origin": wig.origin_value,
            "wigner_min": wig.min_value}
    diagnostics = {"command": "steady",
                   "reduced_residual": res["reduced"].residual}
    if args.full:
        pops["full"] = list(res["full"].populations)
        pops["full_wigner_origin"] = wigner_origin(res["full"].populations)
        diagnostics["full_method"] = res["full"].method
        diagnostics["full_residual"] = res["full"].residual
        diagnostics["full_iterations"] = res["full"].iterations
        diagnostics["full_steady_iterations"] = (
            res["full"].iterations - res["full"].probe_iterations)
        diagnostics["full_probe_iterations"] = res["full"].probe_iterations
        diagnostics["full_lu_nnz"] = res["full"].lu_nnz
        diagnostics["full_condition_estimate"] = res["full"].condition
        diagnostics["full_uniqueness"] = res["full"].uniqueness
        diagnostics["full_cavity_photons"] = res["system"].cavity_photons
        if args.converge:
            diagnostics["full_cavity_drift"] = res["cavity_drift"]
        if args.compare:
            pops["compare_abs_diff"] = list(res["compare"])
    write_json(out / "populations.json", pops)
    write_csv(out / "wigner.csv", ["x", "p", "W"], _wigner_columns(wig))
    _emit_manifest(out, cfg, res["derived"], res["report"], diagnostics)
    p = res["reduced"].populations
    print(f"P = {np.array2string(p[:6], precision=4)}")
    print(f"W(0,0) = {wig.origin_value:.4f}  (min {wig.min_value:.4f})")
    if args.compare:
        print(f"max |P_full - P_reduced| = {np.max(res['compare']):.4f}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, args) -> int:
    res = run_spectrum(cfg, selftest=args.selftest)
    out = _outdir(cfg, args)
    spec = res["spectrum"]
    lines = spec.lines
    write_csv(out / "spectrum.csv", ["omega_minus_omegaL", "S"],
              [spec.frequencies, spec.values])
    # true by construction: sideband_lines refuses any other line table
    peaks = {
        "probe_resonant": True,
        "resolvable": True,
        "peaks": [
            {"n": i + 1, "side": side, "position": position,
             "height": height, "linewidth": lines.width[i]}
            for i, row in enumerate(spec.heights)
            for side, position, height in zip(
                "+-", (lines.delta[i], -lines.delta[i]), row)],
        "recovered_populations": list(res["recovered"]),
        "recovered_uncertainty": list(res["recovered_sigma"]),
        "recovered_wigner_origin": res["recovered_origin"],
    }
    if args.selftest:
        peaks["selftest_max_error"] = res["selftest_error"]
        print(f"selftest max per-level inversion error: "
              f"{res['selftest_error']:.4f}")
    write_json(out / "peaks.json", peaks)
    _emit_manifest(out, cfg, res["derived"], res["report"],
                   {"command": "spectrum"})
    print(f"recovered P = {np.array2string(res['recovered'][:6], precision=4)}")
    print(f"implied W(0,0) = {res['recovered_origin']:.4f}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    values = []
    for v in args.values:
        try:
            values.append(json.loads(v))
        except json.JSONDecodeError:
            values.append(v)
    # the manifest reports the base point: a base point that fails refuses
    # the sweep before any file is written
    derived, report = run_device(cfg)
    rows = run_sweep(cfg, args.param, values)
    out = _outdir(cfg, args)
    header = ["value", "omega_m", "lambda", "kappa", "n_bar",
              "P0", "P1", "P2", "W00", "error"]
    write_csv(out / "sweep.csv", header,
              [[r.get(h, "") for r in rows] for h in header])
    _emit_manifest(out, cfg, derived, report,
                   {"command": "sweep", "param": args.param})
    for r in rows:
        if "error" in r:
            print(f"{args.param}={r['value']}: FAILED ({r['error']})")
        else:
            print(f"{args.param}={r['value']}: P1={r['P1']:.4f} "
                  f"W00={r['W00']:.4f}")
    return next((r["exit_code"] for r in rows if "error" in r), EXIT_OK)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of the process."""
    ap = argparse.ArgumentParser(
        prog="nanomech",
        description="Steady-state Fock-state preparation of a softened "
                    "nonlinear nanobeam coupled to driven cavity modes")
    ap.add_argument("--print-schema", action="store_true",
                    help="print the config schema and exit")
    sub = ap.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default=None, help="output directory override")
    sub.add_parser("device", parents=[common],
                   help="derived-parameters report + regime checks")
    sub.add_parser("validate", parents=[common], help="regime report only")
    p_steady = sub.add_parser("steady", parents=[common],
                              help="steady-state populations and Wigner function")
    p_steady.add_argument("--full", action="store_true",
                          help="also solve the full master equation")
    p_steady.add_argument("--compare", action="store_true",
                          help="per-level full-vs-reduced difference table "
                               "(needs --full)")
    p_steady.add_argument("--converge", action="store_true",
                          help="double the truncation until populations settle")
    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="probe sideband spectrum + population readout")
    p_spec.add_argument("--selftest", action="store_true",
                        help="synthetic spectrum round-trip check")
    p_sweep = sub.add_parser("sweep", parents=[common], help="parameter sweep")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. device.softening.zeta")
    p_sweep.add_argument("--values", nargs="+", required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:     # argparse: 0 after -h, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    if args.print_schema:
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return EXIT_OK
    if not args.command:
        ap.print_help()
        return EXIT_CONFIG
    handlers = {"device": cmd_device, "validate": cmd_validate,
                "steady": cmd_steady, "spectrum": cmd_spectrum,
                "sweep": cmd_sweep}
    try:
        cfg = load_config(args.config)
        _outdir(cfg, args, make=False)  # refused before any computation
        return handlers[args.command](cfg, args)
    except REFUSALS as exc:
        code, prefix = classify_error(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
