"""Command-line front end: device reports, regime validation, steady states,
probe spectra, and parameter sweeps, with reproducible file outputs.

Exit codes: 0 success, 1 config or usage error, 2 regime failure, 3 analysis
precondition failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CONFIG_SCHEMA, ConfigError, RunConfig, load_config,
                     parse_config)
from .device import (POLARIZABILITY_UNIT, BucklingError, DeviceError,
                     derive_parameters, regime_check)
from .fock import partial_trace
from .lindblad import (LaserParams, SolverError, SystemConfig,
                       TruncationError, build_full_liouvillian,
                       reduced_steady_populations, steady_state_solve,
                       transition_rates)
from .observables import (SpectrumInversionError, default_grid,
                          populations_from_spectrum, power_spectrum,
                          wigner_from_density_matrix, wigner_from_populations,
                          wigner_origin)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4

# steady --converge doubles the mechanical truncation, up to 320 levels,
# until no population moves by 1e-3 or more
CONVERGE_LEVELS, CONVERGE_DRIFT = 320, 1e-3

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


def classify_error(exc: BaseException) -> tuple[int, str]:
    """Exit code and message prefix of an exception; one outside ERRORS
    counts as a config error."""
    for cls, code, prefix in ERRORS:
        if isinstance(exc, cls):
            return code, prefix
    return EXIT_CONFIG, "config error"


SCHEMA_VERSION = "nanomech-files-1"


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_fragment(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f"{pad}  {json.dumps(str(k))}: "
                         f"{_json_fragment(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_fragment(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return _json_fragment({"re": obj.real, "im": obj.imag}, indent)
    return json.dumps(str(obj))


def format_float(v: float) -> str:
    """Fixed 17-significant-digit float formatting for byte-stable outputs."""
    if v != v:
        return '"nan"'
    if v in (float("inf"), float("-inf")):
        return json.dumps(str(v))
    return f"{v:.17g}"


def canonical_json(obj) -> str:
    return _json_fragment(obj, 0) + "\n"


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


def write_csv(path: Path, header: list[str], rows):
    lines = [f"# schema: {SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipelines (shared by the CLI and the test suite)

def _regime_check(cfg: RunConfig, derived, mech_dim=None):
    return regime_check(derived, mech_dim or cfg.simulation.mech_truncation,
                        cfg.simulation.pass_ratio, cfg.simulation.warn_ratio)


def run_device(cfg: RunConfig):
    derived = derive_parameters(cfg.beam, cfg.softening, cfg.cavity,
                                list(cfg.drives), cfg.temperature)
    return derived, _regime_check(cfg, derived)


def _system_config(cfg: RunConfig, derived, mech_dim=None) -> SystemConfig:
    return SystemConfig.from_derived(
        derived, mech_dim or cfg.simulation.mech_truncation,
        cfg.simulation.cavity_truncation)


def run_steady(cfg: RunConfig, full=False, compare=False, converge=False):
    derived, report = run_device(cfg)
    mech_dim = cfg.simulation.mech_truncation
    sysc = _system_config(cfg, derived, mech_dim)
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
        report = _regime_check(cfg, derived, mech_dim)
    half, points = cfg.simulation.wigner_half_width, cfg.simulation.wigner_points
    x = (default_grid(mech_dim, points)[0] if half is None
         else np.linspace(-half, half, points))
    wig = wigner_from_populations(reduced.populations, x, x)
    result = {
        "derived": derived, "report": report, "system": sysc,
        "reduced": reduced, "wigner": wig, "mech_dim": mech_dim,
    }
    if full:
        liou = build_full_liouvillian(sysc)
        ss = steady_state_solve(liou)
        mech = partial_trace(ss.rho, 0)
        full_pops = mech.populations()
        result["full"] = ss
        result["full_populations"] = full_pops
        result["full_wigner"] = wigner_from_density_matrix(mech, x, x)
        if compare:
            n = min(full_pops.size, reduced.populations.size)
            result["compare"] = np.abs(full_pops[:n] - reduced.populations[:n])
    return result


def run_spectrum(cfg: RunConfig, selftest=False):
    if cfg.probe is None:
        raise ConfigError("device.probe", "spectrum command requires a probe laser")
    # the probe goes through the same coupling pipeline as the drives, in
    # one pass; the derived parameters and the regime checks keep the drives
    both = derive_parameters(cfg.beam, cfg.softening, cfg.cavity,
                             [*cfg.drives, cfg.probe], cfg.temperature)
    *drives, probe = both.lasers
    derived = dataclasses.replace(both, lasers=tuple(drives))
    report = _regime_check(cfg, derived)
    sysc = _system_config(cfg, derived)
    reduced = reduced_steady_populations(sysc)
    probe_sys = dataclasses.replace(
        sysc, cavity_dims=(2,),
        lasers=(LaserParams(g=probe.g, detuning=probe.detuning),))
    drive_rates = transition_rates(sysc)
    probe_rates = transition_rates(probe_sys)

    n_lines = min(4, sysc.mech_dim - 2)
    span = cfg.simulation.spectrum_span
    if span is None:
        span = 2.0 * (sysc.delta_n(n_lines) + 3.0 * sysc.lam)
    freqs = np.linspace(-span / 2.0, span / 2.0, cfg.simulation.spectrum_points)
    spec = power_spectrum(
        reduced.populations, drive_rates, probe_rates, 0.0, freqs,
        sysc.gamma_m, sysc.n_bar)
    recovered, sigma = populations_from_spectrum(spec)
    result = {
        "derived": derived, "report": report, "system": sysc,
        "reduced": reduced, "spectrum": spec,
        "recovered": recovered, "recovered_sigma": sigma,
        "recovered_origin": wigner_origin(recovered),
    }
    if selftest:
        p_test = np.array([0.05, 0.9, 0.05])
        spec_t = power_spectrum(p_test, drive_rates, probe_rates, 0.0, freqs,
                                sysc.gamma_m, sysc.n_bar)
        rec_t, _ = populations_from_spectrum(spec_t, n_levels=2)
        result["selftest_error"] = float(np.max(np.abs(rec_t - p_test)))
    return result


def set_config_path(raw: dict, dotted: str, value):
    """Set a dotted-path entry (lists indexed numerically) in a config dict."""
    parts = dotted.split(".")
    node = raw
    for p in parts[:-1]:
        if isinstance(node, list):
            node = node[int(p)]
        elif p in node:
            node = node[p]
        else:
            raise ConfigError(dotted, f"unknown config section {p!r}")
    leaf = parts[-1]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value
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
        except Exception as exc:              # recorded in-row, sweep continues
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

def _outdir(cfg: RunConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.output.directory)
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


def cmd_steady(cfg: RunConfig, args) -> int:
    res = run_steady(cfg, full=args.full, compare=args.compare,
                     converge=args.converge)
    out = _outdir(cfg, args)
    pops = {"reduced": list(res["reduced"].populations),
            "mech_truncation": res["mech_dim"],
            "wigner_origin": res["wigner"].origin_value,
            "wigner_min": res["wigner"].min_value}
    diagnostics = {"command": "steady",
                   "reduced_residual": res["reduced"].residual}
    if args.full:
        pops["full"] = list(res["full_populations"])
        pops["full_wigner_origin"] = res["full_wigner"].origin_value
        diagnostics["full_method"] = res["full"].method
        diagnostics["full_residual"] = res["full"].residual
        if args.compare:
            pops["compare_abs_diff"] = list(res["compare"])
    write_json(out / "populations.json", pops)
    wig = res["wigner"]
    rows = [(x, p, wig.values[i, j])
            for i, p in enumerate(wig.p) for j, x in enumerate(wig.x)]
    write_csv(out / "wigner.csv", ["x", "p", "W"], rows)
    _emit_manifest(out, cfg, res["derived"], res["report"], diagnostics)
    p = res["reduced"].populations
    print(f"P = {np.array2string(p[:6], precision=4)}")
    print(f"W(0,0) = {wig.origin_value:.4f}  (min {wig.min_value:.4f})")
    if args.compare and args.full:
        print(f"max |P_full - P_reduced| = {np.max(res['compare']):.4f}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, args) -> int:
    res = run_spectrum(cfg, selftest=args.selftest)
    out = _outdir(cfg, args)
    spec = res["spectrum"]
    write_csv(out / "spectrum.csv", ["omega_minus_omegaL", "S"],
              zip(spec.frequencies, spec.values))
    peaks = {
        "probe_resonant": spec.probe_resonant,
        "resolvable": spec.resolvable,
        "peaks": [
            {"n": pk.n, "side": pk.side, "position": pk.position,
             "height": pk.height, "linewidth": pk.linewidth}
            for pk in spec.peaks],
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
    rows = run_sweep(cfg, args.param, values)
    out = _outdir(cfg, args)
    header = ["value", "omega_m", "lambda", "kappa", "n_bar",
              "P0", "P1", "P2", "W00", "error"]
    table = [[r.get(h, "") for h in header] for r in rows]
    write_csv(out / "sweep.csv", header, table)
    derived, report = run_device(cfg)
    _emit_manifest(out, cfg, derived, report,
                   {"command": "sweep", "param": args.param})
    for r in rows:
        if "error" in r:
            print(f"{args.param}={r['value']}: FAILED ({r['error']})")
        else:
            print(f"{args.param}={r['value']}: P1={r['P1']:.4f} "
                  f"W00={r['W00']:.4f}")
    return next((r["exit_code"] for r in rows if "error" in r), EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
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
                          help="per-level full-vs-reduced difference table")
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
        return handlers[args.command](load_config(args.config), args)
    except tuple(cls for cls, _code, _prefix in ERRORS) as exc:
        code, prefix = classify_error(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
