import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import epsilon_0

import nanomech
from nanomech import cli, observables
from nanomech.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION,
                          EXIT_REGIME, EXIT_SOLVER, SCHEMA_VERSION,
                          canonical_json, config_hash, format_float, main,
                          run_device, run_spectrum, run_steady, run_sweep,
                          set_config_path, write_csv)
from nanomech.config import (CONFIG_SCHEMA, ConfigError, load_config,
                             parse_config)
from nanomech.lindblad import (GMRES_TOL, PROBE_TOL, build_full_liouvillian,
                               steady_state_solve)
from nanomech.observables import wigner_origin

from conftest import CONFIG_PATH
from reference_path import reference_liouvillian, trace_weight

TWO_PI = 2 * np.pi


def write_variant(tmp_path, mutate, name="variant.json"):
    raw = json.loads(CONFIG_PATH.read_text())
    mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# serialization helpers

def test_format_float_stability():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(float("nan")) == '"nan"'


def test_canonical_json_sorts_keys_and_is_stable():
    obj = {"b": [1.5, 2], "a": {"y": True, "x": None}, "c": 3 + 4j}
    one = canonical_json(obj)
    two = canonical_json({"c": 3 + 4j, "a": {"x": None, "y": True},
                          "b": [1.5, 2]})
    assert one == two
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')
    assert '"im": 4' in one


def test_write_csv_schema_comment(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [np.array([1.0, 0.25]), ["x", "y"]])
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: {SCHEMA_VERSION}"
    assert lines[1] == "a,b"
    assert lines[2] == "1,x"


def test_config_hash_sensitivity():
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    h1 = config_hash(cfg)
    raw = json.loads(CONFIG_PATH.read_text())
    raw["device"]["temperature"] = "21 mK"
    h2 = config_hash(parse_config(raw))
    assert h1 != h2
    assert len(h1) == 64


def test_set_config_path_nested_and_lists():
    raw = {"device": {"drives": [{"power": "1 W"}, {"power": "2 W"}]}}
    set_config_path(raw, "device.drives.1.power", "3 W")
    assert raw["device"]["drives"][1]["power"] == "3 W"
    with pytest.raises(ConfigError):
        set_config_path(raw, "device.nonexistent.x", 1)


# ---------------------------------------------------------------------------
# pipelines

def test_run_device_reference(headline_config):
    derived, report = run_device(headline_config)
    assert derived.omega_m / TWO_PI == pytest.approx(5.23e6, rel=0.05)
    assert report.ok


def test_run_steady_reduced(headline_config):
    res = run_steady(headline_config)
    p = res["reduced"].populations
    assert p[1] > 0.9
    assert res["wigner"].origin_value < -0.45
    assert res["wigner"].grid_integral() == pytest.approx(1.0, abs=1e-3)


def test_run_sweep_scalings(headline_config):
    rows = run_sweep(headline_config, "device.softening.zeta",
                     [3.0, 4.0])
    assert all("error" not in r for r in rows)
    # per-phonon nonlinearity scales as zeta^2 at fixed geometry
    assert rows[1]["lambda"] / rows[0]["lambda"] == pytest.approx(16.0 / 9.0)
    # stronger softening deepens the negativity
    assert rows[1]["W00"] < rows[0]["W00"]


def test_run_sweep_records_errors_per_point(headline_config):
    rows = run_sweep(headline_config, "device.softening.zeta",
                     [4.0, 0.5])
    assert "error" not in rows[0]
    assert "error" in rows[1]


def test_run_sweep_temperature_monotonicity(headline_config):
    rows = run_sweep(headline_config, "device.temperature",
                     ["10 mK", "40 mK"])
    assert rows[0]["n_bar"] < rows[1]["n_bar"]
    assert rows[0]["P1"] > rows[1]["P1"]


@pytest.mark.parametrize("param, holder, key", [
    ("device.drives.9.power", "device.drives", "9"),
    ("device.drives.x.power", "device.drives", "x"),
    ("device.beam.length.x", "device.beam.length", "x"),
    ("simulation.wigner_grid.points.0", "simulation.wigner_grid.points", "0"),
    ("simulation.grid.points", "simulation", "grid"),
    ("nothing.x", "the config", "nothing"),
])
def test_run_sweep_bad_paths_are_config_errors(headline_config, param,
                                               holder, key):
    # the first four used to be recorded as the IndexError, ValueError or
    # TypeError that the path raised
    assert run_sweep(headline_config, param, ["1 W"]) == [
        {"value": "1 W", "exit_code": EXIT_CONFIG,
         "error": f"ConfigError: {param}: {holder} holds no section or list "
                  f"entry {key!r}"}]


def test_run_sweep_does_not_record_program_errors(headline_config,
                                                  monkeypatch):
    # only refusals become rows; any other exception is a bug, and raises
    def broken(_cfg):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setattr(cli, "run_device", broken)
    with pytest.raises(ZeroDivisionError):
        run_sweep(headline_config, "device.softening.zeta", [4.0])


def test_run_sweep_unknown_param_fails_every_row(headline_config):
    rows = run_sweep(headline_config, "simulation.mech_trunction", [4, 6])
    assert [r["value"] for r in rows] == [4, 6]
    for r in rows:
        assert "simulation.mech_trunction" in r["error"]


def test_run_spectrum_requires_probe(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    del raw["device"]["probe"]
    cfg = parse_config(raw)
    with pytest.raises(ConfigError, match="probe"):
        run_spectrum(cfg)


# ---------------------------------------------------------------------------
# command-line entry point

def test_cli_device_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["device", "--config", str(CONFIG_PATH),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "derived.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == SCHEMA_VERSION
    assert manifest["config_sha256"] == config_hash(
        parse_config(json.loads(CONFIG_PATH.read_text())))
    assert manifest["regime_report"]["ok"] is True
    text = capsys.readouterr().out
    assert "omega_m/2pi" in text


def test_cli_validate(tmp_path):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(CONFIG_PATH),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "regime.json").read_text())
    assert {c["name"] for c in report["checks"]} >= {"rwa", "resolved_sideband"}


def test_cli_steady_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["steady", "--config", str(CONFIG_PATH),
                 "--out", str(out1)]) == EXIT_OK
    assert main(["steady", "--config", str(CONFIG_PATH),
                 "--out", str(out2)]) == EXIT_OK
    for name in ("populations.json", "wigner.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    pops = json.loads((out1 / "populations.json").read_text())
    assert pops["reduced"][1] > 0.9
    assert pops["wigner_origin"] < -0.45
    wigner_lines = (out1 / "wigner.csv").read_text().splitlines()
    assert wigner_lines[0] == f"# schema: {SCHEMA_VERSION}"
    assert wigner_lines[1] == "x,p,W"
    assert len(wigner_lines) == 2 + 101 * 101


def test_cli_main_calls_in_one_process_are_independent(tmp_path, capsys):
    # the parser is built once per process: no option of one call, and no
    # usage error, carries over to the next
    def steady(*options, out):
        return main(["steady", *options, "--config", str(CONFIG_PATH),
                     "--out", str(tmp_path / out)])

    def populations(out):
        return json.loads((tmp_path / out / "populations.json").read_text())

    assert steady("--full", out="a") == EXIT_OK
    assert steady(out="b") == EXIT_OK
    assert "full" in populations("a") and "full" not in populations("b")
    assert steady("--no-such-option", out="c") == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err
    assert steady(out="c") == EXIT_OK


@pytest.mark.parametrize("command", [["spectrum", "--selftest"],
                                     ["steady", "--full", "--compare"]],
                         ids=["spectrum_selftest", "steady_full_compare"])
def test_cli_outputs_are_deterministic(tmp_path, command):
    # two runs write byte-identical files, apart from the manifest timestamp
    def mutate(raw):
        raw["simulation"]["mech_truncation"] = 4
    path = str(write_variant(tmp_path, mutate))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([*command, "--config", path, "--out", str(out)]) == EXIT_OK
    names = sorted(f.name for f in out1.iterdir())
    assert names == sorted(f.name for f in out2.iterdir())
    assert "manifest.json" in names and len(names) == 3
    for name in names:
        one, two = ([line for line in (out / name).read_text().splitlines()
                     if '"timestamp_utc"' not in line] for out in (out1, out2))
        assert one == two, name


def test_cli_steady_full_three_cavity_levels(tmp_path):
    # at most two photons in all three cavities (n = 1,600): P_1 of three
    # levels per cavity (n = 11,664, 0.934580), and the manifest records it
    def mutate(raw):
        raw["simulation"].update(mech_truncation=4, cavity_photons=2)
    out = tmp_path / "out"
    assert main(["steady", "--config", str(write_variant(tmp_path, mutate)),
                 "--full", "--out", str(out)]) == EXIT_OK
    pops = json.loads((out / "populations.json").read_text())
    assert pops["full"][1] == pytest.approx(0.93458, abs=1e-5)
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["full_method"] == "gmres"
    assert 2 <= solver["full_iterations"] <= 200
    assert 1.0 <= solver["full_condition_estimate"] <= 1e12
    assert solver["full_cavity_photons"] == 2


def test_cli_steady_full_reference_device(tmp_path):
    # fig2 at mech 8 with at most one photon in all (d^2 = 1,024): the
    # model's structure proves the steady state unique, so only the
    # even-parity block (512 unknowns) is built; the steady solve takes 29
    # GMRES steps on it, the probe 15 at PROBE_TOL (29 at GMRES_TOL), and
    # the full-state W(0,0) is the alternating sum of the full populations
    out = tmp_path / "out"
    assert main(["steady", "--config", str(CONFIG_PATH), "--full",
                 "--compare", "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["full_uniqueness"] == "structure"
    assert solver["full_steady_iterations"] == pytest.approx(29, abs=2)
    assert solver["full_probe_iterations"] <= 15
    assert solver["full_iterations"] == pytest.approx(44, abs=2)
    assert solver["full_iterations"] == (solver["full_steady_iterations"]
                                         + solver["full_probe_iterations"])
    assert solver["full_lu_nnz"] == 3_702
    assert solver["full_cavity_photons"] == 1
    assert "full_cavity_drift" not in solver
    # the probe's seeded vector, put in the order of the even block, gives
    # that block's estimate; stopped at PROBE_TOL, the probe moves it by
    # 1.6e-6 relative from 4966.2513 at GMRES_TOL, and other stopping points
    # move it by more than 5e-6 (14 probe steps: 4966.2838; 16: 4966.3420;
    # 18: 4966.2705), so a pin to PROBE_TOL relative holds both the value
    # and the stopping rule
    assert solver["full_condition_estimate"] == pytest.approx(
        4966.2434, rel=PROBE_TOL)
    pops = json.loads((out / "populations.json").read_text())
    assert pops["full_wigner_origin"] == wigner_origin(pops["full"])
    assert max(pops["compare_abs_diff"]) < 0.05


@pytest.mark.parametrize("mutate, method", [
    # no thermal phonons: b^dag is no jump
    (lambda raw: raw["device"].update(temperature="0 K"), "gmres"),
    # two red drives on the 1 -> 0 line: their cavities' one-photon states
    # share K's entry; the even block holds 288 unknowns, at most
    # DIRECT_BLOCK, and is solved from R's LU
    (lambda raw: raw["device"].update(drives=[
        {"power": "1.2 W", "detuning": "-delta_1"},
        {"power": "1.2 W", "detuning": "-delta_1"}]), "lu"),
], ids=["zero_kelvin", "two_drives_one_detuning"])
def test_cli_steady_full_certifies_every_device(tmp_path, mutate, method):
    # every device has gamma_m > 0 and kappa > 0, so b and every a_j are
    # jumps and the steady state is unique, also at 0 K or with two drives
    # at one detuning: only the even block is built, and the probe of both
    # blocks (the reference path's R at the build's trace-row weight) finds
    # the same populations, to GMRES's forward error bound
    path = write_variant(tmp_path, mutate)
    out = tmp_path / "out"
    assert main(["steady", "--config", str(path), "--full", "--compare",
                 "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["full_uniqueness"] == "structure"
    assert solver["full_method"] == method
    assert 1.0 <= solver["full_condition_estimate"] <= 1e12
    cfg = load_config(path)
    sysc = cli._system_config(cfg, run_device(cfg)[0])
    liou = build_full_liouvillian(sysc)
    probed = steady_state_solve(reference_liouvillian(
        sysc, weight=trace_weight(liou)))
    assert probed.uniqueness == "probe"
    pops = json.loads((out / "populations.json").read_text())["full"]
    np.testing.assert_allclose(
        pops, probed.populations, rtol=0,
        atol=max(1e-12, probed.condition * GMRES_TOL))


def test_cli_steady_full_converge_raises_cavity_photons(tmp_path):
    # after the mechanics settles at 16 levels, one more photon moves the
    # full populations by 5.3e-4, below 1e-3: the run ends at N = 2 and the
    # manifest records N and that drift
    out = tmp_path / "out"
    assert main(["steady", "--config", str(CONFIG_PATH), "--full",
                 "--converge", "--out", str(out)]) == EXIT_OK
    pops = json.loads((out / "populations.json").read_text())
    assert pops["mech_truncation"] == 16
    assert pops["full"][1] == pytest.approx(0.933173, abs=1e-5)
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["full_cavity_photons"] == 2
    assert solver["full_cavity_drift"] == pytest.approx(5.33e-4, abs=1e-5)


def test_cli_steady_full_converge_unsettled_at_photon_cap(tmp_path, capsys,
                                                          monkeypatch):
    # at 2 W per drive (|g|/kappa = 0.58) one more photon moves the full
    # populations by 1.15e-3: with a cap of 2 photons they have not settled;
    # a run that starts at the cap has no larger photon number to compare
    # with and is refused before any full solve, the photon number written
    # to 3 significant digits
    monkeypatch.setattr(cli, "CONVERGE_PHOTONS", 2)
    for photons, message in (
            (1, "not settled within 2 cavity photons: drift 1.153e-03"),
            (2, "cavity_photons 2 leaves --converge no larger photon number"),
            (1e300, "cavity_photons 1.00e+300 leaves --converge no larger")):
        def mutate(raw):
            raw["simulation"]["cavity_photons"] = photons
            for drive in raw["device"]["drives"]:
                drive["power"] = "2 W"
        out = tmp_path / "out"
        assert main(["steady", "--config", str(write_variant(tmp_path, mutate)),
                     "--full", "--converge", "--out", str(out)]) == EXIT_SOLVER
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_steady_converge(tmp_path):
    out = tmp_path / "out"
    assert main(["steady", "--config", str(CONFIG_PATH), "--out", str(out),
                 "--converge"]) == EXIT_OK
    pops = json.loads((out / "populations.json").read_text())
    assert pops["mech_truncation"] == 16
    # the raw-input pipeline lands slightly above the quoted-parameter value
    assert pops["reduced"][1] == pytest.approx(0.954, abs=0.01)
    # the regime is graded at the truncation the run ended at; steady does
    # not gate on it
    manifest = json.loads((out / "manifest.json").read_text())
    rwa = next(c for c in manifest["regime_report"]["checks"]
               if c["name"] == "rwa")
    assert rwa["description"].endswith("at n = 16")
    assert rwa["status"] == "fail"


@pytest.mark.filterwarnings("error")
def test_cli_steady_ground_state_without_drives(tmp_path):
    # at 0 K with no drives nothing adds phonons: every up rate is exactly 0
    # and the oscillator sits in its ground state, without a log(0) warning
    def mutate(raw):
        raw["device"].update(drives=[], temperature="0 K")
    path = write_variant(tmp_path, mutate)
    out = tmp_path / "out"
    assert main(["steady", "--config", str(path), "--out", str(out)]) == EXIT_OK
    pops = json.loads((out / "populations.json").read_text())
    assert pops["reduced"] == [1.0] + [0.0] * (len(pops["reduced"]) - 1)


def test_cli_steady_converge_grows_small_truncation(tmp_path):
    # the starting solve at 3 levels overfills its top level; --converge
    # grows past it instead of failing the tail check
    path = write_variant(
        tmp_path, lambda raw: raw["simulation"].update(mech_truncation=3))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(path), "--out", str(out),
                 "--converge"]) == EXIT_OK
    pops = json.loads((out / "populations.json").read_text())
    assert pops["mech_truncation"] == 6
    assert pops["reduced"][1] == pytest.approx(0.955, abs=0.002)


def test_cli_steady_converge_unsettled_at_cap(tmp_path, capsys):
    # at 40 mK the populations still drift at 256 levels, and doubling
    # again would pass the 320-level cap
    path = write_variant(
        tmp_path, lambda raw: raw["device"].update(temperature="40 mK"))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(path), "--out", str(out),
                 "--converge"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "not settled" in err and "mech_truncation 256" in err
    assert not out.exists()


@pytest.mark.parametrize("levels", [161, 200])
def test_cli_steady_converge_refuses_truncation_above_half_the_cap(
        tmp_path, capsys, levels):
    # doubling a truncation above 160 would pass the 320-level cap at once:
    # refused up front, with no drift, which was never measured
    path = write_variant(tmp_path, lambda raw: raw["simulation"].update(
        mech_truncation=levels))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(path), "--out", str(out),
                 "--converge"]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert err == [f"solver error: mech_truncation {levels} leaves --converge "
                   "no larger truncation within the cap of 320 levels"]
    assert not out.exists()


def test_cli_steady_wigner_at_240_levels(tmp_path):
    # the upward Laguerre recurrence used to overflow here on the default grid
    def mutate(raw):
        raw["simulation"]["mech_truncation"] = 240
        del raw["simulation"]["wigner_grid"]
    out = tmp_path / "out"
    assert main(["steady", "--config", str(write_variant(tmp_path, mutate)),
                 "--out", str(out)]) == EXIT_OK
    rows = list(csv.reader((out / "wigner.csv").read_text().splitlines()[2:]))
    assert len(rows) == 121 * 121
    assert np.isfinite(np.array(rows, dtype=float)).all()


def test_cli_steady_refuses_overflowing_wigner(tmp_path, capsys):
    # a grid this wide overflows z = 4 |alpha|^2: the run fails with the
    # solver exit code, warns nothing and writes no Wigner file
    out = tmp_path / "out"
    path = write_variant(tmp_path, lambda raw: raw["simulation"][
        "wigner_grid"].update(half_width=1e200))
    assert main(["steady", "--config", str(path), "--out", str(out)]) \
        == EXIT_SOLVER
    assert "Wigner series overflows" in capsys.readouterr().err
    assert not (out / "wigner.csv").exists()


@pytest.mark.parametrize("peak, width, error, message", [
    # an OverflowError and a QuadratureError used to escape as tracebacks
    ("1e200 V/m", "50 nm", "DeviceError", "not finite"),
    ("1.2e7 V/m", "1e-9 nm", "QuadratureError", "did not converge"),
])
def test_cli_field_model_failures_are_config_errors(tmp_path, capsys, peak,
                                                    width, error, message):
    def mutate(raw):
        raw["device"]["softening"] = {
            "field_model": {"type": "gaussian_tip", "e_par_peak": peak,
                            "center": "0.5 um", "width": width,
                            "gradient_scale": "20 nm"},
            "alpha_par": "142 4pi_eps0_A2"}
    path = write_variant(tmp_path, mutate)
    out = tmp_path / "out"
    assert main(["device", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert len(err.splitlines()) == 1
    # the sweep's base point fails the same way, before any point is run
    # or any file is written
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--param", "device.temperature",
                 "--values", '"20 mK"', '"25 mK"']) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
    # a sweep point that fails this way records the failure in its row
    rows = run_sweep(load_config(path), "device.temperature",
                     ["20 mK", "25 mK"])
    assert [r["error"].split(":")[0] for r in rows] == [error] * 2
    assert [r["exit_code"] for r in rows] == [EXIT_CONFIG] * 2


@pytest.mark.parametrize("command", ["device", "steady"])
@pytest.mark.parametrize("mutate, path", [
    # each used to fail later on a division by zero or a NaN (exit 2 or 4)
    pytest.param(lambda raw: raw["device"]["beam"].update(
        linear_mass_density="0 kg/m"), "device.beam", id="linear_mass_density"),
    pytest.param(lambda raw: raw["device"]["beam"].update(
        linear_mass_density="-1.8623e-15 kg/m"), "device.beam",
        id="linear_mass_density_negative"),
    pytest.param(lambda raw: raw["device"]["cavity"].update(
        refractive_index=0.5), "device.cavity", id="refractive_index"),
])
def test_cli_nonphysical_device_fields_are_config_errors(tmp_path, capsys,
                                                         command, mutate, path):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_variant(tmp_path, mutate)),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {path}: ")
    assert not out.exists()


def _set(section, key, value):
    """Set `key` in the section at a dotted path, e.g. "device.drives[0]"."""
    def mutate(raw):
        node = raw
        for part in section.replace("]", "").replace("[", ".").split("."):
            node = node[int(part) if part.isdecimal() else part]
        node[key] = value
    return mutate


@pytest.mark.parametrize("command", ["device", "steady"])
@pytest.mark.parametrize("mutate, message", [
    # each used to raise a traceback from the device model
    pytest.param(_set("device.cavity", "refractive_index", 1e200),
                 "device.cavity: CavitySpec.refractive_index",
                 id="refractive_index_overflows"),
    pytest.param(_set("device.beam", "length", "1e-300 um"),
                 "device.beam: BeamSpec.length", id="beam_length_overflows"),
    pytest.param(_set("device.cavity", "waist", "1e-300 um"),
                 "device.cavity: CavitySpec.waist", id="waist_underflows"),
    pytest.param(_set("simulation", "mech_truncation", 1e300),
                 "simulation.mech_truncation: must be <= 10000",
                 id="mech_truncation_too_large"),
    # each used to reach the solvers with a non-finite parameter, after
    # numpy's RuntimeWarnings (device exit 2, steady exit 4)
    pytest.param(_set("device.beam", "linear_mass_density", "1e-300 kg/m"),
                 "derived parameter omega_m_prime is inf",
                 id="linear_mass_density_underflows"),
    pytest.param(_set("device.beam", "quality_factor", 1e-300),
                 "device.beam: BeamSpec.quality_factor must be at least 1/2",
                 id="quality_factor_overdamped"),
    # a finite omega_m' of 1e285 (a mass of 1e-300 kg) whose square
    # overflowed in transition_rates: steady exited 0 after numpy's
    # RuntimeWarnings
    pytest.param(_set("device.beam", "linear_mass_density", "2.522e-294 kg/m"),
                 "derived parameter omega_m_prime is 9.98",
                 id="linear_mass_density_square_overflows"),
    # a kappa of 9.7e-289, whose square underflowed to 0: transition_rates
    # divided 0/0 at the resonant drive, and steady exited 4 after numpy's
    # RuntimeWarnings
    pytest.param(_set("device.cavity", "bare_finesse", 1e300),
                 "device.cavity: CavitySpec.bare_finesse",
                 id="linewidth_square_underflows"),
    pytest.param(_set("device.cavity", "bare_finesse", 1e-300),
                 "device.cavity: CavitySpec.bare_finesse",
                 id="linewidth_square_overflows"),
])
def test_cli_out_of_range_device_fields_are_config_errors(tmp_path, capsys,
                                                          command, mutate,
                                                          message):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(write_variant(tmp_path, mutate)),
                     "--out", str(out)])
    assert code == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["device", "steady"])
def test_cli_vanishing_temperature_warns_nothing(tmp_path, capsys, command):
    # k_B T underflows to 0: n_bar is its limit 0, with no RuntimeWarning
    path = write_variant(tmp_path, lambda raw: raw["device"].update(
        temperature="1e-300 mK"))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["derived"]["n_bar"]["value"] == 0


@pytest.mark.parametrize("key, value", [("width", "0 um"),
                                        ("gradient_scale", "0 nm")])
def test_cli_field_model_spec_errors_name_their_path(tmp_path, capsys, key,
                                                     value):
    def mutate(raw):
        model = {"type": "gaussian_tip", "e_par_peak": "1.2e7 V/m",
                 "center": "0.5 um", "width": "50 nm", "gradient_scale": "20 nm"}
        model[key] = value
        raw["device"]["softening"] = {"field_model": model,
                                      "alpha_par": "142 4pi_eps0_A2"}
    path = write_variant(tmp_path, mutate)
    assert main(["device", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: device.softening.field_model: ")
    assert not (tmp_path / "out").exists()


def test_cli_field_model_device_run(tmp_path, capsys):
    # fig2 softened by the tip field instead of zeta
    def mutate(raw):
        raw["device"]["softening"] = {
            "field_model": {"type": "gaussian_tip", "e_par_peak": "6.6e6 V/m",
                            "e_perp_peak": "1.3e6 V/m", "center": "0.5 um",
                            "width": "0.2 um", "gradient_scale": "20 nm"},
            "alpha_par": "142 4pi_eps0_A2", "alpha_perp": "10.9 4pi_eps0_A2"}
    path = write_variant(tmp_path, mutate)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["device", "--config", str(path), "--out", str(out)]) \
            == EXIT_OK
        runs.append((capsys.readouterr().out,
                     {f.name: re.sub(rb'"timestamp_utc": "[^"]*"', b"",
                                     f.read_bytes())
                      for f in out.iterdir()}))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == ["derived.json", "manifest.json"]
    derived = json.loads(runs[0][1]["derived.json"])
    # V_es,2 = (1/2) integral d2W/dx2 phi0^2 dy on a fixed fine grid, with
    # W = -(a_par E_par^2 + a_perp E_perp^2)/2 and E^2 ~ exp(2x/x_s), so
    # d2W/dx2 = -2 (a_par E_par^2 + a_perp E_perp^2) env^2 / x_s^2
    length, unit = 1e-6, 4 * np.pi * epsilon_0 * 1e-20
    y = np.linspace(0.0, length, 400_001)
    kl = 4.73
    u = kl * y / length
    sigma = (np.cosh(kl) - np.cos(kl)) / (np.sinh(kl) - np.sin(kl))
    phi = (np.cosh(u) - np.cos(u)) - sigma * (np.sinh(u) - np.sin(u))
    phi /= phi[len(y) // 2]
    amp = 142 * unit * 6.6e6**2 + 10.9 * unit * 1.3e6**2
    d2w = -2 * amp * np.exp(-((y - 0.5e-6) ** 2) / 0.2e-6**2) / 20e-9**2
    v2 = 0.5 * np.trapezoid(d2w * phi**2, y)
    mass = 0.3965 * 1.8623e-15 * length
    w0 = derived["omega_m0"]["value"]
    assert w0 / TWO_PI == pytest.approx(20.62e6, rel=1e-3)
    assert derived["omega_m"]["value"] == pytest.approx(
        np.sqrt(w0**2 - 2 * abs(v2) / mass), rel=1e-7)
    assert derived["omega_m"]["value"] / TWO_PI == pytest.approx(10.3246e6,
                                                                 rel=1e-5)


def test_cli_spectrum_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(CONFIG_PATH),
                 "--out", str(out), "--selftest"]) == EXIT_OK
    peaks = json.loads((out / "peaks.json").read_text())
    assert peaks["probe_resonant"] is True
    assert peaks["resolvable"] is True
    assert peaks["selftest_max_error"] < 0.02
    assert peaks["recovered_populations"][1] > 0.9
    spec_lines = (out / "spectrum.csv").read_text().splitlines()
    assert spec_lines[1] == "omega_minus_omegaL,S"
    # 2,001 background points, less those inside the 12 line windows, plus
    # the windows' points
    assert 2001 < len(spec_lines) - 2 <= 3000
    freqs = np.array([float(line.split(",")[0]) for line in spec_lines[2:]])
    assert np.all(np.diff(freqs) > 0)


def readout_points(count=8, seed=1801):
    """fig2 and `count` device points drawn in the benchmark readout
    sweep's ranges: zeta 3.6-4.0, 0.8-1.4 W per drive, 10-40 mK."""
    rng = np.random.default_rng(seed)
    points = [None]
    for _ in range(count):
        points.append((rng.uniform(3.6, 4.0), rng.uniform(0.8, 1.4),
                       rng.uniform(10.0, 40.0)))
    return points


@pytest.mark.parametrize("point", readout_points(),
                         ids=["fig2", *(f"drawn{k}" for k in range(8))])
def test_cli_spectrum_matches_dense_readout(tmp_path, monkeypatch, point):
    # the line-window grid reads the same populations and self-test error
    # as a dense 40,001-point uniform grid over the same span
    def mutate(raw):
        if point is not None:
            zeta, power, temperature = point
            raw["device"]["softening"]["zeta"] = zeta
            for drive in raw["device"]["drives"]:
                drive["power"] = f"{power!r} W"
            raw["device"]["temperature"] = f"{temperature!r} mK"
    path = str(write_variant(tmp_path, mutate))

    def readout(name):
        out = tmp_path / name
        assert main(["spectrum", "--config", path, "--out", str(out),
                     "--selftest"]) == EXIT_OK
        return json.loads((out / "peaks.json").read_text())

    windows = readout("windows")
    monkeypatch.setattr(cli, "sideband_grid",
                        lambda _c, _w, span, _p: np.linspace(
                            -span / 2, span / 2, 40001))
    dense = readout("dense")
    np.testing.assert_allclose(windows["recovered_populations"],
                               dense["recovered_populations"], atol=1e-5)
    assert windows["selftest_max_error"] == pytest.approx(
        dense["selftest_max_error"], abs=1e-4)


def test_cli_spectrum_default_truncation(tmp_path):
    # at the default 10 levels the readout reads 8 lines; the default span
    # used to cover only the first 4 plus 3 lambda and missed line 8
    path = write_variant(tmp_path, lambda raw: raw["simulation"].pop(
        "mech_truncation"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out),
                 "--selftest"]) == EXIT_OK
    peaks = json.loads((out / "peaks.json").read_text())
    assert max(pk["n"] for pk in peaks["peaks"]) == 8
    assert len(peaks["recovered_populations"]) == 9


def test_cli_sweep_failed_points_set_exit_code(tmp_path, capsys):
    # every row is still written; the exit code is the first failure's
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(CONFIG_PATH), "--out", str(out),
                 "--param", "simulation.mech_trunction",
                 "--values", "4", "6"]) == EXIT_CONFIG
    assert len((out / "sweep.csv").read_text().splitlines()) == 4
    # a 2 K point overfills the truncation: a solver error after a good row
    assert main(["sweep", "--config", str(CONFIG_PATH), "--out", str(out),
                 "--param", "device.temperature",
                 "--values", '"20 mK"', '"2 K"']) == EXIT_SOLVER
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert rows[0].endswith(",") and "TruncationError" in rows[1]


def test_cli_sweep_quotes_text_cells(tmp_path):
    # error messages and the list value hold commas; every row keeps one
    # field per header name, and the exit code is still the first failure's
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(CONFIG_PATH), "--out", str(out),
                 "--param", "device.softening.zeta",
                 "--values", "0.5", '"4 m"', "[1,2]", "4.0"]) == EXIT_CONFIG
    with (out / "sweep.csv").open(newline="") as f:
        header, *rows = list(csv.reader(f))[1:]
    assert len(rows) == 4 and all(len(r) == len(header) for r in rows)
    assert [r[0] for r in rows] == ["0.5", "4 m", "[1, 2]", "4"]
    for r in rows[:3]:
        assert r[-1].startswith("ConfigError: ") and set(r[1:-1]) == {""}
    assert "got 0.5" in rows[0][-1] and rows[3][-1] == ""


def test_cli_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(CONFIG_PATH), "--out", str(out),
                 "--param", "device.softening.zeta",
                 "--values", "3.6", "4.0"]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("value,omega_m,lambda")
    assert len(lines) == 4


def test_cli_print_schema(capsys):
    assert main(["--print-schema"]) == EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    assert "device" in schema and "simulation" in schema


def test_cli_usage_error_exit_code(capsys):
    # argparse's own code 2 would read as a regime failure
    assert main(["steady", "--config", str(CONFIG_PATH), "--bogus"]) == \
        EXIT_CONFIG
    assert "--bogus" in capsys.readouterr().err
    assert main(["sweep", "--config", str(CONFIG_PATH),
                 "--param", "device.temperature"]) == EXIT_CONFIG
    assert main(["steady", "-h"]) == EXIT_OK


def test_cli_missing_config_file(tmp_path):
    assert main(["device", "--config", str(tmp_path / "nope.json")]) == \
        EXIT_CONFIG


def test_cli_invalid_config(tmp_path):
    path = write_variant(tmp_path,
                         lambda raw: raw["device"]["beam"].pop("length"))
    assert main(["device", "--config", str(path)]) == EXIT_CONFIG


def test_cli_regime_failure_exit_code(tmp_path):
    # a deep truncation pushes the rotating-wave ratio past failure
    path = write_variant(
        tmp_path, lambda raw: raw["simulation"].update(mech_truncation=14))
    assert main(["device", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_REGIME


def test_cli_symbolic_detuning_below_first_line(tmp_path, capsys):
    def mutate(raw):
        raw["device"]["drives"][0]["detuning"] = "+delta_0"
    path = write_variant(tmp_path, mutate)
    assert main(["device", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: device.drives[0].detuning: symbolic detuning "
        "'+delta_0': delta_n defined for n >= 1"]


@pytest.mark.parametrize("section, key, value", [
    ("simulation", "mech_trunction", 6),             # misspelled
    ("simulation", "include_reduced_shifts", True),  # removed knob
    ("output", "formats", ["json"]),                 # removed knob
    ("simulation", "solver", "iterative"),           # removed knob
    ("simulation", "include_probe_in_linewidth", False),  # removed knob
    ("simulation", "spectrum_grid", {"points": 2001}),    # removed knob
    ("simulation", "regime_thresholds", {"pass": 0.1}),   # removed knob
    # device inputs that restated another
    ("device.beam", "effective_mass", "7.3842e-22 kg"),
    ("device.cavity", "evanescent_decay", "100 nm"),
    ("device.drives[0]", "laser_frequency", "272 THz"),
    ("device.probe", "laser_frequency", "272 THz"),
])
def test_cli_unknown_config_key(tmp_path, capsys, section, key, value):
    path = write_variant(tmp_path, _set(section, key, value))
    assert main(["steady", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{section}.{key}: unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    # the per-cavity levels gave way to the photon number of all cavities
    ("cavity_truncation", 2, "simulation.cavity_truncation: unknown config key"),
    ("cavity_photons", 0, "simulation.cavity_photons: must be >= 1"),
])
def test_cli_cavity_space_config_errors(tmp_path, capsys, key, value, message):
    path = write_variant(tmp_path,
                         lambda raw: raw["simulation"].update({key: value}))
    assert main(["steady", "--config", str(path), "--full",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert message in err[0]
    assert not (tmp_path / "out").exists()


def schema_nodes(schema=CONFIG_SCHEMA, keys=()):
    """(keys, type) of every JSON object, array and leaf CONFIG_SCHEMA
    holds, the keys leading to it from the root (0 for the item of an
    array)."""
    yield keys, type(schema)
    if isinstance(schema, dict):
        for key, sub in schema.items():
            yield from schema_nodes(sub, keys + (key,))
    elif isinstance(schema, list):
        yield from schema_nodes(schema[0], keys + (0,))


def dotted(keys):
    """The config path of `keys` as a ConfigError names it."""
    text = ""
    for k in keys:
        text += f"[{k}]" if isinstance(k, int) else f".{k}" if text else k
    return text or "<root>"


# sections the schema no longer lists: any value there is an unknown key
RETIRED_SECTIONS = [("simulation", "spectrum_grid"),
                    ("simulation", "regime_thresholds")]


@pytest.mark.parametrize("keys, value", [
    (keys, value)
    for keys, kind in [*schema_nodes(),
                       *((keys, dict) for keys in RETIRED_SECTIONS)]
    if kind is not str
    for value in (5, "x", {} if kind is list else [])],
    ids=lambda v: dotted(v) if isinstance(v, tuple) else json.dumps(v))
def test_cli_config_section_of_wrong_type(tmp_path, capsys, keys, value):
    # a section that is not the JSON object or array of the schema used to
    # escape main() as a TypeError or AttributeError; a retired section is
    # refused at its path too, before anything is written
    raw = json.loads(CONFIG_PATH.read_text())
    if keys:
        node = raw
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    else:
        raw = value
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    assert main(["steady", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {dotted(keys)}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "keys", [keys for keys, kind in schema_nodes() if kind is str], ids=dotted)
def test_every_schema_key_is_read(keys):
    # a key --print-schema lists but no parser reads would take any value;
    # {} is refused at the path of every key that is read
    raw = json.loads(CONFIG_PATH.read_text())
    if "field_model" in keys:
        softening = raw["device"]["softening"]
        del softening["zeta"]
        softening["field_model"] = {
            "type": "gaussian_tip", "e_par_peak": "1.2e7 V/m",
            "center": "0.5 um", "width": "0.2 um", "gradient_scale": "20 nm"}
    node = raw
    for k in keys[:-1]:
        node = node[k] if isinstance(node, list) else node.setdefault(k, {})
    node[keys[-1]] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.path == dotted(keys)


@pytest.mark.parametrize("radius", [{"garbage": True}, "5 nm", "0.39 nm"])
def test_cli_beam_refuses_radius_with_transverse_scale(tmp_path, capsys,
                                                       radius):
    # the radius used to be accepted and never read
    def mutate(raw):
        raw["device"]["beam"].update(radius=radius,
                                     transverse_scale="0.2757716 nm")
    path = write_variant(tmp_path, mutate)
    assert main(["device", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: device.beam.radius: give radius or transverse_scale, "
        "not both"]
    assert not (tmp_path / "out").exists()


def test_cli_output_directory_must_be_text(tmp_path, capsys, monkeypatch):
    path = write_variant(tmp_path,
                         lambda raw: raw["output"].update(directory=5))
    monkeypatch.chdir(tmp_path)
    assert main(["device", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: output.directory: expected a path string"]
    assert [p.name for p in tmp_path.iterdir()] == ["variant.json"]


@pytest.mark.parametrize("field, under", [("--out", ""), ("--out", "sub"),
                                          ("output.directory", "sub")])
def test_cli_refuses_an_output_path_at_a_file(tmp_path, capsys, monkeypatch,
                                              field, under):
    # used to run the whole command, any full solve included, and then die
    # in mkdir with a FileExistsError or NotADirectoryError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / under)
    path = write_variant(tmp_path, lambda raw: raw["output"].update(
        directory=out if field == "output.directory" else "out"))
    monkeypatch.chdir(tmp_path)

    def solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")
    monkeypatch.setattr(cli, "run_steady", solve)
    flags = ["--out", out] if field == "--out" else []
    assert main(["steady", "--full", "--config", str(path),
                 *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {field}: {blocker} is not a directory"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file",
                                                         "variant.json"]
    assert blocker.read_text() == ""


@pytest.mark.parametrize("section, detuning, message", [
    ("drives", "+delta_x", "cannot parse symbolic detuning '+delta_x'"),
    ("drives", "delta_1 GHz", "cannot parse symbolic detuning 'delta_1 GHz'"),
    ("probe", "-delta_0", "symbolic detuning '-delta_0': delta_n defined "
                          "for n >= 1"),
])
def test_cli_symbolic_detuning_errors_name_their_field(tmp_path, capsys,
                                                       section, detuning,
                                                       message):
    def mutate(raw):
        drive = raw["device"][section]
        (drive[0] if section == "drives" else drive)["detuning"] = detuning
    path = write_variant(tmp_path, mutate)
    assert main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    field = "device.drives[0]" if section == "drives" else "device.probe"
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {field}.detuning: {message}"]
    assert not (tmp_path / "out").exists()


def test_cli_steady_compare_needs_full(tmp_path, capsys):
    # used to be ignored with exit 0
    assert main(["steady", "--config", str(CONFIG_PATH), "--compare",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: --compare: needs --full"]
    assert not (tmp_path / "out").exists()


def test_cli_non_finite_quantities(tmp_path, capsys):
    # a JSON number beyond the float range reads as inf: with no drives it
    # used to give gamma_m = 0 and all-NaN populations with exit 0
    raw = json.loads(CONFIG_PATH.read_text())
    raw["device"]["drives"] = []
    raw["device"]["beam"]["quality_factor"] = "QF"
    path = tmp_path / "qf.json"
    path.write_text(json.dumps(raw).replace('"QF"', "1e400"))
    assert main(["steady", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "device.beam.quality_factor" in capsys.readouterr().err
    # "nan" used to reach the regime report and exit 2
    path = write_variant(
        tmp_path, lambda raw: raw["device"]["softening"].update(zeta="nan"))
    assert main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "device.softening.zeta" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_regime_threshold(tmp_path, capsys):
    # the regime grades are fixed; their section is an unknown key
    path = write_variant(tmp_path, lambda raw: raw["simulation"].update(
        regime_thresholds={"pass": "x"}))
    assert main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: simulation.regime_thresholds: unknown config key; "
        "see nanomech --print-schema"]


@pytest.mark.parametrize("command, grid, message", [
    # used to escape as a ValueError
    ("steady", "wigner_grid", "simulation.wigner_grid.points: must be >= 3"),
    # used to exit 3; the spectrum grid comes from its line table
    ("spectrum", "spectrum_grid",
     "simulation.spectrum_grid: unknown config key"),
], ids=["steady-wigner_grid", "spectrum-spectrum_grid"])
def test_cli_bad_grid_points(tmp_path, capsys, command, grid, message):
    path = write_variant(tmp_path, lambda raw: raw["simulation"].setdefault(
        grid, {}).update(points=0))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_cli_buckling_exit_code(tmp_path):
    def mutate(raw):
        raw["device"]["softening"] = {
            "field_model": {
                "type": "gaussian_tip",
                "e_par_peak": "1e9 V/m",
                "center": "0.5 um",
                "width": "0.2 um",
                "gradient_scale": "5 nm",
            },
            "alpha_par": "142 4pi_eps0_A2",
        }
    path = write_variant(tmp_path, mutate)
    assert main(["device", "--config", str(path)]) == EXIT_REGIME


def test_cli_unresolved_spectrum_exit_code(tmp_path, capsys):
    # 100x the drive power broadens every line far beyond the splitting;
    # the refusal is the one diagnostic, with no warning before it
    def mutate(raw):
        for drive in raw["device"]["drives"]:
            drive["power"] = "120 W"
    path = write_variant(tmp_path, mutate)
    code = main(["spectrum", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err.splitlines() == [
        "analysis precondition: sideband lines are not resolved: line "
        "spacing over 3 max linewidth 0.0156 (limit 1); refusing the "
        "inversion"]


@pytest.mark.parametrize("mech, resolution", [(227, "0.996"),
                                              (10_000, "0.0224")])
def test_cli_refused_readout_samples_nothing(tmp_path, capsys, monkeypatch,
                                             mech, resolution):
    # fig2 keeps its lines resolved up to 226 levels only, since Gamma_n
    # grows with n; above, the refusal comes from the line table, before
    # any frequency grid or spectrum is computed
    path = write_variant(tmp_path, lambda raw: raw["simulation"].update(
        mech_truncation=mech))

    def sampled(*_args, **_kwargs):
        raise AssertionError("a refused readout was sampled")
    monkeypatch.setattr(cli, "sideband_grid", sampled)
    monkeypatch.setattr(cli, "power_spectrum", sampled)
    code = main(["spectrum", "--selftest", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err.splitlines() == [
        "analysis precondition: sideband lines are not resolved: line "
        f"spacing over 3 max linewidth {resolution} (limit 1); refusing the "
        "inversion"]
    assert not (tmp_path / "out").exists()


def test_cli_spectrum_builds_its_line_table_once(tmp_path, monkeypatch):
    # run_spectrum judges the line table once and hands it to the grid,
    # to both spectra and to the readout; power_spectrum judges nothing
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper
    judge = counted("sideband_lines", observables.sideband_lines)
    monkeypatch.setattr(cli, "sideband_lines", judge)
    monkeypatch.setattr(observables, "sideband_lines", judge)
    monkeypatch.setattr(observables, "linewidths",
                        counted("linewidths", observables.linewidths))
    draw = cli.power_spectrum

    def drawn(*args, **kwargs):
        before = len(calls)
        spec = draw(*args, **kwargs)
        assert calls[before:] == [], "power_spectrum judged its lines"
        calls.append("power_spectrum")
        return spec
    monkeypatch.setattr(cli, "power_spectrum", drawn)
    code = main(["spectrum", "--selftest", "--config", str(CONFIG_PATH),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert calls == ["sideband_lines", "linewidths", "power_spectrum",
                     "power_spectrum"]


def test_cli_solver_memory_guard_exit_code(tmp_path, capsys):
    # at most 3 photons in all, as steady --full --converge can reach:
    # d = 6,000, about 5e8 estimated nonzeros
    def mutate(raw):
        raw["simulation"]["mech_truncation"] = 300
        raw["simulation"]["cavity_photons"] = 3
    path = write_variant(tmp_path, mutate)
    # the fixed Wigner grid is too narrow for 300 levels, but a run the
    # superoperator size guard refuses reports only the refusal
    code = main(["steady", "--config", str(path), "--full",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver error: ")


def test_cli_coarse_grid_warns_once(tmp_path, capsys):
    # the grid integral of the W that steady writes is judged once, by the
    # command; the kernel evaluates W on any grid without a diagnostic
    path = write_variant(tmp_path, lambda raw: raw["simulation"].update(
        wigner_grid={"half_width": 1.0, "points": 5}))
    with pytest.warns(UserWarning) as record:
        code = main(["steady", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert [str(w.message) for w in record] == [
        "Wigner grid integral 0.434079 deviates from 1; "
        "the grid may be too coarse or too small"]
    assert capsys.readouterr().err == ""


# In a fresh interpreter every command runs without loading scipy, but
# steady --full: only the full model imports it.  The first five commands
# are the start-up the benchmark's setup_s measures and the readout chain.
STARTUP_CODE = """
import contextlib, io, json, sys
import nanomech.cli as cli

commands = [["device"], ["validate"], ["steady"], ["spectrum", "--selftest"],
            ["sweep", "--param", "device.softening.zeta",
             "--values", "3.9", "4.0"], ["steady", "--full"]]
loaded = []
for k, (name, *flags) in enumerate(commands):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([name, "--config", sys.argv[1], "--out", f"out{k}",
                         *flags])
    loaded.append([" ".join([name, *flags]), code,
                   sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_only_the_full_model_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(nanomech.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", STARTUP_CODE, str(CONFIG_PATH)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True)
    *readout, full = json.loads(out.stdout)
    assert [(cmd, code) for cmd, code, _ in readout + [full]] == [
        ("device", EXIT_OK), ("validate", EXIT_OK), ("steady", EXIT_OK),
        ("spectrum --selftest", EXIT_OK),
        ("sweep --param device.softening.zeta --values 3.9 4.0", EXIT_OK),
        ("steady --full", EXIT_OK)]
    assert [modules for _, _, modules in readout] == [[]] * 5
    assert "scipy.sparse.linalg" in full[2]
