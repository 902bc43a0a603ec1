import json

import numpy as np
import pytest

from nanomech.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION,
                          EXIT_REGIME, EXIT_SOLVER, SCHEMA_VERSION,
                          canonical_json, config_hash, format_float, main,
                          run_device, run_spectrum, run_steady, run_sweep,
                          set_config_path, write_csv)
from nanomech.config import ConfigError, parse_config

from conftest import CONFIG_PATH

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
    write_csv(path, ["a", "b"], [(1.0, "x"), (0.25, "y")])
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
    assert len(spec_lines) == 2 + 40001


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
    assert "delta_n defined for n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("simulation", "mech_trunction", 6),             # misspelled
    ("simulation", "include_reduced_shifts", True),  # removed knob
    ("output", "formats", ["json"]),                 # removed knob
    ("simulation", "solver", "iterative"),           # removed knob
    ("simulation", "include_probe_in_linewidth", False),  # removed knob
])
def test_cli_unknown_config_key(tmp_path, capsys, section, key, value):
    path = write_variant(tmp_path, lambda raw: raw[section].update({key: value}))
    assert main(["steady", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{section}.{key}: unknown config key" in capsys.readouterr().err
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
    path = write_variant(tmp_path, lambda raw: raw["simulation"].update(
        regime_thresholds={"pass": "x"}))
    assert main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "simulation.regime_thresholds.pass" in capsys.readouterr().err


@pytest.mark.parametrize("command, grid", [
    ("steady", "wigner_grid"),        # used to escape as a ValueError
    ("spectrum", "spectrum_grid"),    # used to exit 3
])
def test_cli_bad_grid_points(tmp_path, capsys, command, grid):
    path = write_variant(tmp_path, lambda raw: raw["simulation"].setdefault(
        grid, {}).update(points=0))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"simulation.{grid}.points" in capsys.readouterr().err


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


def test_cli_unresolved_spectrum_exit_code(tmp_path):
    # 100x the drive power broadens every line far beyond the splitting
    def mutate(raw):
        for drive in raw["device"]["drives"]:
            drive["power"] = "120 W"
    path = write_variant(tmp_path, mutate)
    with pytest.warns(UserWarning):
        code = main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_PRECONDITION


def test_cli_solver_memory_guard_exit_code(tmp_path):
    def mutate(raw):
        raw["simulation"]["mech_truncation"] = 300
        raw["simulation"]["cavity_truncation"] = 3
    path = write_variant(tmp_path, mutate)
    # the fixed Wigner grid is too narrow for 300 levels; that warning is
    # expected before the superoperator size guard fires
    with pytest.warns(UserWarning, match="grid"):
        code = main(["steady", "--config", str(path), "--full",
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_SOLVER
