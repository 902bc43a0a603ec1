import json

import numpy as np
import pytest

from nanomech.config import (CONFIG_SCHEMA, MAX_MECH_TRUNCATION,
                             MAX_WIGNER_POINTS, ConfigError, load_config,
                             parse_config, parse_quantity)
from nanomech.device import POLARIZABILITY_UNIT, GaussianTipField

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# quantity parsing

@pytest.mark.parametrize("text,dim,expected", [
    ("5.23 MHz", "frequency", TWO_PI * 5.23e6),
    ("100 kHz", "frequency", TWO_PI * 1e5),
    ("2.5 Mrad/s", "frequency", 2.5e6),
    ("1.0 um", "length", 1e-6),
    ("0.39 nm", "length", 0.39e-9),
    ("3.9 A", "length", 3.9e-10),
    ("21 km/s", "speed", 21000.0),
    ("1.2 W", "power", 1.2),
    ("1 uW", "power", 1e-6),
    ("20 mK", "temperature", 0.020),
    ("1 deg", "angle", np.pi / 180.0),
    ("2e-5 S", "conductance", 2e-5),
    ("1.2e7 V/m", "field", 1.2e7),
    ("142 4pi_eps0_A2", "polarizability", 142 * POLARIZABILITY_UNIT),
    ("1.8623e-15 kg/m", "linear_density", 1.8623e-15),
])
def test_parse_quantity_units(text, dim, expected):
    assert parse_quantity(text, dim, "p") == pytest.approx(expected, rel=1e-12)


def test_parse_quantity_dimensionless():
    assert parse_quantity(4.0, "dimensionless", "p") == 4.0
    assert parse_quantity("4.0", "dimensionless", "p") == 4.0
    with pytest.raises(ConfigError):
        parse_quantity("4 MHz", "dimensionless", "p")


def test_parse_quantity_rejects_bare_numbers_for_dimensioned_fields():
    with pytest.raises(ConfigError, match="bare number"):
        parse_quantity(5.23e6, "frequency", "device.x")


@pytest.mark.parametrize("text", ["5.23", "5.23 parsecs", "fast MHz",
                                  "1 2 MHz"])
def test_parse_quantity_malformed(text):
    with pytest.raises(ConfigError):
        parse_quantity(text, "frequency", "p")


@pytest.mark.parametrize("value,dim", [
    (float("inf"), "dimensionless"), ("nan", "dimensionless"),
    ("-inf", "dimensionless"), ("inf MHz", "frequency"),
    ("1e308 THz", "frequency"),          # finite number, infinite in rad/s
    (10**400, "dimensionless"),          # too large for a float
], ids=["inf", "nan", "-inf", "inf_MHz", "1e308_THz", "huge_int"])
def test_parse_quantity_non_finite(value, dim):
    with pytest.raises(ConfigError) as exc:
        parse_quantity(value, dim, "device.x")
    assert exc.value.path == "device.x"


@pytest.mark.parametrize("value", [{}, [], True])
def test_parse_quantity_names_the_type_it_expects(value):
    # a dimensionless field takes a bare number, not a "number unit" string
    with pytest.raises(ConfigError, match="expected a number, got"):
        parse_quantity(value, "dimensionless", "simulation.mech_truncation")
    with pytest.raises(ConfigError, match="expected a quantity string, got"):
        parse_quantity(value, "length", "device.beam.length")


def test_parse_quantity_wrong_dimension():
    with pytest.raises(ConfigError, match="dimension"):
        parse_quantity("5 um", "frequency", "p")


def test_config_error_carries_field_path():
    with pytest.raises(ConfigError) as exc:
        parse_quantity(1.0, "length", "device.beam.length")
    assert "device.beam.length" in str(exc.value)
    assert exc.value.path == "device.beam.length"


# ---------------------------------------------------------------------------
# full config parsing

def test_parse_reference_config(headline_config_dict):
    cfg = parse_config(json.loads(json.dumps(headline_config_dict)))
    assert cfg.beam.length == pytest.approx(1.0e-6)
    assert cfg.beam.kappa_tilde == pytest.approx(0.39e-9 / np.sqrt(2.0))
    assert cfg.softening.zeta == 4.0
    assert cfg.cavity.bare_finesse == 3e6
    assert cfg.temperature == pytest.approx(0.020)
    assert len(cfg.drives) == 3
    assert cfg.drives[0].detuning == "+delta_1"
    assert cfg.probe is not None
    assert cfg.probe.input_power == pytest.approx(1e-6)
    assert cfg.electrode.misalignment == pytest.approx(np.pi / 180.0)
    assert cfg.simulation.mech_truncation == 8
    assert cfg.output.directory == "out"
    assert cfg.raw == headline_config_dict


def test_missing_required_field(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    del raw["device"]["beam"]["length"]
    with pytest.raises(ConfigError, match="device.beam.length"):
        parse_config(raw)


def test_numeric_detuning_parsed_as_frequency(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["drives"][0]["detuning"] = "5.4 MHz"
    cfg = parse_config(raw)
    assert cfg.drives[0].detuning == pytest.approx(TWO_PI * 5.4e6)


def test_invalid_coupling_fraction(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["cavity"]["external_coupling_fraction"] = 1.5
    with pytest.raises(ConfigError, match="device.cavity"):
        parse_config(raw)


def test_invalid_truncations(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["simulation"]["mech_truncation"] = 2
    with pytest.raises(ConfigError, match="mech_truncation"):
        parse_config(raw)
    # at most MAX_MECH_TRUNCATION levels: 1e300 used to reach the regime
    # check's n^2 and raise OverflowError
    raw["simulation"]["mech_truncation"] = MAX_MECH_TRUNCATION
    assert parse_config(raw).simulation.mech_truncation == MAX_MECH_TRUNCATION
    for value in (MAX_MECH_TRUNCATION + 1, 1e300):
        raw["simulation"]["mech_truncation"] = value
        with pytest.raises(ConfigError, match="mech_truncation: must be <= "):
            parse_config(raw)
    raw["simulation"]["mech_truncation"] = 8
    raw["simulation"]["cavity_photons"] = 0
    with pytest.raises(ConfigError, match="cavity_photons"):
        parse_config(raw)


@pytest.mark.parametrize("grid, key, value", [
    ("wigner_grid", "points", 0), ("wigner_grid", "points", -3),
    ("wigner_grid", "points", 2), ("wigner_grid", "points", 100),
    ("wigner_grid", "points", MAX_WIGNER_POINTS + 2),
    ("wigner_grid", "half_width", 0),
    ("wigner_grid", "half_width", -7), ("spectrum_grid", "points", 0),
    ("spectrum_grid", "points", 100_000_001),
    ("spectrum_grid", "span", "0 Hz"), ("spectrum_grid", "span", "-1 MHz"),
])
def test_invalid_grid_fields(headline_config_dict, grid, key, value):
    # these used to raise a bare ValueError later, be replaced by the
    # defaults, or (a negative half-width) be accepted; the spectrum grid
    # is worked out from its line table, and its section is an unknown key
    raw = json.loads(json.dumps(headline_config_dict))
    raw["simulation"].setdefault(grid, {})[key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    if grid in CONFIG_SCHEMA["simulation"]:
        assert exc.value.path == f"simulation.{grid}.{key}"
    else:
        assert exc.value.path == f"simulation.{grid}"
        assert "unknown config key" in str(exc.value)


def test_wigner_grid_points_bound_parses(headline_config_dict):
    # one past the bound is refused above; neither grid is allocated
    raw = json.loads(json.dumps(headline_config_dict))
    raw["simulation"]["wigner_grid"]["points"] = MAX_WIGNER_POINTS
    assert parse_config(raw).simulation.wigner_points == MAX_WIGNER_POINTS


@pytest.mark.parametrize("section,key", [
    ("simulation", "mech_truncation"), ("simulation", "cavity_photons"),
    ("simulation.wigner_grid", "points"),
])
def test_integer_fields_reject_fractions(headline_config_dict, section, key):
    raw = json.loads(json.dumps(headline_config_dict))
    node = raw
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = 6.7
    with pytest.raises(ConfigError, match="expected an integer") as exc:
        parse_config(raw)
    assert exc.value.path == f"{section}.{key}"
    node[key] = "7"
    assert parse_config(raw)   # integral strings and floats stay valid


def test_field_model_config(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["softening"] = {
        "field_model": {
            "type": "gaussian_tip",
            "e_par_peak": "1.2e7 V/m",
            "e_perp_peak": "2.35e6 V/m",
            "center": "0.5 um",
            "width": "0.2 um",
            "gradient_scale": "20 nm",
        },
        "alpha_par": "142 4pi_eps0_A2",
        "alpha_perp": "10.9 4pi_eps0_A2",
    }
    cfg = parse_config(raw)
    assert isinstance(cfg.softening.field_model, GaussianTipField)
    assert cfg.softening.zeta is None
    assert cfg.softening.field_model.e_par_peak == pytest.approx(1.2e7)
    assert cfg.softening.field_model.e_perp_peak == pytest.approx(2.35e6)
    # the transverse terms are optional and default to zero
    del raw["device"]["softening"]["field_model"]["e_perp_peak"]
    del raw["device"]["softening"]["alpha_perp"]
    cfg = parse_config(raw)
    assert cfg.softening.field_model.e_perp_peak == 0.0
    assert cfg.softening.alpha_perp == 0.0


def test_unknown_field_model(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["softening"] = {
        "field_model": {"type": "dipole_grid"},
        "alpha_par": "142 4pi_eps0_A2",
    }
    with pytest.raises(ConfigError, match="field model"):
        parse_config(raw)


def test_unknown_key_reported_at_its_path(headline_config_dict):
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["drives"][1]["powr"] = "1 W"
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.path == "device.drives[1].powr"


def test_optional_keys_accepted(headline_config_dict):
    # keys the parser reads beyond the reference config are in the schema
    raw = json.loads(json.dumps(headline_config_dict))
    beam = raw["device"]["beam"]
    del beam["radius"]
    beam["transverse_scale"] = "0.25 nm"
    cfg = parse_config(raw)
    assert cfg.beam.kappa_tilde == pytest.approx(0.25e-9)


def test_negative_temperature_names_its_path(headline_config_dict):
    # used to be refused by the device without a path
    raw = json.loads(json.dumps(headline_config_dict))
    raw["device"]["temperature"] = "-5 mK"
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.path == "device.temperature"
    assert str(exc.value) == "device.temperature: must be >= 0"
    raw["device"]["temperature"] = "0 K"
    assert parse_config(raw).temperature == 0.0


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(notdict)
