"""Run configuration: unit-suffixed quantity parsing and the JSON config
schema that feeds the device model and the simulation pipelines.

Dimensioned fields must carry a unit suffix ("5.23 MHz", "1.0 um"); bare
numbers are rejected for them.  Frequencies given in Hz-family units are
converted to angular units (rad/s) on input; all internal math is angular.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .device import (POLARIZABILITY_UNIT, BeamSpec, CavitySpec, DeviceError,
                     DriveSpec, ElectrodeSpec, GaussianTipField, SofteningSpec,
                     symbolic_detuning)

TWO_PI = 2 * np.pi


class ConfigError(ValueError):
    """Config parse/validation failure, with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# unit -> (dimension, factor to SI / internal units)
_UNITS = {
    # frequencies: ordinary -> angular
    "Hz": ("frequency", TWO_PI), "kHz": ("frequency", TWO_PI * 1e3),
    "MHz": ("frequency", TWO_PI * 1e6), "GHz": ("frequency", TWO_PI * 1e9),
    "THz": ("frequency", TWO_PI * 1e12),
    "rad/s": ("frequency", 1.0), "krad/s": ("frequency", 1e3),
    "Mrad/s": ("frequency", 1e6), "Grad/s": ("frequency", 1e9),
    # lengths
    "m": ("length", 1.0), "mm": ("length", 1e-3), "um": ("length", 1e-6),
    "nm": ("length", 1e-9), "pm": ("length", 1e-12), "A": ("length", 1e-10),
    # mass and linear density
    "kg": ("mass", 1.0), "g": ("mass", 1e-3),
    "kg/m": ("linear_density", 1.0),
    # speed
    "m/s": ("speed", 1.0), "km/s": ("speed", 1e3),
    # power
    "W": ("power", 1.0), "mW": ("power", 1e-3), "uW": ("power", 1e-6),
    "kW": ("power", 1e3),
    # temperature
    "K": ("temperature", 1.0), "mK": ("temperature", 1e-3),
    "uK": ("temperature", 1e-6),
    # angle
    "rad": ("angle", 1.0), "mrad": ("angle", 1e-3),
    "deg": ("angle", np.pi / 180.0),
    # 2D conductivity
    "S": ("conductance", 1.0), "1/Ohm": ("conductance", 1.0),
    # electric field
    "V/m": ("field", 1.0), "kV/m": ("field", 1e3), "MV/m": ("field", 1e6),
    # polarizability per unit length; the quoted-units convention is
    # multiples of 4 pi eps0 Angstrom^2
    "4pi_eps0_A2": ("polarizability", POLARIZABILITY_UNIT),
    "C*m/V": ("polarizability", 1.0),
}


def parse_quantity(value, dimension: str, path: str) -> float:
    """Parse "number unit" into internal units, enforcing the dimension and
    a finite result."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if dimension != "dimensionless":
            raise ConfigError(path, f"bare number for a {dimension} field; "
                                    "write e.g. \"5.23 MHz\"")
        num_s, unit = value, None
    elif not isinstance(value, str):
        wanted = "number" if dimension == "dimensionless" else "quantity string"
        raise ConfigError(path, f"expected a {wanted}, got {type(value).__name__}")
    else:
        parts = value.strip().split()
        if dimension == "dimensionless":
            if len(parts) != 1:
                raise ConfigError(path, "dimensionless field must be a bare "
                                        f"number, got {value!r}")
            num_s, unit = parts[0], None
        elif len(parts) == 2:
            num_s, unit = parts
        else:
            raise ConfigError(path, f"expected \"number unit\", got {value!r}")
    try:
        num = float(num_s)
    except (ValueError, OverflowError):
        raise ConfigError(path, f"cannot parse number {num_s!r}") from None
    factor = 1.0
    if unit is not None:
        if unit not in _UNITS:
            raise ConfigError(path, f"unknown unit {unit!r}")
        dim, factor = _UNITS[unit]
        if dim != dimension:
            raise ConfigError(path, f"unit {unit!r} has dimension {dim}, "
                                    f"expected {dimension}")
    if not math.isfinite(num * factor):
        raise ConfigError(path, f"{value!r} is not a finite quantity")
    return num * factor


def parse_integer(value, path: str, least: int) -> int:
    """A dimensionless quantity that must be an integer >= least."""
    num = parse_quantity(value, "dimensionless", path)
    if num != int(num):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if num < least:
        raise ConfigError(path, f"must be >= {least}")
    return int(num)


# the largest simulation.mech_truncation: `spectrum --selftest`, the slowest
# command that runs at any truncation, took 14 s and 45 MB peak RSS on fig2
# at 10,000 levels (1.0 s at 1,000); `steady` took 0.24 s there
MAX_MECH_TRUNCATION = 10_000

# the largest simulation.wigner_grid.points: `steady` peaks at about 72 B
# per grid point (tracemalloc, fig2 at 1,001 points: 72 MB), so 7,001 points
# hold it near 3.5 GB, within the 3.7 GB of a full solve at DEFAULT_NNZ_CAP
MAX_WIGNER_POINTS = 7001


@dataclass(frozen=True)
class SimulationSection:
    mech_truncation: int = 10
    cavity_photons: int = 1     # photons in all cavities together
    wigner_half_width: float | None = None
    wigner_points: int = 121


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    beam: BeamSpec
    softening: SofteningSpec
    cavity: CavitySpec
    drives: tuple[DriveSpec, ...]
    temperature: float
    probe: DriveSpec | None = None
    electrode: ElectrodeSpec | None = None
    simulation: SimulationSection = field(default_factory=SimulationSection)
    output: OutputSection = field(default_factory=OutputSection)
    raw: dict = field(default_factory=dict, repr=False)


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def _spec(make, path: str, **kwargs):
    """make(**kwargs), with a DeviceError refused at the config path."""
    try:
        return make(**kwargs)
    except DeviceError as exc:
        raise ConfigError(path, str(exc)) from None


def _quantity(d: dict, key: str, dimension: str, path: str) -> float:
    """The quantity d[key] in SI units; a missing key is an error."""
    return parse_quantity(_get(d, key, path), dimension, f"{path}.{key}")


def _parse_beam(d: dict, path: str) -> BeamSpec:
    if "transverse_scale" in d:
        kt = _quantity(d, "transverse_scale", "length", path)
        if "radius" in d:
            raise ConfigError(f"{path}.radius",
                              "give radius or transverse_scale, not both")
    elif "radius" in d:
        # nanotube convention: transverse scale R / sqrt(2)
        kt = _quantity(d, "radius", "length", path) / np.sqrt(2.0)
    else:
        raise ConfigError(f"{path}.transverse_scale", "give transverse_scale or radius")
    return _spec(
        BeamSpec, path,
        length=_quantity(d, "length", "length", path), kappa_tilde=kt,
        sound_speed=_quantity(d, "sound_speed", "speed", path),
        quality_factor=_quantity(d, "quality_factor", "dimensionless", path),
        linear_mass_density=_quantity(
            d, "linear_mass_density", "linear_density", path))


def _parse_field_model(d: dict, path: str):
    kind = _get(d, "type", path)
    if kind == "gaussian_tip":
        kwargs = dict(
            e_par_peak=_quantity(d, "e_par_peak", "field", path),
            center=_quantity(d, "center", "length", path),
            width=_quantity(d, "width", "length", path),
            gradient_scale=_quantity(d, "gradient_scale", "length", path))
        if "e_perp_peak" in d:
            kwargs["e_perp_peak"] = _quantity(d, "e_perp_peak", "field", path)
        return _spec(GaussianTipField, path, **kwargs)
    raise ConfigError(f"{path}.type", f"unknown field model {kind!r}")


def _parse_softening(d: dict, path: str) -> SofteningSpec:
    kwargs = {}
    if "zeta" in d:
        kwargs["zeta"] = _quantity(d, "zeta", "dimensionless", path)
    if "field_model" in d:
        kwargs["field_model"] = _parse_field_model(d["field_model"],
                                                   f"{path}.field_model")
    for key in ("alpha_par", "alpha_perp"):
        if key in d:
            kwargs[key] = _quantity(d, key, "polarizability", path)
    return _spec(SofteningSpec, path, **kwargs)


def _parse_cavity(d: dict, path: str) -> CavitySpec:
    return _spec(
        CavitySpec, path,
        bare_finesse=_quantity(d, "bare_finesse", "dimensionless", path),
        round_trip_length=_quantity(d, "round_trip_length", "length", path),
        refractive_index=_quantity(d, "refractive_index", "dimensionless", path),
        wavelength=_quantity(d, "wavelength", "length", path),
        waist=_quantity(d, "waist", "length", path),
        surface_field_ratio=_quantity(d, "surface_field_ratio", "dimensionless", path),
        gap=_quantity(d, "gap", "length", path),
        external_coupling_fraction=_quantity(
            d, "external_coupling_fraction", "dimensionless", path))


def _parse_drive(d: dict, path: str) -> DriveSpec:
    det = _get(d, "detuning", path)
    if isinstance(det, str) and "delta_" in det:
        _spec(symbolic_detuning, f"{path}.detuning", spec=det)
        detuning = det
    else:
        detuning = parse_quantity(det, "frequency", f"{path}.detuning")
    return _spec(DriveSpec, path,
                 input_power=_quantity(d, "power", "power", path),
                 detuning=detuning)


def _parse_electrode(d: dict, path: str) -> ElectrodeSpec:
    return _spec(
        ElectrodeSpec, path,
        diameter=_quantity(d, "diameter", "length", path),
        conductivity_2d=_quantity(d, "conductivity_2d", "conductance", path),
        misalignment=_quantity(d, "misalignment", "angle", path))


def _parse_simulation(d: dict, path: str) -> SimulationSection:
    kwargs = {}
    for key, least in (("mech_truncation", 3), ("cavity_photons", 1)):
        if key in d:
            kwargs[key] = parse_integer(d[key], f"{path}.{key}", least)
    if kwargs.get("mech_truncation", 0) > MAX_MECH_TRUNCATION:
        raise ConfigError(f"{path}.mech_truncation",
                          f"must be <= {MAX_MECH_TRUNCATION}")
    wg = d.get("wigner_grid", {})
    if "half_width" in wg:
        kwargs["wigner_half_width"] = _quantity(
            wg, "half_width", "dimensionless", f"{path}.wigner_grid")
    if "points" in wg:
        kwargs["wigner_points"] = parse_integer(
            wg["points"], f"{path}.wigner_grid.points", 3)
        # an even grid has no point at the origin, where W is most negative
        if kwargs["wigner_points"] % 2 == 0:
            raise ConfigError(f"{path}.wigner_grid.points", "must be odd")
        if kwargs["wigner_points"] > MAX_WIGNER_POINTS:
            raise ConfigError(f"{path}.wigner_grid.points",
                              f"must be <= {MAX_WIGNER_POINTS}")
    if kwargs.get("wigner_half_width", 1) <= 0:
        raise ConfigError(f"{path}.wigner_grid.half_width", "must be > 0")
    return SimulationSection(**kwargs)


def _reject_unknown_keys(data, schema, path: str):
    """Raise ConfigError at the dotted path of the first key that
    CONFIG_SCHEMA does not list, or of the first section that is not the
    JSON object or array the schema has there; leaf values of the wrong
    type are left to the section parsers."""
    if isinstance(schema, list):
        if not isinstance(data, list):
            raise ConfigError(path, "expected a JSON array")
        for i, item in enumerate(data):
            _reject_unknown_keys(item, schema[0], f"{path}[{i}]")
    elif isinstance(schema, dict):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", "expected a JSON object")
        for key, value in data.items():
            sub = f"{path}.{key}" if path else key
            if key not in schema:
                raise ConfigError(sub, "unknown config key; "
                                       "see nanomech --print-schema")
            _reject_unknown_keys(value, schema[key], sub)


def parse_config(data: dict) -> RunConfig:
    _reject_unknown_keys(data, CONFIG_SCHEMA, "")
    dev = _get(data, "device", "<root>")
    beam = _parse_beam(_get(dev, "beam", "device"), "device.beam")
    softening = _parse_softening(_get(dev, "softening", "device"), "device.softening")
    cavity = _parse_cavity(_get(dev, "cavity", "device"), "device.cavity")
    drives = tuple(_parse_drive(d, f"device.drives[{i}]")
                   for i, d in enumerate(_get(dev, "drives", "device")))
    temperature = _quantity(dev, "temperature", "temperature", "device")
    if temperature < 0:
        raise ConfigError("device.temperature", "must be >= 0")
    probe = None
    if "probe" in dev:
        probe = _parse_drive(dev["probe"], "device.probe")
    electrode = None
    if "electrode" in dev:
        electrode = _parse_electrode(dev["electrode"], "device.electrode")
    simulation = _parse_simulation(data.get("simulation", {}), "simulation")
    output = OutputSection(directory=data.get("output", {}).get(
        "directory", OutputSection.directory))
    if not isinstance(output.directory, str):
        raise ConfigError("output.directory", "expected a path string")
    return RunConfig(beam=beam, softening=softening, cavity=cavity,
                     drives=drives, temperature=temperature, probe=probe,
                     electrode=electrode, simulation=simulation, output=output,
                     raw=data)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    return parse_config(data)


CONFIG_SCHEMA = {
    "device": {
        "beam": {
            "length": "quantity, e.g. \"1.0 um\"",
            "radius": "nanotube radius (transverse scale R/sqrt(2)); or give transverse_scale",
            "transverse_scale": "length; give it or radius, not both",
            "sound_speed": "e.g. \"21000 m/s\"",
            "quality_factor": "bare number",
            "linear_mass_density": "e.g. \"1.86e-15 kg/m\"",
        },
        "softening": {
            "zeta": "softening factor >= 1; or give field_model",
            "field_model": {
                "type": "gaussian_tip",
                "e_par_peak": "e.g. \"1.2e7 V/m\"", "e_perp_peak": "optional",
                "center": "lobe center along the beam, length",
                "width": "lobe width, length",
                "gradient_scale": "transverse growth length",
            },
            "alpha_par": "e.g. \"142 4pi_eps0_A2\" (per unit length); needed "
                         "with field_model; with zeta, the couplings G0 "
                         "use 142 4pi_eps0_A2 if it is left out",
            "alpha_perp": "optional, same unit",
        },
        "cavity": {
            "bare_finesse": "bare number", "round_trip_length": "length",
            "refractive_index": "bare number", "wavelength": "length",
            "waist": "length (a_c)", "surface_field_ratio": "bare number (xi)",
            "gap": "length (d)", "external_coupling_fraction": "kappa_ex/kappa in (0,1]",
        },
        "electrode": {
            "diameter": "length", "conductivity_2d": "e.g. \"2e-5 S\"",
            "misalignment": "angle, e.g. \"1 deg\"",
        },
        "drives": [{"power": "e.g. \"1.2 W\"",
                    "detuning": "frequency or symbolic \"+delta_1\"/\"-delta_2\""}],
        "probe": {"power": "weak probe power", "detuning": "usually \"0 Hz\""},
        "temperature": "e.g. \"20 mK\"",
    },
    "simulation": {
        "mech_truncation":
            f">= 3 (default {SimulationSection.mech_truncation})",
        "cavity_photons": f">= 1 (default {SimulationSection.cavity_photons}"
                          "): photons in all cavities together",
        "wigner_grid": {"half_width": "bare number > 0",
                        "points": "odd integer >= 3"},
    },
    "output": {"directory": "path"},
}
