"""Run configuration: flat key = value files with typed, validated keys.

A config file is UTF-8 text, one ``key = value`` assignment per line,
``#`` comments and blank lines allowed.  Unknown and duplicated keys are
rejected.  Every key has a documented default, so an empty file is a
valid configuration.  Frequencies given in config files are ordinary
(nu = omega / 2 pi) GHz or MHz; the library converts to angular rates
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .constants import TWO_PI
from .cqed import CqedParams, OpticalFrame, kappa_from_q
from .electrostatics import DriveSpec, ElectrostaticParams, StarkCoefficients
from .errors import ConfigError, DomainError


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got '{text}'") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got '{text}'")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got '{text}'") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(_parse_float(part.strip()) for part in text.split(","))


def _parse_targets(text: str) -> tuple[tuple[float, float], ...]:
    """'10:1.5, 14:2.0' -> ((10.0, 1.5), (14.0, 2.0))."""
    if not text.strip():
        return ()
    out = []
    for part in text.split(","):
        token = part.strip()
        if ":" not in token:
            raise ConfigError(f"expected 'V:ratio' pairs, got '{token}'")
        v_text, r_text = token.split(":", 1)
        out.append((_parse_float(v_text.strip()), _parse_float(r_text.strip())))
    return tuple(out)


# key -> (parser, default)
_KEYS: dict[str, tuple[Any, Any]] = {
    # electrostatics
    "nd_cm3": (_parse_float, 9e15),
    "phi_v": (_parse_float, 0.36),
    "eps_r": (_parse_float, 12.9),
    "dx_um": (_parse_float, 0.75),
    "field_sign": (_parse_float, -1.0),
    # Stark response
    "dipole_mev_um_per_v": (_parse_float, -0.009),
    "polarizability_mev_um2_per_v2": (_parse_float, -0.015),
    "fit_field_limit_v_per_um": (_parse_float, 5.0),
    "screening": (_parse_float, 1.0),
    # optical frame / coupled system (ordinary GHz in the file)
    "lambda0_nm": (_parse_float, 935.0),
    "q_factor": (_parse_float, 4000.0),
    "kappa_ghz": (_parse_float, 0.0),  # 0 means derive from Q
    "g_ghz": (_parse_float, 20.0),
    "gamma_ghz": (_parse_float, 0.1),
    "cavity_offset_ghz": (_parse_float, 0.0),
    "dot_offset_ghz": (_parse_float, 0.0),
    "amplitude": (_parse_float, 1.0),
    "background": (_parse_float, 0.0),
    # optional coupling-versus-bias anchors (ordinary GHz)
    "g_anchor_v": (_parse_float_list, ()),
    "g_anchor_ghz": (_parse_float_list, ()),
    # drive
    "v_low_v": (_parse_float, 0.0),
    "v_high_v": (_parse_float, 10.0),
    "drive_mhz": (_parse_float, 150.0),
    "duty": (_parse_float, 0.5),
    "rc_cutoff_mhz": (_parse_float, 100.0),
    "cycles": (_parse_int, 9),
    "samples_per_cycle": (_parse_int, 256),
    "probe_detuning_ghz": (_parse_float, 0.0),
    # contrast calibration targets
    "contrast_targets": (_parse_targets, ()),
    # sweep grids
    "v_start": (_parse_float, 0.0),
    "v_stop": (_parse_float, 10.0),
    "v_step": (_parse_float, 0.1),
    "detuning_start_ghz": (_parse_float, -150.0),
    "detuning_stop_ghz": (_parse_float, 150.0),
    "detuning_points": (_parse_int, 601),
    "bias_v": (_parse_float, 0.0),
    # figures of merit
    "active_volume_um3": (_parse_float, 0.2),
    "energy_field_v_per_um": (_parse_float, 5.0),
    # fitting
    "fit_free": (str, "coupling,cavity_decay,dot_decay,amplitude"),
    # reproducibility
    "seed": (_parse_int, 0),
}


@dataclass
class RunConfig:
    """Resolved configuration: defaults overlaid with file assignments."""

    values: dict[str, Any] = field(default_factory=dict)
    sources: tuple[Path, ...] = ()

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    # -- domain object builders -------------------------------------------

    def electrostatic_params(self) -> ElectrostaticParams:
        return _build(ElectrostaticParams, {
            "donor_density_cm3": ("nd_cm3", self["nd_cm3"]),
            "barrier_potential_v": ("phi_v", self["phi_v"]),
            "relative_permittivity": ("eps_r", self["eps_r"]),
            "electrode_distance_um": ("dx_um", self["dx_um"]),
        })

    def stark_coefficients(self) -> StarkCoefficients:
        return _build(StarkCoefficients, {
            "dipole_mev_um_per_v": ("dipole_mev_um_per_v", self["dipole_mev_um_per_v"]),
            "polarizability_mev_um2_per_v2": (
                "polarizability_mev_um2_per_v2", self["polarizability_mev_um2_per_v2"]),
        })

    def optical_frame(self) -> OpticalFrame:
        return _build(OpticalFrame, {
            "reference_wavelength_nm": ("lambda0_nm", self["lambda0_nm"]),
            "quality_factor": ("q_factor", self["q_factor"]),
        })

    def cavity_decay(self) -> float:
        """Angular kappa: explicit kappa_ghz wins over the Q-derived value."""
        if self["kappa_ghz"] > 0.0:
            return TWO_PI * self["kappa_ghz"]
        return kappa_from_q(self.optical_frame())

    def cqed_params(self) -> CqedParams:
        return _build(CqedParams, {
            "cavity_freq": ("cavity_offset_ghz", TWO_PI * self["cavity_offset_ghz"]),
            "dot_freq": ("dot_offset_ghz", TWO_PI * self["dot_offset_ghz"]),
            "coupling": ("g_ghz", TWO_PI * self["g_ghz"]),
            "cavity_decay": ("kappa_ghz" if self["kappa_ghz"] > 0.0 else "q_factor",
                             self.cavity_decay()),
            "dot_decay": ("gamma_ghz", TWO_PI * self["gamma_ghz"]),
            "amplitude": ("amplitude", self["amplitude"]),
            "background": ("background", self["background"]),
        })

    def drive_spec(self) -> DriveSpec:
        return _build(DriveSpec, {
            "v_low": ("v_low_v", self["v_low_v"]),
            "v_high": ("v_high_v", self["v_high_v"]),
            "frequency_mhz": ("drive_mhz", self["drive_mhz"]),
            "duty": ("duty", self["duty"]),
            "rc_cutoff_mhz": ("rc_cutoff_mhz", self["rc_cutoff_mhz"]),
            "cycles": ("cycles", self["cycles"]),
            "samples_per_cycle": ("samples_per_cycle", self["samples_per_cycle"]),
        })

    def g_anchors(self) -> tuple[tuple[float, float], ...] | None:
        """Optional (V, angular g) anchors; None when not configured."""
        volts = self["g_anchor_v"]
        gs = self["g_anchor_ghz"]
        if not volts and not gs:
            return None
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise ConfigError(f"g_anchor_v must be strictly increasing, got {volts} "
                              "(config key g_anchor_v)")
        if len(gs) != len(volts) or len(gs) < 2 or min(gs) < 0.0:
            raise ConfigError(f"g_anchor_ghz must give one coupling >= 0 per g_anchor_v "
                              f"voltage, at least two, got {gs} (config key g_anchor_ghz)")
        return tuple((v, TWO_PI * g) for v, g in zip(volts, gs))

    def voltage_grid(self) -> np.ndarray:
        start, stop, step = self["v_start"], self["v_stop"], self["v_step"]
        if start < 0.0:
            raise ConfigError(f"v_start must be >= 0, got {start} (config key v_start)")
        if step <= 0.0:
            raise ConfigError(f"v_step must be > 0, got {step} (config key v_step)")
        if stop < start:
            raise ConfigError(f"v_stop must be >= v_start, got {stop} (config key v_stop)")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(n)

    def detuning_grid(self) -> np.ndarray:
        """Angular grid from the ordinary-GHz config window."""
        start, stop, points = (self["detuning_start_ghz"], self["detuning_stop_ghz"],
                               self["detuning_points"])
        if points < 2:
            raise ConfigError(f"detuning_points must be >= 2, got {points} "
                              "(config key detuning_points)")
        if stop <= start:
            raise ConfigError(f"detuning_stop must be > detuning_start, got {stop} "
                              "(config key detuning_stop_ghz)")
        return TWO_PI * np.linspace(start, stop, points)

    def screening(self) -> float:
        s = self["screening"]
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"screening must be in [0, 1], got {s} (config key screening)")
        return s

    def fit_free(self) -> list[str]:
        """CqedParams field names freed by fit --kind spectrum, in order."""
        names = [name.strip() for name in self["fit_free"].split(",") if name.strip()]
        known = [f.name for f in fields(CqedParams)]
        if not names or not set(names) <= set(known):
            raise ConfigError(f"fit_free must list some of {', '.join(known)}, "
                              f"got '{self['fit_free']}' (config key fit_free)")
        return names


def _build(cls, mapping: dict[str, tuple[str, Any]]):
    """Construct a validated domain object from field -> (config key,
    value); a DomainError is re-raised naming the key of its field."""
    try:
        return cls(**{name: value for name, (_, value) in mapping.items()})
    except DomainError as exc:
        raise ConfigError(f"{exc} (config key {mapping[exc.field][0]})") from exc


def parse_assignments(text: str, origin: str) -> dict[str, Any]:
    """Parse key = value lines; reject unknown or duplicated keys."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key '{key}'")
        parser, _ = _KEYS[key]
        try:
            out[key] = parser(value)
        except ConfigError as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc} (config key {key})") from exc
    return out


def parse_config(*paths: Path | str) -> RunConfig:
    """Load one or more config files over the defaults, later files
    overriding earlier ones, and validate the result."""
    values = {key: default for key, (_, default) in _KEYS.items()}
    resolved = []
    for path in paths:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_assignments(p.read_text(encoding="utf-8"), str(p)))
        resolved.append(p)
    cfg = RunConfig(values=values, sources=tuple(resolved))
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Build every domain object once so bad values fail at parse time
    with the offending key in the message."""
    cfg.electrostatic_params()
    cfg.stark_coefficients()
    cfg.optical_frame()
    cfg.cqed_params()
    cfg.drive_spec()
    cfg.g_anchors()
    cfg.voltage_grid()
    cfg.detuning_grid()
    cfg.screening()
    cfg.fit_free()
    targets = cfg["contrast_targets"]
    for v, ratio in targets:
        if len(targets) < 2 or not (ratio >= 1.0 and v >= 0.0):
            raise ConfigError(f"contrast_targets need two or more V:ratio pairs with V >= 0 "
                              f"and ratio >= 1, got {v}:{ratio} (config key contrast_targets)")
    if cfg["bias_v"] < 0.0:
        raise ConfigError(f"bias must be >= 0, got {cfg['bias_v']} (config key bias_v)")
    if cfg["kappa_ghz"] < 0.0:
        raise ConfigError("cavity_decay must be >= 0, 0 derives it from Q (config key kappa_ghz)")
    if cfg["active_volume_um3"] <= 0.0:
        raise ConfigError("active_volume must be > 0 (config key active_volume_um3)")
    if cfg["energy_field_v_per_um"] < 0.0:
        raise ConfigError("energy_field must be >= 0 (config key energy_field_v_per_um)")
    if cfg["fit_field_limit_v_per_um"] <= 0.0:
        raise ConfigError("fit_field_limit must be > 0 (config key fit_field_limit_v_per_um)")
    if abs(cfg["field_sign"]) != 1.0:
        raise ConfigError("field_sign must be +1 or -1 (config key field_sign)")
