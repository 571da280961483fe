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
from dataclasses import dataclass, field
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


# key -> (parser, default, semantic field named in error messages)
_KEYS: dict[str, tuple[Any, Any, str]] = {
    # electrostatics
    "nd_cm3": (_parse_float, 9e15, "donor_density"),
    "phi_v": (_parse_float, 0.36, "barrier_potential"),
    "eps_r": (_parse_float, 12.9, "relative_permittivity"),
    "dx_um": (_parse_float, 0.75, "electrode_distance"),
    "field_sign": (_parse_float, -1.0, "field_sign"),
    # Stark response
    "dipole_mev_um_per_v": (_parse_float, -0.009, "stark_dipole"),
    "polarizability_mev_um2_per_v2": (_parse_float, -0.015, "stark_polarizability"),
    "fit_field_limit_v_per_um": (_parse_float, 5.0, "fit_field_limit"),
    "screening": (_parse_float, 1.0, "screening"),
    # optical frame / coupled system (ordinary GHz in the file)
    "lambda0_nm": (_parse_float, 935.0, "reference_wavelength"),
    "q_factor": (_parse_float, 4000.0, "quality_factor"),
    "kappa_ghz": (_parse_float, 0.0, "cavity_decay"),  # 0 means derive from Q
    "g_ghz": (_parse_float, 20.0, "coupling"),
    "gamma_ghz": (_parse_float, 0.1, "dot_decay"),
    "cavity_offset_ghz": (_parse_float, 0.0, "cavity_freq"),
    "dot_offset_ghz": (_parse_float, 0.0, "dot_freq"),
    "amplitude": (_parse_float, 1.0, "amplitude"),
    "background": (_parse_float, 0.0, "background"),
    # optional coupling-versus-bias anchors (ordinary GHz)
    "g_anchor_v": (_parse_float_list, (), "g_anchor_voltages"),
    "g_anchor_ghz": (_parse_float_list, (), "g_anchor_couplings"),
    # drive
    "v_low_v": (_parse_float, 0.0, "v_low"),
    "v_high_v": (_parse_float, 10.0, "v_high"),
    "drive_mhz": (_parse_float, 150.0, "drive_frequency"),
    "duty": (_parse_float, 0.5, "duty"),
    "rc_cutoff_mhz": (_parse_float, 100.0, "rc_cutoff"),
    "cycles": (_parse_int, 9, "cycles"),
    "samples_per_cycle": (_parse_int, 256, "samples_per_cycle"),
    "probe_detuning_ghz": (_parse_float, 0.0, "probe_detuning"),
    # contrast calibration targets
    "contrast_targets": (_parse_targets, (), "contrast_targets"),
    # sweep grids
    "v_start": (_parse_float, 0.0, "v_start"),
    "v_stop": (_parse_float, 10.0, "v_stop"),
    "v_step": (_parse_float, 0.1, "v_step"),
    "detuning_start_ghz": (_parse_float, -150.0, "detuning_start"),
    "detuning_stop_ghz": (_parse_float, 150.0, "detuning_stop"),
    "detuning_points": (_parse_int, 601, "detuning_points"),
    "bias_v": (_parse_float, 0.0, "bias"),
    # figures of merit
    "active_volume_um3": (_parse_float, 0.2, "active_volume"),
    "energy_field_v_per_um": (_parse_float, 5.0, "energy_field"),
    # fitting
    "fit_free": (str, "coupling,cavity_decay,dot_decay,amplitude", "fit_free"),
    # reproducibility
    "seed": (_parse_int, 0, "seed"),
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
        try:
            return kappa_from_q(self.optical_frame())
        except DomainError as exc:
            raise ConfigError(f"invalid quality_factor (key q_factor): {exc}") from exc

    def cqed_params(self) -> CqedParams:
        return _build(CqedParams, {
            "cavity_freq": ("cavity_offset_ghz", TWO_PI * self["cavity_offset_ghz"]),
            "dot_freq": ("dot_offset_ghz", TWO_PI * self["dot_offset_ghz"]),
            "coupling": ("g_ghz", TWO_PI * self["g_ghz"]),
            "cavity_decay": ("kappa_ghz/q_factor", self.cavity_decay()),
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
        if len(volts) != len(gs) or len(volts) < 2:
            raise ConfigError(
                "g_anchor_v and g_anchor_ghz must list the same >= 2 anchors")
        return tuple((v, TWO_PI * g) for v, g in zip(volts, gs))

    def voltage_grid(self) -> np.ndarray:
        start, stop, step = self["v_start"], self["v_stop"], self["v_step"]
        if start < 0.0:
            raise ConfigError(f"v_start must be >= 0, got {start} (config key v_start)")
        if step <= 0.0 or stop < start:
            raise ConfigError("voltage sweep needs v_step > 0 and v_stop >= v_start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(n)

    def detuning_grid(self) -> np.ndarray:
        """Angular grid from the ordinary-GHz config window."""
        start, stop, points = (self["detuning_start_ghz"], self["detuning_stop_ghz"],
                               self["detuning_points"])
        if points < 2 or stop <= start:
            raise ConfigError(
                "detuning grid needs detuning_points >= 2 and detuning_stop > detuning_start")
        return TWO_PI * np.linspace(start, stop, points)

    def screening(self) -> float:
        s = self["screening"]
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"screening must be in [0, 1], got {s}")
        return s


def _build(cls, mapping: dict[str, tuple[str, Any]]):
    """Construct a validated domain object, rewrapping DomainErrors so the
    message carries the key of its subject: the field it names first."""
    kwargs = {name: value for name, (_, value) in mapping.items()}
    try:
        return cls(**kwargs)
    except DomainError as exc:
        msg = str(exc)
        hits = [(msg.find(_KEYS[key][2] if key in _KEYS else key), key)
                for _, (key, _) in mapping.items()]
        hits = [hit for hit in hits if hit[0] >= 0]
        if hits:
            key = min(hits, key=lambda hit: hit[0])[1]
            raise ConfigError(f"{msg} (config key {key})") from exc
        keys = "/".join(key for _, (key, _) in mapping.items())
        raise ConfigError(f"{msg} (config keys {keys})") from exc


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
        parser, _, semantic = _KEYS[key]
        try:
            out[key] = parser(value)
        except ConfigError as exc:
            raise ConfigError(f"{origin}:{lineno}: {semantic} (key {key}): {exc}") from exc
    return out


def parse_config(*paths: Path | str) -> RunConfig:
    """Load one or more config files over the defaults, later files
    overriding earlier ones, and validate the result."""
    values = {key: default for key, (_, default, _) in _KEYS.items()}
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
    for v, ratio in cfg["contrast_targets"]:
        if not (ratio >= 1.0 and v >= 0.0):
            raise ConfigError(
                f"contrast_targets entries need V >= 0 and ratio >= 1, got {v}:{ratio}")
    if cfg["bias_v"] < 0.0:
        raise ConfigError(f"bias must be >= 0, got {cfg['bias_v']} (config key bias_v)")
    if cfg["kappa_ghz"] < 0.0:
        raise ConfigError("cavity_decay (key kappa_ghz) must be >= 0; 0 derives it from q_factor")
    if cfg["active_volume_um3"] <= 0.0:
        raise ConfigError("active_volume (key active_volume_um3) must be > 0")
    if cfg["energy_field_v_per_um"] < 0.0:
        raise ConfigError("energy_field (key energy_field_v_per_um) must be >= 0")
    if cfg["fit_field_limit_v_per_um"] <= 0.0:
        raise ConfigError("fit_field_limit (key fit_field_limit_v_per_um) must be > 0")
    if abs(cfg["field_sign"]) != 1.0:
        raise ConfigError("field_sign (key field_sign) must be +1 or -1")
