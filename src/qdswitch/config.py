"""Run configuration: flat key = value files with typed, validated keys.

A config file is UTF-8 text, one ``key = value`` assignment per line,
``#`` comments and blank lines allowed.  Unknown and duplicated keys are
rejected.  Every key has a documented default, so an empty file is a
valid configuration.  Frequencies given in config files are ordinary
(nu = omega / 2 pi) GHz or MHz; the library converts to angular rates
internally.  A key that builds a library type is declared once, in
_FIELDS, with its field's default unless it gives its own.  A bad value
raises DomainError with field set to its key; parse_config turns it into
ConfigError("<message> (config key <key>)").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .constants import TWO_PI
from .cqed import DETUNING_RANGE_GHZ, INTENSITY_RANGE, CqedParams, OpticalFrame, kappa_from_q
from .electrostatics import (BIAS_RANGE_V, DEFAULT_FIELD_SIGN, POINTS_MAX, SCREENING_RANGE,
                             DriveSpec, ElectrostaticParams, EnergyBudget, StarkCoefficients)
from .errors import ConfigError, DomainError, check_array, check_value, read_text


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


# Ordinary-GHz ranges of the CqedParams and detuning keys; the CqedParams fields
# keep the wider domains fit trial points need.
_DETUNING_GHZ, _RATE_GHZ = ("[]", DETUNING_RANGE_GHZ), (1e-6, 1e6)
_COUPLING_GHZ, _BIAS_V = ("[]", (0.0, 1e6)), ("[]", BIAS_RANGE_V)

# type -> {field: key, or (key, default[, (kind, bound)]) where the field has no
# default, a run needs another (it always has a Q), or the key has a range of its
# own (a default of None keeps the field's)}; the default's type, int or float,
# picks the parser.
_FIELDS: dict[type, dict[str, str | tuple]] = {
    ElectrostaticParams: {
        "donor_density_cm3": ("nd_cm3", 9e15), "barrier_potential_v": ("phi_v", 0.36),
        "relative_permittivity": ("eps_r", 12.9), "electrode_distance_um": ("dx_um", 0.75)},
    StarkCoefficients: {
        "dipole_mev_um_per_v": ("dipole_mev_um_per_v", -0.009),
        "polarizability_mev_um2_per_v2": ("polarizability_mev_um2_per_v2", -0.015)},
    OpticalFrame: {"reference_wavelength_nm": "lambda0_nm",
                   "quality_factor": ("q_factor", 4000.0)},
    CqedParams: {"cavity_freq": ("cavity_offset_ghz", 0.0, _DETUNING_GHZ),
                 "dot_freq": ("dot_offset_ghz", 0.0, _DETUNING_GHZ),
                 "coupling": ("g_ghz", 20.0, _COUPLING_GHZ),
                 "dot_decay": ("gamma_ghz", 0.1, ("[]", _RATE_GHZ)),
                 "amplitude": ("amplitude", None, ("[]", (1e-30, 1e30))),
                 "background": ("background", None, ("[]", INTENSITY_RANGE))},
    DriveSpec: {"v_low": ("v_low_v", 0.0), "v_high": ("v_high_v", 10.0), "duty": "duty",
                "frequency_mhz": ("drive_mhz", 150.0), "rc_cutoff_mhz": "rc_cutoff_mhz",
                "cycles": "cycles", "samples_per_cycle": "samples_per_cycle"},
    EnergyBudget: {"active_volume_um3": ("active_volume_um3", 0.2),
                   "field_v_per_um": ("energy_field_v_per_um", 5.0)},
}


def _entries(cls) -> list[tuple]:
    """(field, key, default[, (kind, bound)]) for each _FIELDS entry of cls."""
    defaults = {f.name: f.default for f in fields(cls)}
    entries = {name: (e, None) if isinstance(e, str) else e for name, e in _FIELDS[cls].items()}
    return [(name, key, defaults[name] if default is None else default, *checks)
            for name, (key, default, *checks) in entries.items()]


# key -> (parser, default[, (kind, bound) checked as the key's line is read]): the
# _FIELDS keys, then the keys that build no library type.
_KEYS: dict[str, tuple] = {
    **{key: (_parse_int if type(default) is int else _parse_float, default, *checks)
       for cls in _FIELDS for _, key, default, *checks in _entries(cls)},
    "field_sign": (_parse_float, DEFAULT_FIELD_SIGN),
    # Stark response
    "fit_field_limit_v_per_um": (_parse_float, 5.0, ("[]", (1e-3, 1e4))),
    "screening": (_parse_float, 1.0, ("[]", SCREENING_RANGE)),
    # coupled system and its optional coupling-versus-bias anchors (ordinary GHz)
    "kappa_ghz": (_parse_float, 0.0),  # 0 means derive from Q; else in _RATE_GHZ
    "g_anchor_v": (_parse_float_list, ()), "g_anchor_ghz": (_parse_float_list, ()),
    "probe_detuning_ghz": (_parse_float, 0.0, _DETUNING_GHZ),
    "contrast_targets": (_parse_targets, ()),  # contrast calibration targets
    # sweep grids
    "v_start": (_parse_float, 0.0, _BIAS_V),
    "v_stop": (_parse_float, 10.0, _BIAS_V),
    "v_step": (_parse_float, 0.1, ("[]", (1e-6, 1e5))),
    "detuning_start_ghz": (_parse_float, -150.0, _DETUNING_GHZ),
    "detuning_stop_ghz": (_parse_float, 150.0, _DETUNING_GHZ),
    "detuning_points": (_parse_int, 601, ("int[]", (2, POINTS_MAX))),
    "bias_v": (_parse_float, 0.0, _BIAS_V),
    "fit_free": (str, "coupling,cavity_decay,dot_decay,amplitude"),
    "seed": (_parse_int, 0),  # recorded in the manifest only
}


@dataclass
class RunConfig:
    """Resolved configuration: defaults overlaid with file assignments."""

    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    # -- domain object builders -------------------------------------------

    def _build(self, cls, **computed):
        """Construct cls from its _FIELDS keys, a *_ghz one (ordinary GHz) x 2 pi,
        and computed field=(key, value) pairs; a DomainError names that key."""
        pairs = {name: (key, TWO_PI * self[key] if key.endswith("_ghz") else self[key])
                 for name, key, *_ in _entries(cls)} | computed
        try:
            return cls(**{name: value for name, (_, value) in pairs.items()})
        except DomainError as exc:
            raise DomainError(str(exc), field=pairs[exc.field][0]) from exc

    def electrostatic_params(self) -> ElectrostaticParams:
        return self._build(ElectrostaticParams)

    def stark_coefficients(self) -> StarkCoefficients:
        return self._build(StarkCoefficients)

    def optical_frame(self) -> OpticalFrame:
        return self._build(OpticalFrame)

    def cavity_decay(self) -> float:
        """Angular kappa: an explicit kappa_ghz wins over the Q-derived value."""
        kappa = self["kappa_ghz"]
        if kappa == 0.0:
            return kappa_from_q(self.optical_frame())
        return TWO_PI * check_value("kappa_ghz", kappa, "[]", _RATE_GHZ, field="kappa_ghz")

    def cqed_params(self) -> CqedParams:
        return self._build(CqedParams, cavity_decay=("kappa_ghz", self.cavity_decay()))

    def drive_spec(self) -> DriveSpec:
        return self._build(DriveSpec)

    def energy_budget(self) -> EnergyBudget:
        return self._build(EnergyBudget, relative_permittivity=("eps_r", self["eps_r"]))

    def g_anchors(self) -> tuple[tuple[float, float], ...] | None:
        """Optional (V, angular g) anchors; None when not configured."""
        volts = self["g_anchor_v"]
        gs = self["g_anchor_ghz"]
        if not volts and not gs:
            return None
        check_array("g_anchor_v", volts, (_BIAS_V, "increasing"), field="g_anchor_v")
        check_array("g_anchor_ghz", gs, (2, _COUPLING_GHZ), field="g_anchor_ghz")
        if len(gs) != len(volts):
            raise DomainError(f"g_anchor_ghz must give one coupling per g_anchor_v voltage, "
                              f"got {len(gs)} for {len(volts)}", field="g_anchor_ghz")
        return tuple((v, TWO_PI * g) for v, g in zip(volts, gs))

    def voltage_grid(self) -> np.ndarray:
        start, stop, step = self["v_start"], self["v_stop"], self["v_step"]
        if stop < start:
            raise DomainError(f"v_stop must be >= v_start, got {stop}", field="v_stop")
        points = math.floor((stop - start) / step + 1e-9) + 1
        if points > POINTS_MAX:
            raise DomainError(f"v_step must give at most {POINTS_MAX} grid points "
                              f"from v_start to v_stop, got {points}", field="v_step")
        return start + step * np.arange(points)

    def detuning_grid(self) -> np.ndarray:
        """Angular grid from the ordinary-GHz config window."""
        start, stop, points = (self["detuning_start_ghz"], self["detuning_stop_ghz"],
                               self["detuning_points"])
        if stop <= start:
            raise DomainError(f"detuning_stop must be > detuning_start, got {stop}",
                              field="detuning_stop_ghz")
        return TWO_PI * np.linspace(start, stop, points)

    def screening(self) -> float:
        return self["screening"]

    def fit_free(self) -> list[str]:
        """CqedParams field names freed by fit --kind spectrum, in order."""
        names = [name.strip() for name in self["fit_free"].split(",") if name.strip()]
        known = [f.name for f in fields(CqedParams)]
        if not names or not set(names) <= set(known):
            raise DomainError(f"fit_free must list some of {', '.join(known)}, "
                              f"got '{self['fit_free']}'", field="fit_free")
        return names


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
        parser, _, *checks = _KEYS[key]
        try:
            out[key] = parser(value)
            for kind, bound in checks:
                check_value(key, out[key], kind, bound, field=key)
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc} (config key {key})") from exc
    return out


def parse_config(*paths: Path | str) -> RunConfig:
    """Load one or more config files over the defaults, later files
    overriding earlier ones, and validate the result.  A bad value raises
    ConfigError("<message> (config key <key>)")."""
    values = {key: spec[1] for key, spec in _KEYS.items()}
    for path in paths:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {str(path)!r}")
        values.update(parse_assignments(read_text(p, ConfigError), str(p)))
    cfg = RunConfig(values=values)
    try:
        _validate(cfg)
    except DomainError as exc:
        raise ConfigError(f"{exc} (config key {exc.field})") from exc
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Build every domain object once so bad values fail at parse time,
    raising DomainError with field set to the offending key."""
    for build in (cfg.electrostatic_params, cfg.stark_coefficients, cfg.optical_frame,
                  cfg.cqed_params, cfg.drive_spec, cfg.energy_budget, cfg.g_anchors,
                  cfg.voltage_grid, cfg.detuning_grid, cfg.fit_free):
        build()
    if cfg["contrast_targets"]:
        volts, ratios = zip(*cfg["contrast_targets"])
        check_array("contrast_targets voltages", volts, (2, _BIAS_V), field="contrast_targets")
        check_array("contrast_targets ratios", ratios, (("[]", (1.0, 1e6)),),
                    field="contrast_targets")
    if abs(cfg["field_sign"]) != 1.0:
        raise DomainError("field_sign must be +1 or -1", field="field_sign")
