"""Every rejected config value names its own key.

Single-key overrides on top of the paper preset: a non-finite number for
every float key, and an out-of-range or malformed value for every key
that has a range, must raise ConfigError ending "(config key <key>)"; on
the command line that is exit 1 with no CSV.  Relational violations that
name the other key of their pair (v_low_v above v_high_v,
detuning_start_ghz above detuning_stop_ghz) are left out.
"""

import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswitch import (
    ConfigError,
    CqedParams,
    DomainError,
    DriveSpec,
    ElectrostaticParams,
    OpticalFrame,
    StarkCoefficients,
)
from qdswitch.cli import _preset_path, main
from qdswitch.config import _KEYS, _parse_float, _parse_float_list, parse_config
from qdswitch.constants import TWO_PI
from qdswitch.cqed import COUPLING_MAX

FLOAT_KEYS = [key for key, spec in _KEYS.items()
              if spec[0] in (_parse_float, _parse_float_list)]

NON_FINITE = ([(key, text) for key in FLOAT_KEYS for text in ("nan", "inf", "-inf")]
              + [("contrast_targets", "10:nan, 14:2"), ("contrast_targets", "inf:1.5, 14:2"),
                 ("contrast_targets", "10:1.5, 14:-inf")])

OUT_OF_RANGE = [
    ("nd_cm3", "0"), ("nd_cm3", "-1"), ("phi_v", "0"), ("eps_r", "0.5"), ("dx_um", "0"),
    ("field_sign", "0.5"), ("field_sign", "0"), ("fit_field_limit_v_per_um", "0"),
    ("screening", "1.5"), ("screening", "-0.1"),
    ("lambda0_nm", "0"), ("q_factor", "0"), ("kappa_ghz", "-1"), ("g_ghz", "-1"),
    ("gamma_ghz", "0"), ("amplitude", "0"), ("background", "-1"),
    ("g_anchor_v", "5, 3"), ("g_anchor_v", "3, 3"), ("g_anchor_ghz", "20, -1"),
    ("v_low_v", "-1"), ("v_high_v", "-1"), ("drive_mhz", "0"), ("duty", "1"),
    ("duty", "0"), ("rc_cutoff_mhz", "0"), ("cycles", "2"), ("samples_per_cycle", "63"),
    ("contrast_targets", "10:0.5, 14:2"), ("contrast_targets", "-1:1.5, 14:2"),
    ("contrast_targets", "10:1.5"),
    ("v_start", "-1"), ("v_stop", "-1"), ("v_step", "0"), ("v_step", "-0.1"),
    ("detuning_stop_ghz", "-150"), ("detuning_points", "1"), ("bias_v", "-1"),
    ("active_volume_um3", "0"), ("energy_field_v_per_um", "-1"),
    ("fit_free", "bogus"), ("fit_free", ","), ("fit_free", "coupling, kappa"),
    # malformed values
    ("phi_v", "high"), ("cycles", "2.5"), ("seed", "x"), ("contrast_targets", "10"),
]

# Per-key strategies of out-of-range numbers, written with repr.
_NEGATIVE = st.floats(max_value=-5e-324)
_NOT_POSITIVE = st.floats(max_value=0.0)
RANGE_STRATEGIES = {
    "nd_cm3": _NOT_POSITIVE, "phi_v": _NOT_POSITIVE, "dx_um": _NOT_POSITIVE,
    "eps_r": st.floats(max_value=1.0, exclude_max=True),
    "field_sign": st.floats().filter(lambda x: abs(x) != 1.0),
    "fit_field_limit_v_per_um": _NOT_POSITIVE,
    "screening": _NEGATIVE | st.floats(min_value=1.0, exclude_min=True),
    "lambda0_nm": _NOT_POSITIVE, "q_factor": _NOT_POSITIVE, "kappa_ghz": _NEGATIVE,
    "g_ghz": _NEGATIVE, "gamma_ghz": _NOT_POSITIVE, "amplitude": _NOT_POSITIVE,
    "background": _NEGATIVE, "v_low_v": _NEGATIVE, "v_high_v": _NEGATIVE,
    "drive_mhz": _NOT_POSITIVE, "duty": _NOT_POSITIVE | st.floats(min_value=1.0),
    "rc_cutoff_mhz": _NOT_POSITIVE, "v_start": _NEGATIVE, "v_stop": _NEGATIVE,
    "v_step": _NOT_POSITIVE, "detuning_stop_ghz": st.floats(max_value=-150.0),
    "bias_v": _NEGATIVE, "active_volume_um3": _NOT_POSITIVE,
    "energy_field_v_per_um": _NEGATIVE,
    "cycles": st.integers(max_value=2), "samples_per_cycle": st.integers(max_value=63),
    "detuning_points": st.integers(max_value=1),
}


def _override(tmp_path, key, text):
    path = tmp_path / "override.cfg"
    path.write_text(f"{key} = {text}\n", encoding="utf-8")
    return path


def _assert_names_key(tmp_path, key, text):
    with pytest.raises(ConfigError) as info:
        parse_config(_preset_path("paper"), _override(tmp_path, key, text))
    assert str(info.value).endswith(f"(config key {key})")


@pytest.mark.parametrize("key, text", NON_FINITE + OUT_OF_RANGE)
def test_config_rejection_names_its_key(tmp_path, key, text):
    _assert_names_key(tmp_path, key, text)


def test_contract_table_covers_every_key():
    ranged = {key for key, _ in OUT_OF_RANGE} | set(RANGE_STRATEGIES)
    no_range = {"dipole_mev_um_per_v", "polarizability_mev_um2_per_v2",
                "cavity_offset_ghz", "dot_offset_ghz", "probe_detuning_ghz",
                "detuning_start_ghz"}
    assert ranged | no_range | set(FLOAT_KEYS) == set(_KEYS)


def test_readme_config_table_lists_every_key_with_its_default():
    # Each row names its keys and their defaults in backticks, in order;
    # "unset" is an empty list, and "in the preset" gives the preset's
    # value of a key that has none by default.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n")[1]
    preset = parse_config(_preset_path("paper"))
    documented = {}
    for line in table[:table.index("\n\n")].splitlines():
        keys, defaults, _ = line.strip("|").split(" | ", 2)
        keys, texts = re.findall("`([^`]+)`", keys), re.findall("`([^`]+)`", defaults)
        for key, text in zip(keys, texts or [""] * len(keys)):
            value = _KEYS[key][0](text)
            if defaults.endswith("in the preset"):
                assert preset[key] == value
                value = ()
            documented[key] = value
    assert documented == {key: spec[1] for key, spec in _KEYS.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RANGE_STRATEGIES)).flatmap(
    lambda key: st.tuples(st.just(key), RANGE_STRATEGIES[key])))
def test_config_out_of_range_numbers_name_their_key(tmp_path_factory, case):
    key, value = case
    _assert_names_key(tmp_path_factory.mktemp("cfg"), key, repr(value))


@pytest.mark.parametrize("command, key, text", [
    ("metrics", "nd_cm3", "-1"),
    ("stark", "v_step", "0"),
    ("spectrum", "detuning_points", "1"),
    ("spectrum", "g_anchor_v", "5, 3"),
    ("switch", "duty", "1"),
    ("switch", "g_ghz", "nan"),
    ("switch", "contrast_targets", "10:1.5"),
    ("fit --kind contrast", "screening", "1.5"),
    ("fit --kind spectrum --data spectrum.csv", "fit_free", "bogus"),
    ("fit --kind spectrum --data spectrum.csv", "fit_free", ","),
])
def test_cli_config_rejection_exits_1_naming_its_key(tmp_path, capsys, command, key, text):
    out = tmp_path / "o"
    code = main([*command.split(), "--preset", "paper", "--config",
                 str(_override(tmp_path, key, text)), "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert not list(out.glob("*.csv"))


# -- every validated type names the field it rejects ---------------------------

_VALID = {
    ElectrostaticParams: dict(donor_density_cm3=9e15, barrier_potential_v=0.36,
                              relative_permittivity=12.9, electrode_distance_um=0.75),
    StarkCoefficients: dict(dipole_mev_um_per_v=-0.009,
                            polarizability_mev_um2_per_v2=-0.015),
    DriveSpec: dict(v_low=0.0, v_high=10.0, frequency_mhz=150.0, duty=0.5,
                    rc_cutoff_mhz=100.0, cycles=9, samples_per_cycle=256),
    CqedParams: dict(cavity_freq=0.0, dot_freq=0.0, coupling=125.0, cavity_decay=250.0,
                     dot_decay=0.6, amplitude=1.0, background=0.0),
    OpticalFrame: dict(reference_wavelength_nm=935.0, quality_factor=4000.0),
}
_BAD = {
    ElectrostaticParams: {"donor_density_cm3": [0.0, -1.0, math.nan],
                          "barrier_potential_v": [0.0, math.nan],
                          "relative_permittivity": [0.5, math.nan],
                          "electrode_distance_um": [0.0, math.nan]},
    StarkCoefficients: {"dipole_mev_um_per_v": [math.nan, math.inf],
                        "polarizability_mev_um2_per_v2": [math.nan, -math.inf]},
    DriveSpec: {"v_low": [-1.0, math.nan, math.inf], "v_high": [-1.0, math.nan],
                "frequency_mhz": [0.0, math.nan, 1e-310, 1e3 / sys.float_info.max],
                "duty": [0.0, 1.0, math.nan],
                "rc_cutoff_mhz": [0.0, math.inf, 1e308, sys.float_info.max / TWO_PI],
                "cycles": [2, 3.5, 10 ** 308],
                "samples_per_cycle": [63, 64.5]},
    # The mode offsets are unconstrained.
    CqedParams: {"coupling": [-1.0, math.nextafter(COUPLING_MAX, math.inf)],
                 "cavity_decay": [0.0, math.nan],
                 "dot_decay": [0.0, math.nan], "amplitude": [0.0, math.nan],
                 "background": [-1.0]},
    OpticalFrame: {"reference_wavelength_nm": [0.0, math.nan],
                   "quality_factor": [0.0, math.nan]},
}


@pytest.mark.parametrize("cls, name, bad", [
    (cls, name, bad) for cls, table in _BAD.items()
    for name, values in table.items() for bad in values])
def test_domain_error_carries_the_rejected_field(cls, name, bad):
    cls(**_VALID[cls])
    with pytest.raises(DomainError) as info:
        cls(**{**_VALID[cls], name: bad})
    assert info.value.field == name


def test_bad_value_table_covers_every_checked_field():
    for cls, table in _BAD.items():
        unchecked = {"cavity_freq", "dot_freq"} if cls is CqedParams else set()
        assert set(table) | unchecked == {f.name for f in fields(cls)}


def test_extreme_accepted_values_keep_derived_quantities_finite():
    low_drive = math.nextafter(1e3 / sys.float_info.max, math.inf)
    high_cutoff = math.nextafter(sys.float_info.max / TWO_PI, -math.inf)
    assert DriveSpec(**{**_VALID[DriveSpec], "rc_cutoff_mhz": high_cutoff}).tau_ns > 0.0
    # Any cycles >= 3 times that period overflows, so only the span check,
    # which compares two fields, rejects the lowest drive frequency.
    with pytest.raises(DomainError) as info:
        DriveSpec(**{**_VALID[DriveSpec], "frequency_mhz": low_drive})
    assert info.value.field == "cycles"
    assert math.isfinite(DriveSpec.period_ns.fget(SimpleNamespace(frequency_mhz=low_drive)))
    cqed = CqedParams(**{**_VALID[CqedParams], "coupling": COUPLING_MAX})
    assert math.isfinite(cqed.coupling ** 2)


def test_largest_ordinary_coupling_stays_in_the_angular_domain(tmp_path):
    # g_ghz and g_anchor_ghz at their bound both convert (x 2 pi) to a coupling
    # CqedParams accepts.
    largest = COUPLING_MAX / TWO_PI
    assert TWO_PI * largest <= COUPLING_MAX
    path = tmp_path / "edge.cfg"
    path.write_text(f"g_ghz = {largest!r}\ng_anchor_v = 0, 5\ng_anchor_ghz = 20, {largest!r}\n",
                    encoding="utf-8")
    cfg = parse_config(_preset_path("paper"), path)
    assert cfg.cqed_params().coupling == TWO_PI * largest
    assert cfg.g_anchors()[1] == (5.0, cfg.cqed_params().coupling)


# Finite config values whose angular form (x 2 pi) overflows to inf, and a
# coupling whose angular form is finite but whose square overflows.
@pytest.mark.parametrize("command", ["spectrum", "metrics", "switch"])
@pytest.mark.parametrize("key, text", [
    *(pytest.param(key, "1e308", id=key)
      for key in ["g_ghz", "cavity_offset_ghz", "dot_offset_ghz", "kappa_ghz", "gamma_ghz",
                  "probe_detuning_ghz", "detuning_start_ghz", "detuning_stop_ghz"]),
    pytest.param("g_ghz", "1e200", id="g_ghz-1e200"),
])
def test_cli_overflowing_angular_value_exits_1_naming_its_key(tmp_path, capsys, command,
                                                              key, text):
    out = tmp_path / "o"
    code = main([command, "--preset", "paper", "--config",
                 str(_override(tmp_path, key, text)), "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert not list(out.glob("*.csv"))


# Finite drive values whose derived times overflow: tau_ns 0, or an inf trace span.
@pytest.mark.parametrize("key, text", [("rc_cutoff_mhz", "1e308"), ("rc_cutoff_mhz", "3e307"),
                                       ("drive_mhz", "1e-310"),
                                       pytest.param("cycles", "1" + "0" * 308, id="cycles-1e308")])
def test_cli_switch_overflowing_drive_time_exits_1_naming_its_key(tmp_path, capsys, key,
                                                                  text):
    out = tmp_path / "o"
    code = main(["switch", "--preset", "paper", "--config",
                 str(_override(tmp_path, key, text)), "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(CqedParams)])
def test_cqed_params_checks_finiteness_before_bounds(name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be finite") as info:
        CqedParams(**{**_VALID[CqedParams], name: bad})
    assert info.value.field == name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["cycles", "samples_per_cycle"])
def test_drive_spec_rejects_a_non_finite_size_naming_it(name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an integer") as info:
        DriveSpec(**{**_VALID[DriveSpec], name: bad})
    assert info.value.field == name


# key -> (RunConfig builder, field) for each key that takes its default from
# the dataclass field it builds.
FIELD_DEFAULTS = {
    "duty": ("drive_spec", "duty"),
    "rc_cutoff_mhz": ("drive_spec", "rc_cutoff_mhz"),
    "cycles": ("drive_spec", "cycles"),
    "samples_per_cycle": ("drive_spec", "samples_per_cycle"),
    "amplitude": ("cqed_params", "amplitude"),
    "background": ("cqed_params", "background"),
    "lambda0_nm": ("optical_frame", "reference_wavelength_nm"),
}


@pytest.mark.parametrize("key", sorted(FIELD_DEFAULTS))
def test_config_default_builds_its_dataclass_default(key):
    # With no config file, the builder makes the field at the dataclass
    # default, of the same type: the key reaches that field, unscaled.
    builder, name = FIELD_DEFAULTS[key]
    built = getattr(parse_config(), builder)()
    default = {f.name: f.default for f in fields(type(built))}[name]
    assert type(getattr(built, name)) is type(default)
    assert getattr(built, name) == default
