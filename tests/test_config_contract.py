"""Every rejected config value names its own key; every accepted one runs.

Single-key overrides on top of the paper preset: a non-finite number for
every float key, and an out-of-range or malformed value for every key
that has a range, must raise ConfigError ending "(config key <key>)"; on
the command line that is exit 1 with no CSV.  Relational violations that
name the other key of their pair (v_low_v above v_high_v,
detuning_start_ghz above detuning_stop_ghz) are left out.  Each numeric
key has one physical range, and a run with the key at either end of it
exits 0 with finite cells or exits 1 naming a key.
"""

import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswitch import (
    AdiabaticityWarning,
    ConfigError,
    CqedParams,
    DomainError,
    DriveSpec,
    ElectrostaticParams,
    OpticalFrame,
    StarkCoefficients,
)
from qdswitch.cli import _preset_path, main
from qdswitch.config import (
    _FIELDS,
    _KEYS,
    _RATE_GHZ,
    _entries,
    _parse_float,
    _parse_float_list,
    _parse_int,
    parse_config,
)
from qdswitch.cqed import COUPLING_MAX
from qdswitch.csvio import COLUMN_RANGES

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


def _declared_ranges() -> dict[str, tuple]:
    """key -> (kind, (low, high)) of every numeric key that has a range: its own,
    else that of the library field it builds; kappa_ghz's holds when it is not 0."""
    ranges = {"kappa_ghz": ("[]", _RATE_GHZ)}
    for cls in _FIELDS:
        domains = {f.name: f.metadata["domain"][:2] for f in fields(cls)}
        for name, key, _, *own in _entries(cls):
            ranges[key] = own[0] if own else domains[name]
    ranges.update((key, spec[2]) for key, spec in _KEYS.items() if len(spec) == 3)
    return ranges


RANGES = _declared_ranges()
UNRANGED = {"field_sign", "seed", "g_anchor_v", "g_anchor_ghz", "contrast_targets", "fit_free"}


def _ends(key):
    """The two ends of key's range, each the nearest value inside an open end."""
    kind, (low, high) = RANGES[key]
    if kind == "()":
        return math.nextafter(low, math.inf), math.nextafter(high, -math.inf)
    return low, high


def _outside(key):
    """Finite numbers below and above key's range (kappa_ghz's 0 aside)."""
    kind, (low, high) = RANGES[key]
    if kind == "int[]":
        return st.integers(max_value=low - 1) | st.integers(min_value=high + 1)
    below = st.floats(max_value=low, exclude_max=kind == "[]", allow_infinity=False)
    above = st.floats(min_value=high, exclude_min=kind == "[]", allow_infinity=False)
    return (below | above).filter(lambda x: key != "kappa_ghz" or x != 0.0)


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
    ranged = {key for key, _ in OUT_OF_RANGE} | set(RANGES)
    assert ranged | set(FLOAT_KEYS) == set(_KEYS)
    assert set(RANGES) | UNRANGED == set(_KEYS)


def test_every_range_is_closed_and_physical():
    # Both ends are finite, and no end nears where a float overflows: the
    # widest is the 1e30 spectrum scale.
    for key, (kind, (low, high)) in RANGES.items():
        assert kind in ("[]", "()", "int[]"), key
        assert -1e30 <= low < high <= 1e30, key


def test_readme_config_table_lists_every_key_with_its_default_and_range():
    # Each row names its keys, their defaults and their ranges in backticks,
    # in order; "unset" is an empty list, and "in the preset" gives the
    # preset's value of a key that has none by default.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | range | meaning |\n| --- | --- | --- | --- |\n")[1]
    preset = parse_config(_preset_path("paper"))
    documented, ranges = {}, {}
    for line in table[:table.index("\n\n")].splitlines():
        keys, defaults, limits, _ = line.strip("|").split(" | ", 3)
        keys, texts = re.findall("`([^`]+)`", keys), re.findall("`([^`]+)`", defaults)
        for key, text in zip(keys, texts or [""] * len(keys)):
            value = _KEYS[key][0](text)
            if defaults.endswith("in the preset"):
                assert preset[key] == value
                value = ()
            documented[key] = value
        for key, text in zip(keys, re.findall(r"`([\[(][^`]+[\])])`", limits)):
            kind = "()" if text[0] == "(" else "int[]" if _KEYS[key][0] is _parse_int else "[]"
            ranges[key] = (kind, tuple(float(end) for end in text[1:-1].split(",")))
    assert documented == {key: spec[1] for key, spec in _KEYS.items()}
    assert {key: ranges[key] for key in RANGES} == RANGES


def test_every_data_range_is_closed_and_physical():
    for column, (low, high) in COLUMN_RANGES.items():
        assert -1e30 <= low < high <= 1e30, column


def test_readme_data_table_lists_every_column_with_its_range():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| column | range | quantity |\n| --- | --- | --- |\n")[1]
    ranges = {}
    for line in table[:table.index("\n\n")].splitlines():
        column, limits, _ = line.strip("|").split(" | ", 2)
        # Each range is closed: square brackets at both ends.
        low, high = re.fullmatch(r"`\[([^,]+), ([^\]]+)\]`", limits).groups()
        ranges[column.strip(" `")] = (float(low), float(high))
    assert ranges == COLUMN_RANGES


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RANGES)).flatmap(
    lambda key: st.tuples(st.just(key), _outside(key))))
def test_config_out_of_range_numbers_name_their_key(tmp_path_factory, case):
    key, value = case
    _assert_names_key(tmp_path_factory.mktemp("cfg"), key, repr(value))


# (key, value) outside the key's physical range, below it or far past it (the
# largest would overflow a product downstream), through metrics: a library
# type's field, a CqedParams key's own range, a key no library type checks,
# and each other path of the key-to-field table (OpticalFrame, an integer
# key, a x 2 pi CqedParams key).
BAD_KEYS = [
    ("nd_cm3", "-1"), ("g_ghz", "1e308"), ("bias_v", "-1"), ("probe_detuning_ghz", "1e308"),
    ("rc_cutoff_mhz", "1e308"), ("drive_mhz", "1e-310"), ("g_ghz", "1e200"),
    ("g_anchor_ghz", "20, 1e200"), ("lambda0_nm", "0"), ("cycles", "2"), ("gamma_ghz", "0"),
    ("v_step", "1e-310"), ("detuning_stop_ghz", "1e308"),
]

# (command, key, value) far past a physical range: each used to fail later in
# that command, on a non-finite product, or blame another key.
FAR_CONFIGS = [
    ("switch", "probe_detuning_ghz", "1e307"),
    ("switch", "g_ghz", "1e150"),
    ("switch", "kappa_ghz", "1e-300"),
    ("switch", "phi_v", "1e300"),
    ("switch", "dipole_mev_um_per_v", "1e300"),
    ("stark", "nd_cm3", "1e-300"),
]


@pytest.mark.parametrize("command, key, text", [
    ("stark", "v_step", "0"),
    ("spectrum", "detuning_points", "1"),
    ("spectrum", "g_anchor_v", "5, 3"),
    ("switch", "duty", "1"),
    ("switch", "g_ghz", "nan"),
    ("switch", "contrast_targets", "10:1.5"),
    ("fit --kind contrast", "screening", "1.5"),
    ("fit --kind spectrum --data spectrum.csv", "fit_free", "bogus"),
    ("fit --kind spectrum --data spectrum.csv", "fit_free", ","),
] + [("metrics", key, text) for key, text in BAD_KEYS] + FAR_CONFIGS)
def test_cli_config_rejection_exits_1_naming_its_key(tmp_path, capsys, command, key, text):
    out = tmp_path / "o"
    out.mkdir()
    (out / "kept.csv").write_text("x\n1\n", encoding="utf-8")
    code = main([*command.split(), "--preset", "paper", "--config",
                 str(_override(tmp_path, key, text)), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert [p.name for p in out.iterdir()] == ["kept.csv"]
    assert (out / "kept.csv").read_text(encoding="utf-8") == "x\n1\n"


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
    ElectrostaticParams: {"donor_density_cm3": [0.0, -1.0, math.nan, 1e-300, 2e22],
                          "barrier_potential_v": [0.0, math.nan, 1e300],
                          "relative_permittivity": [0.5, math.nan, 2e5],
                          "electrode_distance_um": [0.0, math.nan, 2e3]},
    StarkCoefficients: {"dipole_mev_um_per_v": [math.nan, math.inf, 1e300, -2e3],
                        "polarizability_mev_um2_per_v2": [math.nan, -math.inf, 2e3]},
    DriveSpec: {"v_low": [-1.0, math.nan, math.inf, 2e5], "v_high": [-1.0, math.nan, 2e5],
                "frequency_mhz": [0.0, math.nan, 1e-310, 2e6],
                "duty": [0.0, 1.0, math.nan],
                "rc_cutoff_mhz": [0.0, math.inf, 1e-310, 1e308],
                # 3907 x 256 samples is the first trace past the 10**6-sample cap.
                "cycles": [2, 3.5, 10 ** 6 + 1, 10 ** 308, 3907],
                "samples_per_cycle": [63, 64.5, 10 ** 6 + 1]},
    # The mode offsets are unconstrained.
    CqedParams: {"coupling": [-1.0, math.nextafter(COUPLING_MAX, math.inf)],
                 "cavity_decay": [0.0, math.nan],
                 "dot_decay": [0.0, math.nan], "amplitude": [0.0, math.nan],
                 "background": [-1.0]},
    OpticalFrame: {"reference_wavelength_nm": [0.0, math.nan, 2e7],
                   "quality_factor": [0.0, math.nan, 1e300]},
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
    # CqedParams keeps the wide domain every fit trial point is built through;
    # its largest coupling still squares to a finite float.
    cqed = CqedParams(**{**_VALID[CqedParams], "coupling": COUPLING_MAX})
    assert math.isfinite(cqed.coupling ** 2)
    assert DriveSpec(**{**_VALID[DriveSpec], "cycles": 3906}).cycles == 3906


# Finite values far past their range, among them angular forms (x 2 pi) that
# overflow, couplings whose square overflows, and drive values whose time
# constant or trace span overflows.
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


# -- every range end runs ---------------------------------------------------------

# A coupling table at both ends of its voltage and coupling ranges.
ANCHOR_ENDS = "g_anchor_v = 0, 100000\ng_anchor_ghz = 1000000, 0\n"


def _range_end_cases():
    for key in sorted(RANGES):
        for end, value in zip(("low", "high"), _ends(key)):
            for command in ("stark", "spectrum", "metrics", "switch"):
                yield pytest.param(command, f"{key} = {value!r}\n",
                                   id=f"{key}-{end}-{command}")
    for command in ("spectrum", "switch"):
        yield pytest.param(command, ANCHOR_ENDS, id=f"g_anchor-ends-{command}")


@pytest.mark.parametrize("command, line", _range_end_cases())
def test_each_range_end_runs_or_names_a_key(tmp_path, capsys, command, line):
    # The contrast calibration is left out: its solver may stop without
    # converging, which is not a range's doing.  A drive near the cavity
    # linewidth warns that quasi-static intensities are unreliable; any other
    # warning fails the run.
    path = tmp_path / "end.cfg"
    path.write_text("contrast_targets =\n" + line, encoding="utf-8")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", AdiabaticityWarning)
        code = main([command, "--preset", "paper", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 1:
        key = re.search(r"\(config key (\w+)\)$", json.loads(err)["message"]).group(1)
        assert key in _KEYS
        return
    assert (code, err) == (0, "")
    # Cells are written as repr, which spells a non-finite float nan, inf or -inf.
    for csv in out.glob("*.csv"):
        text = csv.read_text(encoding="utf-8")
        assert not re.search(r"(^|,)-?(nan|inf)(,|$)", text, re.M), csv.name


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
