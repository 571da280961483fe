"""Domains: declared once, tested finite first, then against the bound.

check_value is the one scalar test; the validated types declare their
fields' domains with domain(), and the config keys no type checks declare
theirs in config._KEYS, checked as each line is read.  check_array is the
one array test: the array types declare domain("array", rules), walked
BLOCK_SAMPLES values at a time.
"""

import math
import operator
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdswitch import (
    ConfigError,
    CqedParams,
    DomainError,
    DriveSpec,
    ElectrostaticParams,
    OpticalFrame,
    ShiftDataset,
    Spectrum,
    StarkCoefficients,
    TimeTrace,
)
from qdswitch.config import _KEYS, parse_config
from qdswitch.errors import BLOCK_SAMPLES, check_array, check_value
from qdswitch.switching import EnergyBudget

VALID = {
    ElectrostaticParams: dict(donor_density_cm3=9e15, barrier_potential_v=0.36,
                              relative_permittivity=12.9, electrode_distance_um=0.75),
    StarkCoefficients: dict(dipole_mev_um_per_v=-0.009,
                            polarizability_mev_um2_per_v2=-0.015),
    DriveSpec: dict(v_low=0.0, v_high=10.0, frequency_mhz=150.0, duty=0.5,
                    rc_cutoff_mhz=100.0, cycles=9, samples_per_cycle=256),
    CqedParams: dict(cavity_freq=0.0, dot_freq=0.0, coupling=125.0, cavity_decay=250.0,
                     dot_decay=0.6, amplitude=1.0, background=0.0),
    OpticalFrame: dict(reference_wavelength_nm=935.0, quality_factor=4000.0),
    EnergyBudget: dict(active_volume_um3=0.2, field_v_per_um=5.0, relative_permittivity=12.9),
    # Every array field takes valid_array(n) for any n its rules allow.
    Spectrum: dict(detunings=None, intensities=None),
    TimeTrace: dict(times=None, values=None),
    ShiftDataset: dict(voltages=None, shifts_mev=None),
}

DECLARED = [(cls, f.name, *f.metadata["domain"]) for cls in VALID for f in fields(cls)
            if "domain" in f.metadata]
SCALARS = [spec for spec in DECLARED if spec[2] != "array"]
ARRAYS = [spec for spec in DECLARED if spec[2] == "array"]


def test_every_field_of_the_validated_types_declares_its_domain():
    assert {(cls, name) for cls, name, *_ in DECLARED} \
        == {(cls, f.name) for cls in VALID for f in fields(cls)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name, kind, bound, label", SCALARS)
def test_non_finite_field_is_rejected_naming_it(cls, name, kind, bound, label, bad):
    cls(**VALID[cls])
    rule = "an integer" if kind == "int[]" else "finite"
    with pytest.raises(DomainError, match=f"^{label or name} must be {rule}") as info:
        cls(**{**VALID[cls], name: bad})
    assert info.value.field == name


def test_optional_quality_factor_accepts_none():
    assert OpticalFrame(935.0, None).quality_factor is None


# One bad value per config key whose range config declares: the keys that no
# domain type checks, and the CqedParams keys, whose library domains are wider.
CONFIG_ONLY = {
    "bias_v": "-1", "fit_field_limit_v_per_um": "0", "screening": "1.5",
    "v_start": "-1", "v_stop": "1e6", "v_step": "0", "detuning_points": "1",
    "probe_detuning_ghz": "1e308", "detuning_start_ghz": "-1e308",
    "detuning_stop_ghz": "1e308", "cavity_offset_ghz": "-2e6", "dot_offset_ghz": "2e6",
    "g_ghz": "1e150", "gamma_ghz": "1e-300", "amplitude": "1e300", "background": "-1",
}


def test_config_only_keys_are_the_keys_that_declare_a_domain():
    assert {key for key, spec in _KEYS.items() if len(spec) == 3} == set(CONFIG_ONLY)


@pytest.mark.parametrize("key, text", sorted(CONFIG_ONLY.items()))
def test_config_only_key_names_its_file_and_line(tmp_path, key, text):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}:1: {key} must be ")
    assert message.endswith(f", got {_KEYS[key][0](text)} (config key {key})")


def test_config_only_message_in_full(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# rails\nbias_v = -1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: bias_v must be in \[0, 100000\], "
                                          r"got -1.0 \(config key bias_v\)$"):
        parse_config(path)


# -- check_value over every kind ----------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_BOUND = st.floats(-1e6, 1e6)
_INTERVAL = st.tuples(_BOUND, _BOUND).filter(lambda b: b[0] < b[1])


# The reference for values already known to be finite.
INSIDE = {
    "finite": lambda v, b: True,
    ">": operator.gt,
    ">=": operator.ge,
    "()": lambda v, b: b[0] < v < b[1],
    "[]": lambda v, b: b[0] <= v <= b[1],
}

FLOAT_DOMAINS = st.one_of(
    st.tuples(st.just("finite"), st.none()),
    st.tuples(st.sampled_from([">", ">="]), _BOUND),
    st.tuples(st.sampled_from(["()", "[]"]), _INTERVAL),
)


@given(FLOAT_DOMAINS, _FINITE)
def test_check_value_accepts_inside_and_rejects_outside_with_field(domain, value):
    kind, bound = domain
    if INSIDE[kind](value, bound):
        assert check_value("x", value, kind, bound, field="f") == value
    else:
        with pytest.raises(DomainError,
                           match=f"^x must be .*, got {re.escape(str(value))}$") as info:
            check_value("x", value, kind, bound, field="f")
        assert info.value.field == "f"
        assert "finite" not in str(info.value)


@given(FLOAT_DOMAINS, _NON_FINITE)
def test_check_value_reports_a_non_finite_value_before_the_bound(domain, value):
    kind, bound = domain
    with pytest.raises(DomainError, match=f"^x must be finite, got {value}$") as info:
        check_value("x", value, kind, bound, field="f")
    assert info.value.field == "f"


@given(st.tuples(st.integers(-10, 10), st.integers(-10, 10)).filter(lambda b: b[0] <= b[1]),
       st.one_of(st.integers(-100, 100), _FINITE, _NON_FINITE))
def test_check_value_integer_kind(bound, value):
    if math.isfinite(value) and value % 1 == 0 and bound[0] <= value <= bound[1]:
        assert check_value("n", value, "int[]", bound, field="f") == value
    else:
        with pytest.raises(DomainError,
                           match=rf"^n must be an integer in \[{bound[0]}, {bound[1]}\], "
                                 f"got {re.escape(str(value))}$") as info:
            check_value("n", value, "int[]", bound, field="f")
        assert info.value.field == "f"


# -- check_array over every declared array rule ---------------------------------------


def valid_array(n):
    """n values that meet every declared array rule: increasing, uniform,
    distinct, finite and >= 1, with steps exact in binary."""
    return 1.0 + 0.5 * np.arange(n)


def build(cls, planted_name, planted):
    """cls with planted as one array field and valid arrays of its size as the others."""
    return cls(**{name: planted if name == planted_name else valid_array(planted.size)
                  for name in VALID[cls]})


def test_every_array_type_accepts_valid_arrays_as_float64():
    for cls in {spec[0] for spec in ARRAYS}:
        obj = build(cls, None, valid_array(2 * BLOCK_SAMPLES + 3))
        for name in VALID[cls]:
            assert getattr(obj, name).dtype == np.float64


ARRAY_RULES = [(cls, name, label or name, rules[:k], rule) for cls, name, _, rules, label in ARRAYS
               for k, rule in enumerate(rules) if not isinstance(rule, int)]
STEP_RULES = {"increasing", "uniform", "distinct"}
RULE_TEXT = {"increasing": "be strictly increasing", "uniform": "be uniformly sampled",
             "distinct": "be distinct", "finite": "be finite", ">=": "be >= {:g}"}

# Indices at and around the first block edges, or anywhere past the first value.
EDGE = st.sampled_from([k * BLOCK_SAMPLES + d for k in range(4) for d in (-1, 0, 1, 2)
                        if k * BLOCK_SAMPLES + d >= 1])
INDEX = st.one_of(EDGE, st.integers(1, 3 * BLOCK_SAMPLES + 2))


@settings(max_examples=60, deadline=None)
@given(index=INDEX, tail=st.one_of(st.just(0), st.integers(0, 2 * BLOCK_SAMPLES)),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
@pytest.mark.parametrize("cls, name, label, before, rule",
                         ARRAY_RULES, ids=lambda p: getattr(p, "__name__", str(p)))
def test_array_rule_names_the_planted_value_at_any_block_edge(cls, name, label, before, rule,
                                                              index, tail, bad):
    values = valid_array(index + 1 + tail)
    if rule in ("increasing", "distinct"):
        values[index] = values[index - 1]
    elif rule == "uniform":
        assume(index >= 2)  # the first step is the spacing the others must keep
        values[index] += 0.25
    elif rule[0] == "finite":
        if STEP_RULES & set(before):
            # Inside an increasing axis only a last +inf breaks no step.
            values, bad = values[:index + 1], math.inf
        values[index] = bad
    else:
        values[index] = rule[1] - 1.0
    text = RULE_TEXT[rule] if rule in RULE_TEXT else RULE_TEXT[rule[0]].format(*rule[1:])
    message = f"^{re.escape(f'{label} must {text}, got {values[index]}')}$"
    with pytest.raises(DomainError, match=message) as info:
        build(cls, name, values)
    assert info.value.field == name
    with pytest.raises(DomainError, match=message) as info:
        check_array(label, values, (rule,), field="f")
    assert info.value.field == "f"


INT_RULES = [(cls, name, label or name, rule) for cls, name, _, rules, label in ARRAYS
             for rule in rules if isinstance(rule, int)]


@pytest.mark.parametrize("cls, name, label, least", INT_RULES)
@pytest.mark.parametrize("shape", ["short", "2-D", "0-D"])
def test_array_size_rule_names_the_shape(cls, name, label, least, shape):
    values = {"short": valid_array(least - 1), "2-D": valid_array(2 * least).reshape(2, -1),
              "0-D": np.float64(1.0)}[shape]
    with pytest.raises(DomainError) as info:
        cls(**{field: values for field in VALID[cls]})
    assert str(info.value) == \
        f"{label} must be 1-D with >= {least} values, got shape {values.shape}"
    assert info.value.field == name


@pytest.mark.parametrize("cls", sorted({spec[0] for spec in ARRAYS}, key=lambda c: c.__name__))
def test_later_array_field_must_have_the_first_ones_shape(cls):
    first, later = VALID[cls]
    with pytest.raises(DomainError) as info:
        cls(**{first: valid_array(5), later: valid_array(4)})
    assert str(info.value) == f"{later} must have shape (5,) like {first}, got shape (4,)"
    assert info.value.field == later


def test_check_array_keeps_the_bits_and_reports_a_scalar_like_check_value():
    values = np.array([0.1, 1.0 / 3.0, 1e-300])
    assert check_array("x", values, (2, (">=", 0.0))) is values
    with pytest.raises(DomainError, match=r"^v must be >= 0, got -0\.1$") as info:
        check_array("v", -0.1, ((">=", 0.0),))
    assert info.value.field is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rule", [("finite",), (">", 0.0), (">=", 0.0), ("[]", (0.0, 1.0)),
                                  ("()", (0.0, 1.0)), "increasing", "uniform", "distinct"],
                         ids=str)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_rule_on_non_finite_or_huge_values_raises_no_warning(rule, bad):
    # Only the uniform rule subtracts, and its overflow is caught where it happens.
    values = np.array([-sys.float_info.max, sys.float_info.max, bad, bad, -sys.float_info.max])
    with pytest.raises(DomainError):
        check_array("x", values, (rule,))
